//! Sparse answer matrix `M` (paper §3.1).
//!
//! Each cell `M(o, w)` holds the label worker `w` gave to object `o`, or is
//! empty (the paper's `⊥`) when the worker skipped the object. Because workers
//! only answer a limited number of questions the matrix is sparse (§5.4), so
//! we keep two adjacency views — per object and per worker — instead of a
//! dense `n × k` grid.
//!
//! ## Storage: flat rows
//!
//! Each adjacency view is one flat slab of `(id, label)` pairs plus a
//! `(start, len, cap)` row table, so every row is one contiguous slice —
//! the layout the EM inner loops stream on every iteration. Votes are
//! written in place: an append goes to the end of its row (a full row
//! relocates to the slab tail with 1.5x slack), an overwrite changes the
//! label in place, and a removal swap-removes with the row's last pair. A
//! slab holding more than about twice its live pairs is repacked in row
//! order. Appending a vote is `O(row length)` worst case (the overwrite
//! check scans the row) and `O(1)` amortized for fresh `(o, w)` pairs.
//!
//! Row entries are kept in **insertion order** (streaming arrival order), not
//! sorted by id; every accessor returns a deterministic iterator over that
//! order.
//!
//! ## Worker tombstones
//!
//! Excluding a suspected faulty worker (§5.3) no longer copies the matrix
//! minus that worker's answers. Instead the matrix carries a per-worker
//! *tombstone mask* consulted by iteration: [`AnswerMatrix::set_worker_excluded`]
//! flips a bit, and [`AnswerMatrix::answers_for_object`],
//! [`AnswerMatrix::answers_for_worker`], [`AnswerMatrix::iter`],
//! [`AnswerMatrix::answer`] and the answer counts all behave as if the
//! excluded workers' votes were gone. Exclusion and re-inclusion are `O(1)`
//! plus a row-length count update — no `O(answers)` copy per excluded worker.
//! Readers that judge tombstoned workers too (the §5.3 detector, the trust
//! ledger) read unmasked rows through the `recorded_answers_for_*` pair.

use crate::csr::Adjacency;
use crate::error::ModelError;
use crate::ids::{LabelId, ObjectId, WorkerId};
use serde::{Deserialize, Serialize, Value};

/// Iterator over the `(worker, label)` votes of one object, in arrival
/// order, with tombstoned workers filtered out.
#[derive(Debug, Clone)]
pub struct ObjectVotes<'a> {
    pairs: std::slice::Iter<'a, (u32, u32)>,
    excluded: &'a [bool],
}

impl Iterator for ObjectVotes<'_> {
    type Item = (WorkerId, LabelId);

    #[inline]
    fn next(&mut self) -> Option<(WorkerId, LabelId)> {
        for &(id, label) in self.pairs.by_ref() {
            if !self.excluded[id as usize] {
                return Some((WorkerId(id as usize), LabelId(label as usize)));
            }
        }
        None
    }
}

/// Iterator over the `(object, label)` votes of one worker, in arrival
/// order. Empty when the worker is tombstoned.
#[derive(Debug, Clone)]
pub struct WorkerVotes<'a> {
    pairs: std::slice::Iter<'a, (u32, u32)>,
}

impl Iterator for WorkerVotes<'_> {
    type Item = (ObjectId, LabelId);

    #[inline]
    fn next(&mut self) -> Option<(ObjectId, LabelId)> {
        self.pairs
            .next()
            .map(|&(id, label)| (ObjectId(id as usize), LabelId(label as usize)))
    }
}

/// Per-object vote tally over the visible (non-tombstoned) answers — the
/// raw material of the triage features (vote count and vote margin). A pure
/// function of the vote multiset: reordering worker arrivals cannot change
/// any field. See [`AnswerMatrix::tally_object`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteTally {
    /// Votes per label, indexed by label id.
    pub histogram: Vec<u32>,
    /// Total visible votes on the object.
    pub count: u32,
    /// Votes on the modal label.
    pub top: u32,
    /// Votes on the runner-up label.
    pub second: u32,
    /// The modal label; ties resolve to the lowest label id (deterministic).
    pub modal: LabelId,
}

impl VoteTally {
    /// Margin between the modal and runner-up labels as a fraction of the
    /// total votes, in `[0, 1]`; 0 for unvoted objects.
    pub fn margin(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            f64::from(self.top - self.second) / f64::from(self.count)
        }
    }
}

/// Which votes a reader sees: `Visible` hides tombstoned workers (the
/// aggregation view), `Recorded` shows every recorded vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    Visible,
    Recorded,
}

/// Heap-memory breakdown of an [`AnswerMatrix`] — see
/// [`AnswerMatrix::memory_footprint`]. All figures are capacities (bytes the
/// allocator actually holds), not lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixMemoryFootprint {
    /// Both views' pair slabs and row tables.
    pub view_bytes: usize,
    /// The worker tombstone mask.
    pub mask_bytes: usize,
}

impl MatrixMemoryFootprint {
    /// Total heap bytes across all components.
    pub fn total_bytes(&self) -> usize {
        self.view_bytes + self.mask_bytes
    }
}

/// Sparse `objects × workers` matrix of label answers, stored as two flat
/// row views (per object and per worker), with a per-worker tombstone mask
/// for cheap exclusion (see the module docs). Every row is one contiguous
/// slice: [`AnswerMatrix::object_row_slice`] and
/// [`AnswerMatrix::worker_row_slice`] hand it to the EM kernels as is, and
/// the iterator accessors stream the same pairs in the same order.
#[derive(Debug, Clone)]
pub struct AnswerMatrix {
    /// For every object: its `(worker, label)` pairs in arrival order.
    by_object: Adjacency,
    /// For every worker: its `(object, label)` pairs in arrival order.
    by_worker: Adjacency,
    /// Tombstone mask: `true` marks a worker whose answers are hidden.
    excluded: Vec<bool>,
    /// All recorded answers, tombstoned ones included.
    recorded_answers: usize,
    /// Answers hidden behind the tombstone mask.
    hidden_answers: usize,
}

impl AnswerMatrix {
    /// Creates an empty matrix for `num_objects` objects and `num_workers`
    /// workers.
    pub fn new(num_objects: usize, num_workers: usize) -> Self {
        Self {
            by_object: Adjacency::with_rows(num_objects),
            by_worker: Adjacency::with_rows(num_workers),
            excluded: vec![false; num_workers],
            recorded_answers: 0,
            hidden_answers: 0,
        }
    }

    /// Number of objects (rows).
    pub fn num_objects(&self) -> usize {
        self.by_object.num_rows()
    }

    /// Number of workers (columns).
    pub fn num_workers(&self) -> usize {
        self.by_worker.num_rows()
    }

    /// Number of visible (non-tombstoned) answers.
    pub fn num_answers(&self) -> usize {
        self.recorded_answers - self.hidden_answers
    }

    /// Number of recorded answers including those of tombstoned workers.
    pub fn num_recorded_answers(&self) -> usize {
        self.recorded_answers
    }

    /// Fraction of filled cells, in `[0, 1]`. An empty matrix has density 0.
    pub fn density(&self) -> f64 {
        let cells = self.num_objects() * self.num_workers();
        if cells == 0 {
            0.0
        } else {
            self.num_answers() as f64 / cells as f64
        }
    }

    /// Grows the id spaces so the matrix covers at least `num_objects`
    /// objects and `num_workers` workers. Existing answers are untouched;
    /// shrinking is not supported (smaller values are no-ops).
    pub fn ensure_shape(&mut self, num_objects: usize, num_workers: usize) {
        self.by_object.ensure_rows(num_objects);
        self.by_worker.ensure_rows(num_workers);
        if num_workers > self.excluded.len() {
            self.excluded.resize(num_workers, false);
        }
    }

    /// Records (or overwrites) worker `w`'s answer for object `o`.
    pub fn set_answer(
        &mut self,
        object: ObjectId,
        worker: WorkerId,
        label: LabelId,
    ) -> Result<(), ModelError> {
        if object.index() >= self.num_objects() {
            return Err(ModelError::ObjectOutOfRange {
                object: object.index(),
                num_objects: self.num_objects(),
            });
        }
        if worker.index() >= self.num_workers() {
            return Err(ModelError::WorkerOutOfRange {
                worker: worker.index(),
                num_workers: self.num_workers(),
            });
        }
        let inserted =
            self.by_object
                .set(object.index(), worker.index() as u32, label.index() as u32);
        if inserted {
            self.by_worker
                .push(worker.index(), object.index() as u32, label.index() as u32);
            self.recorded_answers += 1;
            if self.excluded[worker.index()] {
                self.hidden_answers += 1;
            }
        } else {
            self.by_worker
                .set(worker.index(), object.index() as u32, label.index() as u32);
        }
        Ok(())
    }

    /// Removes worker `w`'s answer for object `o`, returning the label if an
    /// answer was present (tombstoned or not).
    pub fn remove_answer(&mut self, object: ObjectId, worker: WorkerId) -> Option<LabelId> {
        let label = self
            .by_object
            .remove(object.index(), worker.index() as u32)?;
        self.by_worker.remove(worker.index(), object.index() as u32);
        self.recorded_answers -= 1;
        if self.excluded[worker.index()] {
            self.hidden_answers -= 1;
        }
        Some(LabelId(label as usize))
    }

    /// The label worker `w` gave to object `o`, or `None` (the paper's `⊥`,
    /// also reported for tombstoned workers).
    pub fn answer(&self, object: ObjectId, worker: WorkerId) -> Option<LabelId> {
        if self.excluded.get(worker.index()).copied().unwrap_or(false) {
            return None;
        }
        self.by_object
            .get(object.index(), worker.index() as u32)
            .map(|l| LabelId(l as usize))
    }

    /// Tallies the visible votes of one object into a [`VoteTally`]: the
    /// per-label histogram, the total count and the top-two label counts.
    /// The tally is a pure function of the vote *multiset* — arrival order
    /// cannot influence it, which is what makes it a safe triage feature
    /// (see `crowdval-triage`). Out-of-range objects tally as empty.
    pub fn tally_object(&self, object: ObjectId, num_labels: usize) -> VoteTally {
        let mut histogram = vec![0u32; num_labels];
        if object.index() < self.num_objects() {
            for (_, label) in self.answers_for_object(object) {
                histogram[label.index()] += 1;
            }
        }
        let count: u32 = histogram.iter().sum();
        let mut top = 0u32;
        let mut second = 0u32;
        let mut modal = LabelId(0);
        for (l, &c) in histogram.iter().enumerate() {
            if c > top {
                second = top;
                top = c;
                modal = LabelId(l);
            } else if c > second {
                second = c;
            }
        }
        VoteTally {
            histogram,
            count,
            top,
            second,
            modal,
        }
    }

    /// All `(worker, label)` answers recorded for an object, in arrival
    /// order, skipping tombstoned workers.
    pub fn answers_for_object(&self, object: ObjectId) -> ObjectVotes<'_> {
        ObjectVotes {
            pairs: self.object_row_slice(object).iter(),
            excluded: &self.excluded,
        }
    }

    /// All `(object, label)` answers recorded by a worker, in arrival order.
    /// Empty when the worker is tombstoned.
    pub fn answers_for_worker(&self, worker: WorkerId) -> WorkerVotes<'_> {
        WorkerVotes {
            pairs: self.worker_row_slice(worker).iter(),
        }
    }

    /// Every `(worker, label)` answer recorded for an object, tombstoned or not.
    pub fn recorded_answers_for_object(
        &self,
        object: ObjectId,
    ) -> impl Iterator<Item = (WorkerId, LabelId)> + Clone + '_ {
        self.object_row_slice(object)
            .iter()
            .map(|&(id, label)| (WorkerId(id as usize), LabelId(label as usize)))
    }

    /// Every `(object, label)` answer recorded by a worker, tombstoned or not.
    pub fn recorded_answers_for_worker(&self, worker: WorkerId) -> WorkerVotes<'_> {
        WorkerVotes {
            pairs: self.by_worker.row(worker.index()).iter(),
        }
    }

    /// The object's raw `(worker, label)` row as a flat slice, in arrival
    /// order; empty for out-of-range objects. The slice *includes*
    /// tombstoned workers' pairs; filter with [`Self::excluded_mask`] to
    /// match [`Self::answers_for_object`].
    #[inline]
    pub fn object_row_slice(&self, object: ObjectId) -> &[(u32, u32)] {
        self.by_object.row(object.index())
    }

    /// The worker's raw `(object, label)` row as a flat slice, in arrival
    /// order. Empty for tombstoned and out-of-range workers, matching
    /// [`Self::answers_for_worker`].
    #[inline]
    pub fn worker_row_slice(&self, worker: WorkerId) -> &[(u32, u32)] {
        if self.is_worker_excluded(worker) {
            return &[];
        }
        self.by_worker.row(worker.index())
    }

    /// The worker tombstone mask, indexed by worker id.
    #[inline]
    pub fn excluded_mask(&self) -> &[bool] {
        &self.excluded
    }

    /// Reserves slab capacity for roughly `additional` more answers. A
    /// batch-size hint, not a guarantee: row relocation can still allocate
    /// past it, but typical batch ingestion stops paying incremental `Vec`
    /// growth mid-loop.
    pub fn reserve_answers(&mut self, additional: usize) {
        self.by_object.reserve_pairs(additional);
        self.by_worker.reserve_pairs(additional);
    }

    /// Measured heap footprint of the matrix: both views and the tombstone
    /// mask, by allocator capacity.
    pub fn memory_footprint(&self) -> MatrixMemoryFootprint {
        MatrixMemoryFootprint {
            view_bytes: self.by_object.heap_bytes() + self.by_worker.heap_bytes(),
            mask_bytes: self.excluded.capacity() * std::mem::size_of::<bool>(),
        }
    }

    /// Number of visible answers given for an object.
    pub fn object_answer_count(&self, object: ObjectId) -> usize {
        if self.hidden_answers == 0 {
            self.by_object.row_len(object.index())
        } else {
            self.answers_for_object(object).count()
        }
    }

    /// Number of visible answers given by a worker (0 when tombstoned).
    pub fn worker_answer_count(&self, worker: WorkerId) -> usize {
        if self.excluded.get(worker.index()).copied().unwrap_or(false) {
            0
        } else {
            self.by_worker.row_len(worker.index())
        }
    }

    /// Iterator over all visible `(object, worker, label)` triples in object
    /// order (arrival order within an object).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, WorkerId, LabelId)> + '_ {
        (0..self.num_objects()).flat_map(move |o| {
            self.answers_for_object(ObjectId(o))
                .map(move |(w, l)| (ObjectId(o), w, l))
        })
    }

    /// Largest label index used anywhere in the matrix (tombstoned answers
    /// included — the label range must stay valid across re-inclusion), or
    /// `None` when empty.
    pub fn max_label_index(&self) -> Option<usize> {
        (0..self.num_objects())
            .flat_map(|o| self.by_object.row(o))
            .map(|&(_, l)| l as usize)
            .max()
    }

    // -----------------------------------------------------------------------
    // Worker tombstones (§5.3 exclusion without copies)
    // -----------------------------------------------------------------------

    /// Sets or clears the tombstone of one worker. `O(1)` plus the count
    /// update; no answers are copied or moved.
    pub fn set_worker_excluded(&mut self, worker: WorkerId, excluded: bool) {
        let w = worker.index();
        if w >= self.excluded.len() || self.excluded[w] == excluded {
            return;
        }
        self.excluded[w] = excluded;
        let row = self.by_worker.row_len(w);
        if excluded {
            self.hidden_answers += row;
        } else {
            self.hidden_answers -= row;
        }
    }

    /// Whether a worker is currently tombstoned.
    pub fn is_worker_excluded(&self, worker: WorkerId) -> bool {
        self.excluded.get(worker.index()).copied().unwrap_or(false)
    }

    /// Currently tombstoned workers, in id order.
    pub fn excluded_workers(&self) -> Vec<WorkerId> {
        self.excluded
            .iter()
            .enumerate()
            .filter_map(|(w, &e)| e.then_some(WorkerId(w)))
            .collect()
    }

    /// Number of tombstoned workers.
    pub fn num_excluded_workers(&self) -> usize {
        self.excluded.iter().filter(|&&e| e).count()
    }

    /// Clears every tombstone.
    pub fn clear_exclusions(&mut self) {
        self.excluded.fill(false);
        self.hidden_answers = 0;
    }
}

impl PartialEq for AnswerMatrix {
    /// Two matrices are equal when they have the same shape, the same
    /// tombstone mask, and every object row contains the same votes in the
    /// same arrival order.
    fn eq(&self, other: &Self) -> bool {
        self.num_objects() == other.num_objects()
            && self.num_workers() == other.num_workers()
            && self.excluded == other.excluded
            && self.recorded_answers == other.recorded_answers
            && (0..self.num_objects()).all(|o| self.by_object.row(o) == other.by_object.row(o))
    }
}

impl Eq for AnswerMatrix {}

/// Renders one adjacency view as row lists of `[id, label]` pairs, in the
/// exact within-row (arrival) order.
fn adjacency_to_value(adj: &Adjacency) -> Value {
    Value::Array(
        (0..adj.num_rows())
            .map(|row| {
                Value::Array(
                    adj.row(row)
                        .iter()
                        .map(|&(id, l)| {
                            Value::Array(vec![Value::UInt(id as u64), Value::UInt(l as u64)])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Rebuilds one adjacency view from serialized row lists, preserving the
/// within-row order and rejecting out-of-range ids and duplicate ids inside
/// a row. The slab comes back tightly packed in row order.
fn adjacency_from_value(
    value: &Value,
    rows: usize,
    ids: usize,
    what: &str,
) -> Result<Adjacency, serde::Error> {
    let row_values = value
        .as_array()
        .ok_or_else(|| serde::Error::custom(format!("expected {what} row array")))?;
    if row_values.len() != rows {
        return Err(serde::Error::custom(format!(
            "{what}: expected {rows} rows, got {}",
            row_values.len()
        )));
    }
    let pairs_total = row_values
        .iter()
        .filter_map(|pairs| pairs.as_array().map(<[Value]>::len))
        .sum();
    let mut slab: Vec<(u32, u32)> = Vec::with_capacity(pairs_total);
    let mut row_lens: Vec<u32> = Vec::with_capacity(rows);
    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for (row, pairs) in row_values.iter().enumerate() {
        let pairs = pairs
            .as_array()
            .ok_or_else(|| serde::Error::custom(format!("expected {what} pair array")))?;
        seen.clear();
        for pair in pairs {
            let (id, label) = <(usize, usize)>::from_value(pair)?;
            if id >= ids {
                return Err(serde::Error::custom(format!(
                    "{what}: id {id} out of range (< {ids})"
                )));
            }
            if !seen.insert(id as u32) {
                return Err(serde::Error::custom(format!(
                    "{what}: duplicate id {id} in row {row}"
                )));
            }
            slab.push((id as u32, label as u32));
        }
        row_lens.push(pairs.len() as u32);
    }
    Ok(Adjacency::from_packed(slab, &row_lens))
}

impl Serialize for AnswerMatrix {
    /// Serializes **both** adjacency views with their exact within-row
    /// (arrival) order. A rebuild through `set_answer` from object-major
    /// triples would reconstruct the same *content* but scramble the
    /// by-worker rows into object-major order — and because the EM kernels
    /// stream per-worker votes in row order, float summation order (and so
    /// the last ULP of the estimates) would change. Snapshot/restore
    /// promises bit-identical resumption, so the layout that determines
    /// iteration order is part of the format.
    fn to_value(&self) -> Value {
        let excluded: Vec<Value> = self
            .excluded
            .iter()
            .enumerate()
            .filter_map(|(w, &e)| e.then_some(Value::UInt(w as u64)))
            .collect();
        Value::Object(vec![
            (
                "num_objects".to_string(),
                Value::UInt(self.num_objects() as u64),
            ),
            (
                "num_workers".to_string(),
                Value::UInt(self.num_workers() as u64),
            ),
            ("by_object".to_string(), adjacency_to_value(&self.by_object)),
            ("by_worker".to_string(), adjacency_to_value(&self.by_worker)),
            ("excluded".to_string(), Value::Array(excluded)),
        ])
    }
}

impl Deserialize for AnswerMatrix {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected answer-matrix object"))?;
        let num_objects = usize::from_value(serde::get_field(entries, "num_objects")?)?;
        let num_workers = usize::from_value(serde::get_field(entries, "num_workers")?)?;
        let by_object = adjacency_from_value(
            serde::get_field(entries, "by_object")?,
            num_objects,
            num_workers,
            "by_object",
        )?;
        let by_worker = adjacency_from_value(
            serde::get_field(entries, "by_worker")?,
            num_workers,
            num_objects,
            "by_worker",
        )?;
        // The two views must describe the same vote set. One hash map over
        // the object view, one linear sweep over the worker view — O(votes)
        // total; with per-row uniqueness already enforced, equal counts plus
        // worker⊆object membership make the two views a bijection.
        let mut votes: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        let mut recorded_answers = 0usize;
        for o in 0..num_objects {
            for &(w, l) in by_object.row(o) {
                votes.insert((o as u32, w), l);
                recorded_answers += 1;
            }
        }
        let mut worker_total = 0usize;
        for w in 0..num_workers {
            for &(o, l) in by_worker.row(w) {
                if votes.get(&(o, w as u32)) != Some(&l) {
                    return Err(serde::Error::custom(format!(
                        "adjacency views disagree on object {o} / worker {w}"
                    )));
                }
                worker_total += 1;
            }
        }
        if worker_total != recorded_answers {
            return Err(serde::Error::custom(format!(
                "adjacency views hold different vote counts \
                 ({recorded_answers} by object, {worker_total} by worker)"
            )));
        }
        let mut matrix = AnswerMatrix {
            by_object,
            by_worker,
            excluded: vec![false; num_workers],
            recorded_answers,
            hidden_answers: 0,
        };
        let excluded = serde::get_field(entries, "excluded")?
            .as_array()
            .ok_or_else(|| serde::Error::custom("expected excluded array"))?;
        for w in excluded {
            let w = usize::from_value(w)?;
            if w >= num_workers {
                return Err(serde::Error::custom(format!(
                    "excluded worker {w} out of range"
                )));
            }
            matrix.set_worker_excluded(WorkerId(w), true);
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> AnswerMatrix {
        let mut m = AnswerMatrix::new(3, 2);
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(1)).unwrap();
        m.set_answer(ObjectId(0), WorkerId(1), LabelId(0)).unwrap();
        m.set_answer(ObjectId(2), WorkerId(1), LabelId(1)).unwrap();
        m
    }

    #[test]
    fn set_and_get_answers() {
        let m = small();
        assert_eq!(m.answer(ObjectId(0), WorkerId(0)), Some(LabelId(1)));
        assert_eq!(m.answer(ObjectId(0), WorkerId(1)), Some(LabelId(0)));
        assert_eq!(m.answer(ObjectId(1), WorkerId(0)), None);
        assert_eq!(m.num_answers(), 3);
    }

    #[test]
    fn overwriting_an_answer_does_not_increase_count() {
        let mut m = small();
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(0)).unwrap();
        assert_eq!(m.num_answers(), 3);
        assert_eq!(m.answer(ObjectId(0), WorkerId(0)), Some(LabelId(0)));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut m = AnswerMatrix::new(2, 2);
        assert!(matches!(
            m.set_answer(ObjectId(2), WorkerId(0), LabelId(0)),
            Err(ModelError::ObjectOutOfRange { .. })
        ));
        assert!(matches!(
            m.set_answer(ObjectId(0), WorkerId(9), LabelId(0)),
            Err(ModelError::WorkerOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_answer_updates_both_indexes() {
        let mut m = small();
        assert_eq!(m.remove_answer(ObjectId(0), WorkerId(1)), Some(LabelId(0)));
        assert_eq!(m.remove_answer(ObjectId(0), WorkerId(1)), None);
        assert_eq!(m.num_answers(), 2);
        assert_eq!(m.answers_for_worker(WorkerId(1)).count(), 1);
        assert_eq!(m.answers_for_object(ObjectId(0)).count(), 1);
    }

    #[test]
    fn density_reflects_fill_ratio() {
        let m = small();
        assert!((m.density() - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(AnswerMatrix::new(0, 0).density(), 0.0);
    }

    #[test]
    fn per_object_and_per_worker_views_agree() {
        let m = small();
        assert_eq!(m.object_answer_count(ObjectId(0)), 2);
        assert_eq!(m.worker_answer_count(WorkerId(1)), 2);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples.len(), 3);
        assert!(triples.contains(&(ObjectId(2), WorkerId(1), LabelId(1))));
    }

    #[test]
    fn max_label_index_tracks_answers() {
        assert_eq!(AnswerMatrix::new(2, 2).max_label_index(), None);
        assert_eq!(small().max_label_index(), Some(1));
    }

    #[test]
    fn tombstones_hide_answers_without_removing_them() {
        let mut m = small();
        m.set_worker_excluded(WorkerId(1), true);
        assert_eq!(m.num_answers(), 1);
        assert_eq!(m.num_recorded_answers(), 3);
        assert_eq!(m.worker_answer_count(WorkerId(1)), 0);
        assert_eq!(m.object_answer_count(ObjectId(0)), 1);
        assert_eq!(m.answer(ObjectId(0), WorkerId(1)), None);
        assert_eq!(m.answers_for_worker(WorkerId(1)).count(), 0);
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.excluded_workers(), vec![WorkerId(1)]);
        // Re-inclusion restores everything.
        m.set_worker_excluded(WorkerId(1), false);
        assert_eq!(m.num_answers(), 3);
        assert_eq!(m.worker_answer_count(WorkerId(1)), 2);
        assert_eq!(m.answer(ObjectId(0), WorkerId(1)), Some(LabelId(0)));
        assert_eq!(m.num_excluded_workers(), 0);
    }

    #[test]
    fn recorded_accessors_ignore_the_mask() {
        let mut m = small();
        m.set_worker_excluded(WorkerId(1), true);
        let all: Vec<_> = m.recorded_answers_for_object(ObjectId(0)).collect();
        assert_eq!(
            all,
            vec![(WorkerId(0), LabelId(1)), (WorkerId(1), LabelId(0))]
        );
        let row: Vec<_> = m.recorded_answers_for_worker(WorkerId(1)).collect();
        assert_eq!(
            row,
            vec![(ObjectId(0), LabelId(0)), (ObjectId(2), LabelId(1))]
        );
        // An overwrite keeps the pair's place in the row.
        m.set_answer(ObjectId(0), WorkerId(1), LabelId(1)).unwrap();
        let all: Vec<_> = m.recorded_answers_for_object(ObjectId(0)).collect();
        assert_eq!(
            all,
            vec![(WorkerId(0), LabelId(1)), (WorkerId(1), LabelId(1))]
        );
        assert_eq!(m.answers_for_object(ObjectId(0)).count(), 1);
    }

    #[test]
    fn tombstones_account_for_votes_recorded_while_excluded() {
        let mut m = AnswerMatrix::new(2, 2);
        m.set_worker_excluded(WorkerId(0), true);
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(0)).unwrap();
        assert_eq!(m.num_answers(), 0);
        m.set_worker_excluded(WorkerId(0), false);
        assert_eq!(m.num_answers(), 1);
    }

    #[test]
    fn ensure_shape_grows_id_spaces() {
        let mut m = small();
        m.ensure_shape(5, 4);
        assert_eq!(m.num_objects(), 5);
        assert_eq!(m.num_workers(), 4);
        assert_eq!(m.num_answers(), 3);
        m.set_answer(ObjectId(4), WorkerId(3), LabelId(0)).unwrap();
        assert_eq!(m.num_answers(), 4);
        // Shrinking is a no-op.
        m.ensure_shape(1, 1);
        assert_eq!(m.num_objects(), 5);
    }

    #[test]
    fn equality_is_shape_votes_and_mask() {
        let a = small();
        let mut b = small();
        assert_eq!(a, b);
        b.set_worker_excluded(WorkerId(0), true);
        assert_ne!(a, b);
        b.set_worker_excluded(WorkerId(0), false);
        assert_eq!(a, b);
        b.set_answer(ObjectId(1), WorkerId(0), LabelId(0)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn serde_round_trips_votes_and_mask() {
        let mut m = small();
        m.set_worker_excluded(WorkerId(0), true);
        let restored = AnswerMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(m, restored);
        assert_eq!(restored.num_answers(), m.num_answers());
        assert!(restored.is_worker_excluded(WorkerId(0)));
    }

    #[test]
    fn serde_preserves_both_adjacency_orders() {
        // Interleaved arrival: the by-worker rows are NOT object-major.
        let mut m = AnswerMatrix::new(3, 2);
        m.set_answer(ObjectId(2), WorkerId(0), LabelId(1)).unwrap();
        m.set_answer(ObjectId(0), WorkerId(1), LabelId(0)).unwrap();
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(0)).unwrap();
        m.set_answer(ObjectId(1), WorkerId(0), LabelId(1)).unwrap();
        let restored = AnswerMatrix::from_value(&m.to_value()).unwrap();
        for o in 0..3 {
            let a: Vec<_> = m.answers_for_object(ObjectId(o)).collect();
            let b: Vec<_> = restored.answers_for_object(ObjectId(o)).collect();
            assert_eq!(a, b, "object {o} row order changed");
        }
        for w in 0..2 {
            let a: Vec<_> = m.answers_for_worker(WorkerId(w)).collect();
            let b: Vec<_> = restored.answers_for_worker(WorkerId(w)).collect();
            assert_eq!(a, b, "worker {w} row order changed");
        }
    }

    #[test]
    fn memory_footprint_tracks_growth() {
        let mut m = AnswerMatrix::new(4, 4);
        let empty = m.memory_footprint();
        for o in 0..4 {
            for w in 0..4 {
                m.set_answer(ObjectId(o), WorkerId(w), LabelId(0)).unwrap();
            }
        }
        let filled = m.memory_footprint();
        assert!(filled.view_bytes > empty.view_bytes);
        assert_eq!(filled.total_bytes(), filled.view_bytes + filled.mask_bytes);
    }

    #[test]
    fn reserve_answers_preallocates_capacity() {
        let mut m = AnswerMatrix::new(2, 2);
        let before = m.memory_footprint().total_bytes();
        m.reserve_answers(1024);
        assert!(m.memory_footprint().total_bytes() > before);
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(0)).unwrap();
        assert_eq!(m.num_answers(), 1);
    }

    #[test]
    fn serde_rejects_inconsistent_adjacency_views() {
        let m = small();
        let value = m.to_value();
        // Tamper: drop the by_worker rows entirely.
        let Value::Object(mut entries) = value else {
            panic!("expected object");
        };
        for (key, v) in &mut entries {
            if key == "by_worker" {
                *v = Value::Array(vec![Value::Array(vec![]), Value::Array(vec![])]);
            }
        }
        assert!(AnswerMatrix::from_value(&Value::Object(entries)).is_err());
    }

    /// Naive reference for the store: one `Vec` of pairs per row and view,
    /// mutated by the documented order rules (append at the end, overwrite
    /// in place, swap-remove with the row's last pair).
    #[derive(Default)]
    struct Reference {
        by_object: Vec<Vec<(u32, u32)>>,
        by_worker: Vec<Vec<(u32, u32)>>,
        excluded: Vec<bool>,
    }

    impl Reference {
        fn ensure_shape(&mut self, objects: usize, workers: usize) {
            if objects > self.by_object.len() {
                self.by_object.resize(objects, Vec::new());
            }
            if workers > self.by_worker.len() {
                self.by_worker.resize(workers, Vec::new());
                self.excluded.resize(workers, false);
            }
        }

        fn set(&mut self, o: usize, w: usize, label: u32) {
            let (ow, wo) = (w as u32, o as u32);
            match self.by_object[o].iter_mut().find(|(id, _)| *id == ow) {
                Some(pair) => {
                    pair.1 = label;
                    let pair = self.by_worker[w].iter_mut().find(|(id, _)| *id == wo);
                    pair.expect("views agree").1 = label;
                }
                None => {
                    self.by_object[o].push((ow, label));
                    self.by_worker[w].push((wo, label));
                }
            }
        }

        fn remove(&mut self, o: usize, w: usize) -> Option<u32> {
            let pos = self.by_object[o]
                .iter()
                .position(|&(id, _)| id == w as u32)?;
            let label = self.by_object[o].swap_remove(pos).1;
            let pos = self.by_worker[w].iter().position(|&(id, _)| id == o as u32);
            self.by_worker[w].swap_remove(pos.expect("views agree"));
            Some(label)
        }

        fn label(&self, o: usize, w: usize) -> Option<u32> {
            self.by_object[o]
                .iter()
                .find(|&&(id, _)| id == w as u32)
                .map(|&(_, l)| l)
        }
    }

    /// Every row of both views, the counts, `answer` on the given cells and
    /// the visible and recorded accessors agree with the reference.
    fn assert_matches(m: &AnswerMatrix, reference: &Reference, cells: &[(usize, usize)]) {
        assert_eq!(m.num_objects(), reference.by_object.len());
        assert_eq!(m.num_workers(), reference.by_worker.len());
        assert_eq!(m.excluded_mask(), &reference.excluded[..]);
        let shown = |&&(w, _): &&(u32, u32)| !reference.excluded[w as usize];
        let raw = |(id, l): (usize, LabelId)| (id as u32, l.index() as u32);
        let mut visible = 0;
        for (o, row) in reference.by_object.iter().enumerate() {
            let object = ObjectId(o);
            assert_eq!(m.object_row_slice(object), &row[..], "object {o} row");
            let recorded = m.recorded_answers_for_object(object);
            assert!(recorded
                .map(|(w, l)| raw((w.index(), l)))
                .eq(row.iter().copied()));
            let seen = m
                .answers_for_object(object)
                .map(|(w, l)| raw((w.index(), l)));
            assert!(
                seen.eq(row.iter().filter(shown).copied()),
                "object {o} visible"
            );
            let count = row.iter().filter(shown).count();
            assert_eq!(m.object_answer_count(object), count);
            visible += count;
        }
        let mut recorded = 0;
        for (w, row) in reference.by_worker.iter().enumerate() {
            let worker = WorkerId(w);
            let all = m.recorded_answers_for_worker(worker);
            assert!(all
                .map(|(o, l)| raw((o.index(), l)))
                .eq(row.iter().copied()));
            let shown: &[(u32, u32)] = if reference.excluded[w] { &[] } else { row };
            assert_eq!(m.worker_row_slice(worker), shown, "worker {w} slice");
            let seen = m
                .answers_for_worker(worker)
                .map(|(o, l)| raw((o.index(), l)));
            assert!(seen.eq(shown.iter().copied()), "worker {w} visible");
            assert_eq!(m.worker_answer_count(worker), shown.len());
            recorded += row.len();
        }
        assert_eq!(m.num_recorded_answers(), recorded);
        assert_eq!(m.num_answers(), visible);
        for &(o, w) in cells {
            let expected = reference
                .label(o, w)
                .filter(|_| !reference.excluded[w])
                .map(|l| LabelId(l as usize));
            assert_eq!(m.answer(ObjectId(o), WorkerId(w)), expected, "cell {o}/{w}");
        }
    }

    fn json_round_trip(m: &AnswerMatrix) -> AnswerMatrix {
        let json = serde_json::to_string(m).unwrap();
        let restored: AnswerMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
        assert_eq!(&restored, m);
        restored
    }

    fn all_cells(reference: &Reference) -> Vec<(usize, usize)> {
        let workers = reference.by_worker.len();
        (0..reference.by_object.len())
            .flat_map(|o| (0..workers).map(move |w| (o, w)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The flat store against the reference model, step by step, over
        /// random `set_answer` / overwrite / `remove_answer` /
        /// `ensure_shape` / tombstone sequences: a growth phase long enough
        /// to relocate rows many times, then a removal-heavy phase that
        /// leaves enough relocation garbage behind to repack both slabs.
        /// A JSON round trip lands at a random step (the run continues on
        /// the restored, tightly packed matrix) and at the end.
        #[test]
        fn store_matches_a_reference_model(
            grow in proptest::collection::vec((0u32..100, any::<u64>(), any::<u64>()), 2600..3000usize),
            shrink in proptest::collection::vec((0u32..100, any::<u64>(), any::<u64>()), 1200..1500usize),
            round_trip_at in 0usize..3800
        ) {
            let mut m = AnswerMatrix::new(24, 20);
            let mut reference = Reference::default();
            reference.ensure_shape(24, 20);
            let mut repacked = [false; 2];
            let phases = [(&grow, 70), (&shrink, 10)];
            let steps = phases.iter().flat_map(|&(ops, set_share)| ops.iter().map(move |&op| (op, set_share)));
            for (step, ((kind, a, b), set_share)) in steps.enumerate() {
                let objects = reference.by_object.len();
                let workers = reference.by_worker.len();
                let (o, w) = ((a % objects as u64) as usize, (b % workers as u64) as usize);
                let label = (a >> 32) as u32 % 4;
                let slabs = (m.by_object.slab_len(), m.by_worker.slab_len());
                match kind {
                    // Set: a fresh pair or an overwrite of whatever is there.
                    k if k < set_share => {
                        m.set_answer(ObjectId(o), WorkerId(w), LabelId(label as usize)).unwrap();
                        reference.set(o, w, label);
                    }
                    // Overwrite (one in four) or remove an existing pair of
                    // object `o`.
                    k if k < 85 => {
                        let row = &reference.by_object[o];
                        if let Some(&(w, _)) = row.get((b % row.len().max(1) as u64) as usize) {
                            let w = w as usize;
                            if (b >> 32) % 4 == 0 {
                                m.set_answer(ObjectId(o), WorkerId(w), LabelId(label as usize))
                                    .unwrap();
                                reference.set(o, w, label);
                            } else {
                                let label = reference.remove(o, w).map(|l| LabelId(l as usize));
                                prop_assert_eq!(m.remove_answer(ObjectId(o), WorkerId(w)), label);
                            }
                        }
                    }
                    // Remove a random cell, present or not.
                    85..=87 => {
                        let label = reference.remove(o, w).map(|l| LabelId(l as usize));
                        prop_assert_eq!(m.remove_answer(ObjectId(o), WorkerId(w)), label);
                    }
                    // Grow the id spaces.
                    88..=91 => {
                        let (objects, workers) = (objects + (a % 4) as usize, workers + (b % 3) as usize);
                        m.ensure_shape(objects, workers);
                        reference.ensure_shape(objects, workers);
                    }
                    // Flip a tombstone.
                    _ => {
                        let excluded = !reference.excluded[w];
                        m.set_worker_excluded(WorkerId(w), excluded);
                        reference.excluded[w] = excluded;
                    }
                }
                repacked[0] |= m.by_object.slab_len() < slabs.0;
                repacked[1] |= m.by_worker.slab_len() < slabs.1;
                assert_matches(&m, &reference, &[(o, w)]);
                if step == round_trip_at {
                    m = json_round_trip(&m);
                    assert_matches(&m, &reference, &all_cells(&reference));
                }
            }
            prop_assert!(repacked[0] && repacked[1], "no repack in {} steps", grow.len() + shrink.len());
            let restored = json_round_trip(&m);
            assert_matches(&restored, &reference, &all_cells(&reference));
        }
    }
}
