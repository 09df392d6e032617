//! Sparse answer matrix `M` (paper §3.1).
//!
//! Each cell `M(o, w)` holds the label worker `w` gave to object `o`, or is
//! empty (the paper's `⊥`) when the worker skipped the object. Because workers
//! only answer a limited number of questions the matrix is sparse (§5.4), so
//! we keep two adjacency views — per object and per worker — instead of a
//! dense `n × k` grid.
//!
//! ## Storage: paged arenas
//!
//! Both adjacency views are stored in a *paged arena*: every row is a chain
//! of fixed-size chunks carved out of one contiguous slab (a plain `Vec` of
//! chunks, so appending amortizes like a vector while rows never move each
//! other around). Compared to the previous `Vec<Vec<(id, label)>>` layout
//! this removes the per-row heap allocation (one allocation per *slab
//! doubling* instead of one per object/worker) and keeps each row's entries
//! in cache-line-sized blocks, which is what the EM inner loops stream over
//! on every iteration. Appending a vote is `O(row length)` worst case (the
//! overwrite check scans the row) and `O(1)` amortized for fresh `(o, w)`
//! pairs.
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

use crate::csr::CompactAdjacency;
use crate::error::ModelError;
use crate::ids::{LabelId, ObjectId, WorkerId};
use serde::{Deserialize, Serialize, Value};

/// Entries per chunk. Eight `(u32, u32)` pairs keep a chunk at 64 payload
/// bytes — one cache line — plus the chain metadata.
const CHUNK_CAP: usize = 8;

/// Sentinel chunk index for "no chunk".
const NONE_CHUNK: u32 = u32::MAX;

/// One fixed-size page of a row chain.
#[derive(Debug, Clone)]
struct Chunk {
    pairs: [(u32, u32); CHUNK_CAP],
    len: u32,
    next: u32,
}

impl Chunk {
    fn empty() -> Self {
        Self {
            pairs: [(0, 0); CHUNK_CAP],
            len: 0,
            next: NONE_CHUNK,
        }
    }
}

/// A row's chain handle inside the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowRef {
    head: u32,
    tail: u32,
    len: u32,
}

impl RowRef {
    const EMPTY: RowRef = RowRef {
        head: NONE_CHUNK,
        tail: NONE_CHUNK,
        len: 0,
    };
}

/// Paged adjacency lists: rows of `(id, label)` pairs chained through a
/// shared chunk slab. Appends amortize through the slab `Vec`; chunks freed
/// by removals are recycled through a free list.
#[derive(Debug, Clone, Default)]
pub(crate) struct PagedAdjacency {
    rows: Vec<RowRef>,
    chunks: Vec<Chunk>,
    free: Vec<u32>,
}

impl PagedAdjacency {
    pub(crate) fn with_rows(rows: usize) -> Self {
        Self {
            rows: vec![RowRef::EMPTY; rows],
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rows.len()
    }

    fn ensure_rows(&mut self, rows: usize) {
        if rows > self.rows.len() {
            self.rows.resize(rows, RowRef::EMPTY);
        }
    }

    pub(crate) fn row_len(&self, row: usize) -> usize {
        self.rows.get(row).map_or(0, |r| r.len as usize)
    }

    /// Reserves slab capacity for roughly `additional` more pairs. A hint:
    /// worst-case chunk fragmentation can still allocate past it, but batch
    /// ingestion stops paying per-doubling `Vec` growth mid-loop.
    fn reserve_pairs(&mut self, additional: usize) {
        let chunks = additional.div_ceil(CHUNK_CAP);
        self.chunks.reserve(chunks.saturating_sub(self.free.len()));
    }

    /// Heap bytes held by the arena (capacities, not lengths).
    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<RowRef>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    fn alloc_chunk(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.chunks[idx as usize] = Chunk::empty();
            idx
        } else {
            self.chunks.push(Chunk::empty());
            (self.chunks.len() - 1) as u32
        }
    }

    /// Appends a pair to a row (no duplicate check).
    fn push(&mut self, row: usize, id: u32, label: u32) {
        let needs_chunk = {
            let r = &self.rows[row];
            r.head == NONE_CHUNK || self.chunks[r.tail as usize].len as usize == CHUNK_CAP
        };
        if needs_chunk {
            let idx = self.alloc_chunk();
            let r = &mut self.rows[row];
            if r.head == NONE_CHUNK {
                r.head = idx;
            } else {
                let old_tail = r.tail;
                self.chunks[old_tail as usize].next = idx;
            }
            self.rows[row].tail = idx;
        }
        let tail = self.rows[row].tail as usize;
        let chunk = &mut self.chunks[tail];
        chunk.pairs[chunk.len as usize] = (id, label);
        chunk.len += 1;
        self.rows[row].len += 1;
    }

    /// Locates a pair by id: `(chunk index, position)`.
    fn find(&self, row: usize, id: u32) -> Option<(u32, u32)> {
        let mut chunk = self.rows.get(row)?.head;
        while chunk != NONE_CHUNK {
            let c = &self.chunks[chunk as usize];
            for pos in 0..c.len {
                if c.pairs[pos as usize].0 == id {
                    return Some((chunk, pos));
                }
            }
            chunk = c.next;
        }
        None
    }

    fn get(&self, row: usize, id: u32) -> Option<u32> {
        self.find(row, id)
            .map(|(chunk, pos)| self.chunks[chunk as usize].pairs[pos as usize].1)
    }

    /// Inserts or overwrites a pair; returns `true` when the pair is new.
    pub(crate) fn set(&mut self, row: usize, id: u32, label: u32) -> bool {
        if let Some((chunk, pos)) = self.find(row, id) {
            self.chunks[chunk as usize].pairs[pos as usize].1 = label;
            false
        } else {
            self.push(row, id, label);
            true
        }
    }

    /// Removes a pair by id (swap-remove with the row's last entry, so the
    /// relative order of the remaining entries may change). Emptied tail
    /// chunks are unlinked and recycled.
    pub(crate) fn remove(&mut self, row: usize, id: u32) -> Option<u32> {
        let (chunk, pos) = self.find(row, id)?;
        let label = self.chunks[chunk as usize].pairs[pos as usize].1;
        let tail = self.rows[row].tail;
        let last = self.chunks[tail as usize].len - 1;
        self.chunks[chunk as usize].pairs[pos as usize] =
            self.chunks[tail as usize].pairs[last as usize];
        self.chunks[tail as usize].len -= 1;
        self.rows[row].len -= 1;
        if self.chunks[tail as usize].len == 0 {
            if self.rows[row].head == tail {
                self.rows[row] = RowRef::EMPTY;
            } else {
                // Walk the (short) chain to unlink the emptied tail.
                let mut pred = self.rows[row].head;
                while self.chunks[pred as usize].next != tail {
                    pred = self.chunks[pred as usize].next;
                }
                self.chunks[pred as usize].next = NONE_CHUNK;
                self.rows[row].tail = pred;
            }
            self.free.push(tail);
        }
        Some(label)
    }

    pub(crate) fn row_pairs(&self, row: usize) -> PairIter<'_> {
        PairIter {
            chunks: &self.chunks,
            chunk: self.rows.get(row).map_or(NONE_CHUNK, |r| r.head),
            pos: 0,
        }
    }

    fn rows_equal(&self, other: &Self, row: usize) -> bool {
        self.row_len(row) == other.row_len(row) && self.row_pairs(row).eq(other.row_pairs(row))
    }
}

/// Chain-walking iterator over a row's raw `(id, label)` pairs.
#[derive(Debug, Clone)]
pub(crate) struct PairIter<'a> {
    chunks: &'a [Chunk],
    chunk: u32,
    pos: u32,
}

impl Iterator for PairIter<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            if self.chunk == NONE_CHUNK {
                return None;
            }
            let c = &self.chunks[self.chunk as usize];
            if self.pos < c.len {
                let pair = c.pairs[self.pos as usize];
                self.pos += 1;
                return Some(pair);
            }
            self.chunk = c.next;
            self.pos = 0;
        }
    }
}

/// A row's raw `(id, label)` pairs, streamed either from the flat compact
/// mirror (when the row is clean) or from the paged chunk chain. Both
/// variants yield the exact same pairs in the exact same (arrival) order —
/// the compact mirror is rewritten *from* the chain — so downstream float
/// work is bitwise independent of which variant serves the row.
#[derive(Debug, Clone)]
enum RowPairs<'a> {
    Flat(std::slice::Iter<'a, (u32, u32)>),
    Chain(PairIter<'a>),
}

impl RowPairs<'_> {
    fn empty() -> RowPairs<'static> {
        RowPairs::Flat([].iter())
    }
}

impl Iterator for RowPairs<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            RowPairs::Flat(iter) => iter.next().copied(),
            RowPairs::Chain(iter) => iter.next(),
        }
    }
}

/// Iterator over the `(worker, label)` votes of one object, in arrival
/// order, with tombstoned workers filtered out.
#[derive(Debug, Clone)]
pub struct ObjectVotes<'a> {
    pairs: RowPairs<'a>,
    excluded: &'a [bool],
}

impl Iterator for ObjectVotes<'_> {
    type Item = (WorkerId, LabelId);

    #[inline]
    fn next(&mut self) -> Option<(WorkerId, LabelId)> {
        for (id, label) in self.pairs.by_ref() {
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
    pairs: RowPairs<'a>,
}

impl Iterator for WorkerVotes<'_> {
    type Item = (ObjectId, LabelId);

    #[inline]
    fn next(&mut self) -> Option<(ObjectId, LabelId)> {
        self.pairs
            .next()
            .map(|(id, label)| (ObjectId(id as usize), LabelId(label as usize)))
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
    /// Paged arena slabs (chunks + row tables + free lists), both views.
    pub paged_bytes: usize,
    /// Compact CSR mirrors (pair slabs + row tables + dirty tracking), both
    /// views.
    pub compact_bytes: usize,
    /// The worker tombstone mask.
    pub mask_bytes: usize,
}

impl MatrixMemoryFootprint {
    /// Total heap bytes across all components.
    pub fn total_bytes(&self) -> usize {
        self.paged_bytes + self.compact_bytes + self.mask_bytes
    }
}

/// Sparse `objects × workers` matrix of label answers over paged arenas, with
/// a per-worker tombstone mask for cheap exclusion (see the module docs).
///
/// ## Compact CSR mirrors
///
/// Next to the authoritative paged arenas the matrix maintains derived flat
/// CSR mirrors of both views ([`crate::csr`]): mutations mark the touched
/// rows dirty, [`AnswerMatrix::sync_compact_views`] patches them back from
/// the chains at batch boundaries, and every accessor transparently streams
/// a clean mirror row as a sequential slice (falling back to the chunk chain
/// for stale rows). The two storages always yield identical pair sequences,
/// so which one serves a row is invisible — down to float summation order —
/// to every reader.
#[derive(Debug, Clone)]
pub struct AnswerMatrix {
    /// For every object: chain of `(worker, label)` pairs in arrival order.
    by_object: PagedAdjacency,
    /// For every worker: chain of `(object, label)` pairs in arrival order.
    by_worker: PagedAdjacency,
    /// Flat CSR mirror of `by_object` (derived; never serialized).
    compact_by_object: CompactAdjacency,
    /// Flat CSR mirror of `by_worker` (derived; never serialized).
    compact_by_worker: CompactAdjacency,
    /// Whether accessors may serve rows from the compact mirrors. Dirty
    /// tracking continues while disabled, so re-enabling just needs a sync.
    compact_enabled: bool,
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
            by_object: PagedAdjacency::with_rows(num_objects),
            by_worker: PagedAdjacency::with_rows(num_workers),
            compact_by_object: CompactAdjacency::with_rows(num_objects),
            compact_by_worker: CompactAdjacency::with_rows(num_workers),
            compact_enabled: true,
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
        self.compact_by_object.ensure_rows(num_objects);
        self.compact_by_worker.ensure_rows(num_workers);
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
        self.compact_by_object.mark_dirty(object.index());
        self.compact_by_worker.mark_dirty(worker.index());
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
        self.compact_by_object.mark_dirty(object.index());
        self.compact_by_worker.mark_dirty(worker.index());
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

    /// Streams a row from the clean compact mirror when possible, falling
    /// back to the paged chain. Identical pair sequence either way.
    #[inline]
    fn row_pairs_view<'a>(
        &self,
        compact: &'a CompactAdjacency,
        paged: &'a PagedAdjacency,
        row: usize,
    ) -> RowPairs<'a> {
        if self.compact_enabled {
            if let Some(slice) = compact.row_slice(row) {
                return RowPairs::Flat(slice.iter());
            }
        }
        RowPairs::Chain(paged.row_pairs(row))
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
            pairs: self.row_pairs_view(&self.compact_by_object, &self.by_object, object.index()),
            excluded: &self.excluded,
        }
    }

    /// All `(object, label)` answers recorded by a worker, in arrival order.
    /// Empty when the worker is tombstoned.
    pub fn answers_for_worker(&self, worker: WorkerId) -> WorkerVotes<'_> {
        let pairs = if self.excluded.get(worker.index()).copied().unwrap_or(false) {
            RowPairs::empty()
        } else {
            self.row_pairs_view(&self.compact_by_worker, &self.by_worker, worker.index())
        };
        WorkerVotes { pairs }
    }

    /// Every `(worker, label)` answer recorded for an object, tombstoned or not.
    pub fn recorded_answers_for_object(
        &self,
        object: ObjectId,
    ) -> impl Iterator<Item = (WorkerId, LabelId)> + Clone + '_ {
        self.row_pairs_view(&self.compact_by_object, &self.by_object, object.index())
            .map(|(id, label)| (WorkerId(id as usize), LabelId(label as usize)))
    }

    /// Every `(object, label)` answer recorded by a worker, tombstoned or not.
    pub fn recorded_answers_for_worker(&self, worker: WorkerId) -> WorkerVotes<'_> {
        WorkerVotes {
            pairs: self.row_pairs_view(&self.compact_by_worker, &self.by_worker, worker.index()),
        }
    }

    // -----------------------------------------------------------------------
    // Compact CSR mirrors (million-scale sequential scans)
    // -----------------------------------------------------------------------

    /// Patches the compact mirrors back in sync with the paged arenas
    /// (rewriting dirty rows from the chains, rebuilding on garbage — see
    /// [`crate::csr`]). Call at ingest-batch boundaries; O(dirty pairs)
    /// amortized. A no-op when the mirrors are current or disabled.
    pub fn sync_compact_views(&mut self) {
        if !self.compact_enabled {
            return;
        }
        self.compact_by_object.sync(&self.by_object);
        self.compact_by_worker.sync(&self.by_worker);
    }

    /// Whether any mirror row is stale (i.e. [`Self::sync_compact_views`]
    /// would do work).
    pub fn compact_views_dirty(&self) -> bool {
        self.compact_by_object.has_dirty_rows() || self.compact_by_worker.has_dirty_rows()
    }

    /// Enables or disables serving rows from the compact mirrors. Dirty
    /// tracking continues while disabled (re-enabling needs only a sync);
    /// intended for A/B benchmarking of the paged arm.
    pub fn set_compact_enabled(&mut self, enabled: bool) {
        self.compact_enabled = enabled;
    }

    /// Whether accessors may serve rows from the compact mirrors.
    pub fn compact_enabled(&self) -> bool {
        self.compact_enabled
    }

    /// The object's raw `(worker, label)` row as a flat slice — `None` when
    /// the mirror row is stale or mirrors are disabled (fall back to
    /// [`Self::answers_for_object`]). The slice *includes* tombstoned
    /// workers' pairs; filter with [`Self::excluded_mask`] to match the
    /// iterator's semantics.
    #[inline]
    pub fn object_row_slice(&self, object: ObjectId) -> Option<&[(u32, u32)]> {
        if !self.compact_enabled {
            return None;
        }
        self.compact_by_object.row_slice(object.index())
    }

    /// The worker's raw `(object, label)` row as a flat slice — `None` when
    /// the mirror row is stale or mirrors are disabled. Tombstoned workers
    /// get `Some(&[])`, matching [`Self::answers_for_worker`].
    #[inline]
    pub fn worker_row_slice(&self, worker: WorkerId) -> Option<&[(u32, u32)]> {
        if !self.compact_enabled {
            return None;
        }
        if self.excluded.get(worker.index()).copied().unwrap_or(false) {
            return Some(&[]);
        }
        self.compact_by_worker.row_slice(worker.index())
    }

    /// The worker tombstone mask, indexed by worker id.
    #[inline]
    pub fn excluded_mask(&self) -> &[bool] {
        &self.excluded
    }

    /// Reserves arena and mirror capacity for roughly `additional` more
    /// answers. A batch-size hint, not a guarantee: worst-case chunk
    /// fragmentation can still allocate past it, but typical batch ingestion
    /// stops paying incremental `Vec` growth mid-loop.
    pub fn reserve_answers(&mut self, additional: usize) {
        self.by_object.reserve_pairs(additional);
        self.by_worker.reserve_pairs(additional);
        self.compact_by_object.reserve_pairs(additional);
        self.compact_by_worker.reserve_pairs(additional);
    }

    /// Measured heap footprint of the matrix: paged arena slabs, compact
    /// mirrors and the tombstone mask, by allocator capacity.
    pub fn memory_footprint(&self) -> MatrixMemoryFootprint {
        MatrixMemoryFootprint {
            paged_bytes: self.by_object.heap_bytes() + self.by_worker.heap_bytes(),
            compact_bytes: self.compact_by_object.heap_bytes()
                + self.compact_by_worker.heap_bytes(),
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
            .flat_map(|o| self.by_object.row_pairs(o))
            .map(|(_, l)| l as usize)
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
            && (0..self.num_objects()).all(|o| self.by_object.rows_equal(&other.by_object, o))
    }
}

impl Eq for AnswerMatrix {}

/// Renders one adjacency view as row lists of `[id, label]` pairs, in the
/// exact chain (arrival) order.
fn adjacency_to_value(adj: &PagedAdjacency) -> Value {
    Value::Array(
        (0..adj.num_rows())
            .map(|row| {
                Value::Array(
                    adj.row_pairs(row)
                        .map(|(id, l)| {
                            Value::Array(vec![Value::UInt(id as u64), Value::UInt(l as u64)])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Rebuilds one adjacency view from serialized row lists, preserving the
/// within-row order and rejecting duplicate ids inside a row.
fn adjacency_from_value(
    value: &Value,
    rows: usize,
    ids: usize,
    what: &str,
) -> Result<PagedAdjacency, serde::Error> {
    let row_values = value
        .as_array()
        .ok_or_else(|| serde::Error::custom(format!("expected {what} row array")))?;
    if row_values.len() != rows {
        return Err(serde::Error::custom(format!(
            "{what}: expected {rows} rows, got {}",
            row_values.len()
        )));
    }
    let mut adj = PagedAdjacency::with_rows(rows);
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
            adj.push(row, id as u32, label as u32);
        }
    }
    Ok(adj)
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
            for (w, l) in by_object.row_pairs(o) {
                votes.insert((o as u32, w), l);
                recorded_answers += 1;
            }
        }
        let mut worker_total = 0usize;
        for w in 0..num_workers {
            for (o, l) in by_worker.row_pairs(w) {
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
        // The compact mirrors are derived state: start them fully stale and
        // let the first sync patch them from the restored arenas.
        let compact_by_object = CompactAdjacency::stale_for(&by_object);
        let compact_by_worker = CompactAdjacency::stale_for(&by_worker);
        let mut matrix = AnswerMatrix {
            by_object,
            by_worker,
            compact_by_object,
            compact_by_worker,
            compact_enabled: true,
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
    fn rows_spill_across_chunks() {
        let workers = 3 * CHUNK_CAP + 1;
        let mut m = AnswerMatrix::new(2, workers);
        for w in 0..workers {
            m.set_answer(ObjectId(1), WorkerId(w), LabelId(w % 2))
                .unwrap();
        }
        assert_eq!(m.object_answer_count(ObjectId(1)), workers);
        let collected: Vec<_> = m.answers_for_object(ObjectId(1)).collect();
        assert_eq!(collected.len(), workers);
        // Arrival order preserved across chunk boundaries.
        for (i, &(w, l)) in collected.iter().enumerate() {
            assert_eq!(w, WorkerId(i));
            assert_eq!(l, LabelId(i % 2));
        }
        // Overwrite deep inside the chain.
        m.set_answer(ObjectId(1), WorkerId(CHUNK_CAP + 2), LabelId(1))
            .unwrap();
        assert_eq!(m.object_answer_count(ObjectId(1)), workers);
        assert_eq!(
            m.answer(ObjectId(1), WorkerId(CHUNK_CAP + 2)),
            Some(LabelId(1))
        );
    }

    #[test]
    fn remove_recycles_emptied_chunks() {
        let mut m = AnswerMatrix::new(1, 2 * CHUNK_CAP);
        for w in 0..2 * CHUNK_CAP {
            m.set_answer(ObjectId(0), WorkerId(w), LabelId(0)).unwrap();
        }
        for w in 0..2 * CHUNK_CAP {
            assert_eq!(m.remove_answer(ObjectId(0), WorkerId(w)), Some(LabelId(0)));
        }
        assert_eq!(m.num_answers(), 0);
        assert_eq!(m.object_answer_count(ObjectId(0)), 0);
        // The arena can be refilled after full removal.
        m.set_answer(ObjectId(0), WorkerId(1), LabelId(1)).unwrap();
        assert_eq!(m.answer(ObjectId(0), WorkerId(1)), Some(LabelId(1)));
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
        m.sync_compact_views();
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
        // Stale rows come from the chains, in the same order.
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

    /// Interleaved stream large enough to spill chunks in both views.
    fn interleaved(objects: usize, workers: usize) -> AnswerMatrix {
        let mut m = AnswerMatrix::new(objects, workers);
        for i in 0..objects * 3 {
            let o = (i * 7) % objects;
            let w = (i * 11) % workers;
            m.set_answer(ObjectId(o), WorkerId(w), LabelId(i % 3))
                .unwrap();
        }
        m
    }

    fn assert_same_votes(a: &AnswerMatrix, b: &AnswerMatrix) {
        for o in 0..a.num_objects() {
            let x: Vec<_> = a.answers_for_object(ObjectId(o)).collect();
            let y: Vec<_> = b.answers_for_object(ObjectId(o)).collect();
            assert_eq!(x, y, "object {o} rows diverge");
        }
        for w in 0..a.num_workers() {
            let x: Vec<_> = a.answers_for_worker(WorkerId(w)).collect();
            let y: Vec<_> = b.answers_for_worker(WorkerId(w)).collect();
            assert_eq!(x, y, "worker {w} rows diverge");
        }
    }

    #[test]
    fn compact_views_mirror_the_arena_after_sync() {
        let mut m = interleaved(17, 5);
        let mut paged_only = m.clone();
        paged_only.set_compact_enabled(false);
        m.sync_compact_views();
        assert!(!m.compact_views_dirty());
        assert_same_votes(&m, &paged_only);
        // Every object row is now servable as a flat slice.
        for o in 0..m.num_objects() {
            let slice = m.object_row_slice(ObjectId(o)).expect("clean after sync");
            let chain: Vec<_> = paged_only
                .answers_for_object(ObjectId(o))
                .map(|(w, l)| (w.index() as u32, l.index() as u32))
                .collect();
            assert_eq!(slice, &chain[..]);
        }
    }

    #[test]
    fn compact_rows_go_stale_on_mutation_and_recover() {
        let mut m = interleaved(9, 4);
        m.sync_compact_views();
        m.set_answer(ObjectId(2), WorkerId(1), LabelId(2)).unwrap();
        assert!(m.object_row_slice(ObjectId(2)).is_none());
        assert!(m.worker_row_slice(WorkerId(1)).is_none());
        // Stale rows fall back to the chain and stay correct.
        let mut paged_only = m.clone();
        paged_only.set_compact_enabled(false);
        assert_same_votes(&m, &paged_only);
        m.sync_compact_views();
        assert!(m.object_row_slice(ObjectId(2)).is_some());
        assert_same_votes(&m, &paged_only);
        // Removal dirties too.
        m.remove_answer(ObjectId(2), WorkerId(1));
        assert!(m.object_row_slice(ObjectId(2)).is_none());
        m.sync_compact_views();
        paged_only = m.clone();
        paged_only.set_compact_enabled(false);
        assert_same_votes(&m, &paged_only);
    }

    #[test]
    fn tombstones_do_not_dirty_compact_views() {
        let mut m = interleaved(6, 3);
        m.sync_compact_views();
        m.set_worker_excluded(WorkerId(1), true);
        assert!(!m.compact_views_dirty());
        // Object slices still hold the raw pairs; the mask filters.
        let raw = m.object_row_slice(ObjectId(0)).unwrap();
        let filtered: Vec<_> = m.answers_for_object(ObjectId(0)).collect();
        assert!(raw.len() >= filtered.len());
        assert!(filtered.iter().all(|&(w, _)| !m.excluded_mask()[w.index()]));
        // Worker slices honour the tombstone outright.
        assert_eq!(m.worker_row_slice(WorkerId(1)), Some(&[][..]));
        m.set_worker_excluded(WorkerId(1), false);
        assert!(!m.worker_row_slice(WorkerId(1)).unwrap().is_empty());
    }

    #[test]
    fn serde_restores_with_stale_mirrors() {
        let mut m = interleaved(8, 4);
        m.sync_compact_views();
        let restored = AnswerMatrix::from_value(&m.to_value()).unwrap();
        // Mirrors come back stale and recover on the next sync.
        assert!(restored.compact_views_dirty());
        let mut restored = restored;
        restored.sync_compact_views();
        assert_same_votes(&m, &restored);
        assert_eq!(m, restored);
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
        m.sync_compact_views();
        let filled = m.memory_footprint();
        assert!(filled.paged_bytes > empty.paged_bytes);
        assert!(filled.compact_bytes > empty.compact_bytes);
        assert_eq!(
            filled.total_bytes(),
            filled.paged_bytes + filled.compact_bytes + filled.mask_bytes
        );
    }

    #[test]
    fn reserve_answers_preallocates_capacity() {
        let mut m = AnswerMatrix::new(2, 2);
        let before = m.memory_footprint().total_bytes();
        m.reserve_answers(1024);
        assert!(m.memory_footprint().total_bytes() > before);
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(0)).unwrap();
        m.sync_compact_views();
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
}
