//! The answer set `N = ⟨O, W, L, M⟩` (paper §3.1).

use crate::answer_matrix::AnswerMatrix;
use crate::error::ModelError;
use crate::ids::{LabelId, ObjectId, WorkerId};
use serde::{Deserialize, Serialize};

/// An answer set: objects, workers, labels, and the sparse answer matrix.
///
/// Objects, workers and labels are represented by their counts; ids are dense
/// indices into those ranges. Optional human-readable label names can be
/// attached for presentation (e.g. `"positive"` / `"negative"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerSet {
    num_labels: usize,
    label_names: Vec<String>,
    matrix: AnswerMatrix,
}

impl AnswerSet {
    /// Creates an answer set with an empty answer matrix.
    ///
    /// # Panics
    /// Panics if `num_labels == 0`; a classification task needs at least one
    /// label.
    pub fn new(num_objects: usize, num_workers: usize, num_labels: usize) -> Self {
        assert!(num_labels > 0, "an answer set needs at least one label");
        Self {
            num_labels,
            label_names: (0..num_labels).map(|l| format!("label-{l}")).collect(),
            matrix: AnswerMatrix::new(num_objects, num_workers),
        }
    }

    /// Builds an answer set from an existing matrix.
    ///
    /// Fails if any answer in the matrix refers to a label outside
    /// `0..num_labels`.
    pub fn from_matrix(matrix: AnswerMatrix, num_labels: usize) -> Result<Self, ModelError> {
        if num_labels == 0 {
            return Err(ModelError::DimensionMismatch {
                what: "label count",
                expected: 1,
                actual: 0,
            });
        }
        if let Some(max_label) = matrix.max_label_index() {
            if max_label >= num_labels {
                return Err(ModelError::LabelOutOfRange {
                    label: max_label,
                    num_labels,
                });
            }
        }
        Ok(Self {
            num_labels,
            label_names: (0..num_labels).map(|l| format!("label-{l}")).collect(),
            matrix,
        })
    }

    /// Replaces the generated label names with domain-specific ones.
    pub fn with_label_names<S: Into<String>>(mut self, names: Vec<S>) -> Result<Self, ModelError> {
        if names.len() != self.num_labels {
            return Err(ModelError::DimensionMismatch {
                what: "label names",
                expected: self.num_labels,
                actual: names.len(),
            });
        }
        self.label_names = names.into_iter().map(Into::into).collect();
        Ok(self)
    }

    /// Number of objects `|O|`.
    pub fn num_objects(&self) -> usize {
        self.matrix.num_objects()
    }

    /// Number of workers `|W|`.
    pub fn num_workers(&self) -> usize {
        self.matrix.num_workers()
    }

    /// Number of labels `|L|`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Human-readable name of a label.
    pub fn label_name(&self, label: LabelId) -> &str {
        &self.label_names[label.index()]
    }

    /// The sparse answer matrix `M`.
    pub fn matrix(&self) -> &AnswerMatrix {
        &self.matrix
    }

    /// Records worker `w`'s answer for object `o`, validating the label range.
    pub fn record_answer(
        &mut self,
        object: ObjectId,
        worker: WorkerId,
        label: LabelId,
    ) -> Result<(), ModelError> {
        if label.index() >= self.num_labels {
            return Err(ModelError::LabelOutOfRange {
                label: label.index(),
                num_labels: self.num_labels,
            });
        }
        self.matrix.set_answer(object, worker, label)
    }

    /// Records a streaming vote, growing the object/worker id spaces on
    /// demand (the label space is fixed at construction — a classification
    /// task does not sprout new classes mid-stream). This is the ingestion
    /// entry point of the validation session: unlike
    /// [`AnswerSet::record_answer`], out-of-range object and worker ids mean
    /// *new arrivals*, not errors.
    pub fn record_arrival(&mut self, vote: crate::vote::Vote) -> Result<(), ModelError> {
        if vote.label.index() >= self.num_labels {
            return Err(ModelError::LabelOutOfRange {
                label: vote.label.index(),
                num_labels: self.num_labels,
            });
        }
        self.matrix.ensure_shape(
            self.matrix.num_objects().max(vote.object.index() + 1),
            self.matrix.num_workers().max(vote.worker.index() + 1),
        );
        self.matrix.set_answer(vote.object, vote.worker, vote.label)
    }

    /// Grows the object/worker id spaces (no-op when already large enough).
    pub fn ensure_shape(&mut self, num_objects: usize, num_workers: usize) {
        self.matrix.ensure_shape(num_objects, num_workers);
    }

    /// Reserves matrix capacity for roughly `additional` more answers
    /// (ingest-batch hint; see [`AnswerMatrix::reserve_answers`]).
    pub fn reserve_answers(&mut self, additional: usize) {
        self.matrix.reserve_answers(additional);
    }

    /// Does nothing: the matrix has one flat row store, written in place,
    /// so there is no mirror to bring in sync. Kept only for the end-to-end
    /// benchmark's trace replay, which still calls it; it goes away with
    /// that caller.
    pub fn sync_compact_views(&mut self) {}

    /// Removes worker `w`'s answer for object `o`, returning the label if an
    /// answer was present.
    pub fn remove_answer(&mut self, object: ObjectId, worker: WorkerId) -> Option<LabelId> {
        self.matrix.remove_answer(object, worker)
    }

    /// Iterator over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects()).map(ObjectId)
    }

    /// Iterator over all worker ids.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.num_workers()).map(WorkerId)
    }

    /// Iterator over all label ids.
    pub fn labels(&self) -> impl Iterator<Item = LabelId> {
        (0..self.num_labels()).map(LabelId)
    }

    /// Replaces the set of tombstoned workers in place: workers in `excluded`
    /// are hidden from iteration, everyone else is visible. `O(workers)` mask
    /// diff, no matrix copy — the validation session uses this to track
    /// detection outcomes on its one corpus.
    pub fn set_excluded_workers(&mut self, excluded: &[WorkerId]) {
        for w in 0..self.num_workers() {
            let worker = WorkerId(w);
            self.matrix
                .set_worker_excluded(worker, excluded.contains(&worker));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> AnswerSet {
        let mut n = AnswerSet::new(4, 3, 2);
        n.record_answer(ObjectId(0), WorkerId(0), LabelId(0))
            .unwrap();
        n.record_answer(ObjectId(0), WorkerId(1), LabelId(1))
            .unwrap();
        n.record_answer(ObjectId(1), WorkerId(2), LabelId(1))
            .unwrap();
        n.record_answer(ObjectId(3), WorkerId(0), LabelId(0))
            .unwrap();
        n
    }

    #[test]
    fn dimensions_are_exposed() {
        let n = toy();
        assert_eq!(n.num_objects(), 4);
        assert_eq!(n.num_workers(), 3);
        assert_eq!(n.num_labels(), 2);
        assert_eq!(n.objects().count(), 4);
        assert_eq!(n.workers().count(), 3);
        assert_eq!(n.labels().count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn zero_labels_is_rejected() {
        AnswerSet::new(1, 1, 0);
    }

    #[test]
    fn record_answer_validates_label_range() {
        let mut n = AnswerSet::new(2, 2, 2);
        assert!(matches!(
            n.record_answer(ObjectId(0), WorkerId(0), LabelId(5)),
            Err(ModelError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn from_matrix_checks_label_consistency() {
        let mut m = AnswerMatrix::new(2, 2);
        m.set_answer(ObjectId(0), WorkerId(0), LabelId(3)).unwrap();
        assert!(AnswerSet::from_matrix(m.clone(), 2).is_err());
        assert!(AnswerSet::from_matrix(m, 4).is_ok());
    }

    #[test]
    fn label_names_can_be_customized() {
        let n = toy().with_label_names(vec!["neg", "pos"]).unwrap();
        assert_eq!(n.label_name(LabelId(1)), "pos");
        assert!(toy().with_label_names(vec!["only-one"]).is_err());
    }
}
