//! Handling of suspected faulty workers (paper §5.3, "Handling faulty
//! workers").
//!
//! Removing a worker outright based on a handful of validations risks
//! discarding a truthful worker (the paper's Table 3 example). Instead, the
//! answers of suspected workers are merely *excluded* from the aggregation
//! while their answers keep being collected; as more validations arrive, a
//! worker whose spammer score recovers above the threshold is re-included.

use crate::detector::DetectionOutcome;
use crowdval_model::{AnswerSet, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Tracks which workers are currently excluded from aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultyWorkerHandler {
    excluded: BTreeSet<WorkerId>,
    /// How often each worker has been excluded over the lifetime of the
    /// validation process (useful for audit reports).
    exclusion_events: usize,
}

impl FaultyWorkerHandler {
    /// Creates a handler with no exclusions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a detection outcome: detected workers become excluded, and
    /// previously excluded workers that are no longer detected are
    /// re-included.
    pub fn apply(&mut self, outcome: &DetectionOutcome) {
        let detected: BTreeSet<WorkerId> = outcome.faulty().into_iter().collect();
        let newly_excluded = detected.difference(&self.excluded).count();
        self.exclusion_events += newly_excluded;
        self.excluded = detected;
    }

    /// Currently excluded workers, in id order.
    pub fn excluded(&self) -> Vec<WorkerId> {
        self.excluded.iter().copied().collect()
    }

    /// Whether a particular worker is currently excluded.
    pub fn is_excluded(&self, worker: WorkerId) -> bool {
        self.excluded.contains(&worker)
    }

    /// Number of currently excluded workers.
    pub fn num_excluded(&self) -> usize {
        self.excluded.len()
    }

    /// Ratio of excluded workers over the whole population (`r_i` in the
    /// hybrid weighting, Eq. 15).
    pub fn excluded_ratio(&self, num_workers: usize) -> f64 {
        if num_workers == 0 {
            0.0
        } else {
            self.excluded.len() as f64 / num_workers as f64
        }
    }

    /// Total number of exclusion events observed so far.
    pub fn exclusion_events(&self) -> usize {
        self.exclusion_events
    }

    /// Replaces the excluded set wholesale (the trust ledger's merged
    /// verdict, or a manual override), counting newly excluded workers as
    /// exclusion events like [`FaultyWorkerHandler::apply`] does.
    pub fn sync_excluded(&mut self, excluded: &[WorkerId]) {
        let next: BTreeSet<WorkerId> = excluded.iter().copied().collect();
        let newly_excluded = next.difference(&self.excluded).count();
        self.exclusion_events += newly_excluded;
        self.excluded = next;
    }

    /// Applies the current exclusions to an answer set **in place** by
    /// flipping its per-worker tombstone mask — `O(workers)`, no vote is
    /// copied or dropped, and previously excluded workers not in the set are
    /// re-included. This is the path the aggregation view maintenance uses.
    pub fn apply_exclusions(&self, answers: &mut AnswerSet) {
        answers.set_excluded_workers(&self.excluded());
    }

    /// Clears every exclusion (used by ablation experiments that disable the
    /// worker-driven handling).
    pub fn reset(&mut self) {
        self.excluded.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdval_model::{LabelId, ObjectId};

    fn outcome(spammers: &[usize], sloppy: &[usize]) -> DetectionOutcome {
        DetectionOutcome {
            spammers: spammers.iter().map(|&w| WorkerId(w)).collect(),
            sloppy: sloppy.iter().map(|&w| WorkerId(w)).collect(),
            scores: vec![],
            error_rates: vec![],
        }
    }

    #[test]
    fn apply_excludes_and_reincludes_workers() {
        let mut h = FaultyWorkerHandler::new();
        h.apply(&outcome(&[1, 2], &[3]));
        assert_eq!(h.excluded(), vec![WorkerId(1), WorkerId(2), WorkerId(3)]);
        assert!(h.is_excluded(WorkerId(2)));
        assert_eq!(h.exclusion_events(), 3);

        // Worker 2 is cleared by newer validations; worker 4 is now suspected.
        h.apply(&outcome(&[1, 4], &[]));
        assert_eq!(h.excluded(), vec![WorkerId(1), WorkerId(4)]);
        assert!(!h.is_excluded(WorkerId(2)));
        assert_eq!(h.exclusion_events(), 4);
    }

    #[test]
    fn excluded_ratio() {
        let mut h = FaultyWorkerHandler::new();
        assert_eq!(h.excluded_ratio(0), 0.0);
        h.apply(&outcome(&[0, 1], &[]));
        assert!((h.excluded_ratio(10) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn apply_exclusions_masks_excluded_workers_in_place() {
        let mut answers = AnswerSet::new(2, 3, 2);
        for w in 0..3 {
            answers
                .record_answer(ObjectId(0), WorkerId(w), LabelId(0))
                .unwrap();
            answers
                .record_answer(ObjectId(1), WorkerId(w), LabelId(1))
                .unwrap();
        }
        let mut h = FaultyWorkerHandler::new();
        h.apply_exclusions(&mut answers);
        assert_eq!(answers.matrix().num_answers(), 6);
        h.apply(&outcome(&[1], &[]));
        h.apply_exclusions(&mut answers);
        assert_eq!(answers.matrix().num_answers(), 4);
        assert_eq!(answers.matrix().worker_answer_count(WorkerId(1)), 0);
        assert_eq!(answers.matrix().worker_answer_count(WorkerId(0)), 2);
        // Dropping the exclusion re-includes the tombstoned votes — nothing
        // was copied or lost.
        h.reset();
        h.apply_exclusions(&mut answers);
        assert_eq!(answers.matrix().num_answers(), 6);
    }

    #[test]
    fn sync_excluded_replaces_the_set_and_counts_events() {
        let mut h = FaultyWorkerHandler::new();
        h.sync_excluded(&[WorkerId(1), WorkerId(2)]);
        assert_eq!(h.excluded(), vec![WorkerId(1), WorkerId(2)]);
        assert_eq!(h.exclusion_events(), 2);
        // 2 stays, 1 leaves, 5 enters: one new event.
        h.sync_excluded(&[WorkerId(2), WorkerId(5)]);
        assert_eq!(h.excluded(), vec![WorkerId(2), WorkerId(5)]);
        assert_eq!(h.exclusion_events(), 3);
    }

    #[test]
    fn reset_clears_exclusions() {
        let mut h = FaultyWorkerHandler::new();
        h.apply(&outcome(&[5], &[6]));
        h.reset();
        assert_eq!(h.num_excluded(), 0);
    }
}
