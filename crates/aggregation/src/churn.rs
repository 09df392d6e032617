//! Posterior-churn tracking across re-aggregation rounds — the aggregation
//! hook behind the `churn` triage feature (`crowdval-triage`).
//!
//! Every re-aggregation yields a *converged dirty frontier*: the assignment
//! rows that actually moved (see [`crate::moved_rows`] and
//! [`crate::ArrivalOutcome`]). A [`ChurnTracker`] folds that per-round
//! signal into a per-object exponentially weighted moving average of "did
//! this object's posterior move this round?". Objects whose distribution
//! keeps shifting as votes arrive score near 1 (the crowd is still arguing
//! about them — poor auto-finalize candidates); objects whose row has been
//! still for several rounds decay toward 0 (the posterior has settled).
//!
//! The tracker is deliberately dumb: no floats from the posterior itself,
//! only the boolean moved-set per round, decayed geometrically. That makes
//! the score a pure function of the round history — deterministic, finite
//! by construction, and bit-identical across snapshot/restore once the
//! scores vector is serialized (it is: plain serde).

use crowdval_model::ObjectId;
use serde::{Deserialize, Serialize};

/// Geometric decay applied to every score each observed round. With 0.5,
/// an object that stops moving halves its churn score per round and drops
/// below 0.1 after four still rounds.
const CHURN_DECAY: f64 = 0.5;

/// Score assigned to objects the tracker has never observed a round for.
/// New arrivals read as fully churning — the conservative prior that keeps
/// triage from auto-finalizing an object the model has no settling history
/// for.
const CHURN_UNKNOWN: f64 = 1.0;

/// Per-object EWMA of posterior movement across re-aggregation rounds.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnTracker {
    /// Per-object churn score in `[0, 1]`; index = object id.
    scores: Vec<f64>,
    /// Re-aggregation rounds folded in so far.
    rounds: u64,
}

impl ChurnTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of objects covered.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no object is covered yet.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Re-aggregation rounds folded in so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Grows the score vector to cover `num_objects`; new entries start at
    /// the unknown-churn prior.
    pub fn ensure_len(&mut self, num_objects: usize) {
        if num_objects > self.scores.len() {
            self.scores.resize(num_objects, CHURN_UNKNOWN);
        }
    }

    /// Folds one re-aggregation round into the scores: every object decays
    /// by `CHURN_DECAY`, the `moved` objects gain the complementary mass.
    /// `moved` is the round's converged dirty frontier in id order
    /// (duplicates are harmless but waste the bump); `num_objects` is the
    /// corpus size after the round, so growth rows enter at the unknown
    /// prior *before* the decay.
    pub fn observe_round(&mut self, moved: &[ObjectId], num_objects: usize) {
        self.ensure_len(num_objects);
        for score in &mut self.scores {
            *score *= CHURN_DECAY;
        }
        for &o in moved {
            if o.index() < self.scores.len() {
                self.scores[o.index()] = (self.scores[o.index()] + (1.0 - CHURN_DECAY)).min(1.0);
            }
        }
        self.rounds += 1;
    }

    /// The churn score of one object, in `[0, 1]`. Objects the tracker has
    /// never covered read as fully churning (`CHURN_UNKNOWN`).
    pub fn churn(&self, object: ObjectId) -> f64 {
        self.scores
            .get(object.index())
            .copied()
            .unwrap_or(CHURN_UNKNOWN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_objects_read_as_fully_churning() {
        let tracker = ChurnTracker::new();
        assert_eq!(tracker.churn(ObjectId(7)), 1.0);
        assert_eq!(tracker.rounds(), 0);
    }

    #[test]
    fn still_objects_decay_and_moved_objects_stay_high() {
        let mut tracker = ChurnTracker::new();
        tracker.ensure_len(2);
        for _ in 0..5 {
            tracker.observe_round(&[ObjectId(1)], 2);
        }
        assert!(tracker.churn(ObjectId(0)) < 0.05, "still object kept churn");
        assert!(tracker.churn(ObjectId(1)) > 0.5, "moving object lost churn");
        assert_eq!(tracker.rounds(), 5);
        for o in 0..2 {
            let c = tracker.churn(ObjectId(o));
            assert!((0.0..=1.0).contains(&c) && c.is_finite());
        }
    }

    #[test]
    fn growth_rows_enter_at_the_unknown_prior() {
        let mut tracker = ChurnTracker::new();
        tracker.observe_round(&[], 1);
        tracker.observe_round(&[], 1);
        assert!(tracker.churn(ObjectId(0)) < 0.3);
        // A new object appears with the next round: it must not inherit the
        // settled object's low score.
        tracker.observe_round(&[], 2);
        assert!(tracker.churn(ObjectId(1)) > tracker.churn(ObjectId(0)));
    }

    #[test]
    fn round_trips_through_json() {
        let mut tracker = ChurnTracker::new();
        tracker.observe_round(&[ObjectId(0)], 3);
        let json = serde_json::to_string(&tracker).unwrap();
        let reread: ChurnTracker = serde_json::from_str(&json).unwrap();
        assert_eq!(tracker, reread);
    }
}
