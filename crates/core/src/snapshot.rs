//! Session checkpointing: serializable snapshots of a full
//! [`crate::session::ValidationSession`].
//!
//! A [`SessionSnapshot`] captures everything a session needs to resume
//! **bit-identically** to an uninterrupted run: the raw vote stream, the
//! expert validation function, the worker-exclusion state, the current
//! probabilistic answer set (so the restored session warm-starts from the
//! exact floats the live one held), the accumulated trace and counters, and
//! the configuration state of the aggregator and the selection strategy —
//! RNG streams included, so even roulette-wheel strategies resume mid-draw.
//!
//! What is *not* stored is anything derivable: the answer set's tombstone
//! mask is rebuilt from the exclusion set, the entropy shortlist is rebuilt
//! dirty and recomputes its cached values from the restored posterior (the
//! cache is bitwise-exact with respect to the posterior, so recomputation
//! cannot drift — see [`crate::shortlist`]),
//! and the cross-step guidance score cache is dropped outright and rebuilt
//! lazily: a missing entry is always evaluated exactly, never estimated, so
//! the restored session's first selection is a full re-score pass whose
//! winner is the same exact argmax the warm-cached live session picks (see
//! [`crate::guidance_cache`]).
//!
//! Snapshots are plain serde values: ship them through `serde_json` for the
//! service's crash-recovery path ([`crowdval-service`'s `Snapshot`/`Restore`
//! requests) or keep them in memory for cheap forking of what-if sessions.

use crate::metrics::ValidationTrace;
use crate::process::ProcessConfig;
use crate::strategy::StrategyState;
use crowdval_aggregation::{AggregatorState, ChurnTracker};
use crowdval_model::{
    AnswerSet, ExpertValidation, GroundTruth, LabelId, ObjectId, ProbabilisticAnswerSet, Vote,
    WorkerId,
};
use crowdval_spammer::{DetectorConfig, FaultyWorkerHandler, WorkerTrustLedger};
use crowdval_triage::TriageState;
use serde::{Deserialize, Serialize};

/// Version tag written into every snapshot; bumped when the layout changes
/// so a restore can reject snapshots from an incompatible build instead of
/// misinterpreting them. v2: [`ProcessConfig`] gained the `guidance_cache`
/// switch and [`crate::metrics::ValidationStep`] the per-step guidance
/// telemetry. v3: [`ProcessConfig`] gained the online-defense `trust`
/// thresholds and the snapshot the worker-trust ledger (evidence counters,
/// tombstone flags and defense telemetry). v4: incremental checkpoints —
/// [`SessionDelta`] (an event log replayed on top of an anchoring full
/// snapshot) joins the format; the full-snapshot layout itself is unchanged.
/// v5: agreement-prediction triage — [`ProcessConfig`] gained the `triage`
/// thresholds and the snapshot the churn tracker plus the triage state
/// (predictor weights, auto-finalize audit trail, counters).
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// A complete, serializable checkpoint of a validation session. Produce one
/// with [`crate::session::ValidationSession::snapshot`], resume with
/// [`crate::session::ValidationSession::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The full vote stream seen so far (unmasked — exclusions live in
    /// `handler`).
    pub answers: AnswerSet,
    /// Expert validations collected so far.
    pub expert: ExpertValidation,
    /// Worker-exclusion state (§5.3), including the audit counter.
    pub handler: FaultyWorkerHandler,
    /// The online-defense trust ledger: per-worker evidence counters,
    /// tombstone flags and cumulative defense telemetry.
    pub trust: WorkerTrustLedger,
    /// The faulty-worker detector's thresholds.
    pub detector: DetectorConfig,
    /// Run-time options.
    pub config: ProcessConfig,
    /// Reference ground truth, when the session runs in evaluation mode.
    pub ground_truth: Option<GroundTruth>,
    /// The current probabilistic answer set — the warm-start seed of every
    /// post-restore aggregation.
    pub current: ProbabilisticAnswerSet,
    /// The validation trace accumulated so far.
    pub trace: ValidationTrace,
    /// Validations performed so far.
    pub iteration: usize,
    /// Votes absorbed through streaming ingestion so far.
    pub votes_ingested: usize,
    /// Corpus size at the last cold re-anchor (the doubling trigger).
    pub answers_at_last_cold: usize,
    /// Per-object posterior-churn EWMA (the triage churn feature).
    pub churn: ChurnTracker,
    /// Agreement-prediction triage state: predictor weights, auto-finalize
    /// audit trail and counters.
    pub triage: TriageState,
    /// The aggregator's configuration state.
    pub aggregator: AggregatorState,
    /// The selection strategy's configuration + mutable state.
    pub strategy: StrategyState,
}

/// One replayable session mutation, recorded in application order by the
/// session's write-ahead log ([`crate::session::ValidationSession::enable_delta_log`]).
///
/// Replay goes through the same public entry points the live session used,
/// so every derived state — EM trajectories, strategy RNG streams, trust
/// ledger evidence — evolves identically. `Select` is logged too: a
/// selection advances strategy RNG state even though it validates nothing,
/// and the recorded pick doubles as a replay integrity check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// A [`crate::session::ValidationSession::ingest`] batch.
    Ingest { votes: Vec<Vote> },
    /// A [`crate::session::ValidationSession::select_next`] call that
    /// consulted the strategy, with the object it picked.
    Select { picked: Option<ObjectId> },
    /// A [`crate::session::ValidationSession::integrate`] call.
    Integrate { object: ObjectId, label: LabelId },
    /// A [`crate::session::ValidationSession::revalidate`] call.
    Revalidate { object: ObjectId, label: LabelId },
    /// A [`crate::session::ValidationSession::set_worker_excluded`] override.
    SetWorkerExcluded { worker: WorkerId, excluded: bool },
}

/// An incremental checkpoint: the events applied since the anchoring full
/// [`SessionSnapshot`] was taken. Produce one with
/// [`crate::session::ValidationSession::delta_snapshot`]; resume with
/// [`crate::session::ValidationSession::restore_with_delta`], which replays
/// the events on the restored anchor and yields a session **bit-identical**
/// to the live one — same posterior floats, same trace, same RNG streams.
///
/// Taking a delta is `O(events since anchor)` instead of the full
/// snapshot's `O(corpus)`: at million-object scale that turns a checkpoint
/// stall into a cheap log clone. The anchor counters guard against replaying
/// a delta onto the wrong snapshot (a typed error, never silent divergence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionDelta {
    /// Snapshot layout version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// `iteration` of the anchoring full snapshot.
    pub anchor_iteration: usize,
    /// `votes_ingested` of the anchoring full snapshot.
    pub anchor_votes_ingested: usize,
    /// Events applied since the anchor, in order.
    pub events: Vec<SessionEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        use crate::strategy::EntropyBaseline;
        let synth = crowdval_sim::SyntheticConfig {
            num_objects: 10,
            ..crowdval_sim::SyntheticConfig::paper_default(21)
        }
        .generate();
        let session =
            crate::session::ValidationSessionBuilder::new(synth.dataset.answers().clone())
                .strategy(Box::new(EntropyBaseline))
                .build();
        let snapshot = session.snapshot().unwrap();
        assert_eq!(snapshot.format_version, SNAPSHOT_FORMAT_VERSION);
        let json = serde_json::to_string(&snapshot).unwrap();
        let reread: SessionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, reread);
    }
}
