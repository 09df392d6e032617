//! The versioned request/response protocol of the validation service.
//!
//! Every message is a plain serde value (and therefore one JSON object per
//! line under the `crowdval-serve` driver). Requests travel inside a
//! [`RequestEnvelope`] carrying the protocol version; the service refuses
//! versions it does not speak with a typed error instead of guessing. The
//! request kinds map onto the paper's validation loop (§3.2,
//! Algorithm 1):
//!
//! | Request | Paper step | Session call |
//! |---|---|---|
//! | [`Request::CreateTask`] | — | `ValidationSessionBuilder::try_build` |
//! | [`Request::SubmitVotes`] | vote arrival (§5.4) | `ingest` |
//! | [`Request::RequestGuidance`] | select (step 1) | `select_next` |
//! | [`Request::SubmitValidation`] | conclude/filter (steps 2–4) | `integrate` |
//! | [`Request::QueryPosterior`] | read `P` / `d` | `current` / `deterministic_assignment` |
//! | [`Request::QueryWorkerTrust`] | online defense | `worker_trust_reports` |
//! | [`Request::Snapshot`] | — | `snapshot` |
//! | [`Request::Restore`] | — | `restore` |
//! | [`Request::SnapshotDelta`] | — | `delta_snapshot` |
//! | [`Request::RestoreDelta`] | — | `restore_with_delta` |
//! | [`Request::CloseTask`] | — | drop |
//!
//! Clients speak **stable string ids** for workers, objects and labels; the
//! per-task [`crowdval_model::IdInterner`]s translate to the dense internal
//! indices at the boundary, so mid-session churn (new workers and objects
//! arriving in any order) never leaks index-assignment order into the
//! contract.
//!
//! Since v2 every envelope also carries a **correlation id**
//! ([`RequestEnvelope::request_id`]) that the service echoes back in the
//! [`Reply`]. Under the sharded runtime ([`crate::runtime::ShardRuntime`])
//! replies to different tasks may come back out of submission order; the
//! echoed id is how clients re-associate them. Two further v2 additions
//! serve the runtime: [`Request::RuntimeStats`] reads the per-shard
//! counters, and [`ServiceError::Overloaded`] is the back-pressure signal a
//! full shard mailbox pushes back to the ingest boundary.

use crowdval_core::snapshot::{SessionDelta, SessionSnapshot};
use crowdval_model::IdInterner;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol version this build speaks. Bumped on any incompatible
/// change to the request/response shapes.
///
/// **v2** (incompatible with v1): [`RequestEnvelope`] gained the required
/// `request_id` correlation field and [`Reply`] echoes it; the
/// [`Request::RuntimeStats`] / [`Response::RuntimeStats`] pair and
/// [`ServiceError::Overloaded`] were added for the sharded runtime. The
/// online-defense surface ([`Request::QueryWorkerTrust`] /
/// [`Response::WorkerTrust`], [`TaskConfig::online_defense`] and the
/// defense fields of the accept replies) rides on v2 — new enum variants
/// are invisible to clients that never send them.
///
/// **v3** (incompatible with v2): incremental checkpoints.
/// [`TaskConfig`] gained the required `wal` switch, [`TaskSnapshot`]
/// records it, and the [`Request::SnapshotDelta`] /
/// [`Request::RestoreDelta`] pair moves [`TaskDelta`]s — event logs
/// replayed on an anchoring full snapshot instead of cloning the corpus.
/// [`ShardStats`] also gained the required `memory_bytes` gauge.
///
/// **v4** (incompatible with v3): agreement-prediction triage.
/// [`TaskConfig`] gained the required `triage` switch (mapping to the
/// engine's calibrated triage preset), the [`Request::TriageStats`] /
/// [`Response::TriageStats`] pair reads a task's triage counters and audit
/// depth, [`ShardStats`] gained the `objects_auto_finalized` /
/// `objects_escalated` counters, and the embedded session snapshot carries
/// the churn tracker and triage state (snapshot format v5).
///
/// **v5** (incompatible with v4): supervision and fault tolerance.
/// [`ServiceError::Overloaded`] gained the required `retry_after_ms` hint
/// and the new [`ServiceError::Unavailable`] carries the same hint for
/// shed, deadline-exceeded and crash-lost requests (see the *client retry
/// contract* below). The [`Request::Health`] / [`Response::Health`] pair
/// reads per-shard liveness and recovery telemetry, [`Request::FaultInject`]
/// arms a deterministic [`crate::fault::FaultPlan`] on runtimes built with
/// fault injection enabled, and [`ShardStats`] gained the `restarts`,
/// `panics_isolated`, `recovered_objects`, `shed_requests` and
/// `requests_lost` counters.
///
/// # Client retry contract
///
/// Back-pressure and failure replies are **typed and retryable**; no
/// accepted-then-lost request goes unanswered:
///
/// * [`ServiceError::Overloaded`] — the request was *not* accepted. Wait
///   `retry_after_ms` (a hint derived from the shard's live queue depth and
///   median service time), then resubmit the identical envelope. Task state
///   is untouched, so retrying cannot double-apply.
/// * [`ServiceError::Unavailable`] with [`UnavailableReason::Shed`] or
///   [`UnavailableReason::DeadlineExceeded`] — same contract as
///   `Overloaded`: not accepted, safe to resubmit after `retry_after_ms`.
/// * [`ServiceError::Unavailable`] with [`UnavailableReason::RequestLost`]
///   or [`UnavailableReason::WorkerPanicked`] — the request was accepted
///   but its shard crashed before a success reply was produced. The
///   supervisor has rolled the owning task back to its **acknowledged
///   prefix**: every earlier `Ok` reply still holds, the lost request left
///   no partial state behind. Mutating requests are therefore safe to
///   resubmit once; read-only requests can simply be retried.
/// * Every accepted request receives exactly one reply with its
///   correlation id — on crash or shutdown, unanswerable requests are
///   flushed as `Unavailable` rather than silently dropped.
pub const PROTOCOL_VERSION: u32 = 5;

/// Oldest snapshot protocol version [`Request::Restore`] still accepts.
/// The v3→v4 bump changed the [`TaskSnapshot`] layout (the `triage` config
/// field and the embedded session's churn/triage state), so older
/// checkpoints are refused; the v4→v5 bump left the snapshot layout
/// untouched (it only extended the control surface), so v4 checkpoints
/// still restore.
pub const MIN_SNAPSHOT_PROTOCOL_VERSION: u32 = 4;

/// A request plus the protocol version the client speaks and the client's
/// correlation id for the reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Client-chosen correlation id, echoed verbatim in the [`Reply`].
    /// Under concurrent dispatch replies arrive out of submission order;
    /// clients that care must pick distinguishable ids (the serial driver
    /// preserves order regardless).
    pub request_id: u64,
    /// The request proper.
    pub request: Request,
}

impl RequestEnvelope {
    /// Wraps a request in the current protocol version under the given
    /// correlation id.
    pub fn new(request_id: u64, request: Request) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            request_id,
            request,
        }
    }

    /// Wraps a request in the current protocol version with correlation id
    /// 0 — for serial drivers and tests where replies cannot interleave.
    pub fn latest(request: Request) -> Self {
        Self::new(0, request)
    }
}

/// One vote as a client submits it: stable string ids only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientVote {
    /// The answering worker's external id.
    pub worker: String,
    /// The answered object's external id.
    pub object: String,
    /// The answered label — must be one of the task's labels.
    pub label: String,
}

/// Which guidance strategy a task runs (paper §5.2–§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// Dynamically weighted hybrid (§5.4) — the paper's default.
    #[default]
    Hybrid,
    /// Information-gain maximization (§5.2).
    UncertaintyDriven,
    /// Expected spammer detections (§5.3).
    WorkerDriven,
    /// Highest-entropy baseline.
    EntropyBaseline,
    /// Uniform random baseline.
    Random,
}

/// Per-task configuration supplied at creation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskConfig {
    /// Guidance strategy for [`Request::RequestGuidance`].
    pub strategy: StrategyChoice,
    /// Seed of the strategy's RNG stream (hybrid roulette / random picks);
    /// fixing it makes a task's guidance sequence reproducible.
    pub seed: u64,
    /// Expert-effort budget `b`; `None` allows validating every object.
    pub budget: Option<usize>,
    /// Whether detected faulty workers are excluded from aggregation (§5.3).
    pub handle_faulty_workers: bool,
    /// Width of the entropy pre-filter shortlist for hypothesis scoring
    /// (§5.4) — the latency/quality knob of guidance requests. `None` uses
    /// the engine default.
    pub shortlist: Option<usize>,
    /// Whether the streaming trust ledger may auto-tombstone (and
    /// reinstate) suspicious workers on every ingest and validation. The
    /// ledger *tracks* trust either way — [`Request::QueryWorkerTrust`]
    /// always answers — but only an enforcing task flips exclusions outside
    /// the classic §5.3 detector path.
    pub online_defense: bool,
    /// Whether the task keeps a write-ahead event log so
    /// [`Request::SnapshotDelta`] can answer. Costs `O(events since the
    /// last full snapshot)` memory; off by default.
    pub wal: bool,
    /// Whether the task runs agreement-prediction triage (the engine's
    /// calibrated preset): objects the convergence predictor scores
    /// unanimous are finalized without an expert query (with an audit
    /// trail), predicted-contentious objects are pre-filtered into the
    /// guidance pool, and the rest escalate to normal selection. Off by
    /// default; [`Request::TriageStats`] answers either way.
    pub triage: bool,
}

impl Default for TaskConfig {
    fn default() -> Self {
        Self {
            strategy: StrategyChoice::default(),
            seed: 0,
            budget: None,
            handle_faulty_workers: true,
            shortlist: None,
            online_defense: false,
            wal: false,
            triage: false,
        }
    }
}

/// The service's command vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Registers a new named task with a fixed label set. The label list
    /// doubles as the label-id namespace: labels are fixed for the lifetime
    /// of the task (a classification task does not sprout new classes
    /// mid-stream), while workers and objects may churn freely.
    CreateTask {
        task: String,
        labels: Vec<String>,
        config: TaskConfig,
    },
    /// Streams a batch of crowd votes into a task. Unknown workers and
    /// objects are registered on first sight; unknown labels fail the whole
    /// batch atomically (nothing is ingested).
    SubmitVotes {
        task: String,
        votes: Vec<ClientVote>,
    },
    /// Asks the task's guidance strategy which object the expert should
    /// validate next.
    RequestGuidance { task: String },
    /// Integrates one expert validation.
    SubmitValidation {
        task: String,
        object: String,
        label: String,
    },
    /// Reads the current posterior and deterministic label of one object.
    QueryPosterior { task: String, object: String },
    /// Checkpoints a task into a serializable [`TaskSnapshot`].
    Snapshot { task: String },
    /// Recreates a task from a snapshot (crash recovery / migration). The
    /// restored task resumes bit-identically to an uninterrupted one.
    Restore {
        task: String,
        snapshot: Box<TaskSnapshot>,
    },
    /// Checkpoints a task incrementally: the event log since the task's
    /// last full [`Request::Snapshot`], as a [`TaskDelta`]. `O(events)`
    /// instead of the full snapshot's `O(corpus)` — the checkpoint-stall
    /// fix at million-object scale. Requires [`TaskConfig::wal`].
    SnapshotDelta { task: String },
    /// Recreates a task from an anchoring full snapshot plus the delta
    /// taken from it, by replaying the delta's events. The result is
    /// bit-identical to the task the delta was taken from.
    RestoreDelta {
        task: String,
        snapshot: Box<TaskSnapshot>,
        delta: Box<TaskDelta>,
    },
    /// Reads the online-defense state of a task: per-worker trust reports
    /// plus the cumulative defense telemetry. Answers in every task mode —
    /// the trust ledger tracks even when enforcement
    /// ([`TaskConfig::online_defense`]) is off.
    QueryWorkerTrust { task: String },
    /// Reads a task's triage state: the monotone decision counters and the
    /// auto-finalize audit trail depth. Answers in every task mode — a
    /// task without [`TaskConfig::triage`] reports all-zero counters.
    TriageStats { task: String },
    /// Removes a task, returning a final summary.
    CloseTask { task: String },
    /// Reads the runtime's per-shard counters: queue depth, requests
    /// served, votes ingested and service-time percentiles. Handled by the
    /// dispatcher itself under the sharded runtime (it never enters a
    /// mailbox, so it stays answerable under overload); a plain
    /// [`crate::ValidationService`] answers with a single synthetic shard
    /// describing itself.
    RuntimeStats,
    /// Reads per-shard liveness and supervision telemetry: whether each
    /// worker is alive, how often it was restarted, and how much time
    /// recovery has cost. Dispatcher-handled like [`Request::RuntimeStats`],
    /// so it keeps answering while shards are down or overloaded — that is
    /// the point of a health check. A plain [`crate::ValidationService`]
    /// reports one alive synthetic shard.
    Health,
    /// Arms a deterministic fault plan on the runtime (chaos testing).
    /// Dispatcher-handled; refused with
    /// [`ServiceError::FaultInjectionDisabled`] unless the runtime was
    /// built with [`crate::runtime::SupervisionConfig::fault_injection`] —
    /// a serial [`crate::ValidationService`] always refuses.
    FaultInject {
        /// The faults to arm, merged into whatever is already pending.
        plan: crate::fault::FaultPlan,
    },
}

impl Request {
    /// The task this request addresses — the routing key of the sharded
    /// runtime. `None` for service-global requests ([`Request::RuntimeStats`]),
    /// which the dispatcher answers itself.
    pub fn task_name(&self) -> Option<&str> {
        match self {
            Request::CreateTask { task, .. }
            | Request::SubmitVotes { task, .. }
            | Request::RequestGuidance { task }
            | Request::SubmitValidation { task, .. }
            | Request::QueryPosterior { task, .. }
            | Request::Snapshot { task }
            | Request::Restore { task, .. }
            | Request::SnapshotDelta { task }
            | Request::RestoreDelta { task, .. }
            | Request::QueryWorkerTrust { task }
            | Request::TriageStats { task }
            | Request::CloseTask { task } => Some(task),
            Request::RuntimeStats | Request::Health | Request::FaultInject { .. } => None,
        }
    }

    /// Whether a successful handling of this request mutates task state.
    /// Read-only requests are replayable for free; mutating requests are
    /// what the supervisor's per-task crash-recovery log records, and what
    /// the shed policy refuses to drop under overload.
    ///
    /// [`Request::Snapshot`] counts as mutating: taking a full snapshot
    /// re-anchors the task's client-visible delta log, and recovery must
    /// reproduce that anchor. [`Request::RequestGuidance`] counts too — it
    /// advances the strategy's RNG stream and the triage scorer.
    pub fn is_mutating(&self) -> bool {
        !matches!(
            self,
            Request::QueryPosterior { .. }
                | Request::QueryWorkerTrust { .. }
                | Request::TriageStats { .. }
                | Request::SnapshotDelta { .. }
                | Request::RuntimeStats
                | Request::Health
                | Request::FaultInject { .. }
        )
    }

    /// Whether this request may be shed under overload or mid-recovery.
    /// Only advisory reads whose loss costs a retry, never data: guidance
    /// picks and triage counters. Ingest and validation — the requests that
    /// carry crowd evidence — are never shed.
    pub fn is_sheddable(&self) -> bool {
        matches!(
            self,
            Request::RequestGuidance { .. } | Request::TriageStats { .. }
        )
    }
}

/// A complete, serializable checkpoint of one task: the session state plus
/// the three external-id mappings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSnapshot {
    /// Protocol version that produced the snapshot.
    pub protocol_version: u32,
    /// Whether the task keeps the delta-checkpoint event log
    /// ([`TaskConfig::wal`]); a restore re-enables it so the task keeps
    /// answering [`Request::SnapshotDelta`].
    pub wal: bool,
    /// Object external-id mapping, in dense-index order.
    pub objects: IdInterner,
    /// Worker external-id mapping, in dense-index order.
    pub workers: IdInterner,
    /// Label external-id mapping (fixed at task creation).
    pub labels: IdInterner,
    /// The full session checkpoint.
    pub session: SessionSnapshot,
}

/// An incremental task checkpoint: the session's event log since the
/// anchoring full [`TaskSnapshot`], plus the external-id mappings *at delta
/// time* — the log's dense votes may name objects and workers that arrived
/// after the anchor, so the anchor's interners do not cover them. Labels
/// are fixed at task creation and ride with the anchor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDelta {
    /// Protocol version that produced the delta.
    pub protocol_version: u32,
    /// Object external-id mapping at delta time (extends the anchor's).
    pub objects: IdInterner,
    /// Worker external-id mapping at delta time (extends the anchor's).
    pub workers: IdInterner,
    /// The session's event log since the anchor.
    pub session: SessionDelta,
}

/// One label's posterior probability, by external label id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelProbability {
    pub label: String,
    pub probability: f64,
}

/// Successful replies, one variant per request kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::CreateTask`].
    TaskCreated { task: String, num_labels: usize },
    /// Reply to [`Request::SubmitVotes`]: what the batch did to the session.
    VotesAccepted {
        task: String,
        votes: usize,
        new_objects: usize,
        new_workers: usize,
        em_iterations: usize,
        uncertainty: f64,
        /// External ids of workers the online defense tombstoned while
        /// absorbing this batch (empty unless the task enforces
        /// [`TaskConfig::online_defense`]).
        workers_excluded: Vec<String>,
        /// External ids of workers the online defense reinstated.
        workers_reinstated: Vec<String>,
    },
    /// Reply to [`Request::RequestGuidance`]; `object` is `None` when every
    /// known object has been validated (or the task holds no objects yet).
    Guidance {
        task: String,
        object: Option<String>,
    },
    /// Reply to [`Request::SubmitValidation`]. `flagged` lists objects whose
    /// earlier validations the §5.5 confirmation check now doubts.
    ValidationAccepted {
        task: String,
        object: String,
        flagged: Vec<String>,
        uncertainty: f64,
        validations: usize,
        /// External ids of workers the defense tombstoned as a consequence
        /// of this validation's evidence.
        workers_excluded: Vec<String>,
        /// External ids of workers this validation's evidence exonerated
        /// and reinstated.
        workers_reinstated: Vec<String>,
    },
    /// Reply to [`Request::QueryPosterior`]. `label` is the current
    /// deterministic label (expert-pinned when validated).
    Posterior {
        task: String,
        object: String,
        label: String,
        validated: bool,
        probabilities: Vec<LabelProbability>,
    },
    /// Reply to [`Request::Snapshot`].
    Snapshot {
        task: String,
        snapshot: Box<TaskSnapshot>,
    },
    /// Reply to [`Request::SnapshotDelta`].
    SnapshotDelta {
        task: String,
        delta: Box<TaskDelta>,
        /// Events in the delta — what the checkpoint's cost scales with.
        events: usize,
    },
    /// Reply to [`Request::Restore`] and [`Request::RestoreDelta`].
    Restored {
        task: String,
        objects: usize,
        workers: usize,
        validations: usize,
    },
    /// Reply to [`Request::CloseTask`].
    TaskClosed {
        task: String,
        /// Every vote the task recorded, excluded workers' included.
        votes: usize,
        validations: usize,
    },
    /// Reply to [`Request::QueryWorkerTrust`]: the task's online-defense
    /// state. `workers` is sorted by descending suspicion.
    WorkerTrust {
        task: String,
        workers: Vec<WorkerTrustEntry>,
        batches_observed: u64,
        low_kappa_batches: u64,
        exclusions: u64,
        reinstatements: u64,
    },
    /// Reply to [`Request::TriageStats`]: the task's triage decision
    /// counters and audit depth. `scored` counts scoring events (the same
    /// object is re-scored every time selection reconsiders it);
    /// `auto_finalized` counts distinct objects finalized without an
    /// expert query, which equals `audit_records`.
    TriageStats {
        task: String,
        enabled: bool,
        scored: u64,
        auto_finalized: u64,
        contentious: u64,
        escalated: u64,
        audit_records: usize,
    },
    /// Reply to [`Request::RuntimeStats`]: one entry per shard. A
    /// single-threaded [`crate::ValidationService`] reports itself as one
    /// shard with no mailbox.
    RuntimeStats { shards: Vec<ShardStats> },
    /// Reply to [`Request::Health`]: per-shard liveness and recovery
    /// telemetry.
    Health { shards: Vec<ShardHealth> },
    /// Reply to [`Request::FaultInject`]: how many faults the plan armed
    /// and how many are pending overall (armed but not yet fired).
    FaultInjected { armed: usize, pending: usize },
}

/// One shard's liveness report, as returned by [`Response::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index (0-based).
    pub shard: usize,
    /// Whether the shard's worker thread is currently running. A dead
    /// shard is restarted lazily on its next dispatched request (or
    /// eagerly by this very health probe when supervision is enabled).
    pub alive: bool,
    /// Times the supervisor has restarted this shard's worker.
    pub restarts: u64,
    /// Panics the worker isolated (each kills the worker; the next
    /// dispatch restarts it from the last checkpoint).
    pub panics_isolated: u64,
    /// Requests currently waiting in the shard's mailbox.
    pub queue_depth: usize,
    /// Tasks with a crash-recovery checkpoint on this shard.
    pub checkpointed_tasks: usize,
    /// Total time this shard has spent rebuilding state after crashes, in
    /// microseconds.
    pub recovery_us: u64,
}

/// One worker's trust summary, as reported by [`Response::WorkerTrust`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerTrustEntry {
    /// The worker's external id.
    pub worker: String,
    /// Votes this worker has streamed in.
    pub votes: u64,
    /// Expert-validated answers of this worker.
    pub validations: u64,
    /// Current suspicion in `[0, 1]`.
    pub suspicion: f64,
    /// Whether the worker is currently tombstoned.
    pub excluded: bool,
    /// Whether the latest EM detection pass flagged the worker.
    pub em_flagged: bool,
}

/// One shard's counters, as reported by [`Response::RuntimeStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (0-based).
    pub shard: usize,
    /// Live tasks owned by this shard.
    pub tasks: usize,
    /// Requests currently waiting in the shard's mailbox.
    pub queue_depth: usize,
    /// Mailbox capacity; 0 means no mailbox (in-process serial service).
    pub mailbox_capacity: usize,
    /// Requests this shard has finished processing.
    pub requests_served: u64,
    /// Votes accepted by this shard's tasks across all `SubmitVotes`.
    pub votes_ingested: u64,
    /// Requests rejected at the ingest boundary because the mailbox was
    /// full (only under [`crate::runtime::OverloadPolicy::Reject`]).
    pub overload_rejections: u64,
    /// Workers tombstoned by the online defense across this shard's tasks.
    pub workers_excluded: u64,
    /// Workers reinstated by the online defense across this shard's tasks.
    pub workers_reinstated: u64,
    /// Objects auto-finalized by triage across this shard's tasks — expert
    /// queries the predictor saved.
    pub objects_auto_finalized: u64,
    /// Objects escalated by triage scoring across this shard's tasks
    /// (scoring events that ended in neither finalization nor the
    /// contentious pool).
    pub objects_escalated: u64,
    /// Measured heap bytes of the answer storage across this shard's tasks
    /// (paged arenas, compact CSR mirrors and the tombstone mask of each
    /// task's one answer set).
    pub memory_bytes: u64,
    /// Median request service time (handling only, queue wait excluded),
    /// in microseconds; 0 until the shard has served a request.
    pub service_time_p50_us: f64,
    /// 99th-percentile request service time, in microseconds.
    pub service_time_p99_us: f64,
    /// Times the supervisor restarted this shard's worker after a crash.
    pub restarts: u64,
    /// Worker panics isolated by the shard's panic boundary (each one
    /// kills the worker and becomes a restart on the next dispatch).
    pub panics_isolated: u64,
    /// Objects brought back by checkpoint recovery across all restarts.
    pub recovered_objects: u64,
    /// Sheddable requests refused under overload or mid-recovery with
    /// [`ServiceError::Unavailable`] (`reason: Shed`).
    pub shed_requests: u64,
    /// Accepted requests that crashed with their worker and were flushed
    /// as [`ServiceError::Unavailable`] (`reason: RequestLost`) instead of
    /// going unanswered.
    pub requests_lost: u64,
}

/// Typed failures. Every malformed or inapplicable request maps to one of
/// these — no panic is reachable from any request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The envelope spoke a protocol version this build does not.
    UnsupportedVersion { requested: u32, supported: u32 },
    /// A request line could not be parsed at all (serve driver only).
    MalformedRequest { message: String },
    /// The named task does not exist.
    TaskNotFound { task: String },
    /// A task with this name already exists (`CreateTask` / `Restore`).
    TaskExists { task: String },
    /// The task-creation input was invalid (empty name, empty or duplicate
    /// label set, inconsistent config).
    InvalidTask { message: String },
    /// A label id outside the task's fixed label set.
    UnknownLabel { task: String, label: String },
    /// An object id the task has never seen a vote for.
    UnknownObject { task: String, object: String },
    /// A snapshot that does not describe a consistent task state.
    InvalidSnapshot { message: String },
    /// An engine-level error surfaced through the model's typed errors.
    Model { message: String },
    /// Back-pressure: the mailbox of the shard owning this task is full and
    /// the runtime runs [`crate::runtime::OverloadPolicy::Reject`]. The
    /// request was **not** accepted; the client should wait
    /// `retry_after_ms` and resubmit the identical envelope (see the retry
    /// contract on [`PROTOCOL_VERSION`]). Task state is untouched.
    Overloaded {
        task: String,
        shard: usize,
        capacity: usize,
        /// Suggested back-off before resubmitting, derived from the
        /// shard's live queue depth and median service time. At least 1.
        retry_after_ms: u64,
    },
    /// The request could not be served right now; `reason` says why and
    /// whether it was ever accepted (see the retry contract on
    /// [`PROTOCOL_VERSION`]). Carries the same `retry_after_ms` hint as
    /// [`ServiceError::Overloaded`].
    Unavailable {
        task: String,
        shard: usize,
        retry_after_ms: u64,
        reason: UnavailableReason,
    },
    /// A [`Request::FaultInject`] reached a service or runtime built
    /// without fault injection enabled. Never armed, never retryable.
    FaultInjectionDisabled,
}

/// Why a request came back [`ServiceError::Unavailable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnavailableReason {
    /// A sheddable request ([`Request::is_sheddable`]) was refused because
    /// the shard's queue crossed the shed watermark. Not accepted; safe to
    /// resubmit.
    Shed,
    /// The shard was mid-recovery and could not accept work before the
    /// request's deadline. Not accepted; safe to resubmit.
    Recovering,
    /// The dispatch deadline expired while backing off on a full mailbox.
    /// Not accepted; safe to resubmit.
    DeadlineExceeded,
    /// The request was accepted but its shard crashed before replying; the
    /// owning task was rolled back to its acknowledged prefix, so the
    /// request left no state behind and may be resubmitted once.
    RequestLost,
    /// The request's own handling panicked (and killed the worker). The
    /// owning task was rolled back to its acknowledged prefix. Resubmitting
    /// the same request will likely panic again — clients should treat
    /// this as a poison request and report it.
    WorkerPanicked,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} not supported (this service speaks v{supported})"
            ),
            ServiceError::MalformedRequest { message } => {
                write!(f, "malformed request: {message}")
            }
            ServiceError::TaskNotFound { task } => write!(f, "no task named {task:?}"),
            ServiceError::TaskExists { task } => {
                write!(f, "a task named {task:?} already exists")
            }
            ServiceError::InvalidTask { message } => write!(f, "invalid task: {message}"),
            ServiceError::UnknownLabel { task, label } => {
                write!(f, "task {task:?} has no label {label:?}")
            }
            ServiceError::UnknownObject { task, object } => {
                write!(f, "task {task:?} has no object {object:?}")
            }
            ServiceError::InvalidSnapshot { message } => {
                write!(f, "invalid snapshot: {message}")
            }
            ServiceError::Model { message } => write!(f, "model error: {message}"),
            ServiceError::Overloaded {
                task,
                shard,
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} owning task {task:?} is overloaded \
                 (mailbox of {capacity} is full); retry after {retry_after_ms}ms"
            ),
            ServiceError::Unavailable {
                task,
                shard,
                retry_after_ms,
                reason,
            } => {
                let why = match reason {
                    UnavailableReason::Shed => "request shed under overload",
                    UnavailableReason::Recovering => "shard is recovering from a crash",
                    UnavailableReason::DeadlineExceeded => "dispatch deadline exceeded",
                    UnavailableReason::RequestLost => "request lost in a shard crash",
                    UnavailableReason::WorkerPanicked => "request handling panicked",
                };
                write!(
                    f,
                    "shard {shard} could not serve task {task:?}: {why}; \
                     retry after {retry_after_ms}ms"
                )
            }
            ServiceError::FaultInjectionDisabled => {
                write!(f, "fault injection is not enabled on this service")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<crowdval_model::ModelError> for ServiceError {
    fn from(err: crowdval_model::ModelError) -> Self {
        ServiceError::Model {
            message: err.to_string(),
        }
    }
}

/// The outcome half of a [`Reply`]: the response or the typed error,
/// externally tagged (`{"Ok": …}` / `{"Err": …}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyOutcome {
    Ok(Response),
    Err(ServiceError),
}

/// What the serve driver writes per request line: the echoed correlation id
/// plus the outcome. The echo is what lets clients of the sharded runtime
/// match out-of-order replies back to their requests; lines that cannot be
/// parsed at all echo id 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// The [`RequestEnvelope::request_id`] this reply answers.
    pub request_id: u64,
    /// Response or typed error.
    pub outcome: ReplyOutcome,
}

impl Reply {
    /// A successful reply.
    pub fn ok(request_id: u64, response: Response) -> Self {
        Self {
            request_id,
            outcome: ReplyOutcome::Ok(response),
        }
    }

    /// A failed reply.
    pub fn err(request_id: u64, error: ServiceError) -> Self {
        Self {
            request_id,
            outcome: ReplyOutcome::Err(error),
        }
    }

    /// Borrowing view of the outcome as a `Result`.
    pub fn result(&self) -> Result<&Response, &ServiceError> {
        match &self.outcome {
            ReplyOutcome::Ok(response) => Ok(response),
            ReplyOutcome::Err(error) => Err(error),
        }
    }

    /// Consuming view of the outcome as a `Result`.
    pub fn into_result(self) -> Result<Response, ServiceError> {
        match self.outcome {
            ReplyOutcome::Ok(response) => Ok(response),
            ReplyOutcome::Err(error) => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_through_json() {
        let envelope = RequestEnvelope::new(
            41,
            Request::SubmitVotes {
                task: "t".into(),
                votes: vec![ClientVote {
                    worker: "alice".into(),
                    object: "img-7".into(),
                    label: "cat".into(),
                }],
            },
        );
        let json = serde_json::to_string(&envelope).unwrap();
        let reread: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope, reread);
        assert_eq!(reread.request_id, 41);
    }

    #[test]
    fn reply_echoes_the_request_id_on_the_wire() {
        let reply = Reply::ok(
            7,
            Response::Guidance {
                task: "t".into(),
                object: None,
            },
        );
        let json = serde_json::to_string(&reply).unwrap();
        assert!(json.contains("\"request_id\":7"));
        let reread: Reply = serde_json::from_str(&json).unwrap();
        assert_eq!(reread, reply);
        assert!(reread.result().is_ok());
    }

    #[test]
    fn runtime_stats_request_round_trips() {
        let envelope = RequestEnvelope::new(3, Request::RuntimeStats);
        assert_eq!(envelope.request.task_name(), None);
        let json = serde_json::to_string(&envelope).unwrap();
        let reread: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope, reread);
    }

    #[test]
    fn errors_render_messages() {
        let e = ServiceError::UnsupportedVersion {
            requested: 9,
            supported: PROTOCOL_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
        let e = ServiceError::UnknownLabel {
            task: "t".into(),
            label: "dog".into(),
        };
        assert!(e.to_string().contains("dog"));
        let e = ServiceError::Overloaded {
            task: "t".into(),
            shard: 3,
            capacity: 64,
            retry_after_ms: 12,
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("retry after 12ms"));
        let e = ServiceError::Unavailable {
            task: "t".into(),
            shard: 1,
            retry_after_ms: 5,
            reason: UnavailableReason::RequestLost,
        };
        assert!(e.to_string().contains("lost"));
        assert!(e.to_string().contains("retry after 5ms"));
        let e = ServiceError::FaultInjectionDisabled;
        assert!(e.to_string().contains("fault injection"));
    }

    #[test]
    fn v5_control_requests_round_trip_and_route_to_the_dispatcher() {
        let health = RequestEnvelope::new(9, Request::Health);
        assert_eq!(health.request.task_name(), None);
        assert!(!health.request.is_mutating());
        let mut plan = crate::fault::FaultPlan::new();
        plan.push(0, 3, crate::fault::FaultKind::Panic);
        let inject = RequestEnvelope::new(10, Request::FaultInject { plan });
        assert_eq!(inject.request.task_name(), None);
        for envelope in [health, inject] {
            let json = serde_json::to_string(&envelope).unwrap();
            let reread: RequestEnvelope = serde_json::from_str(&json).unwrap();
            assert_eq!(envelope, reread);
        }
    }

    #[test]
    fn shed_policy_spares_evidence_carrying_requests() {
        assert!(Request::RequestGuidance { task: "t".into() }.is_sheddable());
        assert!(Request::TriageStats { task: "t".into() }.is_sheddable());
        assert!(!Request::SubmitVotes {
            task: "t".into(),
            votes: vec![],
        }
        .is_sheddable());
        assert!(!Request::SubmitValidation {
            task: "t".into(),
            object: "o".into(),
            label: "l".into(),
        }
        .is_sheddable());
        // Snapshot re-anchors the delta log, guidance advances RNG streams:
        // both must count as mutating for crash recovery.
        assert!(Request::Snapshot { task: "t".into() }.is_mutating());
        assert!(Request::RequestGuidance { task: "t".into() }.is_mutating());
        assert!(!Request::SnapshotDelta { task: "t".into() }.is_mutating());
        assert!(!Request::QueryPosterior {
            task: "t".into(),
            object: "o".into(),
        }
        .is_mutating());
    }

    #[test]
    fn model_errors_convert() {
        let err: ServiceError = crowdval_model::ModelError::LabelOutOfRange {
            label: 7,
            num_labels: 2,
        }
        .into();
        assert!(matches!(err, ServiceError::Model { .. }));
    }
}
