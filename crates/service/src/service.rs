//! The multi-tenant validation service: a registry of named tasks, each
//! wrapping one [`ValidationSession`], driven through the versioned command
//! protocol of [`crate::protocol`].
//!
//! Invariants the service maintains:
//!
//! * **No panic is reachable from any request.** Every malformed input —
//!   wrong protocol version, unknown task, unknown label, inconsistent
//!   snapshot — maps to a [`ServiceError`]; the underlying session's
//!   fallible surface (`try_build`, `ingest`, `integrate`, `restore`)
//!   carries the rest.
//! * **External ids are the contract.** Workers, objects and labels are
//!   interned per task in first-seen order; the dense indices the engine
//!   runs on never appear in a request or response. Because interning order
//!   equals ingestion order, a task driven through the service reproduces
//!   the exact selection order and posterior of a directly driven
//!   [`ValidationSession`] fed the same votes.
//! * **Atomic vote batches.** A `SubmitVotes` batch with any unknown label
//!   fails before anything is interned or ingested.

use crate::protocol::WorkerTrustEntry;
use crate::protocol::{
    ClientVote, LabelProbability, Reply, Request, RequestEnvelope, Response, ServiceError,
    ShardHealth, ShardStats, StrategyChoice, TaskConfig, TaskDelta, TaskSnapshot,
    MIN_SNAPSHOT_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::shard::LatencyHistogram;
use crate::supervisor::RecoveryAnchor;
use crowdval_core::{
    EntropyBaseline, HybridStrategy, ProcessConfig, RandomSelection, SelectionStrategy,
    TriageConfig, UncertaintyDriven, ValidationSession, ValidationSessionBuilder, WorkerDriven,
};
use crowdval_model::{IdInterner, LabelId, ObjectId, Vote, WorkerId};
use crowdval_spammer::TrustConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// One tenant: a validation session plus its three external-id mappings.
struct TaskState {
    objects: IdInterner,
    workers: IdInterner,
    labels: IdInterner,
    session: ValidationSession,
}

impl TaskState {
    /// Maps a dense object index back to its external id. The interner
    /// covers every object the session knows (votes are the only way
    /// objects enter), so the lookup cannot fail for engine-produced ids.
    fn object_name(&self, object: ObjectId) -> String {
        self.objects
            .name(object.index())
            .unwrap_or("<unknown>")
            .to_string()
    }

    /// Maps a dense worker index back to its external id.
    fn worker_name(&self, worker: WorkerId) -> String {
        self.workers
            .name(worker.index())
            .unwrap_or("<unknown>")
            .to_string()
    }

    /// Maps a list of dense worker ids to external ids.
    fn worker_names(&self, workers: &[WorkerId]) -> Vec<String> {
        workers.iter().map(|&w| self.worker_name(w)).collect()
    }
}

/// A registry of named validation tasks behind the versioned protocol.
///
/// ```
/// use crowdval_service::{Request, RequestEnvelope, Response, TaskConfig, ValidationService};
///
/// let mut service = ValidationService::new();
/// let reply = service.handle(&RequestEnvelope::latest(Request::CreateTask {
///     task: "moderation".into(),
///     labels: vec!["ok".into(), "spam".into()],
///     config: TaskConfig::default(),
/// }));
/// assert!(matches!(reply, Ok(Response::TaskCreated { .. })));
/// ```
#[derive(Default)]
pub struct ValidationService {
    tasks: BTreeMap<String, TaskState>,
    /// Requests finished through [`ValidationService::handle`] (typed
    /// errors included; direct `handle_request` calls are not counted).
    served: u64,
    /// Votes accepted across all `SubmitVotes` batches.
    votes_ingested: u64,
    /// Workers tombstoned by the online defense across all tasks.
    workers_excluded: u64,
    /// Workers reinstated by the online defense across all tasks.
    workers_reinstated: u64,
    /// Service-time histogram over [`ValidationService::handle`] calls —
    /// the single-threaded answer to [`Request::RuntimeStats`]. The sharded
    /// runtime keeps its own per-shard counters instead.
    latency: LatencyHistogram,
}

impl ValidationService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Names of the live tasks, sorted.
    pub fn task_names(&self) -> Vec<String> {
        self.tasks.keys().cloned().collect()
    }

    /// Handles one enveloped request, checking the protocol version first.
    pub fn handle(&mut self, envelope: &RequestEnvelope) -> Result<Response, ServiceError> {
        let start = Instant::now();
        let result = if envelope.version != PROTOCOL_VERSION {
            Err(ServiceError::UnsupportedVersion {
                requested: envelope.version,
                supported: PROTOCOL_VERSION,
            })
        } else {
            self.handle_request(&envelope.request)
        };
        self.latency.record(start.elapsed());
        self.served += 1;
        result
    }

    /// Convenience wrapper turning the result into a serializable
    /// [`Reply`] echoing the envelope's correlation id — what the
    /// JSON-lines driver writes per input line.
    pub fn reply(&mut self, envelope: &RequestEnvelope) -> Reply {
        match self.handle(envelope) {
            Ok(response) => Reply::ok(envelope.request_id, response),
            Err(error) => Reply::err(envelope.request_id, error),
        }
    }

    /// Handles one request (version already checked).
    pub fn handle_request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        match request {
            Request::CreateTask {
                task,
                labels,
                config,
            } => self.create_task(task, labels, *config),
            Request::SubmitVotes { task, votes } => self.submit_votes(task, votes),
            Request::RequestGuidance { task } => self.request_guidance(task),
            Request::SubmitValidation {
                task,
                object,
                label,
            } => self.submit_validation(task, object, label),
            Request::QueryPosterior { task, object } => self.query_posterior(task, object),
            Request::QueryWorkerTrust { task } => self.query_worker_trust(task),
            Request::TriageStats { task } => self.triage_stats(task),
            Request::Snapshot { task } => self.snapshot(task),
            Request::Restore { task, snapshot } => self.restore(task, snapshot),
            Request::SnapshotDelta { task } => self.snapshot_delta(task),
            Request::RestoreDelta {
                task,
                snapshot,
                delta,
            } => self.restore_delta(task, snapshot, delta),
            Request::CloseTask { task } => self.close_task(task),
            Request::RuntimeStats => Ok(Response::RuntimeStats {
                shards: vec![self.self_stats()],
            }),
            Request::Health => Ok(Response::Health {
                shards: vec![ShardHealth {
                    shard: 0,
                    alive: true,
                    restarts: 0,
                    panics_isolated: 0,
                    queue_depth: 0,
                    checkpointed_tasks: 0,
                    recovery_us: 0,
                }],
            }),
            // A serial in-process service has no supervisor and no fault
            // registry; refusing (rather than silently accepting) keeps
            // chaos plans from being armed where they can never fire.
            Request::FaultInject { .. } => Err(ServiceError::FaultInjectionDisabled),
        }
    }

    /// This service described as a single shard with no mailbox — the
    /// single-threaded answer to [`Request::RuntimeStats`]. (Under the
    /// sharded runtime the dispatcher answers from the real per-shard
    /// counters instead; a shard-owned service never sees the request.)
    fn self_stats(&self) -> ShardStats {
        ShardStats {
            shard: 0,
            tasks: self.tasks.len(),
            queue_depth: 0,
            mailbox_capacity: 0,
            requests_served: self.served,
            votes_ingested: self.votes_ingested,
            overload_rejections: 0,
            workers_excluded: self.workers_excluded,
            workers_reinstated: self.workers_reinstated,
            objects_auto_finalized: self.triage_totals().0,
            objects_escalated: self.triage_totals().1,
            memory_bytes: self.memory_bytes(),
            service_time_p50_us: self.latency.quantile_us(0.50),
            service_time_p99_us: self.latency.quantile_us(0.99),
            restarts: 0,
            panics_isolated: 0,
            recovered_objects: 0,
            shed_requests: 0,
            requests_lost: 0,
        }
    }

    /// Measured heap bytes of the answer storage across all live tasks —
    /// the [`ShardStats::memory_bytes`] gauge.
    pub fn memory_bytes(&self) -> u64 {
        self.tasks
            .values()
            .map(|state| state.session.memory_bytes() as u64)
            .sum()
    }

    /// Triage totals across all live tasks, `(auto_finalized, escalated)` —
    /// the [`ShardStats::objects_auto_finalized`] /
    /// [`ShardStats::objects_escalated`] gauges.
    pub fn triage_totals(&self) -> (u64, u64) {
        self.tasks.values().fold((0, 0), |(f, e), state| {
            let c = state.session.triage_counters();
            (f + c.auto_finalized, e + c.escalated)
        })
    }

    fn task_mut(&mut self, task: &str) -> Result<&mut TaskState, ServiceError> {
        self.tasks
            .get_mut(task)
            .ok_or_else(|| ServiceError::TaskNotFound {
                task: task.to_string(),
            })
    }

    fn create_task(
        &mut self,
        task: &str,
        labels: &[String],
        config: TaskConfig,
    ) -> Result<Response, ServiceError> {
        if task.is_empty() {
            return Err(ServiceError::InvalidTask {
                message: "task name must not be empty".to_string(),
            });
        }
        if self.tasks.contains_key(task) {
            return Err(ServiceError::TaskExists {
                task: task.to_string(),
            });
        }
        if labels.is_empty() {
            return Err(ServiceError::InvalidTask {
                message: "a task needs at least one label".to_string(),
            });
        }
        let label_interner =
            IdInterner::from_names(labels.to_vec()).map_err(|e| ServiceError::InvalidTask {
                message: e.to_string(),
            })?;
        let mut session = ValidationSessionBuilder::empty(labels.len())
            .strategy(build_strategy(config))
            .config(ProcessConfig {
                budget: config.budget,
                handle_faulty_workers: config.handle_faulty_workers,
                trust: if config.online_defense {
                    TrustConfig::streaming_default()
                } else {
                    TrustConfig::default()
                },
                triage: if config.triage {
                    TriageConfig::calibrated()
                } else {
                    TriageConfig::default()
                },
                ..ProcessConfig::default()
            })
            .try_build()?;
        if config.wal {
            session.enable_delta_log();
        }
        self.tasks.insert(
            task.to_string(),
            TaskState {
                objects: IdInterner::new(),
                workers: IdInterner::new(),
                labels: label_interner,
                session,
            },
        );
        Ok(Response::TaskCreated {
            task: task.to_string(),
            num_labels: labels.len(),
        })
    }

    fn submit_votes(&mut self, task: &str, votes: &[ClientVote]) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        // Resolve every label before interning anything: a batch with an
        // unknown label must leave the task untouched.
        let mut resolved_labels = Vec::with_capacity(votes.len());
        for vote in votes {
            let label =
                state
                    .labels
                    .get(&vote.label)
                    .ok_or_else(|| ServiceError::UnknownLabel {
                        task: task_name.clone(),
                        label: vote.label.clone(),
                    })?;
            resolved_labels.push(label);
        }
        // From here on nothing can fail: labels are in range by
        // construction and interning only appends. Reserve the interners
        // for the worst case (every vote naming a fresh id) so the loop
        // never rehashes mid-batch.
        state.objects.reserve(votes.len());
        state.workers.reserve(votes.len());
        let dense: Vec<Vote> = votes
            .iter()
            .zip(resolved_labels)
            .map(|(vote, label)| {
                Vote::new(
                    ObjectId(state.objects.intern(&vote.object)),
                    WorkerId(state.workers.intern(&vote.worker)),
                    LabelId(label),
                )
            })
            .collect();
        let update = state.session.ingest(&dense)?;
        let workers_excluded = state.worker_names(&update.workers_excluded);
        let workers_reinstated = state.worker_names(&update.workers_reinstated);
        self.votes_ingested += update.votes_ingested as u64;
        self.workers_excluded += workers_excluded.len() as u64;
        self.workers_reinstated += workers_reinstated.len() as u64;
        Ok(Response::VotesAccepted {
            task: task_name,
            votes: update.votes_ingested,
            new_objects: update.new_objects,
            new_workers: update.new_workers,
            em_iterations: update.em_iterations,
            uncertainty: update.uncertainty,
            workers_excluded,
            workers_reinstated,
        })
    }

    fn request_guidance(&mut self, task: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let object = state.session.select_next().map(|o| state.object_name(o));
        Ok(Response::Guidance {
            task: task_name,
            object,
        })
    }

    fn submit_validation(
        &mut self,
        task: &str,
        object: &str,
        label: &str,
    ) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let object_idx = state
            .objects
            .get(object)
            .ok_or_else(|| ServiceError::UnknownObject {
                task: task_name.clone(),
                object: object.to_string(),
            })?;
        let label_idx = state
            .labels
            .get(label)
            .ok_or_else(|| ServiceError::UnknownLabel {
                task: task_name.clone(),
                label: label.to_string(),
            })?;
        // Tombstone flips are surfaced by diffing the exclusion set around
        // the call — `integrate`'s return value carries only the flagged
        // objects.
        let excluded_before = state.session.excluded_workers();
        let flagged = state
            .session
            .integrate(ObjectId(object_idx), LabelId(label_idx))?;
        let excluded_after = state.session.excluded_workers();
        let workers_excluded: Vec<String> = excluded_after
            .iter()
            .filter(|w| excluded_before.binary_search(w).is_err())
            .map(|&w| state.worker_name(w))
            .collect();
        let workers_reinstated: Vec<String> = excluded_before
            .iter()
            .filter(|w| excluded_after.binary_search(w).is_err())
            .map(|&w| state.worker_name(w))
            .collect();
        let flagged = flagged.into_iter().map(|o| state.object_name(o)).collect();
        let uncertainty = state.session.uncertainty();
        let validations = state.session.iterations();
        self.workers_excluded += workers_excluded.len() as u64;
        self.workers_reinstated += workers_reinstated.len() as u64;
        Ok(Response::ValidationAccepted {
            task: task_name,
            object: object.to_string(),
            flagged,
            uncertainty,
            validations,
            workers_excluded,
            workers_reinstated,
        })
    }

    fn query_worker_trust(&mut self, task: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let mut workers: Vec<WorkerTrustEntry> = state
            .session
            .worker_trust_reports()
            .into_iter()
            .map(|r| WorkerTrustEntry {
                worker: state.worker_name(r.worker),
                votes: r.votes,
                validations: r.validations,
                suspicion: r.suspicion,
                excluded: r.excluded,
                em_flagged: r.em_flagged,
            })
            .collect();
        workers.sort_by(|a, b| {
            b.suspicion
                .total_cmp(&a.suspicion)
                .then_with(|| a.worker.cmp(&b.worker))
        });
        let telemetry = state.session.defense_telemetry();
        Ok(Response::WorkerTrust {
            task: task_name,
            workers,
            batches_observed: telemetry.batches_observed,
            low_kappa_batches: telemetry.low_kappa_batches,
            exclusions: telemetry.exclusions,
            reinstatements: telemetry.reinstatements,
        })
    }

    fn triage_stats(&mut self, task: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let counters = state.session.triage_counters();
        Ok(Response::TriageStats {
            task: task_name,
            enabled: state.session.process_config().triage.enabled,
            scored: counters.scored,
            auto_finalized: counters.auto_finalized,
            contentious: counters.contentious,
            escalated: counters.escalated,
            audit_records: state.session.triage_audit().len(),
        })
    }

    fn query_posterior(&mut self, task: &str, object: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let object_idx = state
            .objects
            .get(object)
            .ok_or_else(|| ServiceError::UnknownObject {
                task: task_name.clone(),
                object: object.to_string(),
            })?;
        let o = ObjectId(object_idx);
        let assignment = state.session.current().assignment();
        let probabilities = state
            .labels
            .iter()
            .map(|(l, name)| LabelProbability {
                label: name.to_string(),
                probability: assignment.prob(o, LabelId(l)),
            })
            .collect();
        let validated = state.session.expert().get(o);
        let label = validated.unwrap_or_else(|| assignment.most_likely(o).0);
        Ok(Response::Posterior {
            task: task_name,
            object: object.to_string(),
            label: state
                .labels
                .name(label.index())
                .unwrap_or("<unknown>")
                .to_string(),
            validated: validated.is_some(),
            probabilities,
        })
    }

    fn snapshot(&mut self, task: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let session = state.session.snapshot()?;
        Ok(Response::Snapshot {
            task: task_name,
            snapshot: Box::new(TaskSnapshot {
                protocol_version: PROTOCOL_VERSION,
                wal: state.session.delta_log_enabled(),
                objects: state.objects.clone(),
                workers: state.workers.clone(),
                labels: state.labels.clone(),
                session,
            }),
        })
    }

    fn snapshot_delta(&mut self, task: &str) -> Result<Response, ServiceError> {
        let task_name = task.to_string();
        let state = self.task_mut(task)?;
        let session = state.session.delta_snapshot()?;
        let events = session.events.len();
        Ok(Response::SnapshotDelta {
            task: task_name,
            delta: Box::new(TaskDelta {
                protocol_version: PROTOCOL_VERSION,
                objects: state.objects.clone(),
                workers: state.workers.clone(),
                session,
            }),
            events,
        })
    }

    /// Shared validation of a restore target and its anchor snapshot: a
    /// fresh non-empty task name, a restorable protocol version and
    /// interners consistent with the snapshotted session.
    fn check_restore(&self, task: &str, snapshot: &TaskSnapshot) -> Result<(), ServiceError> {
        if task.is_empty() {
            return Err(ServiceError::InvalidTask {
                message: "task name must not be empty".to_string(),
            });
        }
        if self.tasks.contains_key(task) {
            return Err(ServiceError::TaskExists {
                task: task.to_string(),
            });
        }
        if !(MIN_SNAPSHOT_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&snapshot.protocol_version)
        {
            return Err(ServiceError::UnsupportedVersion {
                requested: snapshot.protocol_version,
                supported: PROTOCOL_VERSION,
            });
        }
        let answers = &snapshot.session.answers;
        if snapshot.objects.len() != answers.num_objects()
            || snapshot.workers.len() != answers.num_workers()
            || snapshot.labels.len() != answers.num_labels()
        {
            return Err(ServiceError::InvalidSnapshot {
                message: format!(
                    "interners name {} objects / {} workers / {} labels, \
                     session holds {} / {} / {}",
                    snapshot.objects.len(),
                    snapshot.workers.len(),
                    snapshot.labels.len(),
                    answers.num_objects(),
                    answers.num_workers(),
                    answers.num_labels(),
                ),
            });
        }
        Ok(())
    }

    fn restore(&mut self, task: &str, snapshot: &TaskSnapshot) -> Result<Response, ServiceError> {
        self.check_restore(task, snapshot)?;
        let mut session = ValidationSession::restore(snapshot.session.clone())?;
        if snapshot.wal {
            // The snapshotted task was logging deltas; the restored one
            // keeps doing so, anchored at this (just-restored) state.
            session.enable_delta_log();
        }
        self.tasks.insert(
            task.to_string(),
            TaskState {
                objects: snapshot.objects.clone(),
                workers: snapshot.workers.clone(),
                labels: snapshot.labels.clone(),
                session,
            },
        );
        Ok(Response::Restored {
            task: task.to_string(),
            objects: snapshot.objects.len(),
            workers: snapshot.workers.len(),
            validations: snapshot.session.iteration,
        })
    }

    fn restore_delta(
        &mut self,
        task: &str,
        snapshot: &TaskSnapshot,
        delta: &TaskDelta,
    ) -> Result<Response, ServiceError> {
        self.check_restore(task, snapshot)?;
        if !(MIN_SNAPSHOT_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&delta.protocol_version) {
            return Err(ServiceError::UnsupportedVersion {
                requested: delta.protocol_version,
                supported: PROTOCOL_VERSION,
            });
        }
        // The delta's interners must extend the anchor's: same names in the
        // same dense order up to the anchor's length, plus whatever arrived
        // after the anchor. A mismatch means the delta belongs to a
        // different task lineage.
        for (anchor, at_delta, kind) in [
            (&snapshot.objects, &delta.objects, "object"),
            (&snapshot.workers, &delta.workers, "worker"),
        ] {
            if at_delta.len() < anchor.len()
                || anchor
                    .iter()
                    .any(|(index, name)| at_delta.name(index) != Some(name))
            {
                return Err(ServiceError::InvalidSnapshot {
                    message: format!("the delta's {kind} ids do not extend the anchor snapshot's"),
                });
            }
        }
        let mut session =
            ValidationSession::restore_with_delta(snapshot.session.clone(), delta.session.clone())?;
        // The replayed session must know exactly the ids the delta's
        // interners name — anything else means the delta's dense votes and
        // its id mappings disagree.
        if delta.objects.len() != session.answers().num_objects()
            || delta.workers.len() != session.answers().num_workers()
        {
            return Err(ServiceError::InvalidSnapshot {
                message: format!(
                    "delta interners name {} objects / {} workers, \
                     the replayed session holds {} / {}",
                    delta.objects.len(),
                    delta.workers.len(),
                    session.answers().num_objects(),
                    session.answers().num_workers(),
                ),
            });
        }
        if snapshot.wal {
            session.enable_delta_log();
        }
        let validations = session.iterations();
        self.tasks.insert(
            task.to_string(),
            TaskState {
                objects: delta.objects.clone(),
                workers: delta.workers.clone(),
                labels: snapshot.labels.clone(),
                session,
            },
        );
        Ok(Response::Restored {
            task: task.to_string(),
            objects: delta.objects.len(),
            workers: delta.workers.len(),
            validations,
        })
    }

    fn close_task(&mut self, task: &str) -> Result<Response, ServiceError> {
        let state = self
            .tasks
            .remove(task)
            .ok_or_else(|| ServiceError::TaskNotFound {
                task: task.to_string(),
            })?;
        Ok(Response::TaskClosed {
            task: task.to_string(),
            votes: state.session.answers().matrix().num_recorded_answers(),
            validations: state.session.iterations(),
        })
    }

    /// Whether a task with this name is live.
    pub fn has_task(&self, task: &str) -> bool {
        self.tasks.contains_key(task)
    }

    /// Captures a crash-recovery anchor of one task — the full snapshot
    /// *plus* the task's client-visible delta log — **side-effect-free**:
    /// unlike [`Request::Snapshot`], taking it does not re-anchor the
    /// task's delta log, so background checkpoints are invisible to
    /// clients using `SnapshotDelta`.
    pub fn checkpoint_task(&self, task: &str) -> Result<RecoveryAnchor, ServiceError> {
        let state = self
            .tasks
            .get(task)
            .ok_or_else(|| ServiceError::TaskNotFound {
                task: task.to_string(),
            })?;
        let wal_enabled = state.session.delta_log_enabled();
        let session = state.session.recovery_snapshot()?;
        let wal = if wal_enabled {
            Some(state.session.delta_snapshot()?)
        } else {
            None
        };
        Ok(RecoveryAnchor {
            snapshot: TaskSnapshot {
                protocol_version: PROTOCOL_VERSION,
                wal: wal_enabled,
                objects: state.objects.clone(),
                workers: state.workers.clone(),
                labels: state.labels.clone(),
                session,
            },
            wal,
        })
    }

    /// Installs a recovered task from a crash-recovery anchor, reinstating
    /// its delta log verbatim (anchor counters and pending events), so a
    /// post-recovery `SnapshotDelta` is indistinguishable from a pre-crash
    /// one. Returns the restored object count. Validation mirrors
    /// [`Request::Restore`]; corrupt anchors come back as typed errors.
    pub fn install_recovered(
        &mut self,
        task: &str,
        anchor: RecoveryAnchor,
    ) -> Result<usize, ServiceError> {
        let RecoveryAnchor { snapshot, wal } = anchor;
        self.check_restore(task, &snapshot)?;
        let mut session = ValidationSession::restore(snapshot.session)?;
        match wal {
            Some(delta) => session.install_delta_log(delta)?,
            None if snapshot.wal => session.enable_delta_log(),
            None => {}
        }
        let objects = snapshot.objects.len();
        self.tasks.insert(
            task.to_string(),
            TaskState {
                objects: snapshot.objects,
                workers: snapshot.workers,
                labels: snapshot.labels,
                session,
            },
        );
        Ok(objects)
    }

    /// Drops a task without the [`Request::CloseTask`] bookkeeping — used
    /// when a recovery replay fails halfway and the partial task must not
    /// survive.
    pub fn evict_task(&mut self, task: &str) {
        self.tasks.remove(task);
    }
}

/// Builds the session strategy for a [`TaskConfig`].
fn build_strategy(config: TaskConfig) -> Box<dyn SelectionStrategy> {
    let uncertainty = match config.shortlist {
        Some(limit) => UncertaintyDriven::with_max_evaluated(limit),
        None => UncertaintyDriven::new(),
    };
    match config.strategy {
        StrategyChoice::Hybrid => {
            Box::new(HybridStrategy::with_uncertainty(uncertainty, config.seed))
        }
        StrategyChoice::UncertaintyDriven => Box::new(uncertainty),
        StrategyChoice::WorkerDriven => Box::new(WorkerDriven),
        StrategyChoice::EntropyBaseline => Box::new(EntropyBaseline),
        StrategyChoice::Random => Box::new(RandomSelection::new(config.seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(service: &mut ValidationService, task: &str) {
        let reply = service.handle(&RequestEnvelope::latest(Request::CreateTask {
            task: task.into(),
            labels: vec!["yes".into(), "no".into()],
            config: TaskConfig {
                strategy: StrategyChoice::EntropyBaseline,
                ..TaskConfig::default()
            },
        }));
        assert!(matches!(reply, Ok(Response::TaskCreated { .. })));
    }

    fn vote(worker: &str, object: &str, label: &str) -> ClientVote {
        ClientVote {
            worker: worker.into(),
            object: object.into(),
            label: label.into(),
        }
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut service = ValidationService::new();
        let reply = service.handle(&RequestEnvelope {
            version: 99,
            request_id: 0,
            request: Request::RequestGuidance { task: "t".into() },
        });
        assert!(matches!(
            reply,
            Err(ServiceError::UnsupportedVersion { requested: 99, .. })
        ));
    }

    #[test]
    fn unknown_task_and_duplicate_create_are_typed_errors() {
        let mut service = ValidationService::new();
        assert!(matches!(
            service.handle_request(&Request::RequestGuidance { task: "t".into() }),
            Err(ServiceError::TaskNotFound { .. })
        ));
        create(&mut service, "t");
        let reply = service.handle_request(&Request::CreateTask {
            task: "t".into(),
            labels: vec!["a".into()],
            config: TaskConfig::default(),
        });
        assert!(matches!(reply, Err(ServiceError::TaskExists { .. })));
        assert_eq!(service.task_names(), vec!["t".to_string()]);
    }

    #[test]
    fn create_rejects_bad_label_sets() {
        let mut service = ValidationService::new();
        assert!(matches!(
            service.handle_request(&Request::CreateTask {
                task: "t".into(),
                labels: vec![],
                config: TaskConfig::default(),
            }),
            Err(ServiceError::InvalidTask { .. })
        ));
        assert!(matches!(
            service.handle_request(&Request::CreateTask {
                task: "t".into(),
                labels: vec!["dup".into(), "dup".into()],
                config: TaskConfig::default(),
            }),
            Err(ServiceError::InvalidTask { .. })
        ));
        assert_eq!(service.num_tasks(), 0);
    }

    #[test]
    fn unknown_labels_fail_vote_batches_atomically() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        let reply = service.handle_request(&Request::SubmitVotes {
            task: "t".into(),
            votes: vec![vote("w1", "o1", "yes"), vote("w1", "o2", "maybe")],
        });
        assert!(matches!(reply, Err(ServiceError::UnknownLabel { .. })));
        // Nothing was interned: the valid first vote's object is unknown too.
        assert!(matches!(
            service.handle_request(&Request::QueryPosterior {
                task: "t".into(),
                object: "o1".into(),
            }),
            Err(ServiceError::UnknownObject { .. })
        ));
    }

    #[test]
    fn submit_guide_validate_query_round_trip() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        let votes: Vec<ClientVote> = (0..4)
            .flat_map(|w| {
                (0..6).map(move |o| {
                    vote(
                        &format!("w{w}"),
                        &format!("obj-{o}"),
                        if o % 2 == 0 { "yes" } else { "no" },
                    )
                })
            })
            .collect();
        let reply = service
            .handle_request(&Request::SubmitVotes {
                task: "t".into(),
                votes,
            })
            .unwrap();
        match reply {
            Response::VotesAccepted {
                votes,
                new_objects,
                new_workers,
                ..
            } => {
                assert_eq!(votes, 24);
                assert_eq!(new_objects, 6);
                assert_eq!(new_workers, 4);
            }
            other => panic!("unexpected reply {other:?}"),
        }

        let guided = match service
            .handle_request(&Request::RequestGuidance { task: "t".into() })
            .unwrap()
        {
            Response::Guidance {
                object: Some(object),
                ..
            } => object,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(guided.starts_with("obj-"));

        let reply = service
            .handle_request(&Request::SubmitValidation {
                task: "t".into(),
                object: guided.clone(),
                label: "yes".into(),
            })
            .unwrap();
        assert!(matches!(
            reply,
            Response::ValidationAccepted { validations: 1, .. }
        ));

        match service
            .handle_request(&Request::QueryPosterior {
                task: "t".into(),
                object: guided,
            })
            .unwrap()
        {
            Response::Posterior {
                label,
                validated,
                probabilities,
                ..
            } => {
                assert_eq!(label, "yes");
                assert!(validated);
                assert_eq!(probabilities.len(), 2);
                let total: f64 = probabilities.iter().map(|p| p.probability).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn snapshot_restore_round_trips_a_task() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        service
            .handle_request(&Request::SubmitVotes {
                task: "t".into(),
                votes: (0..3)
                    .flat_map(|w| {
                        (0..4).map(move |o| vote(&format!("w{w}"), &format!("o{o}"), "yes"))
                    })
                    .collect(),
            })
            .unwrap();
        let snapshot = match service
            .handle_request(&Request::Snapshot { task: "t".into() })
            .unwrap()
        {
            Response::Snapshot { snapshot, .. } => snapshot,
            other => panic!("unexpected reply {other:?}"),
        };
        // Restoring over a live task is refused; into a fresh name works.
        assert!(matches!(
            service.handle_request(&Request::Restore {
                task: "t".into(),
                snapshot: snapshot.clone(),
            }),
            Err(ServiceError::TaskExists { .. })
        ));
        let reply = service
            .handle_request(&Request::Restore {
                task: "t2".into(),
                snapshot,
            })
            .unwrap();
        assert!(matches!(
            reply,
            Response::Restored {
                objects: 4,
                workers: 3,
                ..
            }
        ));
        // The restored task answers queries about the external ids.
        assert!(matches!(
            service.handle_request(&Request::QueryPosterior {
                task: "t2".into(),
                object: "o2".into(),
            }),
            Ok(Response::Posterior { .. })
        ));
    }

    #[test]
    fn delta_snapshot_replays_onto_the_anchor() {
        let mut service = ValidationService::new();
        service
            .handle_request(&Request::CreateTask {
                task: "t".into(),
                labels: vec!["yes".into(), "no".into()],
                config: TaskConfig {
                    strategy: StrategyChoice::EntropyBaseline,
                    wal: true,
                    ..TaskConfig::default()
                },
            })
            .unwrap();
        let batch = |tag: usize| -> Vec<ClientVote> {
            (0..3)
                .flat_map(move |w| {
                    (0..4).map(move |o| {
                        vote(
                            &format!("w{tag}-{w}"),
                            &format!("o{tag}-{o}"),
                            if o % 2 == 0 { "yes" } else { "no" },
                        )
                    })
                })
                .collect()
        };
        service
            .handle_request(&Request::SubmitVotes {
                task: "t".into(),
                votes: batch(0),
            })
            .unwrap();
        // Anchor; taking it re-anchors the task's event log.
        let anchor = match service
            .handle_request(&Request::Snapshot { task: "t".into() })
            .unwrap()
        {
            Response::Snapshot { snapshot, .. } => snapshot,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(anchor.wal);
        // Post-anchor traffic: fresh objects *and* workers, plus one
        // guided validation.
        service
            .handle_request(&Request::SubmitVotes {
                task: "t".into(),
                votes: batch(1),
            })
            .unwrap();
        let guided = match service
            .handle_request(&Request::RequestGuidance { task: "t".into() })
            .unwrap()
        {
            Response::Guidance {
                object: Some(object),
                ..
            } => object,
            other => panic!("unexpected reply {other:?}"),
        };
        service
            .handle_request(&Request::SubmitValidation {
                task: "t".into(),
                object: guided,
                label: "yes".into(),
            })
            .unwrap();
        let delta = match service
            .handle_request(&Request::SnapshotDelta { task: "t".into() })
            .unwrap()
        {
            Response::SnapshotDelta { delta, events, .. } => {
                assert!(events >= 3, "ingest + select + integrate were logged");
                delta
            }
            other => panic!("unexpected reply {other:?}"),
        };
        let reply = service
            .handle_request(&Request::RestoreDelta {
                task: "t2".into(),
                snapshot: anchor,
                delta,
            })
            .unwrap();
        assert!(matches!(
            reply,
            Response::Restored {
                objects: 8,
                workers: 6,
                validations: 1,
                ..
            }
        ));
        // The replayed task checkpoints bit-identically to the live one.
        let live = service
            .handle_request(&Request::Snapshot { task: "t".into() })
            .unwrap();
        let replayed = service
            .handle_request(&Request::Snapshot { task: "t2".into() })
            .unwrap();
        let strip = |r: Response| match r {
            Response::Snapshot { snapshot, .. } => snapshot,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(strip(live), strip(replayed));
    }

    #[test]
    fn delta_snapshot_without_wal_is_a_typed_error() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        assert!(matches!(
            service.handle_request(&Request::SnapshotDelta { task: "t".into() }),
            Err(ServiceError::Model { .. })
        ));
    }

    #[test]
    fn runtime_stats_report_the_single_threaded_view() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        service
            .handle(&RequestEnvelope::latest(Request::SubmitVotes {
                task: "t".into(),
                votes: vec![vote("w", "o", "yes")],
            }))
            .unwrap();
        let reply = service.reply(&RequestEnvelope::new(9, Request::RuntimeStats));
        assert_eq!(reply.request_id, 9);
        match reply.into_result().unwrap() {
            Response::RuntimeStats { shards } => {
                assert_eq!(shards.len(), 1);
                assert_eq!(shards[0].shard, 0);
                assert_eq!(shards[0].tasks, 1);
                assert_eq!(shards[0].votes_ingested, 1);
                // create + submit were both counted before this request.
                assert!(shards[0].requests_served >= 2);
                assert_eq!(shards[0].mailbox_capacity, 0);
                assert_eq!(shards[0].queue_depth, 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn triage_stats_report_the_policy_state() {
        let mut service = ValidationService::new();
        // Triage off: the request still answers, with enabled = false.
        create(&mut service, "plain");
        match service
            .handle_request(&Request::TriageStats {
                task: "plain".into(),
            })
            .unwrap()
        {
            Response::TriageStats {
                task,
                enabled,
                scored,
                auto_finalized,
                ..
            } => {
                assert_eq!(task, "plain");
                assert!(!enabled);
                assert_eq!(scored, 0);
                assert_eq!(auto_finalized, 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Triage on: the calibrated preset is active from creation.
        service
            .handle_request(&Request::CreateTask {
                task: "triaged".into(),
                labels: vec!["yes".into(), "no".into()],
                config: TaskConfig {
                    strategy: StrategyChoice::EntropyBaseline,
                    triage: true,
                    ..TaskConfig::default()
                },
            })
            .unwrap();
        match service
            .handle_request(&Request::TriageStats {
                task: "triaged".into(),
            })
            .unwrap()
        {
            Response::TriageStats { enabled, .. } => assert!(enabled),
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(matches!(
            service.handle_request(&Request::TriageStats {
                task: "missing".into(),
            }),
            Err(ServiceError::TaskNotFound { .. })
        ));
        // The per-shard rollup mirrors the per-task counters.
        match service.handle_request(&Request::RuntimeStats).unwrap() {
            Response::RuntimeStats { shards } => {
                assert_eq!(shards[0].objects_auto_finalized, 0);
                assert_eq!(shards[0].objects_escalated, 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn close_task_reports_a_summary_and_frees_the_name() {
        let mut service = ValidationService::new();
        create(&mut service, "t");
        service
            .handle_request(&Request::SubmitVotes {
                task: "t".into(),
                votes: vec![vote("w", "o", "yes")],
            })
            .unwrap();
        let reply = service
            .handle_request(&Request::CloseTask { task: "t".into() })
            .unwrap();
        assert!(matches!(
            reply,
            Response::TaskClosed {
                votes: 1,
                validations: 0,
                ..
            }
        ));
        assert_eq!(service.num_tasks(), 0);
        create(&mut service, "t");
    }
}
