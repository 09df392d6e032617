//! Incremental validation sessions: the event-driven core of the validation
//! process (paper §3.2 / Algorithm 1, extended with §5.4's view maintenance
//! applied to **vote arrival**).
//!
//! The paper's setting is a live crowdsourcing platform: answers keep
//! arriving *while* the expert validates. A [`ValidationSession`] models
//! exactly that. It owns the growing answer set, the expert validation
//! function, the current probabilistic answer set and the guidance state, and
//! is driven by two kinds of events:
//!
//! * **vote arrival** — [`ValidationSession::ingest`] absorbs a batch of
//!   [`Vote`]s, growing the answer matrix in place (new votes, new objects
//!   and new workers mid-session are all fine), then re-aggregates through
//!   the arrival-centric delta path
//!   ([`crowdval_aggregation::Aggregator::conclude_arrival`]): the dirty set
//!   is seeded from the touched objects instead of a pinned hypothesis, the
//!   frontier expands through the answering workers, and the same
//!   Aitken-polished full-map phase certifies the batch path's convergence
//!   criterion. Only the entropy-shortlist entries of assignment rows that
//!   actually moved are invalidated, so the next selection step re-ranks
//!   incrementally.
//! * **expert validation** — [`ValidationSession::select_next`] /
//!   [`ValidationSession::integrate`], unchanged from the batch pipeline
//!   (Algorithm 1 steps 1–4), except that spammer exclusion now flips
//!   tombstone bits instead of copying the matrix.
//!
//! The historical batch API survives as a thin facade:
//! [`crate::process::ValidationProcess`] is "ingest everything at build time,
//! then validate" over this session core.

use crate::guidance_cache::{GuidanceCache, GuidanceTelemetry};
use crate::metrics::{ValidationStep, ValidationTrace};
use crate::process::{ExpertSource, ProcessConfig};
use crate::scoring::ScoringContext;
use crate::shortlist::EntropyShortlist;
use crate::snapshot::{SessionDelta, SessionEvent, SessionSnapshot};
use crate::strategy::{SelectionStrategy, StrategyContext, StrategyKind, ValidationObservation};
use crowdval_aggregation::{Aggregator, ChurnTracker};
use crowdval_model::{
    AnswerSet, DeterministicAssignment, ExpertValidation, GroundTruth, LabelId, ModelError,
    ObjectId, ProbabilisticAnswerSet, Visibility, Vote, WorkerId,
};
use crowdval_spammer::{
    BatchVote, DefenseTelemetry, FaultyWorkerHandler, SpammerDetector, TrustDecision, TrustReport,
    WorkerTrustLedger,
};
use crowdval_triage::{
    AuditRecord, ConvergencePredictor, TriageCounters, TriageDecision, TriageFeatures, TriageState,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// What one [`ValidationSession::ingest`] call did to the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionUpdate {
    /// Votes absorbed by this batch.
    pub votes_ingested: usize,
    /// Objects that entered the session with this batch.
    pub new_objects: usize,
    /// Workers that entered the session with this batch.
    pub new_workers: usize,
    /// Distinct objects that received votes in this batch (the delta seed
    /// set), in id order.
    pub touched_objects: Vec<ObjectId>,
    /// EM iterations the re-aggregation spent.
    pub em_iterations: usize,
    /// Entropy-shortlist entries invalidated by *this* re-aggregation (rows
    /// of the assignment that actually moved in this update, growth rows
    /// included — not counting entries still dirty from earlier updates).
    pub invalidated_entries: usize,
    /// Guidance-cache entries this arrival dropped (dirty-region
    /// invalidation; 0 when the cache is disabled or was already empty).
    pub guidance_invalidated: usize,
    /// Uncertainty `H(P)` after the update.
    pub uncertainty: f64,
    /// Workers the online defense tombstoned during this ingest, in id
    /// order (empty when the defense is disabled).
    pub workers_excluded: Vec<WorkerId>,
    /// Workers the online defense reinstated during this ingest, in id
    /// order (empty when the defense is disabled).
    pub workers_reinstated: Vec<WorkerId>,
}

/// Builder for [`ValidationSession`].
pub struct ValidationSessionBuilder {
    answers: AnswerSet,
    aggregator: Box<dyn Aggregator>,
    strategy: Box<dyn SelectionStrategy>,
    detector: SpammerDetector,
    config: ProcessConfig,
    ground_truth: Option<GroundTruth>,
}

impl ValidationSessionBuilder {
    /// Starts a builder from an initial answer set (possibly empty) with the
    /// paper's default components: i-EM aggregation and the hybrid guidance
    /// strategy.
    pub fn new(answers: AnswerSet) -> Self {
        Self {
            answers,
            aggregator: Box::new(crowdval_aggregation::IncrementalEm::default()),
            strategy: Box::new(crate::strategy::HybridStrategy::new(0)),
            detector: SpammerDetector::default(),
            config: ProcessConfig::default(),
            ground_truth: None,
        }
    }

    /// Starts a builder for a session with no initial votes at all — the
    /// pure streaming case, where everything arrives through
    /// [`ValidationSession::ingest`].
    pub fn empty(num_labels: usize) -> Self {
        Self::new(AnswerSet::new(0, 0, num_labels))
    }

    /// Replaces the aggregator (the *conclude* step).
    pub fn aggregator(mut self, aggregator: Box<dyn Aggregator>) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Replaces the guidance strategy (the *select* step).
    pub fn strategy(mut self, strategy: Box<dyn SelectionStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the faulty-worker detector.
    pub fn detector(mut self, detector: SpammerDetector) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the run-time options.
    pub fn config(mut self, config: ProcessConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a reference ground truth; enables precision tracking and
    /// precision-based goals (evaluation mode). The truth may cover more
    /// objects than the session has seen — streaming scenarios know the full
    /// eventual object set up front — and precision is measured over the
    /// overlap.
    pub fn ground_truth(mut self, truth: GroundTruth) -> Self {
        self.ground_truth = Some(truth);
        self
    }

    /// Builds the session and runs the initial aggregation, after checking
    /// that the parts agree with each other — label-count consistency
    /// between the answer set, the ground truth and the configured goal is
    /// verified *here*, not deep inside the first aggregation (or worse,
    /// the first validation that touches the inconsistent object).
    ///
    /// Checks performed:
    ///
    /// * every ground-truth label is inside the answer set's label space
    ///   (otherwise a simulated expert would eventually feed an
    ///   out-of-range label into [`ValidationSession::integrate`]);
    /// * [`crate::goal::ValidationGoal::TargetPrecision`] is a finite value
    ///   in `[0, 1]` and a ground truth is attached (without one the goal
    ///   can never be evaluated and the run would only stop on budget);
    /// * [`crate::goal::ValidationGoal::MaxUncertainty`] is finite and
    ///   non-negative.
    pub fn try_build(self) -> Result<ValidationSession, ModelError> {
        let num_labels = self.answers.num_labels();
        if let Some(truth) = &self.ground_truth {
            if let Some(max_label) = truth.max_label_index() {
                if max_label >= num_labels {
                    return Err(ModelError::LabelOutOfRange {
                        label: max_label,
                        num_labels,
                    });
                }
            }
        }
        match self.config.goal {
            crate::goal::ValidationGoal::TargetPrecision(target) => {
                if !(0.0..=1.0).contains(&target) {
                    return Err(ModelError::InvalidConfig {
                        message: format!("target precision {target} outside [0, 1]"),
                    });
                }
                if self.ground_truth.is_none() {
                    return Err(ModelError::InvalidConfig {
                        message: "TargetPrecision goal requires a ground truth \
                                  (evaluation mode); without one the goal can never \
                                  be satisfied"
                            .to_string(),
                    });
                }
            }
            crate::goal::ValidationGoal::MaxUncertainty(threshold) => {
                if !threshold.is_finite() || threshold < 0.0 {
                    return Err(ModelError::InvalidConfig {
                        message: format!(
                            "uncertainty threshold {threshold} must be finite and ≥ 0"
                        ),
                    });
                }
            }
            crate::goal::ValidationGoal::ExhaustBudget => {}
        }
        Ok(ValidationSession::new(
            self.answers,
            self.aggregator,
            self.strategy,
            self.detector,
            self.config,
            self.ground_truth,
        ))
    }

    /// Builds the session and runs the initial aggregation.
    ///
    /// # Panics
    /// Panics when the parts are inconsistent (see
    /// [`ValidationSessionBuilder::try_build`] for the checks and the
    /// non-panicking variant).
    pub fn build(self) -> ValidationSession {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid validation session: {e}"))
    }
}

/// The incremental validation-session engine (Algorithm 1 + streaming
/// ingestion).
///
/// # Single-owner invariant
///
/// A session is **single-owner state**: every entry point takes `&mut self`
/// (or `&self` with interior mutability that is not `Sync`), there is no
/// internal locking, and no correctness property survives two threads
/// driving one session. The session *is* `Send` — ownership may move
/// wholesale between threads, which is exactly how the sharded service
/// runtime parallelizes: each shard worker exclusively owns its sessions
/// and tasks never migrate, so the hot path needs no synchronization at
/// all. Cross-thread *sharing* is deliberately unsupported (the type is not
/// `Sync`); wrap a session in external synchronization only if you accept
/// serializing every call anyway. The invariant is pinned by compile-time
/// assertions in this module's tests.
///
/// # One vote corpus
///
/// Every vote is stored once, in one [`AnswerSet`] whose tombstone mask
/// hides excluded workers (§5.3) from aggregation, guidance and triage. The
/// copy heuristic's prior-modal tally, the §5.3 detector and the per-voter
/// trust update of a validation read unmasked rows: Algorithm 1 judges every
/// worker, so an excluded one can be re-included.
pub struct ValidationSession {
    /// Every vote seen so far; suspected faulty workers are masked (§5.3).
    answers: AnswerSet,
    aggregator: Box<dyn Aggregator>,
    strategy: Option<Box<dyn SelectionStrategy>>,
    detector: SpammerDetector,
    handler: FaultyWorkerHandler,
    /// Online-defense trust ledger: always *tracking* (cheap per-vote
    /// counters, batch kappa, decayed approval rates), enforcing tombstones
    /// only when `config.trust.enabled`.
    trust: WorkerTrustLedger,
    config: ProcessConfig,
    ground_truth: Option<GroundTruth>,
    expert: ExpertValidation,
    current: ProbabilisticAnswerSet,
    shortlist: EntropyShortlist,
    /// Cross-step guidance score cache (§5.4 view maintenance across
    /// selection steps). Interior mutability because the selection
    /// strategies update it through a shared [`StrategyContext`]; dropped on
    /// snapshot and rebuilt lazily on restore (exactness-on-miss makes that
    /// safe — the first post-restore selection is a full re-score with the
    /// same exact argmax).
    guidance: RefCell<GuidanceCache>,
    /// Telemetry of the most recent `select_next`, consumed into the trace
    /// step of the validation that follows it.
    last_guidance: GuidanceTelemetry,
    trace: ValidationTrace,
    iteration: usize,
    votes_ingested: usize,
    /// Corpus size (visible answers) at the last *cold* aggregation — the
    /// doubling trigger for re-anchoring (see [`ValidationSession::ingest`]).
    answers_at_last_cold: usize,
    /// Per-object EWMA of posterior movement across re-aggregation rounds —
    /// the churn triage feature. Only fed while `config.triage.enabled`
    /// (the diff against the previous posterior is not free).
    churn: ChurnTracker,
    /// Agreement-prediction triage state: the convergence predictor, the
    /// auto-finalize audit trail and the monotone counters. Serialized with
    /// the snapshot so triage decisions replay bit-identically.
    triage: TriageState,
    /// Write-ahead log for incremental checkpoints: `None` until
    /// [`ValidationSession::enable_delta_log`]. Interior mutability because
    /// taking a full snapshot (`&self`) re-anchors the log. Never serialized
    /// — a delta is only meaningful next to the full snapshot that anchors
    /// it, and a restored session starts with the log off.
    wal: RefCell<Option<SessionWal>>,
}

/// The in-memory write-ahead log backing [`ValidationSession::delta_snapshot`].
#[derive(Debug)]
struct SessionWal {
    anchor_iteration: usize,
    anchor_votes_ingested: usize,
    events: Vec<SessionEvent>,
}

impl ValidationSession {
    /// Creates the session and performs the initial aggregation (`P_0`,
    /// `d_0`) over whatever votes are already present.
    pub fn new(
        answers: AnswerSet,
        aggregator: Box<dyn Aggregator>,
        strategy: Box<dyn SelectionStrategy>,
        detector: SpammerDetector,
        config: ProcessConfig,
        ground_truth: Option<GroundTruth>,
    ) -> Self {
        let expert = ExpertValidation::empty(answers.num_objects());
        let answers_at_last_cold = answers.matrix().num_answers();
        let current = aggregator.conclude(&answers, &expert, None);
        let initial_precision = ground_truth
            .as_ref()
            .map(|g| Self::overlap_precision(g, &current.instantiate()));
        let trace = ValidationTrace::new(
            answers.num_objects(),
            current.uncertainty(),
            initial_precision,
        );
        let mut shortlist = EntropyShortlist::new();
        shortlist.ensure_len(answers.num_objects());
        let mut trust = WorkerTrustLedger::new();
        trust.ensure_workers(answers.num_workers());
        Self {
            answers,
            aggregator,
            strategy: Some(strategy),
            detector,
            handler: FaultyWorkerHandler::new(),
            trust,
            config,
            ground_truth,
            expert,
            current,
            shortlist,
            guidance: RefCell::new(GuidanceCache::new()),
            last_guidance: GuidanceTelemetry::default(),
            trace,
            iteration: 0,
            votes_ingested: 0,
            answers_at_last_cold,
            churn: ChurnTracker::new(),
            triage: TriageState::default(),
            wal: RefCell::new(None),
        }
    }

    /// Convenience entry point for the builder.
    pub fn builder(answers: AnswerSet) -> ValidationSessionBuilder {
        ValidationSessionBuilder::new(answers)
    }

    // -----------------------------------------------------------------------
    // Streaming ingestion
    // -----------------------------------------------------------------------

    /// Absorbs a batch of arriving votes: grows the answer matrix in place
    /// (new objects and workers welcome), seeds the delta path's dirty set
    /// with the touched objects, re-aggregates with the same convergence
    /// certificate as a full re-estimation, and invalidates only the
    /// entropy-shortlist entries whose assignment rows moved.
    ///
    /// Returns what changed. Fails only on a label outside the session's
    /// fixed label space; the session state is untouched by vote batches
    /// that fail validation up front.
    pub fn ingest(&mut self, votes: &[Vote]) -> Result<SessionUpdate, ModelError> {
        // Validate the whole batch before mutating anything.
        for vote in votes {
            if vote.label.index() >= self.answers.num_labels() {
                return Err(ModelError::LabelOutOfRange {
                    label: vote.label.index(),
                    num_labels: self.answers.num_labels(),
                });
            }
        }
        if votes.is_empty() {
            return Ok(SessionUpdate {
                votes_ingested: 0,
                new_objects: 0,
                new_workers: 0,
                touched_objects: Vec::new(),
                em_iterations: 0,
                invalidated_entries: 0,
                guidance_invalidated: 0,
                uncertainty: self.current.uncertainty(),
                workers_excluded: Vec::new(),
                workers_reinstated: Vec::new(),
            });
        }
        let prev_objects = self.answers.num_objects();
        let prev_workers = self.answers.num_workers();

        // Batch-size capacity hint: one slab reservation up front instead
        // of incremental growth while the loop below records `votes.len()`
        // arrivals.
        self.answers.reserve_answers(votes.len());

        let mut touched: Vec<ObjectId> = Vec::with_capacity(votes.len());
        let mut batch_votes: Vec<BatchVote> = Vec::with_capacity(votes.len());
        for &vote in votes {
            // The copy heuristic needs the pre-vote modal label, so the
            // annotation is computed before the vote is recorded (earlier
            // votes of the same batch count as "prior" — stream order).
            batch_votes.push(BatchVote {
                object: vote.object,
                worker: vote.worker,
                label: vote.label,
                prior_modal: self.prior_modal(vote.object),
            });
            self.answers
                .record_arrival(vote)
                .expect("labels were validated above");
            touched.push(vote.object);
        }
        touched.sort();
        touched.dedup();
        self.votes_ingested += votes.len();

        let num_objects = self.answers.num_objects();
        self.expert.ensure_domain(num_objects);
        self.trace.num_objects = num_objects;

        // Online defense: absorb the batch's stream heuristics (constant
        // answers, label copying, kappa-gated dissent) and, when enforcement
        // is on, flip tombstones *before* re-aggregating so this batch's own
        // aggregation already sees the updated view.
        self.trust.ensure_workers(self.answers.num_workers());
        self.trust
            .observe_batch(self.answers.num_labels(), &batch_votes, &self.config.trust);
        let defense = if self.config.handle_faulty_workers && self.config.trust.enabled {
            let defense = self.trust.decide(&self.config.trust);
            if !defense.is_empty() {
                self.handler.sync_excluded(&self.trust.excluded());
                self.handler.apply_exclusions(&mut self.answers);
            }
            defense
        } else {
            TrustDecision::default()
        };

        // Arrival-centric re-aggregation over the masked view, warm
        // from the pre-arrival state even across growth — unless the corpus
        // has *doubled* since the last cold initialization. Warm starts
        // inherit whatever the early, data-starved stream taught the model
        // (EM hysteresis: a basin locked in on 5 % of the votes survives
        // every later warm start), so the session re-anchors with one cold
        // majority-vote-initialized aggregation per corpus doubling. The
        // doubling schedule keeps the amortized extra cost constant — cold
        // re-anchors become exponentially rare as the stream grows — while
        // bounding hysteresis: the warm state always descends from a cold
        // init on at least half the current corpus.
        let total_answers = self.answers.matrix().num_answers();
        let (next, moved) = if total_answers >= 2 * self.answers_at_last_cold.max(1)
            || !defense.reinstated.is_empty()
        {
            self.answers_at_last_cold = total_answers;
            // Cold re-anchor: the trajectory restarts from a majority-vote
            // init, so nothing about the previous state bounds what moved —
            // the guidance cache must be invalidated globally. A
            // reinstatement forces this path off-schedule: the returning
            // worker's votes were invisible to every anchor of the warm
            // trajectory, so the warm state cannot be trusted to absorb them.
            (
                self.aggregator.conclude(&self.answers, &self.expert, None),
                None,
            )
        } else if !defense.excluded.is_empty() {
            // A fresh exclusion shrinks the aggregation view beyond the
            // touched objects — the arrival delta path's dirty seed no
            // longer covers everything that can move. Re-estimate warm over
            // the full view and drop the guidance cache globally.
            (
                self.aggregator
                    .conclude(&self.answers, &self.expert, Some(&self.current)),
                None,
            )
        } else if self.config.guidance_cache {
            let outcome = self.aggregator.conclude_arrival_tracked(
                &self.answers,
                &self.expert,
                &self.current,
                &touched,
                crate::guidance_cache::GUIDANCE_DRIFT_THRESHOLD,
            );
            (outcome.state, outcome.moved)
        } else {
            // No guidance cache to maintain: skip the frontier diff.
            (
                self.aggregator.conclude_arrival(
                    &self.answers,
                    &self.expert,
                    &self.current,
                    &touched,
                ),
                None,
            )
        };
        let invalidated = self
            .shortlist
            .invalidate_changed(self.current.assignment(), next.assignment());
        self.track_churn(&next);
        self.current = next;
        // No uncertainty-rise guard here: arrivals legitimately raise the
        // total entropy (new objects enter at near-maximal uncertainty) and
        // information gain is differential — an additive shift of `H(P)`
        // moves every retained score equally, so the bounds stay ordered.
        // The touched objects themselves need no extra invalidation: a new
        // vote that moves its object's row beyond the drift threshold lands
        // the object in `moved`; one that does not perturbs the hypothesis
        // scores by far less than the lazy loop's stale-bound margin (the
        // vote re-weights one worker's confusion row by `O(1/answers)`).
        let guidance_invalidated = self.refresh_guidance_cache(moved.as_deref(), None);

        // Delta log: the empty-batch early return above mutates nothing, so
        // only batches that actually landed are recorded.
        self.log_event(|| SessionEvent::Ingest {
            votes: votes.to_vec(),
        });

        Ok(SessionUpdate {
            votes_ingested: votes.len(),
            new_objects: num_objects - prev_objects,
            new_workers: self.answers.num_workers() - prev_workers,
            touched_objects: touched,
            em_iterations: self.current.em_iterations(),
            invalidated_entries: invalidated,
            guidance_invalidated,
            uncertainty: self.current.uncertainty(),
            workers_excluded: defense.excluded,
            workers_reinstated: defense.reinstated,
        })
    }

    /// Modal label among the votes already recorded for `object`, plus
    /// whether the object is *contested* (the runner-up label is within one
    /// vote of the modal one). `None` when the object is new or unvoted.
    /// Ties resolve to the lowest label id, so the annotation — and with it
    /// every downstream trust decision — is deterministic in stream order.
    /// Excluded workers' votes count too: siding with them is still copying.
    fn prior_modal(&self, object: ObjectId) -> Option<(LabelId, bool)> {
        if object.index() >= self.answers.num_objects() {
            return None;
        }
        let mut counts = vec![0u64; self.answers.num_labels()];
        let mut total = 0u64;
        for (_, label) in self.answers.matrix().recorded_answers_for_object(object) {
            counts[label.index()] += 1;
            total += 1;
        }
        if total == 0 {
            return None;
        }
        let modal = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("non-empty label histogram");
        let runner_up = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != modal)
            .map(|(_, &c)| c)
            .max()
            .unwrap_or(0);
        // Contested needs genuine disagreement: at least two prior votes
        // with the modal label leading by at most one. A single prior vote
        // is always "modal", and counting it would brand every second voter
        // a potential copier.
        Some((LabelId(modal), total >= 2 && counts[modal] - runner_up <= 1))
    }

    /// Dirty-region maintenance of the cross-step guidance cache after a
    /// state change. `moved` is the converged dirty frontier of the
    /// re-aggregation — the rows that moved beyond
    /// [`crate::guidance_cache::GUIDANCE_DRIFT_THRESHOLD`] — with `None`
    /// meaning "unbounded change": the whole cache is dropped and the next
    /// selection degenerates to a full re-score pass. Callers pass `None`
    /// whenever they cannot bound what happened: an aggregator without a
    /// drift tolerance, a cold re-anchor, a flipped worker exclusion, a
    /// revalidation, or a total-uncertainty *increase* after a validation
    /// (the model got more confused — exactly when retained scores stop
    /// being trustworthy upper bounds).
    ///
    /// Below three validations everything is dropped each step as well: the
    /// hypothesis scorer's label-orientation fallback switches between the
    /// exact and delta paths around the two-anchor threshold, so scores
    /// jump discontinuously.
    ///
    /// Detection scores are invalidated on *every* change: their evidence
    /// base (the per-worker validation confusions) shifts globally with each
    /// validation or arrival, and they grow over time, so stale entries are
    /// not valid upper bounds.
    ///
    /// `extra` names objects to drop regardless of the frontier (the freshly
    /// validated object — it leaves the candidate set, so its entry is dead
    /// weight either way).
    ///
    /// Returns the number of entries dropped.
    fn refresh_guidance_cache(
        &mut self,
        moved: Option<&[ObjectId]>,
        extra: Option<&[ObjectId]>,
    ) -> usize {
        if !self.config.guidance_cache {
            return 0;
        }
        let cache = self.guidance.get_mut();
        let before = cache.retained_entries();
        cache.bump_version();
        cache.invalidate_detections();
        if moved.is_none() || self.expert.count() < 3 {
            cache.invalidate_all();
        } else {
            for &o in moved.unwrap_or(&[]) {
                cache.invalidate_object(o);
            }
            for &o in extra.unwrap_or(&[]) {
                cache.invalidate_object(o);
            }
        }
        before - cache.retained_entries()
    }

    /// Total votes absorbed through [`ValidationSession::ingest`].
    pub fn votes_ingested(&self) -> usize {
        self.votes_ingested
    }

    // -----------------------------------------------------------------------
    // Accessors
    // -----------------------------------------------------------------------

    /// The session's one answer set, excluded workers masked: iteration and
    /// `num_answers()` see visible votes, `num_recorded_answers()` all votes.
    pub fn answers(&self) -> &AnswerSet {
        &self.answers
    }

    /// Measured heap bytes of the session's answer storage: the two flat
    /// row views and the tombstone mask of its one answer set.
    pub fn memory_bytes(&self) -> usize {
        self.answers.matrix().memory_footprint().total_bytes()
    }

    /// The expert validations collected so far.
    pub fn expert(&self) -> &ExpertValidation {
        &self.expert
    }

    /// The current probabilistic answer set.
    pub fn current(&self) -> &ProbabilisticAnswerSet {
        &self.current
    }

    /// The validation trace accumulated so far.
    pub fn trace(&self) -> &ValidationTrace {
        &self.trace
    }

    /// Workers currently excluded as suspected faulty.
    pub fn excluded_workers(&self) -> Vec<WorkerId> {
        self.handler.excluded()
    }

    /// Number of validations performed so far.
    pub fn iterations(&self) -> usize {
        self.iteration
    }

    /// Telemetry of the most recent `select_next` (zeros when the guidance
    /// cache is disabled or no selection ran yet): candidates evaluated
    /// exactly vs served from the cross-step cache, and the hypothesis EM
    /// iterations the step spent.
    pub fn last_guidance_telemetry(&self) -> GuidanceTelemetry {
        self.last_guidance
    }

    /// Cumulative guidance telemetry across every selection step so far
    /// (zeros when the guidance cache is disabled).
    pub fn guidance_totals(&self) -> GuidanceTelemetry {
        self.guidance.borrow().totals()
    }

    /// The deterministic assignment assumed correct at this point: the
    /// most-probable labels, with validated objects pinned to the expert's
    /// label (the *filter* step plus Algorithm 1 line 17).
    pub fn deterministic_assignment(&self) -> DeterministicAssignment {
        let mut d = self.current.instantiate();
        for (o, l) in self.expert.iter() {
            d.set_label(o, l);
        }
        d
    }

    /// Precision of the current deterministic assignment against the
    /// reference ground truth, when one was provided — measured over the
    /// objects both cover (mid-stream, the truth may span objects the
    /// session has not seen yet).
    pub fn precision(&self) -> Option<f64> {
        self.ground_truth
            .as_ref()
            .map(|g| Self::overlap_precision(g, &self.deterministic_assignment()))
    }

    fn overlap_precision(truth: &GroundTruth, assignment: &DeterministicAssignment) -> f64 {
        if assignment.len() <= truth.len() {
            truth.prefix_precision(assignment)
        } else {
            let covered = truth.len();
            if covered == 0 {
                return 1.0;
            }
            let correct = (0..covered)
                .filter(|&o| assignment.label(ObjectId(o)) == truth.label(ObjectId(o)))
                .count();
            correct as f64 / covered as f64
        }
    }

    /// Current uncertainty `H(P)`.
    pub fn uncertainty(&self) -> f64 {
        self.current.uncertainty()
    }

    /// Whether the configured goal or budget has been reached.
    pub fn is_finished(&self) -> bool {
        let budget_exhausted = self.config.budget.is_some_and(|b| self.trace.len() >= b);
        let nothing_left = self.expert.count() >= self.answers.num_objects();
        let goal_reached = self
            .config
            .goal
            .is_satisfied(self.uncertainty(), self.precision());
        budget_exhausted || nothing_left || goal_reached
    }

    // -----------------------------------------------------------------------
    // Expert-validation events (Algorithm 1)
    // -----------------------------------------------------------------------

    /// Step (1) of the validation process: selects the object for which
    /// expert feedback should be sought next. Returns `None` when every
    /// object has been validated.
    pub fn select_next(&mut self) -> Option<ObjectId> {
        let mut candidates = self.expert.unvalidated_objects();
        if candidates.is_empty() {
            return None;
        }
        // Bring the entropy cache up to date once; the strategies then
        // re-rank from cached values instead of recomputing every entropy.
        self.shortlist.refresh(&self.current);
        if self.config.triage.enabled
            && self.iteration >= self.config.triage.warmup_validations as usize
        {
            candidates = self.triage_pass(candidates);
            if candidates.is_empty() {
                // Everything left was auto-finalized: no expert pick this
                // step. Logged all the same — the replay must re-run the
                // triage pass to reproduce the finalizations.
                self.log_event(|| SessionEvent::Select { picked: None });
                return None;
            }
        }
        if self.config.guidance_cache {
            self.guidance.get_mut().begin_step();
        }
        let mut strategy = self
            .strategy
            .take()
            .expect("strategy always present outside select");
        let picked = {
            let ctx = StrategyContext {
                answers: &self.answers,
                expert: &self.expert,
                current: &self.current,
                aggregator: self.aggregator.as_ref(),
                detector: &self.detector,
                candidates: &candidates,
                parallel: self.config.parallel,
                entropy_cache: Some(&self.shortlist),
                guidance_cache: self.config.guidance_cache.then_some(&self.guidance),
            };
            strategy.select(&ctx)
        };
        self.strategy = Some(strategy);
        if self.config.guidance_cache {
            self.last_guidance = self.guidance.get_mut().last_step();
        }
        // Delta log: a selection validates nothing but advances the
        // strategy's RNG streams, so it must replay; the recorded pick is
        // also the replay integrity check. (The empty-candidates early
        // return above consults no strategy and is not logged.)
        self.log_event(|| SessionEvent::Select { picked });
        picked
    }

    /// Runs the triage policy over the unvalidated candidates (the entropy
    /// shortlist must be fresh). Objects predicted unanimous are finalized
    /// on the spot: the posterior's modal label becomes the validation
    /// outcome — no expert query, no budget, no trace step, but a full
    /// [`AuditRecord`]; the next conclude anchors the label exactly like an
    /// expert validation. The returned pool is what the selection strategy
    /// sees: the contentious objects when any were identified (so the
    /// information-gain fan-out concentrates where the crowd is predicted
    /// to stay split), the escalated rest otherwise.
    fn triage_pass(&mut self, candidates: Vec<ObjectId>) -> Vec<ObjectId> {
        let mut contentious = Vec::new();
        let mut escalated = Vec::new();
        let mut finalized = Vec::new();
        for object in candidates {
            let features = self.triage_features_fresh(object);
            let (label, confidence) = self.posterior_modal(object);
            let verdict = self.triage.decide(
                &self.config.triage,
                &features,
                confidence,
                self.iteration as u64,
            );
            match verdict.decision {
                TriageDecision::AutoFinalize => {
                    self.expert.set(object, label);
                    self.triage.record_auto_finalize(AuditRecord {
                        object,
                        label,
                        score: verdict.score,
                        confidence,
                        iteration: self.iteration as u64,
                        features,
                    });
                    finalized.push(object);
                }
                TriageDecision::Contentious => contentious.push(object),
                TriageDecision::Escalate => escalated.push(object),
            }
        }
        if !finalized.is_empty() {
            // The validation function changed under the guidance cache —
            // retained hypothesis scores are no longer valid bounds.
            self.refresh_guidance_cache(None, Some(&finalized));
        }
        if contentious.is_empty() {
            escalated
        } else {
            contentious
        }
    }

    /// The triage feature vector of one object, assuming the entropy
    /// shortlist was refreshed against the current posterior. Every feature
    /// is a pure function of session state — deterministic given the arrival
    /// history. `votes` and `margin` are pure multiset facts, invariant
    /// under worker-arrival reordering; `trust`, `entropy` and `churn` read
    /// streaming state (ledger copy evidence, EM floats) that legitimately
    /// depends on arrival order, though the voter-trust *mean* is summed in
    /// worker-id order so mere summation order never shifts it.
    fn triage_features_fresh(&self, object: ObjectId) -> TriageFeatures {
        let num_labels = self.answers.num_labels();
        let entropy_raw = self.shortlist.try_entropy(object).unwrap_or(f64::NAN);
        let max_entropy = (num_labels.max(2) as f64).ln();
        let tally = self.answers.matrix().tally_object(object, num_labels);
        let mut voters: Vec<WorkerId> = self
            .answers
            .matrix()
            .answers_for_object(object)
            .map(|(w, _)| w)
            .collect();
        voters.sort_unstable();
        voters.dedup();
        let trust = if voters.is_empty() {
            // No visible votes: neutral trust (the vote-count feature
            // already keeps such objects far from auto-finalization).
            0.5
        } else {
            let sum: f64 = voters
                .iter()
                .map(|&w| (1.0 - self.trust.suspicion(w, &self.config.trust)).clamp(0.0, 1.0))
                .sum();
            sum / voters.len() as f64
        };
        TriageFeatures {
            entropy: (entropy_raw / max_entropy).clamp(0.0, 1.0),
            votes: tally.count,
            margin: tally.margin(),
            trust,
            churn: self.churn.churn(object),
        }
    }

    /// The triage features the policy would see for `object` right now,
    /// refreshing the entropy shortlist first. `None` when the object is
    /// out of range. This is the extraction entry point the sim training
    /// harness and the feature tests use; it works whether or not triage is
    /// enabled (the churn feature just reads as unknown until the tracker
    /// is fed).
    pub fn triage_features(&mut self, object: ObjectId) -> Option<TriageFeatures> {
        if object.index() >= self.answers.num_objects() {
            return None;
        }
        self.shortlist.refresh(&self.current);
        Some(self.triage_features_fresh(object))
    }

    /// Modal label of the posterior row with its probability; ties resolve
    /// to the lowest label id, so the auto-finalize outcome is
    /// deterministic.
    fn posterior_modal(&self, object: ObjectId) -> (LabelId, f64) {
        let mut best = (LabelId(0), f64::NEG_INFINITY);
        for l in 0..self.answers.num_labels() {
            let p = self.current.assignment().prob(object, LabelId(l));
            if p > best.1 {
                best = (LabelId(l), p);
            }
        }
        best
    }

    /// The session's process configuration, as fixed at construction.
    pub fn process_config(&self) -> &ProcessConfig {
        &self.config
    }

    /// The triage state: convergence predictor, audit trail and counters.
    pub fn triage_state(&self) -> &TriageState {
        &self.triage
    }

    /// The monotone triage counters (all zero while triage is disabled).
    pub fn triage_counters(&self) -> TriageCounters {
        self.triage.counters()
    }

    /// The auto-finalize audit trail, in finalization order.
    pub fn triage_audit(&self) -> &[AuditRecord] {
        self.triage.audit()
    }

    /// Installs an externally trained convergence predictor (typically from
    /// the `crowdval-sim` training harness), replacing the calibrated
    /// default. The audit trail and counters are kept.
    pub fn set_triage_predictor(&mut self, predictor: ConvergencePredictor) {
        self.triage.set_predictor(predictor);
    }

    /// Steps (2)–(4) of the validation process: integrates the expert's
    /// label for `object`, updates worker exclusions, re-aggregates and
    /// records a trace step. Returns the objects flagged by the confirmation
    /// check (empty when the check is disabled or not due).
    ///
    /// Out-of-range objects and labels are rejected up front with a typed
    /// error — the session state is untouched by a failed call. (They used
    /// to panic deep inside the posterior lookup; a service front-end must
    /// be able to refuse a malformed validation without dying.)
    pub fn integrate(
        &mut self,
        object: ObjectId,
        label: LabelId,
    ) -> Result<Vec<ObjectId>, ModelError> {
        self.check_validation_target(object, label)?;
        self.iteration += 1;
        let uncertainty_before = self.current.uncertainty();
        let excluded_before = self.handler.num_excluded();
        // Error rate of the previous estimate on the validated object
        // (Algorithm 1 line 10).
        let error_rate = 1.0 - self.current.assignment().prob(object, label);

        // Update the validation function first so detection sees the newest
        // ground truth (Algorithm 1 lines 11–15), excluded workers included.
        self.expert.set(object, label);
        let detection = self.detector.detect(
            &self.answers,
            &self.expert,
            self.current.priors(),
            Visibility::Recorded,
        );
        let faulty_ratio = if self.answers.num_workers() == 0 {
            0.0
        } else {
            detection.num_faulty() as f64 / self.answers.num_workers() as f64
        };
        // Online defense: the validated object's answers feed each voter's
        // decayed approval rate, and the fresh detection verdicts fold into
        // the trust ledger before any tombstone decision. Tracking covers
        // excluded voters and is unconditional — it is cheap,
        // aggregation-neutral, and keeps trust reports meaningful even when
        // enforcement is off.
        for (worker, answered) in self.answers.matrix().recorded_answers_for_object(object) {
            self.trust.record_validation(worker, answered == label);
        }
        self.trust.absorb_detection(&detection);
        let strategy = self.strategy.as_mut().expect("strategy present");
        let mut defense = TrustDecision::default();
        if self.config.handle_faulty_workers && self.config.trust.enabled {
            // Trust-enforcement mode: the ledger is the exclusion authority —
            // EM verdicts arrive as one evidence stream among several rather
            // than flipping tombstones directly.
            defense = self.trust.decide(&self.config.trust);
            if !defense.is_empty() {
                self.handler.sync_excluded(&self.trust.excluded());
                self.handler.apply_exclusions(&mut self.answers);
            }
        } else if self.config.handle_faulty_workers && strategy.handle_spammers_now() {
            self.handler.apply(&detection);
            self.handler.apply_exclusions(&mut self.answers);
        }
        strategy.observe(&ValidationObservation {
            error_rate,
            faulty_ratio,
            coverage: self.expert.coverage(),
        });
        let strategy_kind = strategy.last_kind();

        // Conclude: update the probabilistic answer set (line 16). A
        // reinstated worker re-enters the view with votes the warm
        // trajectory's anchors never saw, so re-anchor from a cold
        // majority-vote init exactly like the streaming doubling trigger.
        let moved = if defense.reinstated.is_empty() {
            self.reaggregate()
        } else {
            self.reanchor_cold();
            None
        };
        // A flipped exclusion changes the aggregation *view*, and a rising
        // total uncertainty means the validation made the model more
        // confused — in both cases nothing about the previous state bounds
        // what happened to retained scores, so the region degrades to
        // global. (`defense.is_empty()` is checked separately: a same-size
        // swap of one exclusion for one reinstatement leaves the *count*
        // unchanged while still changing the view.)
        let moved = if self.handler.num_excluded() != excluded_before
            || !defense.is_empty()
            || self.current.uncertainty() > uncertainty_before
        {
            None
        } else {
            moved
        };
        self.refresh_guidance_cache(moved.as_deref(), Some(&[object]));

        self.record_step(object, label, strategy_kind, error_rate);
        self.log_event(|| SessionEvent::Integrate { object, label });

        // Confirmation check for erroneous validations (§5.5), fanned out
        // through the scoring engine like every other hypothesis sweep.
        // (Read-only and deterministic, so logging above it is safe.)
        Ok(match self.config.confirmation_check {
            Some(check) if check.is_due(self.iteration) => {
                check.flag_suspicious_in(&self.scoring_context())
            }
            _ => Vec::new(),
        })
    }

    /// Range-checks a `(object, label)` validation against the session's
    /// current id spaces.
    fn check_validation_target(&self, object: ObjectId, label: LabelId) -> Result<(), ModelError> {
        if object.index() >= self.answers.num_objects() {
            return Err(ModelError::ObjectOutOfRange {
                object: object.index(),
                num_objects: self.answers.num_objects(),
            });
        }
        if label.index() >= self.answers.num_labels() {
            return Err(ModelError::LabelOutOfRange {
                label: label.index(),
                num_labels: self.answers.num_labels(),
            });
        }
        Ok(())
    }

    /// Warm full re-aggregation over the masked view, diffing assignments
    /// into the entropy cache. Returns the converged dirty frontier — the
    /// rows that moved beyond the guidance drift threshold (clamped up to
    /// the aggregator's own convergence tolerance) — or `None` when the
    /// aggregator cannot bound its drift.
    fn reaggregate(&mut self) -> Option<Vec<ObjectId>> {
        let next = self
            .aggregator
            .conclude(&self.answers, &self.expert, Some(&self.current));
        // The frontier diff only feeds the guidance cache — skip it (and
        // its allocation) entirely when the cache is disabled.
        let moved = if self.config.guidance_cache {
            self.aggregator.drift_tolerance().map(|tol| {
                crowdval_aggregation::moved_rows(
                    &self.current,
                    &next,
                    tol.max(crate::guidance_cache::GUIDANCE_DRIFT_THRESHOLD),
                )
            })
        } else {
            None
        };
        self.shortlist
            .invalidate_changed(self.current.assignment(), next.assignment());
        self.track_churn(&next);
        self.current = next;
        moved
    }

    /// Cold re-anchor: a majority-vote-initialized full aggregation over the
    /// masked view, resetting the streaming doubling trigger. Used whenever
    /// the view changed in a way the warm trajectory cannot absorb — a
    /// reinstated worker's returning votes, or a manual tombstone override.
    fn reanchor_cold(&mut self) {
        let next = self.aggregator.conclude(&self.answers, &self.expert, None);
        self.shortlist
            .invalidate_changed(self.current.assignment(), next.assignment());
        self.track_churn(&next);
        self.current = next;
        self.answers_at_last_cold = self.answers.matrix().num_answers();
    }

    /// Folds one re-aggregation round into the churn tracker. The moved set
    /// is always re-derived with [`crowdval_aggregation::moved_rows`] at the
    /// guidance drift threshold — one uniform definition across every
    /// conclude path (arrival delta, warm full, cold re-anchor), independent
    /// of whether the guidance cache happens to be maintaining its own
    /// frontier — so the churn feature cannot depend on cache configuration.
    fn track_churn(&mut self, next: &ProbabilisticAnswerSet) {
        if !self.config.triage.enabled {
            return;
        }
        let moved = crowdval_aggregation::moved_rows(
            &self.current,
            next,
            crate::guidance_cache::GUIDANCE_DRIFT_THRESHOLD,
        );
        self.churn.observe_round(&moved, next.num_objects());
    }

    /// Manually overrides one worker's tombstone — an operator ban
    /// (`excluded: true`) or unban (`false`) that bypasses the trust
    /// thresholds. Returns `Ok(true)` when the state actually flipped.
    ///
    /// A flip is an unbounded change to the aggregation view, so the session
    /// re-anchors cold and drops the guidance cache globally. With trust
    /// enforcement enabled the ledger keeps accumulating evidence afterwards:
    /// an unbanned worker whose suspicion still clears the exclusion
    /// threshold will be re-excluded at the next decision point — overrides
    /// adjust state, not evidence.
    pub fn set_worker_excluded(
        &mut self,
        worker: WorkerId,
        excluded: bool,
    ) -> Result<bool, ModelError> {
        if worker.index() >= self.answers.num_workers() {
            return Err(ModelError::WorkerOutOfRange {
                worker: worker.index(),
                num_workers: self.answers.num_workers(),
            });
        }
        self.trust.ensure_workers(self.answers.num_workers());
        if self.handler.is_excluded(worker) == excluded {
            // Keep the ledger's flag aligned with the mask even on a no-op
            // (they can diverge in legacy §5.3 mode, where the detector owns
            // the mask and the ledger only observes).
            self.trust.set_excluded(worker, excluded);
            // Logged even though the mask did not flip: the ledger-flag
            // alignment above is a mutation the replay must reproduce.
            self.log_event(|| SessionEvent::SetWorkerExcluded { worker, excluded });
            return Ok(false);
        }
        self.trust.set_excluded(worker, excluded);
        let mut set = self.handler.excluded();
        if excluded {
            set.push(worker);
            set.sort_unstable();
        } else {
            set.retain(|&w| w != worker);
        }
        self.handler.sync_excluded(&set);
        self.handler.apply_exclusions(&mut self.answers);
        self.reanchor_cold();
        self.refresh_guidance_cache(None, None);
        self.log_event(|| SessionEvent::SetWorkerExcluded { worker, excluded });
        Ok(true)
    }

    /// Cumulative online-defense telemetry: batches observed, kappa-gated
    /// batches, exclusions and reinstatements. The ledger tracks even when
    /// enforcement is disabled, so the batch counters move in every mode;
    /// the exclusion counters only move under trust enforcement or manual
    /// overrides.
    pub fn defense_telemetry(&self) -> DefenseTelemetry {
        self.trust.telemetry()
    }

    /// Per-worker trust reports in worker-id order. The `excluded` flag
    /// reflects the session's *actual* tombstone mask — the handler is the
    /// authority in every mode; in legacy §5.3 mode the ledger merely
    /// observes and its own flags stay clear.
    pub fn worker_trust_reports(&self) -> Vec<TrustReport> {
        let mut reports = self.trust.reports(&self.config.trust);
        for report in &mut reports {
            report.excluded = self.handler.is_excluded(report.worker);
        }
        reports
    }

    /// The scoring view of the current validation state: what the guidance
    /// strategies and the confirmation check hand to the
    /// [`crate::scoring::ScoringEngine`]. No entropy cache is attached — the
    /// caller cannot prove it refreshed — so entropies are recomputed on
    /// demand; [`ValidationSession::select_next`] wires the cache in on the
    /// hot path.
    pub fn scoring_context(&self) -> ScoringContext<'_> {
        ScoringContext {
            answers: &self.answers,
            expert: &self.expert,
            current: &self.current,
            aggregator: self.aggregator.as_ref(),
            detector: &self.detector,
            parallel: self.config.parallel,
            entropy_cache: None,
        }
    }

    /// Replaces a previously given validation after the expert reconsidered a
    /// flagged object. Counts as one additional unit of expert effort.
    /// Rejects out-of-range objects and labels like
    /// [`ValidationSession::integrate`].
    pub fn revalidate(&mut self, object: ObjectId, label: LabelId) -> Result<(), ModelError> {
        self.check_validation_target(object, label)?;
        self.iteration += 1;
        let error_rate = 1.0 - self.current.assignment().prob(object, label);
        self.expert.set(object, label);
        self.reaggregate();
        // Replacing a validation rewrites history — scores retained under
        // the old validation are not bounds on anything. Global drop.
        self.refresh_guidance_cache(None, None);
        let kind = self
            .strategy
            .as_ref()
            .map_or(StrategyKind::Hybrid, |s| s.last_kind());
        self.record_step(object, label, kind, error_rate);
        self.log_event(|| SessionEvent::Revalidate { object, label });
        Ok(())
    }

    fn record_step(
        &mut self,
        object: ObjectId,
        label: LabelId,
        strategy: StrategyKind,
        error_rate: f64,
    ) {
        let precision = self.precision();
        // Consume the telemetry of the selection that led to this
        // validation; a revalidation (no fresh selection) records zeros.
        let guidance = std::mem::take(&mut self.last_guidance);
        self.trace.steps.push(ValidationStep {
            iteration: self.iteration,
            object,
            label,
            strategy,
            uncertainty: self.current.uncertainty(),
            precision,
            error_rate,
            excluded_workers: self.handler.num_excluded(),
            em_iterations: self.current.em_iterations(),
            guidance,
        });
    }

    /// Batch mode: runs the validation loop against an expert source until
    /// the goal is reached, the budget is exhausted, or every object has been
    /// validated. Returns the trace.
    ///
    /// Fails (leaving the session at the step that failed) when the expert
    /// source hands back a label outside the session's label space.
    pub fn run(
        &mut self,
        expert_source: &mut dyn ExpertSource,
    ) -> Result<&ValidationTrace, ModelError> {
        while !self.is_finished() {
            let Some(object) = self.select_next() else {
                break;
            };
            let label = expert_source.provide_label(object);
            let flagged = self.integrate(object, label)?;
            for suspicious in flagged {
                if self.is_finished() {
                    break;
                }
                let corrected = expert_source.reconsider(suspicious);
                if self.expert.get(suspicious) != Some(corrected) {
                    self.revalidate(suspicious, corrected)?;
                }
            }
        }
        Ok(&self.trace)
    }

    // -----------------------------------------------------------------------
    // Snapshot / restore
    // -----------------------------------------------------------------------

    /// Checkpoints the complete session state into a serializable
    /// [`SessionSnapshot`]. Fails with
    /// [`ModelError::SnapshotUnsupported`] when the session was built with a
    /// custom aggregator or strategy that does not implement state
    /// snapshots; every built-in component does.
    ///
    /// A session restored from the snapshot
    /// ([`ValidationSession::restore`]) resumes **bit-identically**: the
    /// same selection order, the same posterior floats, the same trace as
    /// the uninterrupted run — RNG streams of roulette-wheel strategies
    /// included.
    pub fn snapshot(&self) -> Result<SessionSnapshot, ModelError> {
        let snapshot = self.recovery_snapshot()?;
        // This full snapshot is the new anchor: deltas taken from here on
        // describe changes relative to it, so the log restarts empty.
        // (Interior mutability: re-anchoring is the one place the delta log
        // mutates under `&self`.)
        if let Some(wal) = self.wal.borrow_mut().as_mut() {
            wal.anchor_iteration = self.iteration;
            wal.anchor_votes_ingested = self.votes_ingested;
            wal.events.clear();
        }
        Ok(snapshot)
    }

    /// The same complete checkpoint as [`ValidationSession::snapshot`] but
    /// **without re-anchoring the delta log** — a pure read.
    ///
    /// This is the entry point for *background* checkpoints taken by a
    /// supervisor on behalf of the session's owner: the client-visible
    /// delta-log anchor (the contract behind `SnapshotDelta` /
    /// `RestoreDelta` at the service layer) must not move just because a
    /// crash-recovery anchor was captured. Pair it with
    /// [`ValidationSession::delta_snapshot`] to capture the log itself and
    /// [`ValidationSession::install_delta_log`] to reinstate it verbatim
    /// after a restore.
    pub fn recovery_snapshot(&self) -> Result<SessionSnapshot, ModelError> {
        let aggregator =
            self.aggregator
                .snapshot_state()
                .ok_or(ModelError::SnapshotUnsupported {
                    component: "aggregator",
                })?;
        let strategy = self
            .strategy
            .as_ref()
            .expect("strategy always present outside select")
            .snapshot_state()
            .ok_or(ModelError::SnapshotUnsupported {
                component: "selection strategy",
            })?;
        // Stored unmasked; restore re-applies the handler's exclusions.
        let mut answers = self.answers.clone();
        answers.set_excluded_workers(&[]);
        let snapshot = SessionSnapshot {
            format_version: crate::snapshot::SNAPSHOT_FORMAT_VERSION,
            answers,
            expert: self.expert.clone(),
            handler: self.handler.clone(),
            trust: self.trust.clone(),
            detector: *self.detector.config(),
            config: self.config,
            ground_truth: self.ground_truth.clone(),
            current: self.current.clone(),
            trace: self.trace.clone(),
            iteration: self.iteration,
            votes_ingested: self.votes_ingested,
            answers_at_last_cold: self.answers_at_last_cold,
            churn: self.churn.clone(),
            triage: self.triage.clone(),
            aggregator,
            strategy,
        };
        Ok(snapshot)
    }

    /// Rebuilds a session from a [`SessionSnapshot`], validating that the
    /// snapshot's parts agree with each other before touching anything. The
    /// restored session continues exactly where the snapshotted one left
    /// off — no re-aggregation happens on restore; the stored posterior *is*
    /// the warm-start state.
    pub fn restore(snapshot: SessionSnapshot) -> Result<ValidationSession, ModelError> {
        if snapshot.format_version != crate::snapshot::SNAPSHOT_FORMAT_VERSION {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "snapshot format v{} not supported (this build reads v{})",
                    snapshot.format_version,
                    crate::snapshot::SNAPSHOT_FORMAT_VERSION
                ),
            });
        }
        let mut answers = snapshot.answers;
        if snapshot.current.num_objects() != answers.num_objects()
            || snapshot.current.num_workers() != answers.num_workers()
            || snapshot.current.num_labels() != answers.num_labels()
        {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "posterior shape {}x{}x{} does not match the answer set's {}x{}x{}",
                    snapshot.current.num_objects(),
                    snapshot.current.num_workers(),
                    snapshot.current.num_labels(),
                    answers.num_objects(),
                    answers.num_workers(),
                    answers.num_labels(),
                ),
            });
        }
        if snapshot.expert.num_objects() != answers.num_objects() {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "expert domain covers {} objects, answer set has {}",
                    snapshot.expert.num_objects(),
                    answers.num_objects()
                ),
            });
        }
        for (_, label) in snapshot.expert.iter() {
            if label.index() >= answers.num_labels() {
                return Err(ModelError::LabelOutOfRange {
                    label: label.index(),
                    num_labels: answers.num_labels(),
                });
            }
        }
        if let Some(truth) = &snapshot.ground_truth {
            if let Some(max_label) = truth.max_label_index() {
                if max_label >= answers.num_labels() {
                    return Err(ModelError::LabelOutOfRange {
                        label: max_label,
                        num_labels: answers.num_labels(),
                    });
                }
            }
        }
        // Deep consistency of deserialized internals. Snapshots cross the
        // service's trust boundary, so everything the EM kernels index into
        // must be proven in-range here — a malformed snapshot must be a
        // typed error, never a later panic.
        if let Some(max_label) = answers.matrix().max_label_index() {
            if max_label >= answers.num_labels() {
                return Err(ModelError::LabelOutOfRange {
                    label: max_label,
                    num_labels: answers.num_labels(),
                });
            }
        }
        if snapshot.current.priors().len() != answers.num_labels() {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "posterior carries {} label priors, answer set has {} labels",
                    snapshot.current.priors().len(),
                    answers.num_labels()
                ),
            });
        }
        for (w, confusion) in snapshot.current.confusions().iter().enumerate() {
            let m = confusion.matrix();
            if m.rows() != answers.num_labels() || m.cols() != answers.num_labels() {
                return Err(ModelError::InvalidSnapshot {
                    message: format!(
                        "worker {w}'s confusion matrix is {}x{}, expected {}x{}",
                        m.rows(),
                        m.cols(),
                        answers.num_labels(),
                        answers.num_labels()
                    ),
                });
            }
        }
        answers.set_excluded_workers(&snapshot.handler.excluded());
        let mut shortlist = EntropyShortlist::new();
        shortlist.ensure_len(answers.num_objects());
        let mut trust = snapshot.trust;
        trust.ensure_workers(answers.num_workers());
        Ok(ValidationSession {
            answers,
            aggregator: snapshot.aggregator.into_aggregator(),
            strategy: Some(snapshot.strategy.into_strategy()),
            detector: SpammerDetector::new(snapshot.detector),
            handler: snapshot.handler,
            trust,
            config: snapshot.config,
            ground_truth: snapshot.ground_truth,
            expert: snapshot.expert,
            current: snapshot.current,
            shortlist,
            // The guidance cache is not part of the snapshot: it is rebuilt
            // lazily, and exactness-on-miss means the restored session's
            // first selection is a full re-score with the same exact argmax.
            guidance: RefCell::new(GuidanceCache::new()),
            last_guidance: GuidanceTelemetry::default(),
            trace: snapshot.trace,
            iteration: snapshot.iteration,
            votes_ingested: snapshot.votes_ingested,
            answers_at_last_cold: snapshot.answers_at_last_cold,
            churn: snapshot.churn,
            triage: snapshot.triage,
            wal: RefCell::new(None),
        })
    }

    /// Restores the anchoring full snapshot, then replays the delta's event
    /// log through the same public entry points the live session used —
    /// ingest batches, selections (advancing the strategy's RNG streams),
    /// validations and exclusion overrides — yielding a session
    /// **bit-identical** to the one the delta was taken from.
    ///
    /// Fails with a typed error when the delta does not anchor at this
    /// snapshot, or when a replayed selection disagrees with the recorded
    /// pick (which would mean snapshot and delta are from different runs).
    /// The restored session starts with its own delta log disabled.
    pub fn restore_with_delta(
        snapshot: SessionSnapshot,
        delta: SessionDelta,
    ) -> Result<ValidationSession, ModelError> {
        if delta.format_version != crate::snapshot::SNAPSHOT_FORMAT_VERSION {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "delta format v{} not supported (this build reads v{})",
                    delta.format_version,
                    crate::snapshot::SNAPSHOT_FORMAT_VERSION
                ),
            });
        }
        let mut session = Self::restore(snapshot)?;
        if delta.anchor_iteration != session.iteration
            || delta.anchor_votes_ingested != session.votes_ingested
        {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "delta anchored at iteration {} / {} votes does not match the \
                     snapshot's iteration {} / {} votes",
                    delta.anchor_iteration,
                    delta.anchor_votes_ingested,
                    session.iteration,
                    session.votes_ingested
                ),
            });
        }
        for event in delta.events {
            match event {
                SessionEvent::Ingest { votes } => {
                    session.ingest(&votes)?;
                }
                SessionEvent::Select { picked } => {
                    let got = session.select_next();
                    if got != picked {
                        return Err(ModelError::InvalidSnapshot {
                            message: format!(
                                "delta replay diverged: select_next picked {got:?}, \
                                 the log recorded {picked:?}"
                            ),
                        });
                    }
                }
                SessionEvent::Integrate { object, label } => {
                    session.integrate(object, label)?;
                }
                SessionEvent::Revalidate { object, label } => {
                    session.revalidate(object, label)?;
                }
                SessionEvent::SetWorkerExcluded { worker, excluded } => {
                    session.set_worker_excluded(worker, excluded)?;
                }
            }
        }
        Ok(session)
    }

    // -----------------------------------------------------------------------
    // Incremental checkpoints (delta log)
    // -----------------------------------------------------------------------

    /// Turns on the write-ahead log behind [`ValidationSession::delta_snapshot`],
    /// anchored at the session's current state. Every subsequent full
    /// [`ValidationSession::snapshot`] re-anchors the log (clearing it), so
    /// the usual cadence is: enable once, take a full snapshot, then take
    /// cheap deltas until the next full snapshot.
    ///
    /// The log costs `O(events since anchor)` memory — bounded by the full
    ///-snapshot cadence, not by corpus size.
    pub fn enable_delta_log(&mut self) {
        *self.wal.get_mut() = Some(SessionWal {
            anchor_iteration: self.iteration,
            anchor_votes_ingested: self.votes_ingested,
            events: Vec::new(),
        });
    }

    /// Disables the delta log and drops any pending events.
    pub fn disable_delta_log(&mut self) {
        *self.wal.get_mut() = None;
    }

    /// Whether the delta log is currently recording.
    pub fn delta_log_enabled(&self) -> bool {
        self.wal.borrow().is_some()
    }

    /// An incremental checkpoint: the events applied since the anchoring
    /// full snapshot, replayable via
    /// [`ValidationSession::restore_with_delta`]. `O(events)` — no corpus
    /// clone, which is what makes checkpoint stalls flat at million-object
    /// scale. Fails when the delta log is not enabled.
    pub fn delta_snapshot(&self) -> Result<SessionDelta, ModelError> {
        let wal = self.wal.borrow();
        let Some(wal) = wal.as_ref() else {
            return Err(ModelError::SnapshotUnsupported {
                component: "delta log (call enable_delta_log first)",
            });
        };
        Ok(SessionDelta {
            format_version: crate::snapshot::SNAPSHOT_FORMAT_VERSION,
            anchor_iteration: wal.anchor_iteration,
            anchor_votes_ingested: wal.anchor_votes_ingested,
            events: wal.events.clone(),
        })
    }

    /// Reinstates a previously captured delta log verbatim — anchor counters
    /// and pending events included — on a freshly restored session.
    ///
    /// This is the recovery counterpart of
    /// [`ValidationSession::recovery_snapshot`]: a supervisor that rebuilds a
    /// crashed session from a background anchor must put the *client-visible*
    /// delta log back exactly as the client last saw it, so a `SnapshotDelta`
    /// taken after recovery is indistinguishable from one taken before the
    /// crash. Fails with a typed error on a format-version mismatch.
    pub fn install_delta_log(&mut self, delta: SessionDelta) -> Result<(), ModelError> {
        if delta.format_version != crate::snapshot::SNAPSHOT_FORMAT_VERSION {
            return Err(ModelError::InvalidSnapshot {
                message: format!(
                    "delta log format v{} not supported (this build reads v{})",
                    delta.format_version,
                    crate::snapshot::SNAPSHOT_FORMAT_VERSION
                ),
            });
        }
        *self.wal.get_mut() = Some(SessionWal {
            anchor_iteration: delta.anchor_iteration,
            anchor_votes_ingested: delta.anchor_votes_ingested,
            events: delta.events,
        });
        Ok(())
    }

    /// Appends an event to the delta log, if it is recording.
    fn log_event(&mut self, event: impl FnOnce() -> SessionEvent) {
        if let Some(wal) = self.wal.get_mut().as_mut() {
            wal.events.push(event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::EntropyBaseline;
    use crowdval_model::LabelId;
    use crowdval_sim::{PopulationMix, SyntheticConfig};

    fn votes_of(answers: &AnswerSet) -> Vec<Vote> {
        answers
            .matrix()
            .iter()
            .map(|(o, w, l)| Vote::new(o, w, l))
            .collect()
    }

    fn reliable_synth(seed: u64, objects: usize) -> crowdval_sim::SyntheticDataset {
        SyntheticConfig {
            num_objects: objects,
            num_workers: 12,
            reliability: 0.85,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(seed)
        }
        .generate()
    }

    #[test]
    fn empty_session_accepts_streamed_votes() {
        let synth = reliable_synth(11, 16);
        let votes = votes_of(synth.dataset.answers());
        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .build();
        assert_eq!(session.answers().num_objects(), 0);
        let update = session.ingest(&votes).unwrap();
        assert_eq!(update.votes_ingested, votes.len());
        assert_eq!(update.new_objects, 16);
        assert_eq!(update.new_workers, 12);
        assert_eq!(session.answers().num_objects(), 16);
        assert_eq!(session.expert().num_objects(), 16);
        assert!(session.uncertainty().is_finite());
    }

    #[test]
    fn incremental_ingestion_matches_batch_build() {
        let synth = reliable_synth(23, 20);
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let votes = votes_of(&answers);

        // Batch: everything known up front.
        let batch = crowdval_aggregation::IncrementalEm::default().conclude(
            &answers,
            &ExpertValidation::empty(20),
            None,
        );

        // Streaming: three uneven batches through a session.
        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .ground_truth(truth)
            .build();
        for chunk in votes.chunks(votes.len() / 3 + 1) {
            session.ingest(chunk).unwrap();
        }
        let diff = batch
            .assignment()
            .max_abs_diff(session.current().assignment());
        assert!(
            diff <= 1e-2,
            "streamed posterior diverged from the batch build by {diff}"
        );
        // Precision over the overlap is available mid-stream.
        assert!(session.precision().unwrap() > 0.8);
    }

    #[test]
    fn ingest_grows_mid_validation_and_guidance_continues() {
        let synth = reliable_synth(31, 24);
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let votes = votes_of(&answers);
        let (first, rest) = votes.split_at(votes.len() / 2);

        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .ground_truth(truth.clone())
            .build();
        session.ingest(first).unwrap();

        // Two validations before the rest of the stream arrives.
        for _ in 0..2 {
            let o = session.select_next().expect("candidates exist");
            session.integrate(o, truth.label(o)).unwrap();
        }
        let before = session.answers().num_objects();
        let update = session.ingest(rest).unwrap();
        assert!(session.answers().num_objects() >= before);
        assert!(update.em_iterations >= 1);
        // Validations survive the arrival and stay pinned.
        for (o, l) in session.expert().iter() {
            assert_eq!(session.current().assignment().prob(o, l), 1.0);
        }
        // Guidance keeps working on the grown candidate set.
        let next = session.select_next().expect("candidates exist");
        assert!(next.index() < session.answers().num_objects());
        assert!(session.expert().get(next).is_none());
    }

    #[test]
    fn bad_labels_are_rejected_atomically() {
        let mut session = ValidationSessionBuilder::empty(2).build();
        let batch = [
            Vote::new(ObjectId(0), WorkerId(0), LabelId(0)),
            Vote::new(ObjectId(1), WorkerId(0), LabelId(7)),
        ];
        assert!(session.ingest(&batch).is_err());
        // Nothing was absorbed: the first (valid) vote must not have landed.
        assert_eq!(session.answers().num_objects(), 0);
        assert_eq!(session.votes_ingested(), 0);
    }

    #[test]
    fn empty_batches_are_cheap_noops() {
        let mut session = ValidationSessionBuilder::empty(2).build();
        let update = session.ingest(&[]).unwrap();
        assert_eq!(update.votes_ingested, 0);
        assert_eq!(update.touched_objects, Vec::<ObjectId>::new());
    }

    #[test]
    fn integrate_rejects_out_of_range_targets_without_mutation() {
        let synth = reliable_synth(61, 8);
        let mut session = ValidationSessionBuilder::new(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .build();
        let before = session.current().clone();
        assert!(matches!(
            session.integrate(ObjectId(99), LabelId(0)),
            Err(ModelError::ObjectOutOfRange { .. })
        ));
        assert!(matches!(
            session.integrate(ObjectId(0), LabelId(9)),
            Err(ModelError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            session.revalidate(ObjectId(99), LabelId(0)),
            Err(ModelError::ObjectOutOfRange { .. })
        ));
        // Nothing moved: no iteration counted, no trace step, same posterior.
        assert_eq!(session.iterations(), 0);
        assert_eq!(session.trace().len(), 0);
        assert_eq!(session.expert().count(), 0);
        assert_eq!(session.current(), &before);
    }

    #[test]
    fn try_build_validates_label_count_consistency() {
        use crate::goal::ValidationGoal;
        let synth = reliable_synth(67, 8);
        let answers = synth.dataset.answers().clone();

        // Ground truth speaking a wider label space than the answer set.
        let bad_truth = GroundTruth::new(vec![LabelId(5); answers.num_objects()]);
        let err = ValidationSessionBuilder::new(answers.clone())
            .ground_truth(bad_truth)
            .try_build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ModelError::LabelOutOfRange { label: 5, .. }));

        // Precision goal without a ground truth can never be evaluated.
        let err = ValidationSessionBuilder::new(answers.clone())
            .config(ProcessConfig {
                goal: ValidationGoal::TargetPrecision(0.9),
                ..ProcessConfig::default()
            })
            .try_build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ModelError::InvalidConfig { .. }));

        // Out-of-range precision target.
        let err = ValidationSessionBuilder::new(answers.clone())
            .config(ProcessConfig {
                goal: ValidationGoal::TargetPrecision(1.5),
                ..ProcessConfig::default()
            })
            .ground_truth(synth.dataset.ground_truth().clone())
            .try_build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ModelError::InvalidConfig { .. }));

        // A consistent configuration builds.
        assert!(ValidationSessionBuilder::new(answers)
            .ground_truth(synth.dataset.ground_truth().clone())
            .try_build()
            .is_ok());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_mid_run() {
        let synth = reliable_synth(71, 20);
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let votes = votes_of(&answers);
        let (first, rest) = votes.split_at(votes.len() * 2 / 3);

        // The hybrid strategy exercises the RNG checkpoint.
        let build = || {
            ValidationSessionBuilder::empty(2)
                .strategy(Box::new(crate::strategy::HybridStrategy::new(13)))
                .ground_truth(truth.clone())
                .build()
        };
        let drive = |session: &mut ValidationSession, picks: &mut Vec<ObjectId>| {
            for _ in 0..3 {
                let o = session.select_next().expect("candidates exist");
                picks.push(o);
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        // Uninterrupted reference run.
        let mut reference = build();
        let mut ref_picks = Vec::new();
        reference.ingest(first).unwrap();
        drive(&mut reference, &mut ref_picks);
        reference.ingest(rest).unwrap();
        drive(&mut reference, &mut ref_picks);

        // Interrupted run: snapshot after the first drive, restore, continue.
        let mut session = build();
        let mut picks = Vec::new();
        session.ingest(first).unwrap();
        drive(&mut session, &mut picks);
        let snapshot = session.snapshot().unwrap();
        drop(session);
        let mut restored = ValidationSession::restore(snapshot).unwrap();
        restored.ingest(rest).unwrap();
        drive(&mut restored, &mut picks);

        assert_eq!(picks, ref_picks, "selection order diverged after restore");
        assert_eq!(
            restored.current(),
            reference.current(),
            "posterior diverged after restore"
        );
        assert_eq!(restored.trace(), reference.trace());
        assert_eq!(restored.iterations(), reference.iterations());
        assert_eq!(restored.votes_ingested(), reference.votes_ingested());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let synth = reliable_synth(73, 10);
        let session = ValidationSessionBuilder::new(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .build();
        let good = session.snapshot().unwrap();

        let mut wrong_version = good.clone();
        wrong_version.format_version += 1;
        assert!(matches!(
            ValidationSession::restore(wrong_version),
            Err(ModelError::InvalidSnapshot { .. })
        ));

        let mut wrong_shape = good.clone();
        wrong_shape.current = crowdval_model::ProbabilisticAnswerSet::uninformed(3, 2, 2);
        assert!(matches!(
            ValidationSession::restore(wrong_shape),
            Err(ModelError::InvalidSnapshot { .. })
        ));

        let mut wrong_expert = good.clone();
        wrong_expert.expert = ExpertValidation::empty(1);
        assert!(matches!(
            ValidationSession::restore(wrong_expert),
            Err(ModelError::InvalidSnapshot { .. })
        ));

        // Deep posterior inconsistencies the EM kernels would index into.
        let mut wrong_confusions = good.clone();
        wrong_confusions.current = crowdval_model::ProbabilisticAnswerSet::new(
            good.current.assignment().clone(),
            vec![crowdval_model::ConfusionMatrix::uniform(1); good.current.num_workers()],
            good.current.priors().to_vec(),
            good.current.em_iterations(),
        );
        assert!(matches!(
            ValidationSession::restore(wrong_confusions),
            Err(ModelError::InvalidSnapshot { .. })
        ));

        let mut wrong_priors = good.clone();
        wrong_priors.current = crowdval_model::ProbabilisticAnswerSet::new(
            good.current.assignment().clone(),
            good.current.confusions().to_vec(),
            vec![1.0; 7],
            good.current.em_iterations(),
        );
        assert!(matches!(
            ValidationSession::restore(wrong_priors),
            Err(ModelError::InvalidSnapshot { .. })
        ));

        assert!(ValidationSession::restore(good).is_ok());
    }

    #[test]
    fn worker_churn_mid_session_is_absorbed() {
        let synth = reliable_synth(47, 12);
        let answers = synth.dataset.answers().clone();
        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .build();
        // First only workers 0..6 vote; then the rest join.
        let votes = votes_of(&answers);
        let (early, late): (Vec<Vote>, Vec<Vote>) =
            votes.iter().partition(|v| v.worker.index() < 6);
        session.ingest(&early).unwrap();
        assert_eq!(session.answers().num_workers(), 6);
        let update = session.ingest(&late).unwrap();
        assert_eq!(update.new_workers, 6);
        assert_eq!(session.answers().num_workers(), 12);
        assert_eq!(
            session.current().num_workers(),
            session.answers().num_workers()
        );
    }

    /// The single-owner invariant, pinned at compile time: a session (and
    /// its builder parts) can be *moved* to another thread — the sharded
    /// service runtime hands each session to exactly one shard worker —
    /// while concurrent sharing stays unsupported (the type is not `Sync`;
    /// the `RefCell` guidance cache makes that structural, not just
    /// conventional).
    #[test]
    fn sessions_move_between_threads_but_are_single_owner() {
        fn assert_send<T: Send>() {}
        assert_send::<ValidationSession>();
        assert_send::<Box<dyn SelectionStrategy>>();
        assert_send::<Box<dyn Aggregator>>();

        // Exercise the move: build on this thread, drive on another.
        let synth = reliable_synth(48, 6);
        let votes = votes_of(synth.dataset.answers());
        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .build();
        let handle = std::thread::spawn(move || {
            session.ingest(&votes).unwrap();
            session
        });
        let session = handle.join().unwrap();
        assert_eq!(session.answers().num_workers(), 12);
    }

    /// Streams an honest synthetic corpus in batches with one extra
    /// constant-answer spammer riding along (worker id 12, always label 1).
    fn stream_with_constant_spammer(
        config: ProcessConfig,
    ) -> (ValidationSession, Vec<SessionUpdate>) {
        let synth = reliable_synth(77, 24);
        let truth = synth.dataset.ground_truth().clone();
        let mut votes = votes_of(synth.dataset.answers());
        votes.sort_by_key(|v| v.object);
        let mut session = ValidationSessionBuilder::empty(2)
            .strategy(Box::new(EntropyBaseline))
            .ground_truth(truth)
            .config(config)
            .build();
        let mut updates = Vec::new();
        for chunk in votes.chunks(votes.len() / 4 + 1) {
            let mut batch = chunk.to_vec();
            let mut objects: Vec<ObjectId> = chunk.iter().map(|v| v.object).collect();
            objects.sort();
            objects.dedup();
            batch.extend(
                objects
                    .into_iter()
                    .map(|o| Vote::new(o, WorkerId(12), LabelId(1))),
            );
            updates.push(session.ingest(&batch).unwrap());
        }
        (session, updates)
    }

    #[test]
    fn streaming_defense_tombstones_a_constant_answer_spammer() {
        let config = ProcessConfig {
            trust: crowdval_spammer::TrustConfig::streaming_default(),
            ..ProcessConfig::default()
        };
        let (session, updates) = stream_with_constant_spammer(config);
        let excluded: Vec<WorkerId> = updates
            .iter()
            .flat_map(|u| u.workers_excluded.iter().copied())
            .collect();
        assert_eq!(excluded, vec![WorkerId(12)], "spammer not tombstoned");
        assert_eq!(session.excluded_workers(), vec![WorkerId(12)]);
        let telemetry = session.defense_telemetry();
        assert_eq!(telemetry.exclusions, 1);
        assert_eq!(telemetry.heuristic_exclusions, 1);
        assert!(telemetry.batches_observed >= 4);
        let report = &session.worker_trust_reports()[12];
        assert!(report.excluded);
        assert!(report.suspicion >= config.trust.exclusion_threshold);
        // No honest worker was caught in the sweep.
        assert!(session
            .worker_trust_reports()
            .iter()
            .take(12)
            .all(|r| !r.excluded));
    }

    #[test]
    fn default_config_tracks_trust_but_never_enforces() {
        let (session, updates) = stream_with_constant_spammer(ProcessConfig::default());
        assert!(updates
            .iter()
            .all(|u| u.workers_excluded.is_empty() && u.workers_reinstated.is_empty()));
        assert_eq!(session.defense_telemetry().exclusions, 0);
        // Tracking still ran: the ledger knows the spammer looks suspicious.
        let config = crowdval_spammer::TrustConfig::streaming_default();
        let reports = session.worker_trust_reports();
        assert!(reports[12].votes > 0);
        assert!(reports[12].suspicion >= config.exclusion_threshold);
    }

    #[test]
    fn manual_tombstone_overrides_round_trip() {
        let synth = reliable_synth(83, 12);
        let mut session = ValidationSessionBuilder::new(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .build();
        assert!(matches!(
            session.set_worker_excluded(WorkerId(99), true),
            Err(ModelError::WorkerOutOfRange { .. })
        ));
        assert!(session.set_worker_excluded(WorkerId(3), true).unwrap());
        assert_eq!(session.excluded_workers(), vec![WorkerId(3)]);
        // Idempotent: repeating the ban is a no-op.
        assert!(!session.set_worker_excluded(WorkerId(3), true).unwrap());
        // Validation-driven guidance still works with the mask in place.
        let truth = synth.dataset.ground_truth().clone();
        let o = session.select_next().expect("candidates exist");
        session.integrate(o, truth.label(o)).unwrap();
        assert!(session.set_worker_excluded(WorkerId(3), false).unwrap());
        assert!(session.excluded_workers().is_empty());
        let telemetry = session.defense_telemetry();
        assert_eq!(telemetry.exclusions, 1);
        assert_eq!(telemetry.reinstatements, 1);
    }

    #[test]
    fn trust_ledger_survives_snapshot_restore() {
        let config = ProcessConfig {
            trust: crowdval_spammer::TrustConfig::streaming_default(),
            ..ProcessConfig::default()
        };
        let (session, _) = stream_with_constant_spammer(config);
        let snapshot = session.snapshot().unwrap();
        let json = serde_json::to_string(&snapshot).unwrap();
        let reread: SessionSnapshot = serde_json::from_str(&json).unwrap();
        let restored = ValidationSession::restore(reread).unwrap();
        assert_eq!(restored.defense_telemetry(), session.defense_telemetry());
        assert_eq!(restored.excluded_workers(), session.excluded_workers());
        assert_eq!(
            restored.worker_trust_reports(),
            session.worker_trust_reports()
        );
    }
}
