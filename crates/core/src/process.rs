//! The guided answer-validation process (paper §3.2 and Algorithm 1) — the
//! **batch facade** over the incremental session core.
//!
//! [`ValidationProcess`] is the historical entry point: build it from a fully
//! collected [`AnswerSet`] and validate. Since the streaming refactor it is a
//! thin wrapper around [`crate::session::ValidationSession`] — "ingest
//! everything at build time, then run" — so the two pipelines share one
//! engine and cannot drift apart. Workloads where votes keep arriving during
//! validation should use the session directly
//! ([`crate::session::ValidationSession::ingest`]).
//!
//! The process can be driven in two ways:
//!
//! * **interactively** — call [`ValidationProcess::select_next`] to get the
//!   object the expert should look at, obtain the expert's label out of band,
//!   and feed it back with [`ValidationProcess::integrate`]; repeat as long
//!   as budget remains. This is the pay-as-you-go mode: a deterministic
//!   assignment can be instantiated at any time.
//! * **batch** — call [`ValidationProcess::run`] with an [`ExpertSource`]
//!   (e.g. a simulated expert) and a stopping condition; the engine loops
//!   until the goal, the budget or the object set is exhausted.

use crate::confirmation::ConfirmationCheck;
use crate::goal::ValidationGoal;
use crate::metrics::ValidationTrace;
use crate::scoring::ScoringContext;
use crate::session::ValidationSession;
use crate::strategy::SelectionStrategy;
use crowdval_aggregation::Aggregator;
use crowdval_model::{
    AnswerSet, DeterministicAssignment, ExpertValidation, GroundTruth, LabelId, ObjectId,
    ProbabilisticAnswerSet, WorkerId,
};
use crowdval_spammer::{SpammerDetector, TrustConfig};
use crowdval_triage::TriageConfig;
use serde::{Deserialize, Serialize};

/// Where expert labels come from in batch mode.
pub trait ExpertSource {
    /// Provides the expert's label for `object`.
    fn provide_label(&mut self, object: ObjectId) -> LabelId;

    /// Re-examines an object whose earlier validation was flagged as
    /// suspicious by the confirmation check. Defaults to answering the
    /// question again.
    fn reconsider(&mut self, object: ObjectId) -> LabelId {
        self.provide_label(object)
    }
}

impl<F: FnMut(ObjectId) -> LabelId> ExpertSource for F {
    fn provide_label(&mut self, object: ObjectId) -> LabelId {
        self(object)
    }
}

/// Run-time options of the validation process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessConfig {
    /// Maximum number of expert interactions (the effort budget `b`);
    /// `None` allows validating every object.
    pub budget: Option<usize>,
    /// Stopping condition Δ checked after every validation.
    pub goal: ValidationGoal,
    /// Leave-one-out confirmation check for erroneous validations; `None`
    /// disables it.
    pub confirmation_check: Option<ConfirmationCheck>,
    /// Whether detected faulty workers are excluded from aggregation
    /// (§5.3 "Handling faulty workers").
    pub handle_faulty_workers: bool,
    /// Whether per-candidate scoring may use multiple threads.
    pub parallel: bool,
    /// Whether guidance keeps a cross-step score cache with dirty-region
    /// invalidation and lazy bound-based selection
    /// ([`crate::guidance_cache`]). On by default; selection order is
    /// bit-identical either way (property-tested) — `false` forces the
    /// eager re-score-everything path, which the selection benchmark uses
    /// as its baseline.
    pub guidance_cache: bool,
    /// Online adversarial-worker defense: thresholds of the streaming trust
    /// ledger ([`crowdval_spammer::WorkerTrustLedger`]). The ledger always
    /// *tracks* trust; with `trust.enabled` (and `handle_faulty_workers`)
    /// it also auto-tombstones and reinstates workers on every ingest and
    /// validation. Disabled by default — sessions then behave exactly like
    /// the pre-defense (§5.3-only) pipeline.
    pub trust: TrustConfig,
    /// Agreement-prediction triage ([`crowdval_triage`]): thresholds of the
    /// convergence predictor that auto-finalizes objects predicted
    /// unanimous and pre-filters the guidance pool down to the contentious
    /// ones. Only the `Copy` knobs live here; the predictor weights, audit
    /// trail and counters are session state and snapshot separately.
    /// Disabled by default — sessions then behave exactly like the
    /// pre-triage pipeline.
    pub triage: TriageConfig,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        Self {
            budget: None,
            goal: ValidationGoal::ExhaustBudget,
            confirmation_check: None,
            handle_faulty_workers: true,
            parallel: false,
            guidance_cache: true,
            trust: TrustConfig::default(),
            triage: TriageConfig::default(),
        }
    }
}

/// Builder for [`ValidationProcess`].
pub struct ValidationProcessBuilder {
    inner: crate::session::ValidationSessionBuilder,
}

impl ValidationProcessBuilder {
    /// Starts a builder with the paper's default components: i-EM
    /// aggregation and the hybrid guidance strategy.
    pub fn new(answers: AnswerSet) -> Self {
        Self {
            inner: crate::session::ValidationSessionBuilder::new(answers),
        }
    }

    /// Replaces the aggregator (the *conclude* step).
    pub fn aggregator(mut self, aggregator: Box<dyn Aggregator>) -> Self {
        self.inner = self.inner.aggregator(aggregator);
        self
    }

    /// Replaces the guidance strategy (the *select* step).
    pub fn strategy(mut self, strategy: Box<dyn SelectionStrategy>) -> Self {
        self.inner = self.inner.strategy(strategy);
        self
    }

    /// Replaces the faulty-worker detector.
    pub fn detector(mut self, detector: SpammerDetector) -> Self {
        self.inner = self.inner.detector(detector);
        self
    }

    /// Sets the run-time options.
    pub fn config(mut self, config: ProcessConfig) -> Self {
        self.inner = self.inner.config(config);
        self
    }

    /// Attaches a reference ground truth; enables precision tracking and
    /// precision-based goals (evaluation mode).
    pub fn ground_truth(mut self, truth: GroundTruth) -> Self {
        self.inner = self.inner.ground_truth(truth);
        self
    }

    /// Builds the process and runs the initial aggregation, validating
    /// label-count consistency between the answer set, the ground truth and
    /// the configured goal up front (see
    /// [`crate::session::ValidationSessionBuilder::try_build`]).
    pub fn try_build(self) -> Result<ValidationProcess, crowdval_model::ModelError> {
        Ok(ValidationProcess {
            session: self.inner.try_build()?,
        })
    }

    /// Builds the process and runs the initial aggregation.
    ///
    /// # Panics
    /// Panics when the parts are inconsistent (see
    /// [`ValidationProcessBuilder::try_build`] for the non-panicking
    /// variant).
    pub fn build(self) -> ValidationProcess {
        ValidationProcess {
            session: self.inner.build(),
        }
    }
}

/// The validation-process engine (Algorithm 1): the batch facade over
/// [`ValidationSession`].
pub struct ValidationProcess {
    session: ValidationSession,
}

impl ValidationProcess {
    /// Creates the process and performs the initial aggregation (`P_0`,
    /// `d_0`).
    pub fn new(
        answers: AnswerSet,
        aggregator: Box<dyn Aggregator>,
        strategy: Box<dyn SelectionStrategy>,
        detector: SpammerDetector,
        config: ProcessConfig,
        ground_truth: Option<GroundTruth>,
    ) -> Self {
        Self {
            session: ValidationSession::new(
                answers,
                aggregator,
                strategy,
                detector,
                config,
                ground_truth,
            ),
        }
    }

    /// Convenience entry point for the builder.
    pub fn builder(answers: AnswerSet) -> ValidationProcessBuilder {
        ValidationProcessBuilder::new(answers)
    }

    /// The underlying incremental session. Escape hatch for callers that
    /// want to start in batch mode and switch to streaming ingestion.
    pub fn session(&self) -> &ValidationSession {
        &self.session
    }

    /// Mutable access to the underlying session (e.g. to
    /// [`ValidationSession::ingest`] more votes mid-run).
    pub fn session_mut(&mut self) -> &mut ValidationSession {
        &mut self.session
    }

    /// Consumes the facade, yielding the session.
    pub fn into_session(self) -> ValidationSession {
        self.session
    }

    /// The session's one answer set, with the excluded workers behind its
    /// tombstone mask (see [`ValidationSession::answers`]).
    pub fn answers(&self) -> &AnswerSet {
        self.session.answers()
    }

    /// The expert validations collected so far.
    pub fn expert(&self) -> &ExpertValidation {
        self.session.expert()
    }

    /// The current probabilistic answer set.
    pub fn current(&self) -> &ProbabilisticAnswerSet {
        self.session.current()
    }

    /// The validation trace accumulated so far.
    pub fn trace(&self) -> &ValidationTrace {
        self.session.trace()
    }

    /// Workers currently excluded as suspected faulty.
    pub fn excluded_workers(&self) -> Vec<WorkerId> {
        self.session.excluded_workers()
    }

    /// Number of validations performed so far.
    pub fn iterations(&self) -> usize {
        self.session.iterations()
    }

    /// The deterministic assignment assumed correct at this point: the
    /// most-probable labels, with validated objects pinned to the expert's
    /// label (the *filter* step plus Algorithm 1 line 17).
    pub fn deterministic_assignment(&self) -> DeterministicAssignment {
        self.session.deterministic_assignment()
    }

    /// Precision of the current deterministic assignment against the
    /// reference ground truth, when one was provided.
    pub fn precision(&self) -> Option<f64> {
        self.session.precision()
    }

    /// Current uncertainty `H(P)`.
    pub fn uncertainty(&self) -> f64 {
        self.session.uncertainty()
    }

    /// Whether the configured goal or budget has been reached.
    pub fn is_finished(&self) -> bool {
        self.session.is_finished()
    }

    /// Step (1) of the validation process: selects the object for which
    /// expert feedback should be sought next. Returns `None` when every
    /// object has been validated.
    pub fn select_next(&mut self) -> Option<ObjectId> {
        self.session.select_next()
    }

    /// Steps (2)–(4) of the validation process: integrates the expert's
    /// label for `object`, updates worker exclusions, re-aggregates and
    /// records a trace step. Returns the objects flagged by the confirmation
    /// check (empty when the check is disabled or not due). Out-of-range
    /// objects and labels are rejected with a typed error instead of
    /// panicking.
    pub fn integrate(
        &mut self,
        object: ObjectId,
        label: LabelId,
    ) -> Result<Vec<ObjectId>, crowdval_model::ModelError> {
        self.session.integrate(object, label)
    }

    /// The scoring view of the current validation state: what the guidance
    /// strategies and the confirmation check hand to the
    /// [`crate::scoring::ScoringEngine`].
    pub fn scoring_context(&self) -> ScoringContext<'_> {
        self.session.scoring_context()
    }

    /// Replaces a previously given validation after the expert reconsidered a
    /// flagged object. Counts as one additional unit of expert effort.
    pub fn revalidate(
        &mut self,
        object: ObjectId,
        label: LabelId,
    ) -> Result<(), crowdval_model::ModelError> {
        self.session.revalidate(object, label)
    }

    /// Checkpoints the underlying session
    /// (see [`ValidationSession::snapshot`]).
    pub fn snapshot(&self) -> Result<crate::snapshot::SessionSnapshot, crowdval_model::ModelError> {
        self.session.snapshot()
    }

    /// Batch mode: runs the validation loop against an expert source until
    /// the goal is reached, the budget is exhausted, or every object has been
    /// validated. Returns the trace. Fails when the expert source hands back
    /// an out-of-range label.
    pub fn run(
        &mut self,
        expert_source: &mut dyn ExpertSource,
    ) -> Result<&ValidationTrace, crowdval_model::ModelError> {
        self.session.run(expert_source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{EntropyBaseline, HybridStrategy, RandomSelection, UncertaintyDriven};
    use crowdval_sim::{SimulatedExpert, SyntheticConfig};

    fn synthetic(seed: u64) -> crowdval_sim::SyntheticDataset {
        SyntheticConfig {
            num_objects: 30,
            ..SyntheticConfig::paper_default(seed)
        }
        .generate()
    }

    fn oracle(synth: &crowdval_sim::SyntheticDataset) -> SimulatedExpert {
        SimulatedExpert::perfect(
            synth.dataset.ground_truth().clone(),
            synth.dataset.answers().num_labels(),
        )
    }

    struct OracleSource(SimulatedExpert);
    impl ExpertSource for OracleSource {
        fn provide_label(&mut self, object: ObjectId) -> LabelId {
            self.0.validate(object)
        }
    }

    #[test]
    fn interactive_loop_improves_precision_and_reduces_uncertainty() {
        let synth = synthetic(301);
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(HybridStrategy::new(7)))
            .ground_truth(synth.dataset.ground_truth().clone())
            .build();
        let initial_uncertainty = process.uncertainty();
        let initial_precision = process.precision().unwrap();
        let mut expert = oracle(&synth);
        for _ in 0..10 {
            let o = process.select_next().expect("candidates remain");
            let l = expert.validate(o);
            process.integrate(o, l).unwrap();
        }
        assert_eq!(process.iterations(), 10);
        assert_eq!(process.trace().len(), 10);
        // Uncertainty stays bounded (it can rise temporarily when excluding a
        // suspected worker removes evidence, but never beyond the maximum
        // entropy of the unvalidated objects).
        let max_entropy = (30 - process.expert().count()) as f64 * 2.0_f64.ln();
        assert!(process.uncertainty() <= max_entropy + 1e-9);
        assert!(process.uncertainty().is_finite() && process.uncertainty() >= 0.0);
        let _ = initial_uncertainty;
        assert!(process.precision().unwrap() >= initial_precision - 0.05);
        // Validated objects are pinned in the deterministic assignment.
        for (o, l) in process.expert().iter() {
            assert_eq!(process.deterministic_assignment().label(o), l);
        }
    }

    #[test]
    fn batch_run_reaches_perfect_precision_with_full_budget() {
        let synth = synthetic(302);
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .config(ProcessConfig {
                goal: ValidationGoal::TargetPrecision(1.0),
                ..ProcessConfig::default()
            })
            .ground_truth(synth.dataset.ground_truth().clone())
            .build();
        let mut source = OracleSource(oracle(&synth));
        let trace = process.run(&mut source).unwrap();
        assert_eq!(trace.final_precision(), Some(1.0));
        // Guided validation should not need to validate every single object.
        assert!(trace.len() <= 30);
    }

    #[test]
    fn budget_is_respected() {
        let synth = synthetic(303);
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(RandomSelection::new(5)))
            .config(ProcessConfig {
                budget: Some(7),
                ..ProcessConfig::default()
            })
            .ground_truth(synth.dataset.ground_truth().clone())
            .build();
        let mut source = OracleSource(oracle(&synth));
        let steps = process.run(&mut source).unwrap().len();
        assert_eq!(steps, 7);
        assert!(process.is_finished());
    }

    #[test]
    fn uncertainty_goal_stops_the_run() {
        let synth = synthetic(304);
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(UncertaintyDriven::new()))
            .config(ProcessConfig {
                goal: ValidationGoal::MaxUncertainty(1.0),
                ..ProcessConfig::default()
            })
            .build();
        let mut source = OracleSource(oracle(&synth));
        let steps = process.run(&mut source).unwrap().len();
        assert!(process.uncertainty() <= 1.0 || steps == 30);
    }

    #[test]
    fn confirmation_check_recovers_from_an_erroneous_validation() {
        let synth = SyntheticConfig {
            num_objects: 30,
            num_workers: 15,
            reliability: 0.85,
            mix: crowdval_sim::PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(305)
        }
        .generate();
        let truth = synth.dataset.ground_truth().clone();

        // An expert that errs on its third validation, then answers correctly
        // when asked to reconsider.
        struct FlakyExpert {
            truth: GroundTruth,
            calls: usize,
        }
        impl ExpertSource for FlakyExpert {
            fn provide_label(&mut self, object: ObjectId) -> LabelId {
                self.calls += 1;
                let correct = self.truth.label(object);
                if self.calls == 3 {
                    LabelId(1 - correct.index())
                } else {
                    correct
                }
            }
            fn reconsider(&mut self, object: ObjectId) -> LabelId {
                self.truth.label(object)
            }
        }

        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .config(ProcessConfig {
                budget: Some(12),
                confirmation_check: Some(ConfirmationCheck::every(1)),
                ..ProcessConfig::default()
            })
            .ground_truth(truth.clone())
            .build();
        let mut source = FlakyExpert {
            truth: truth.clone(),
            calls: 0,
        };
        process.run(&mut source).unwrap();
        // Every validated object ends up with the correct label despite the
        // injected mistake.
        for (o, l) in process.expert().iter() {
            assert_eq!(l, truth.label(o), "object {o} kept an erroneous validation");
        }
    }

    #[test]
    fn select_next_returns_none_once_everything_is_validated() {
        let synth = SyntheticConfig {
            num_objects: 5,
            ..SyntheticConfig::paper_default(306)
        }
        .generate();
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .ground_truth(synth.dataset.ground_truth().clone())
            .build();
        let mut expert = oracle(&synth);
        while let Some(o) = process.select_next() {
            let l = expert.validate(o);
            process.integrate(o, l).unwrap();
        }
        assert_eq!(process.expert().count(), 5);
        assert!(process.is_finished());
        assert_eq!(process.precision(), Some(1.0));
        assert!(process.select_next().is_none());
    }

    #[test]
    fn worker_exclusions_are_reported() {
        let synth = SyntheticConfig {
            num_objects: 40,
            mix: crowdval_sim::PopulationMix::with_spammer_ratio(0.35),
            ..SyntheticConfig::paper_default(307)
        }
        .generate();
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(crate::strategy::WorkerDriven))
            .config(ProcessConfig {
                budget: Some(20),
                ..ProcessConfig::default()
            })
            .ground_truth(synth.dataset.ground_truth().clone())
            .build();
        let mut source = OracleSource(oracle(&synth));
        process.run(&mut source).unwrap();
        // With 35 % spammers and the worker-driven strategy, at least one
        // worker should have been excluded at some point.
        let max_excluded = process
            .trace()
            .steps
            .iter()
            .map(|s| s.excluded_workers)
            .max()
            .unwrap_or(0);
        assert!(max_excluded > 0, "no worker was ever excluded");
        assert_eq!(
            process.excluded_workers().len(),
            process.trace().steps.last().unwrap().excluded_workers
        );
    }

    #[test]
    fn facade_exposes_the_session_for_streaming_continuation() {
        let synth = synthetic(308);
        let truth = synth.dataset.ground_truth().clone();
        let mut process = ValidationProcess::builder(synth.dataset.answers().clone())
            .strategy(Box::new(EntropyBaseline))
            .ground_truth(truth.clone())
            .build();
        let o = process.select_next().unwrap();
        process.integrate(o, truth.label(o)).unwrap();
        // Switch to streaming: a brand-new object arrives with a few votes.
        let new_object = ObjectId(process.answers().num_objects());
        let votes: Vec<crowdval_model::Vote> = (0..3)
            .map(|w| crowdval_model::Vote::new(new_object, crowdval_model::WorkerId(w), LabelId(0)))
            .collect();
        let update = process.session_mut().ingest(&votes).unwrap();
        assert_eq!(update.new_objects, 1);
        assert_eq!(process.answers().num_objects(), 31);
        assert!(process.session().votes_ingested() == 3);
        let session = process.into_session();
        assert_eq!(session.iterations(), 1);
    }
}
