//! # crowd-validation
//!
//! A library for **guided validation of crowdsourced answers**, reproducing
//! the system described in *"Minimizing Efforts in Validating Crowd Answers"*
//! (SIGMOD 2015).
//!
//! Crowd workers label objects; their answers are noisy and the worker pool
//! may contain sloppy workers and spammers. This crate aggregates the answers
//! probabilistically (estimating per-worker confusion matrices with an
//! incremental EM algorithm that treats expert validations as ground truth),
//! quantifies the remaining uncertainty, and guides a validating expert to
//! the objects whose validation is most beneficial — either because it
//! maximally reduces uncertainty (information gain) or because it exposes
//! faulty workers, with a hybrid strategy that balances the two dynamically.
//!
//! ## Quick start
//!
//! ```
//! use crowd_validation::prelude::*;
//!
//! // Simulate a small crowdsourcing task: 30 objects, 20 workers, 2 labels.
//! let synthetic = SyntheticConfig { num_objects: 30, ..SyntheticConfig::paper_default(7) }
//!     .generate();
//! let answers = synthetic.dataset.answers().clone();
//! let truth = synthetic.dataset.ground_truth().clone();
//!
//! // Build the validation process: i-EM aggregation + hybrid guidance.
//! let mut process = ValidationProcess::builder(answers)
//!     .strategy(Box::new(HybridStrategy::new(42)))
//!     .config(ProcessConfig { budget: Some(6), ..ProcessConfig::default() })
//!     .ground_truth(truth.clone())
//!     .build();
//!
//! // Drive it with a simulated expert (in production the labels would come
//! // from a human validator).
//! let mut expert = SimulatedExpert::perfect(truth, 2);
//! while !process.is_finished() {
//!     let Some(object) = process.select_next() else { break };
//!     let label = expert.validate(object);
//!     process.integrate(object, label).expect("oracle labels are in range");
//! }
//!
//! let result = process.deterministic_assignment();
//! assert_eq!(result.len(), 30);
//! assert!(process.trace().len() <= 6);
//! ```
//!
//! ## Crate layout
//!
//! | Crate | Contents |
//! |---|---|
//! | [`crowdval_model`] | answer sets, confusion matrices, assignments, datasets, CSV I/O |
//! | [`crowdval_aggregation`] | majority voting, batch EM, incremental i-EM |
//! | [`crowdval_spammer`] | spammer scores, sloppy-worker detection, exclusion handling |
//! | [`crowdval_core`] | uncertainty, guidance strategies, the validation process, cost model |
//! | [`crowdval_service`] | the multi-tenant service API: versioned protocol, external-id interning, snapshot/restore |
//! | [`crowdval_sim`] | worker simulation, synthetic datasets, dataset replicas, simulated experts |
//! | [`crowdval_numerics`] | matrices, rank-one distance, entropy, statistics |
//!
//! This umbrella crate re-exports the public API of all of them and provides
//! a [`prelude`] for applications.

pub use crowdval_aggregation as aggregation;
pub use crowdval_core as core;
pub use crowdval_model as model;
pub use crowdval_numerics as numerics;
pub use crowdval_service as service;
pub use crowdval_sim as sim;
pub use crowdval_spammer as spammer;

/// Commonly used types, ready for a single glob import.
pub mod prelude {
    pub use crowdval_aggregation::{
        aggregate_combined, Aggregator, BatchEm, EmConfig, EmWorkspace, ExpertIntegration,
        IncrementalEm, InitStrategy, MajorityVoting, ScoringMode,
    };
    pub use crowdval_core::{
        partition_answer_matrix, AuditRecord, ConfirmationCheck, ConvergencePredictor, CostModel,
        EntropyBaseline, EntropyShortlist, ExpertSource, GuidanceCache, GuidanceTelemetry,
        HybridStrategy, ProcessConfig, RandomSelection, ScoringContext, ScoringEngine,
        SelectionStrategy, SessionUpdate, StrategyContext, StrategyKind, TriageConfig,
        TriageCounters, TriageDecision, TriageFeatures, TriageState, TriageVerdict,
        UncertaintyDriven, ValidationGoal, ValidationProcess, ValidationSession,
        ValidationSessionBuilder, ValidationTrace, WorkerDriven,
    };
    pub use crowdval_model::{
        AnswerMatrix, AnswerSet, AssignmentMatrix, ConfusionMatrix, Dataset,
        DeterministicAssignment, ExpertValidation, GroundTruth, HypothesisOverlay, IdInterner,
        LabelId, ModelError, ObjectId, ProbabilisticAnswerSet, ValidationView, Visibility, Vote,
        WorkerId,
    };
    pub use crowdval_sim::{
        all_replicas, replica, AdversarialConfig, AdversarialScenario, AttackKind, PopulationMix,
        ReplicaName, SimulatedExpert, StreamingConfig, StreamingScenario, SyntheticConfig,
        SyntheticDataset, WorkerKind, WorkerProfile,
    };
    pub use crowdval_spammer::{
        DefenseTelemetry, DetectorConfig, FaultyWorkerHandler, SpammerDetector, TrustConfig,
        TrustReport, WorkerTrustLedger,
    };
}
