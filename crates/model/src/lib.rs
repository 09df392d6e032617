//! Data model for crowdsourced classification tasks (paper §3.1).
//!
//! An *answer set* `N = ⟨O, W, L, M⟩` consists of objects `O`, workers `W`,
//! labels `L` and a (sparse) answer matrix `M`. A *probabilistic answer set*
//! `P = ⟨N, e, U, C⟩` additionally carries the expert validation function `e`,
//! a probabilistic assignment matrix `U` and one confusion matrix per worker.
//! The crowdsourcing result is a *deterministic assignment* `d : O → L`.
//!
//! This crate defines those types plus ground truth, datasets (answer set +
//! ground truth + metadata) and a plain-text CSV interchange format, so that
//! the aggregation, guidance and simulation crates can share a vocabulary.

pub mod answer_matrix;
pub mod answer_set;
pub mod assignment;
pub mod confusion;
mod csr;
pub mod dataset;
pub mod error;
pub mod expert;
pub mod ground_truth;
pub mod ids;
pub mod interner;
pub mod io;
pub mod overlay;
pub mod probabilistic;
pub mod vote;

pub use answer_matrix::{
    AnswerMatrix, MatrixMemoryFootprint, ObjectVotes, Visibility, VoteTally, WorkerVotes,
};
pub use answer_set::AnswerSet;
pub use assignment::{AssignmentMatrix, DeterministicAssignment};
pub use confusion::ConfusionMatrix;
pub use dataset::{Dataset, DatasetStats};
pub use error::ModelError;
pub use expert::ExpertValidation;
pub use ground_truth::GroundTruth;
pub use ids::{LabelId, ObjectId, WorkerId};
pub use interner::IdInterner;
pub use overlay::{HypothesisOverlay, ValidationView};
pub use probabilistic::ProbabilisticAnswerSet;
pub use vote::Vote;
