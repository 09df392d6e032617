//! The online logistic convergence predictor.
//!
//! A plain logistic regression over the normalized [`TriageFeatures`]
//! vector, trained by SGD. Everything is deterministic: weight
//! initialization derives from a caller-supplied seed via splitmix64, and
//! scoring/training are pure f64 arithmetic over a fixed-order weight
//! vector — so two predictors with identical histories are bit-identical,
//! which is what the snapshot/restore property tests assert.

use crate::features::TriageFeatures;
use serde::{Deserialize, Serialize};

/// Calibrated default weights, in feature order: certainty, vote
/// saturation, margin, trust, stillness. Derived by the `crowdval-sim`
/// training harness (`train_convergence_predictor`) on the paper-default
/// streaming crowd and rounded to two decimals; the calibration methodology
/// is recorded in ROADMAP.md. Kept as literals so a fresh session triages
/// sensibly before any online training has happened.
const CALIBRATED_WEIGHTS: [f64; TriageFeatures::DIM] = [3.0, 1.5, 2.0, 1.5, 1.5];
/// Calibrated default bias (see `CALIBRATED_WEIGHTS`).
const CALIBRATED_BIAS: f64 = -4.5;

/// splitmix64 — the tiny deterministic generator used for weight
/// initialization (same construction the sim crate uses for seeding).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Online logistic model scoring "will this object converge to the right
/// label without an expert?". Weights are serde-serializable so the model
/// travels inside session snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePredictor {
    /// One weight per normalized feature, in [`TriageFeatures::vector`] order.
    weights: Vec<f64>,
    /// Intercept.
    bias: f64,
    /// SGD updates applied so far.
    updates: u64,
}

impl ConvergencePredictor {
    /// A fresh, untrained predictor: weights are small deterministic noise
    /// in `(-0.01, 0.01)` derived from `seed`, bias 0. Use this when
    /// training from scratch in the sim harness.
    pub fn new(seed: u64) -> Self {
        let mut state = seed ^ 0x7419_a6e5_c0de_2015;
        let weights = (0..TriageFeatures::DIM)
            .map(|_| {
                let bits = splitmix64(&mut state);
                // Map to (-0.01, 0.01).
                ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02
            })
            .collect();
        Self {
            weights,
            bias: 0.0,
            updates: 0,
        }
    }

    /// The calibrated default model (see `CALIBRATED_WEIGHTS`) — what a
    /// session uses when triage is enabled and no custom predictor was
    /// installed.
    pub fn calibrated() -> Self {
        Self {
            weights: CALIBRATED_WEIGHTS.to_vec(),
            bias: CALIBRATED_BIAS,
            updates: 0,
        }
    }

    /// Convergence probability for one feature vector, in `(0, 1)`.
    pub fn score(&self, features: &TriageFeatures) -> f64 {
        let x = features.vector();
        let mut z = self.bias;
        for (w, xi) in self.weights.iter().zip(x.iter()) {
            z += w * xi;
        }
        sigmoid(z)
    }

    /// One SGD step of the logistic loss toward `converged` (the ground
    /// truth "the crowd's modal label matched reality without an expert").
    /// Returns the pre-update score.
    pub fn train(&mut self, features: &TriageFeatures, converged: bool, learning_rate: f64) -> f64 {
        let x = features.vector();
        let p = self.score(features);
        let y = if converged { 1.0 } else { 0.0 };
        let g = learning_rate * (y - p);
        for (w, xi) in self.weights.iter_mut().zip(x.iter()) {
            *w += g * xi;
        }
        self.bias += g;
        self.updates += 1;
        p
    }

    /// SGD updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The weight vector (feature order) — exposed for the sim harness's
    /// calibration report.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn easy() -> TriageFeatures {
        TriageFeatures {
            entropy: 0.02,
            votes: 8,
            margin: 1.0,
            trust: 0.9,
            churn: 0.0,
        }
    }

    fn hard() -> TriageFeatures {
        TriageFeatures {
            entropy: 0.95,
            votes: 3,
            margin: 0.1,
            trust: 0.5,
            churn: 1.0,
        }
    }

    #[test]
    fn initialization_is_deterministic_per_seed() {
        let a = ConvergencePredictor::new(17);
        let b = ConvergencePredictor::new(17);
        let c = ConvergencePredictor::new(18);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn calibrated_model_separates_easy_from_hard() {
        let model = ConvergencePredictor::calibrated();
        let easy_score = model.score(&easy());
        let hard_score = model.score(&hard());
        assert!(easy_score > 0.9, "easy object scored {easy_score}");
        assert!(hard_score < 0.5, "hard object scored {hard_score}");
    }

    #[test]
    fn sgd_moves_scores_toward_the_labels() {
        let mut model = ConvergencePredictor::new(1);
        let before_easy = model.score(&easy());
        let before_hard = model.score(&hard());
        for _ in 0..200 {
            model.train(&easy(), true, 0.1);
            model.train(&hard(), false, 0.1);
        }
        assert!(model.score(&easy()) > before_easy);
        assert!(model.score(&hard()) < before_hard);
        assert!(model.score(&easy()) > 0.8);
        assert!(model.score(&hard()) < 0.2);
        assert_eq!(model.updates(), 400);
    }

    #[test]
    fn scores_are_probabilities() {
        let model = ConvergencePredictor::calibrated();
        for f in [easy(), hard()] {
            let p = model.score(&f);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut model = ConvergencePredictor::new(42);
        model.train(&easy(), true, 0.05);
        let json = serde_json::to_string(&model).unwrap();
        let reread: ConvergencePredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(model, reread);
    }
}
