//! Faulty-worker detection from expert validations (paper §5.3).
//!
//! The detector builds, for every worker, a confusion matrix **only from the
//! objects the expert has validated** (the paper deviates from [Raykar & Yu]
//! precisely on this point to avoid the bias of estimated labels). Workers
//! whose spammer score falls below `τ_s` are flagged as uniform/random
//! spammers; workers whose validation-based error rate exceeds `τ_p` are
//! flagged as sloppy.

use crate::score::spammer_score;
use crate::sloppy::sloppy_error_rate;
use crowdval_model::{AnswerSet, ConfusionMatrix, ExpertValidation, Visibility, WorkerId};
use crowdval_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Spammer-score threshold `τ_s`: workers scoring *below* it are flagged
    /// as spammers. The paper settles on 0.2 (§6.5).
    pub spammer_threshold: f64,
    /// Error-rate threshold `τ_p`: workers whose validation-based error rate
    /// exceeds it are flagged as sloppy. The paper uses 0.8.
    pub sloppy_threshold: f64,
    /// Minimum number of validated answers a worker must have before the
    /// detector is willing to judge them. Guards against the Table 3 pitfall
    /// of condemning a truthful worker on two or three validated answers.
    pub min_validated_answers: usize,
}

impl DetectorConfig {
    /// Thresholds used in the paper's experiments (τ_s = 0.2, τ_p = 0.8).
    pub fn paper_default() -> Self {
        Self {
            spammer_threshold: 0.2,
            sloppy_threshold: 0.8,
            min_validated_answers: 4,
        }
    }

    /// Same defaults with a different spammer-score threshold (the Fig. 9
    /// sweep varies τ_s ∈ {0.1, 0.2, 0.3}).
    pub fn with_spammer_threshold(spammer_threshold: f64) -> Self {
        Self {
            spammer_threshold,
            ..Self::paper_default()
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-worker detection verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Workers flagged as uniform or random spammers.
    pub spammers: Vec<WorkerId>,
    /// Workers flagged as sloppy.
    pub sloppy: Vec<WorkerId>,
    /// Spammer score per worker (`None` when the worker has too few validated
    /// answers to be judged).
    pub scores: Vec<Option<f64>>,
    /// Validation-based error rate per worker (same `None` convention).
    pub error_rates: Vec<Option<f64>>,
}

impl DetectionOutcome {
    /// Union of spammers and sloppy workers, deduplicated and sorted.
    pub fn faulty(&self) -> Vec<WorkerId> {
        let mut all: Vec<WorkerId> = self
            .spammers
            .iter()
            .chain(self.sloppy.iter())
            .copied()
            .collect();
        all.sort();
        all.dedup();
        all
    }

    /// Number of distinct faulty workers.
    pub fn num_faulty(&self) -> usize {
        self.faulty().len()
    }

    /// Precision of the detection against a reference set of truly faulty
    /// workers: |detected ∩ truth| / |detected|.
    ///
    /// **Empty-set convention** (never NaN): an empty detected set has
    /// produced no false positives, so precision is defined as 1.0 —
    /// regardless of whether `truly_faulty` is empty. A non-empty detected
    /// set against an empty `truly_faulty` reference is all false positives
    /// and scores 0.0 through the ordinary formula.
    pub fn precision(&self, truly_faulty: &[WorkerId]) -> f64 {
        let detected = self.faulty();
        if detected.is_empty() {
            return 1.0;
        }
        let hit = detected.iter().filter(|w| truly_faulty.contains(w)).count();
        hit as f64 / detected.len() as f64
    }

    /// Recall of the detection against a reference set of truly faulty
    /// workers: |detected ∩ truth| / |truth|.
    ///
    /// **Empty-set convention** (never NaN): with an empty `truly_faulty`
    /// reference there is nothing to miss, so recall is defined as 1.0 —
    /// regardless of what was detected. An empty detected set against a
    /// non-empty reference misses everything and scores 0.0 through the
    /// ordinary formula.
    pub fn recall(&self, truly_faulty: &[WorkerId]) -> f64 {
        if truly_faulty.is_empty() {
            return 1.0;
        }
        let detected = self.faulty();
        let hit = truly_faulty.iter().filter(|w| detected.contains(w)).count();
        hit as f64 / truly_faulty.len() as f64
    }
}

/// Detector of faulty workers based on expert validations.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpammerDetector {
    config: DetectorConfig,
}

impl SpammerDetector {
    /// Creates a detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Builds the validation-based confusion matrix of one worker: counts of
    /// (expert label, worker answer) over the validated objects the worker
    /// answered. Returns `None` when the worker answered fewer than
    /// `min_validated_answers` validated objects. Reads the visible votes.
    pub fn validation_confusion(
        &self,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        worker: WorkerId,
    ) -> Option<ConfusionMatrix> {
        self.confusion_in(answers, expert, worker, Visibility::Visible)
    }

    fn confusion_in(
        &self,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        worker: WorkerId,
        visibility: Visibility,
    ) -> Option<ConfusionMatrix> {
        let m = answers.num_labels();
        let mut counts = Matrix::zeros(m, m);
        let mut observed = 0usize;
        let votes = match visibility {
            Visibility::Visible => answers.matrix().answers_for_worker(worker),
            Visibility::Recorded => answers.matrix().recorded_answers_for_worker(worker),
        };
        for (o, answered) in votes {
            if let Some(truth) = expert.get(o) {
                counts[(truth.index(), answered.index())] += 1.0;
                observed += 1;
            }
        }
        if observed < self.config.min_validated_answers {
            return None;
        }
        // No smoothing: the detection signatures (rank-one shape, off-diagonal
        // mass) are sharpest on the raw validation frequencies.
        Some(ConfusionMatrix::from_counts(&counts, 0.0))
    }

    /// Runs detection over all workers. `priors` weights the error rate of
    /// the sloppy-worker check (pass the label priors of the current
    /// probabilistic answer set, or uniform priors early on). Algorithm 1
    /// judges tombstoned workers too, so they can be re-included: pass
    /// [`Visibility::Recorded`]; under `Visible` they have no votes.
    pub fn detect(
        &self,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        priors: &[f64],
        visibility: Visibility,
    ) -> DetectionOutcome {
        let mut spammers = Vec::new();
        let mut sloppy = Vec::new();
        let mut scores = Vec::with_capacity(answers.num_workers());
        let mut error_rates = Vec::with_capacity(answers.num_workers());
        for w in answers.workers() {
            match self.confusion_in(answers, expert, w, visibility) {
                Some(confusion) => {
                    let score = spammer_score(&confusion);
                    let err = sloppy_error_rate(&confusion, priors);
                    if score < self.config.spammer_threshold {
                        spammers.push(w);
                    } else if err > self.config.sloppy_threshold {
                        sloppy.push(w);
                    }
                    scores.push(Some(score));
                    error_rates.push(Some(err));
                }
                None => {
                    scores.push(None);
                    error_rates.push(None);
                }
            }
        }
        DetectionOutcome {
            spammers,
            sloppy,
            scores,
            error_rates,
        }
    }

    /// Number of faulty workers that would be detected if the expert asserted
    /// `label` for `object` — the `R(W | o = l)` term of the worker-driven
    /// guidance strategy (Eq. 12), over the visible votes guidance works on.
    pub fn expected_detections_with(
        &self,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        priors: &[f64],
        object: crowdval_model::ObjectId,
        label: crowdval_model::LabelId,
    ) -> usize {
        let mut hypothetical = expert.clone();
        hypothetical.set(object, label);
        self.detect(answers, &hypothetical, priors, Visibility::Visible)
            .num_faulty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdval_model::{LabelId, ObjectId};
    use crowdval_sim::{SyntheticConfig, WorkerKind};

    /// Hand-built answer set: worker 0 reliable, worker 1 uniform spammer,
    /// worker 2 random-ish spammer, worker 3 sloppy (mostly wrong).
    fn crafted() -> (AnswerSet, ExpertValidation) {
        let truth: Vec<usize> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut n = AnswerSet::new(8, 4, 2);
        for (o, &t) in truth.iter().enumerate() {
            n.record_answer(ObjectId(o), WorkerId(0), LabelId(t))
                .unwrap();
            n.record_answer(ObjectId(o), WorkerId(1), LabelId(1))
                .unwrap();
            n.record_answer(ObjectId(o), WorkerId(2), LabelId((o % 2) ^ ((o / 2) % 2)))
                .unwrap();
            n.record_answer(ObjectId(o), WorkerId(3), LabelId(1 - t))
                .unwrap();
        }
        let mut e = ExpertValidation::empty(8);
        for (o, &t) in truth.iter().enumerate() {
            e.set(ObjectId(o), LabelId(t));
        }
        (n, e)
    }

    #[test]
    fn validation_confusion_requires_enough_validated_answers() {
        let (answers, _) = crafted();
        let detector = SpammerDetector::default();
        let empty = ExpertValidation::empty(8);
        assert!(detector
            .validation_confusion(&answers, &empty, WorkerId(0))
            .is_none());
        let mut two = ExpertValidation::empty(8);
        two.set(ObjectId(0), LabelId(0));
        two.set(ObjectId(1), LabelId(1));
        assert!(detector
            .validation_confusion(&answers, &two, WorkerId(0))
            .is_none());
    }

    #[test]
    fn crafted_workers_are_classified_correctly() {
        let (answers, expert) = crafted();
        let detector = SpammerDetector::default();
        let outcome = detector.detect(&answers, &expert, &[0.5, 0.5], Visibility::Recorded);
        // Worker 1 (uniform spammer) and worker 2 (random-ish) are spammers.
        assert!(outcome.spammers.contains(&WorkerId(1)));
        assert!(outcome.spammers.contains(&WorkerId(2)));
        // Worker 0 is clean.
        assert!(!outcome.faulty().contains(&WorkerId(0)));
        // Worker 3 answers are perfectly anti-correlated: not a spammer, but
        // the error rate flags it as sloppy.
        assert!(outcome.sloppy.contains(&WorkerId(3)));
        assert_eq!(outcome.num_faulty(), 3);
    }

    #[test]
    fn recorded_visibility_keeps_judging_tombstoned_workers() {
        let (mut answers, expert) = crafted();
        answers.set_excluded_workers(&[WorkerId(1)]);
        let detector = SpammerDetector::default();
        let all = detector.detect(&answers, &expert, &[0.5, 0.5], Visibility::Recorded);
        assert!(all.spammers.contains(&WorkerId(1)));
        let visible = detector.detect(&answers, &expert, &[0.5, 0.5], Visibility::Visible);
        assert!(!visible.spammers.contains(&WorkerId(1)));
        assert_eq!(visible.scores[1], None);
        // Guidance scores the visible votes: the tombstoned spammer is not
        // an expected detection.
        let expert = expert.without(ObjectId(7));
        let expected = detector.expected_detections_with(
            &answers,
            &expert,
            &[0.5, 0.5],
            ObjectId(7),
            LabelId(1),
        );
        assert_eq!(expected, visible.num_faulty());
    }

    #[test]
    fn precision_and_recall_against_reference_sets() {
        let (answers, expert) = crafted();
        let outcome =
            SpammerDetector::default().detect(&answers, &expert, &[0.5, 0.5], Visibility::Recorded);
        let truly_faulty = vec![WorkerId(1), WorkerId(2), WorkerId(3)];
        assert!((outcome.precision(&truly_faulty) - 1.0).abs() < 1e-12);
        assert!((outcome.recall(&truly_faulty) - 1.0).abs() < 1e-12);
        // Against a wrong reference set precision drops.
        assert!(outcome.precision(&[WorkerId(0)]) < 0.5);
        assert_eq!(outcome.recall(&[]), 1.0);
    }

    #[test]
    fn precision_and_recall_empty_set_conventions_are_never_nan() {
        let empty_detection = DetectionOutcome {
            spammers: vec![],
            sloppy: vec![],
            scores: vec![],
            error_rates: vec![],
        };
        let some_detection = DetectionOutcome {
            spammers: vec![WorkerId(1)],
            sloppy: vec![WorkerId(2)],
            scores: vec![],
            error_rates: vec![],
        };
        // Empty detected set: vacuous precision 1.0, whatever the reference.
        assert_eq!(empty_detection.precision(&[]), 1.0);
        assert_eq!(empty_detection.precision(&[WorkerId(0)]), 1.0);
        // Empty reference: vacuous recall 1.0, whatever was detected.
        assert_eq!(empty_detection.recall(&[]), 1.0);
        assert_eq!(some_detection.recall(&[]), 1.0);
        // The non-vacuous crossings score 0 through the ordinary formulas.
        assert_eq!(some_detection.precision(&[]), 0.0);
        assert_eq!(empty_detection.recall(&[WorkerId(0)]), 0.0);
        // Nothing above is NaN.
        for v in [
            empty_detection.precision(&[]),
            empty_detection.recall(&[]),
            some_detection.precision(&[]),
            some_detection.recall(&[]),
        ] {
            assert!(!v.is_nan());
        }
    }

    #[test]
    fn detection_improves_with_more_validations_on_synthetic_data() {
        let synth = SyntheticConfig::paper_default(123).generate();
        let answers = synth.dataset.answers();
        let truth = synth.dataset.ground_truth();
        let spammers: Vec<WorkerId> = synth
            .profiles
            .iter()
            .enumerate()
            .filter_map(|(w, p)| {
                if p.kind().is_spammer() {
                    Some(WorkerId(w))
                } else {
                    None
                }
            })
            .collect();
        let detector = SpammerDetector::default();

        let recall_at = |count: usize| {
            let mut e = ExpertValidation::empty(answers.num_objects());
            for o in 0..count {
                e.set(ObjectId(o), truth.label(ObjectId(o)));
            }
            detector
                .detect(answers, &e, &[0.5, 0.5], Visibility::Recorded)
                .recall(&spammers)
        };
        let few = recall_at(5);
        let many = recall_at(40);
        assert!(
            many >= few,
            "recall with 40 validations {many} < with 5 {few}"
        );
        assert!(
            many >= 0.6,
            "recall with 40 validations unexpectedly low: {many}"
        );
        // Sanity: the synthetic population really contains spammers of both
        // kinds.
        assert!(synth
            .profiles
            .iter()
            .any(|p| p.kind() == WorkerKind::UniformSpammer));
        assert!(synth
            .profiles
            .iter()
            .any(|p| p.kind() == WorkerKind::RandomSpammer));
    }

    #[test]
    fn expected_detections_with_hypothetical_label() {
        let (answers, expert) = crafted();
        let detector = SpammerDetector::default();
        let baseline = detector.detect(
            &answers,
            &expert.without(ObjectId(7)),
            &[0.5, 0.5],
            Visibility::Recorded,
        );
        let with_hypothesis = detector.expected_detections_with(
            &answers,
            &expert.without(ObjectId(7)),
            &[0.5, 0.5],
            ObjectId(7),
            LabelId(1),
        );
        assert!(with_hypothesis >= baseline.num_faulty());
    }

    #[test]
    fn config_sweep_constructor() {
        let c = DetectorConfig::with_spammer_threshold(0.3);
        assert_eq!(c.spammer_threshold, 0.3);
        assert_eq!(
            c.sloppy_threshold,
            DetectorConfig::paper_default().sloppy_threshold
        );
    }
}
