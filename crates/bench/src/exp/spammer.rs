//! Fig. 9: precision and recall of the spammer-detection technique as expert
//! effort grows, for spammer-score thresholds τ_s ∈ {0.1, 0.2, 0.3}.

use crate::report::{f3, Report};
use crowdval_model::{ExpertValidation, ObjectId, Visibility};
use crowdval_sim::SyntheticConfig;
use crowdval_spammer::{DetectorConfig, SpammerDetector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Fig. 9: spammer-detection quality vs. validation effort and threshold.
pub fn fig09_spammer_detection() -> Report {
    let mut report = Report::new(
        "fig09",
        "Figure 9: spammer-detection precision and recall vs. expert effort",
        &["effort %", "tau_s", "precision", "recall"],
    );
    const SEEDS: [u64; 4] = [901, 902, 903, 904];
    let thresholds = [0.1, 0.2, 0.3];
    let efforts = [0.2, 0.4, 0.6, 0.8, 1.0];

    for &effort in &efforts {
        for &tau in &thresholds {
            let mut precision_sum = 0.0;
            let mut recall_sum = 0.0;
            for &seed in &SEEDS {
                let synth = SyntheticConfig::paper_default(seed).generate();
                let answers = synth.dataset.answers();
                let truth = synth.dataset.ground_truth();
                let spammers = synth.spammer_workers();
                let n = answers.num_objects();

                // Validate a random subset of the requested size.
                let mut objects: Vec<usize> = (0..n).collect();
                objects.shuffle(&mut StdRng::seed_from_u64(
                    seed * 31 + (effort * 10.0) as u64,
                ));
                let mut expert = ExpertValidation::empty(n);
                for &o in objects.iter().take((effort * n as f64) as usize) {
                    expert.set(ObjectId(o), truth.label(ObjectId(o)));
                }

                let detector = SpammerDetector::new(DetectorConfig::with_spammer_threshold(tau));
                let outcome = detector.detect(answers, &expert, &[0.5, 0.5], Visibility::Recorded);
                // Detection quality is judged on the spammer set proper
                // (uniform + random spammers), matching the paper's setup.
                let detected = &outcome.spammers;
                let hits = detected.iter().filter(|w| spammers.contains(w)).count();
                let precision = if detected.is_empty() {
                    1.0
                } else {
                    hits as f64 / detected.len() as f64
                };
                let recall = if spammers.is_empty() {
                    1.0
                } else {
                    hits as f64 / spammers.len() as f64
                };
                precision_sum += precision;
                recall_sum += recall;
            }
            report.add_row(vec![
                format!("{:.0}", effort * 100.0),
                format!("{tau:.1}"),
                f3(precision_sum / SEEDS.len() as f64),
                f3(recall_sum / SEEDS.len() as f64),
            ]);
        }
    }
    report.add_note("expected shape: precision and recall rise with effort; larger tau_s trades precision for recall");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_produces_rows_for_every_effort_threshold_combination() {
        let r = fig09_spammer_detection();
        assert_eq!(r.rows.len(), 5 * 3);
        // Detection quality at full effort with the default threshold should
        // be decent on both axes.
        let full = r
            .rows
            .iter()
            .find(|row| row[0] == "100" && row[1] == "0.2")
            .unwrap();
        let precision: f64 = full[2].parse().unwrap();
        let recall: f64 = full[3].parse().unwrap();
        assert!(precision >= 0.5, "precision {precision}");
        assert!(recall >= 0.5, "recall {recall}");
    }
}
