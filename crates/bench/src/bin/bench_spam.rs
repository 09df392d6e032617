//! Online-defense benchmark: replays the adversarial streaming scenarios
//! from [`crowdval_sim::AdversarialConfig`] (colluding clique, sleeper
//! spammers, drifting reliability, label-copiers) through two arms of the
//! same [`ValidationSession`] and records the result as `BENCH_spam.json`:
//!
//! * `undefended` — plain anchored i-EM, no worker exclusion of any kind
//!   (`handle_faulty_workers: false`): the attackers' votes stay in the
//!   posterior for the whole stream.
//! * `defended`  — the streaming trust ledger
//!   ([`TrustConfig::streaming_default`]): pre-EM heuristics plus
//!   expert-anchored error rates tombstone attackers mid-stream.
//!
//! Both arms see the identical vote stream and spend the identical expert
//! budget (a perfect oracle validating after every batch), so the reported
//! numbers isolate the defense:
//!
//! * **detection latency** — votes ingested when each attacker is first
//!   tombstoned (mean/max across attackers, plus how many were caught);
//! * **posterior accuracy** — precision of the final deterministic
//!   assignment against the ground truth, defended vs undefended.
//!
//! Usage: `bench_spam [--quick] [--check] [--out <path>]`
//!
//! `--quick` shrinks the scenarios for CI smoke runs; `--check` exits
//! non-zero unless, under the clique attack, the defended arm is strictly
//! more accurate than the undefended arm, every clique attacker is caught
//! within the first 85% of the stream, and at most one honest worker is
//! still excluded at stream end.

use crowdval_bench::harness::{host_cpus, BenchArgs};
use crowdval_core::{HybridStrategy, ProcessConfig, ValidationSession, ValidationSessionBuilder};
use crowdval_model::WorkerId;
use crowdval_sim::{
    AdversarialConfig, AdversarialScenario, AttackKind, PopulationMix, StreamingConfig,
    SyntheticConfig,
};
use crowdval_spammer::TrustConfig;
use serde::Serialize;
use std::collections::BTreeMap;

/// Expert validations integrated after every arrival batch (both arms).
const VALIDATIONS_PER_BATCH: usize = 1;

/// Seed base for the scenario fixtures (`+ attack` per scenario).
const SEED_BASE: u64 = 31_000;

#[derive(Debug, Serialize)]
struct ArmReport {
    /// Precision of the final deterministic assignment vs ground truth.
    precision: f64,
    /// Expert validations spent.
    validations: usize,
    /// Workers excluded when the stream ended.
    final_excluded: usize,
    /// Attackers among the final excluded set.
    attackers_excluded: usize,
    /// Honest workers among the final excluded set (false positives).
    honest_excluded: usize,
    /// Ledger reinstatements over the run.
    reinstatements: u64,
    /// Votes ingested when each caught attacker was first tombstoned.
    detection_latency_votes: Vec<usize>,
    /// Mean of `detection_latency_votes` (0 when nothing was caught).
    mean_detection_latency_votes: f64,
    /// Max of `detection_latency_votes` (0 when nothing was caught).
    max_detection_latency_votes: usize,
}

#[derive(Debug, Serialize)]
struct ScenarioReport {
    attack: &'static str,
    total_votes: usize,
    attacker_votes: usize,
    num_attackers: usize,
    undefended: ArmReport,
    defended: ArmReport,
    /// `defended.precision - undefended.precision`.
    precision_gain: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    scenario: String,
    host_cpus: usize,
    num_objects: usize,
    num_workers_honest: usize,
    num_labels: usize,
    validations_per_batch: usize,
    scenarios: Vec<ScenarioReport>,
}

/// The shared honest crowd under attack: 3 labels so a clique's `truth+1`
/// votes cannot be re-inverted into signal by the confusion matrices, and
/// moderate reliability so attacker votes measurably move the posterior.
fn scenario(attack: AttackKind, quick: bool, seed: u64) -> AdversarialScenario {
    let (num_objects, batch_size) = if quick { (30, 30) } else { (80, 45) };
    AdversarialConfig {
        base: StreamingConfig {
            base: SyntheticConfig {
                num_objects,
                num_workers: 10,
                num_labels: 3,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.1,
            batch_size,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        },
        attack,
        num_attackers: 6,
        sleeper_honest_votes: if quick { 8 } else { 12 },
    }
    .generate()
}

/// Streams one scenario through one session arm with a perfect oracle and
/// returns the accuracy/detection report.
fn run_arm(scenario: &AdversarialScenario, trust: Option<TrustConfig>, seed: u64) -> ArmReport {
    let config = match trust {
        Some(trust) => ProcessConfig {
            trust,
            ..ProcessConfig::default()
        },
        None => ProcessConfig {
            handle_faulty_workers: false,
            ..ProcessConfig::default()
        },
    };
    let mut session = ValidationSessionBuilder::empty(scenario.num_labels)
        .strategy(Box::new(HybridStrategy::new(seed)))
        .config(config)
        .ground_truth(scenario.truth.clone())
        .try_build()
        .expect("bench scenario is well-formed");

    let mut first_excluded: BTreeMap<WorkerId, usize> = BTreeMap::new();
    let mut note_exclusions = |session: &ValidationSession| {
        for worker in session.excluded_workers() {
            first_excluded
                .entry(worker)
                .or_insert_with(|| session.votes_ingested());
        }
    };

    session.ingest(&scenario.initial).expect("initial ingest");
    note_exclusions(&session);
    let mut validations = 0;
    for batch in &scenario.batches {
        session.ingest(batch).expect("batch ingest");
        note_exclusions(&session);
        for _ in 0..VALIDATIONS_PER_BATCH {
            let Some(object) = session.select_next() else {
                break;
            };
            session
                .integrate(object, scenario.truth.label(object))
                .expect("oracle label is in range");
            validations += 1;
            note_exclusions(&session);
        }
    }

    let excluded = session.excluded_workers();
    let is_attacker = |w: &WorkerId| scenario.attackers.binary_search(w).is_ok();
    let attackers_excluded = excluded.iter().filter(|w| is_attacker(w)).count();
    let latencies: Vec<usize> = scenario
        .attackers
        .iter()
        .filter_map(|w| first_excluded.get(w).copied())
        .collect();
    ArmReport {
        precision: session.precision().expect("ground truth is attached"),
        validations,
        final_excluded: excluded.len(),
        attackers_excluded,
        honest_excluded: excluded.len() - attackers_excluded,
        reinstatements: session.defense_telemetry().reinstatements,
        mean_detection_latency_votes: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<usize>() as f64 / latencies.len() as f64
        },
        max_detection_latency_votes: latencies.iter().copied().max().unwrap_or(0),
        detection_latency_votes: latencies,
    }
}

fn run_scenario(attack: AttackKind, quick: bool) -> ScenarioReport {
    let scenario = scenario(attack, quick, SEED_BASE + attack as u64);
    let undefended = run_arm(&scenario, None, 9);
    let defended = run_arm(&scenario, Some(TrustConfig::streaming_default()), 9);
    ScenarioReport {
        attack: attack.name(),
        total_votes: scenario.total_votes(),
        attacker_votes: scenario.attacker_votes(),
        num_attackers: scenario.attackers.len(),
        precision_gain: defended.precision - undefended.precision,
        undefended,
        defended,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_spam.json");
    let quick = args.quick;
    let attacks = [
        AttackKind::Clique,
        AttackKind::Sleeper,
        AttackKind::Drift,
        AttackKind::LabelCopier,
    ];
    let scenarios: Vec<ScenarioReport> = attacks.iter().map(|&a| run_scenario(a, quick)).collect();

    let sample = scenario(AttackKind::Clique, quick, SEED_BASE);
    let report = BenchReport {
        scenario: format!(
            "all-reliable crowd + 5 riders per attack, perfect oracle{}",
            if quick { " (quick)" } else { "" }
        ),
        host_cpus: host_cpus(),
        num_objects: sample.honest.config.base.num_objects,
        num_workers_honest: sample.honest.config.base.num_workers,
        num_labels: sample.num_labels,
        validations_per_batch: VALIDATIONS_PER_BATCH,
        scenarios,
    };

    args.write_report(&report);
    for s in &report.scenarios {
        println!(
            "{:8} defended {:.3} vs undefended {:.3} (gain {:+.3}) | caught {}/{} attackers, mean latency {:.0} votes",
            s.attack,
            s.defended.precision,
            s.undefended.precision,
            s.precision_gain,
            s.defended.attackers_excluded,
            s.num_attackers,
            s.defended.mean_detection_latency_votes,
        );
    }

    let clique = report
        .scenarios
        .iter()
        .find(|s| s.attack == "clique")
        .expect("clique scenario is always run");
    let mut gates = args.gates();
    gates.require(
        clique.defended.precision > clique.undefended.precision,
        || {
            format!(
                "defended clique precision {:.4} must strictly beat undefended {:.4}",
                clique.defended.precision, clique.undefended.precision
            )
        },
    );
    gates.at_least(
        "clique attackers tombstoned",
        clique.defended.attackers_excluded,
        clique.num_attackers,
    );
    // Transient honest exclusions are by design recoverable (the
    // hysteresis reinstates them as exonerating validations arrive); the
    // stream may simply end mid-recovery. One still-excluded honest worker
    // is tolerated, a second means the heuristics are misfiring.
    gates.at_most(
        "honest workers left excluded",
        clique.defended.honest_excluded,
        1,
    );
    gates.at_most(
        "max detection latency (votes)",
        clique.defended.max_detection_latency_votes,
        (clique.total_votes as f64 * 0.85).ceil() as usize,
    );
    gates.at_least("adversarial scenarios run", report.scenarios.len(), 3);
    gates.finish();
}
