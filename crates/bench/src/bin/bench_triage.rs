//! Triage benchmark: how much expert effort does agreement-prediction
//! triage save, and what does it cost in precision?
//!
//! Two arms of the same
//! [`ValidationSession`](crowdval_core::ValidationSession) replay identical
//! streams and run the validation loop to exhaustion (every object
//! finalized — by an expert query or, in the triaged arm, by an
//! auto-finalize):
//!
//! * `plain`   — triage disabled: every object costs one expert query, so
//!   the arm ends at precision 1.0 (the oracle never errs) having spent
//!   `num_objects` queries. This is the effort ceiling.
//! * `triaged` — [`TriageConfig::calibrated`]: objects the convergence
//!   predictor scores unanimous (plus the posterior confidence floor and
//!   the vote floor) finalize without a query; the expert budget
//!   concentrates on the contentious pool.
//!
//! Both arms also sweep a budget grid, yielding the budget-to-precision
//! curves, and the report derives **expert-queries-saved at equal
//! precision**: the smallest plain-arm budget whose precision matches the
//! triaged arm's full-run precision, minus the queries the triaged arm
//! actually spent.
//!
//! Crowds: the paper-default streaming crowd (mixed Kazai population,
//! spammers included) and two adversarial scenarios from the PR 7 attack
//! library (colluding clique, sleeper spammers) with the streaming trust
//! defense enabled in both arms — so the delta isolates triage, not the
//! defense.
//!
//! Usage: `bench_triage [--quick] [--check] [--out <path>]`
//!
//! `--check` enforces the gate on the paper-default crowd: triaged
//! precision ≥ plain − 0.5pt AND triaged queries ≤ 70% of plain.

use crowdval_bench::harness::{host_cpus, BenchArgs};
use crowdval_core::{HybridStrategy, ProcessConfig, TriageConfig, ValidationSessionBuilder};
use crowdval_model::{GroundTruth, Vote};
use crowdval_sim::{
    AdversarialConfig, AttackKind, PopulationMix, StreamingConfig, SyntheticConfig,
};
use crowdval_spammer::TrustConfig;
use serde::Serialize;

/// Seed base for the crowd fixtures.
const SEED_BASE: u64 = 74_000;

/// The CI gate: triaged precision may trail plain by at most half a point.
const PRECISION_GATE: f64 = 0.005;
/// The CI gate: triaged queries must not exceed this share of plain's.
const QUERY_GATE: f64 = 0.70;

/// One replayable crowd: a vote stream with its ground truth.
struct Crowd {
    name: &'static str,
    truth: GroundTruth,
    num_labels: usize,
    num_objects: usize,
    initial: Vec<Vote>,
    batches: Vec<Vec<Vote>>,
    /// Whether the streaming trust defense runs (both arms alike).
    defended: bool,
}

impl Crowd {
    fn total_votes(&self) -> usize {
        self.initial.len() + self.batches.iter().map(Vec::len).sum::<usize>()
    }
}

/// The paper-default crowd as a stream: the mixed Kazai population —
/// reliable, normal and sloppy workers plus uniform and random spammers.
fn paper_default_crowd(_quick: bool) -> Crowd {
    // The gate crowd is never shrunk in quick mode: the calibrated
    // thresholds are statements about the canonical 72-object fixture, and
    // a smaller crowd is a different statistical regime (thinner
    // post-exclusion vote pools, more EM re-anchor crashes), not a faster
    // version of the same one. Quick mode saves time on the budget grid
    // and the adversarial crowds instead.
    let num_objects = 72;
    let scenario = StreamingConfig {
        base: SyntheticConfig {
            num_objects,
            ..SyntheticConfig::paper_default(SEED_BASE)
        },
        ..StreamingConfig::paper_default(SEED_BASE)
    }
    .generate();
    Crowd {
        name: "paper_default",
        truth: scenario.truth,
        num_labels: scenario.num_labels,
        num_objects,
        initial: scenario.initial,
        batches: scenario.batches,
        defended: true,
    }
}

/// An adversarial crowd from the PR 7 attack library: an all-reliable
/// honest core plus coordinated attackers, same shape as `bench_spam`.
fn adversarial_crowd(attack: AttackKind, quick: bool) -> Crowd {
    let (num_objects, batch_size) = if quick { (40, 30) } else { (60, 45) };
    let scenario = AdversarialConfig {
        base: StreamingConfig {
            base: SyntheticConfig {
                num_objects,
                num_workers: 10,
                num_labels: 3,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(SEED_BASE + attack as u64)
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
    .generate();
    Crowd {
        name: match attack {
            AttackKind::Clique => "adversarial_clique",
            AttackKind::Sleeper => "adversarial_sleeper",
            AttackKind::Drift => "adversarial_drift",
            AttackKind::LabelCopier => "adversarial_label_copier",
        },
        truth: scenario.truth,
        num_labels: scenario.num_labels,
        num_objects,
        initial: scenario.initial,
        batches: scenario.batches,
        defended: true,
    }
}

/// One point of the budget-to-precision curve.
#[derive(Debug, Serialize)]
struct CurvePoint {
    budget: usize,
    queries: usize,
    auto_finalized: u64,
    precision: f64,
}

/// One arm run to exhaustion, plus its budget curve.
#[derive(Debug, Serialize)]
struct ArmReport {
    /// Expert queries the unbounded run spent.
    queries: usize,
    /// Objects finalized without a query (0 in the plain arm).
    auto_finalized: u64,
    /// Scoring events the triage policy performed.
    scored: u64,
    /// Final precision of the unbounded run.
    precision: f64,
    /// Budget-to-precision curve (budget in expert queries).
    curve: Vec<CurvePoint>,
}

#[derive(Debug, Serialize)]
struct CrowdReport {
    crowd: &'static str,
    num_objects: usize,
    total_votes: usize,
    defended: bool,
    plain: ArmReport,
    triaged: ArmReport,
    /// `1 − triaged.queries / plain.queries`.
    query_reduction: f64,
    /// `plain.precision − triaged.precision`.
    precision_loss: f64,
    /// Plain-arm queries needed to reach the triaged arm's full-run
    /// precision (from the curve), minus the queries the triaged arm spent.
    queries_saved_at_equal_precision: i64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    scenario: String,
    host_cpus: usize,
    precision_gate: f64,
    query_gate: f64,
    crowds: Vec<CrowdReport>,
}

/// Streams the crowd through one session arm and validates with a perfect
/// oracle until the budget is exhausted or every object is finalized.
/// Returns the curve point plus the number of triage scoring events.
fn run_arm(crowd: &Crowd, triage: bool, budget: Option<usize>) -> (CurvePoint, u64) {
    let config = ProcessConfig {
        budget,
        trust: if crowd.defended {
            TrustConfig::streaming_default()
        } else {
            TrustConfig::default()
        },
        triage: if triage {
            TriageConfig::calibrated()
        } else {
            TriageConfig::default()
        },
        ..ProcessConfig::default()
    };
    let mut session = ValidationSessionBuilder::empty(crowd.num_labels)
        .strategy(Box::new(HybridStrategy::new(7)))
        .config(config)
        .ground_truth(crowd.truth.clone())
        .try_build()
        .expect("bench crowd is well-formed");
    session.ingest(&crowd.initial).expect("initial ingest");
    for batch in &crowd.batches {
        session.ingest(batch).expect("batch ingest");
    }
    let mut queries = 0usize;
    while !session.is_finished() {
        let Some(object) = session.select_next() else {
            break;
        };
        session
            .integrate(object, crowd.truth.label(object))
            .expect("oracle label is in range");
        queries += 1;
    }
    let counters = session.triage_counters();
    let point = CurvePoint {
        budget: budget.unwrap_or(crowd.num_objects),
        queries,
        auto_finalized: counters.auto_finalized,
        precision: session.precision().expect("ground truth is attached"),
    };
    (point, counters.scored)
}

fn run_crowd(crowd: &Crowd, quick: bool) -> CrowdReport {
    let fractions: &[f64] = if quick {
        &[0.25, 0.5, 0.75, 1.0]
    } else {
        &[0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]
    };
    let budgets: Vec<usize> = fractions
        .iter()
        .map(|f| ((crowd.num_objects as f64 * f).round() as usize).max(1))
        .collect();

    let arm = |triage: bool| -> ArmReport {
        let (full, scored) = run_arm(crowd, triage, None);
        let curve: Vec<CurvePoint> = budgets
            .iter()
            .map(|&b| run_arm(crowd, triage, Some(b)).0)
            .collect();
        ArmReport {
            queries: full.queries,
            auto_finalized: full.auto_finalized,
            scored,
            precision: full.precision,
            curve,
        }
    };
    let plain = arm(false);
    let triaged = arm(true);

    // Queries-saved at equal precision: cheapest plain budget whose curve
    // precision reaches the triaged arm's full-run precision.
    let target = triaged.precision - 1e-9;
    let plain_equal_queries = plain
        .curve
        .iter()
        .filter(|p| p.precision >= target)
        .map(|p| p.queries)
        .min()
        .unwrap_or(plain.queries);
    CrowdReport {
        crowd: crowd.name,
        num_objects: crowd.num_objects,
        total_votes: crowd.total_votes(),
        defended: crowd.defended,
        query_reduction: 1.0 - triaged.queries as f64 / plain.queries.max(1) as f64,
        precision_loss: plain.precision - triaged.precision,
        queries_saved_at_equal_precision: plain_equal_queries as i64 - triaged.queries as i64,
        plain,
        triaged,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_triage.json");
    let quick = args.quick;
    let crowds = [
        paper_default_crowd(quick),
        adversarial_crowd(AttackKind::Clique, quick),
        adversarial_crowd(AttackKind::Sleeper, quick),
    ];
    let reports: Vec<CrowdReport> = crowds.iter().map(|c| run_crowd(c, quick)).collect();

    let report = BenchReport {
        scenario: format!(
            "exhaustive validation, perfect oracle, triage calibrated defaults{}",
            if quick { " (quick)" } else { "" }
        ),
        host_cpus: host_cpus(),
        precision_gate: PRECISION_GATE,
        query_gate: QUERY_GATE,
        crowds: reports,
    };

    args.write_report(&report);
    for c in &report.crowds {
        println!(
            "{:22} triaged {:3} queries / {:.4} precision vs plain {:3} / {:.4} | saved {:.0}% queries, auto-finalized {}, equal-precision saving {}",
            c.crowd,
            c.triaged.queries,
            c.triaged.precision,
            c.plain.queries,
            c.plain.precision,
            c.query_reduction * 100.0,
            c.triaged.auto_finalized,
            c.queries_saved_at_equal_precision,
        );
    }

    let paper = report
        .crowds
        .iter()
        .find(|c| c.crowd == "paper_default")
        .expect("paper-default crowd is always run");
    let mut gates = args.gates();
    gates.at_most(
        "triaged precision loss vs plain",
        paper.precision_loss,
        PRECISION_GATE,
    );
    gates.at_most(
        "triaged queries",
        paper.triaged.queries as f64,
        QUERY_GATE * paper.plain.queries as f64,
    );
    gates.at_least("objects auto-finalized", paper.triaged.auto_finalized, 1);
    gates.at_least("crowds run", report.crowds.len(), 3);
    gates.finish();
}
