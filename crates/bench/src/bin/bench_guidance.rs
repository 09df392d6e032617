//! Guidance hot-path benchmark: measures the warm hypothesis fan-out of a
//! validation step in both evaluation paths and records the result as
//! `BENCH_guidance.json`, so the delta-propagation speedup is a tracked
//! number rather than a claim.
//!
//! Paths compared (single-threaded on purpose — the win must be algorithmic,
//! not core-count):
//!
//! * `exact`   — [`Aggregator::conclude_hypothesis`] in
//!   [`ScoringMode::Exact`]: borrowed overlay + workspace buffers + cached
//!   log tables, still full-corpus EM.
//! * `delta`   — [`ScoringMode::Delta`]: neighborhood-scoped propagation
//!   with the full-map polish.
//!
//! Usage: `bench_guidance [--quick] [--check] [--out <path>]`
//!
//! `--quick` shrinks the scenario for CI smoke runs; `--check` exits
//! non-zero if the delta path is slower than the exact path — judged by the
//! deterministic EM-iteration totals plus a noise-tolerant wall-clock
//! comparison (the CI `bench-smoke` gate).

use crowdval_aggregation::{Aggregator, IncrementalEm, ScoringMode};
use crowdval_bench::harness::{host_cpus, BenchArgs};
use crowdval_model::{
    AnswerSet, ExpertValidation, HypothesisOverlay, LabelId, ObjectId, ProbabilisticAnswerSet,
};
use crowdval_sim::SyntheticConfig;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct PathReport {
    /// Hypotheses evaluated per second of wall time.
    candidates_per_sec: f64,
    /// Total wall time for all repetitions, in seconds.
    wall_seconds: f64,
    /// Total EM iterations spent (scoped delta rounds count as iterations).
    em_iterations: usize,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    scenario: String,
    host_cpus: usize,
    num_objects: usize,
    num_workers: usize,
    num_labels: usize,
    validated: usize,
    hypotheses_per_rep: usize,
    reps: usize,
    exact: PathReport,
    delta: PathReport,
    /// Headline number: delta vs exact throughput.
    speedup_delta_vs_exact: f64,
}

struct Fixture {
    answers: AnswerSet,
    expert: ExpertValidation,
    current: ProbabilisticAnswerSet,
    aggregator: IncrementalEm,
    hypotheses: Vec<(ObjectId, LabelId)>,
}

fn fixture(num_candidates: usize, seed: u64) -> Fixture {
    let validated = 10usize;
    let synth = SyntheticConfig {
        num_objects: num_candidates + validated,
        ..SyntheticConfig::paper_default(seed)
    }
    .generate();
    let answers = synth.dataset.answers().clone();
    let truth = synth.dataset.ground_truth().clone();
    let aggregator = IncrementalEm::default();
    let mut expert = ExpertValidation::empty(answers.num_objects());
    for o in 0..validated {
        expert.set(ObjectId(o), truth.label(ObjectId(o)));
    }
    let current = aggregator.conclude(&answers, &expert, None);
    // The fan-out of one §5.2 selection step: every plausible
    // (candidate, label) pair, exactly as the scoring engine enumerates them.
    let mut hypotheses = Vec::new();
    for object in expert.unvalidated_objects() {
        for l in 0..answers.num_labels() {
            let label = LabelId(l);
            if current.assignment().prob(object, label) > 1e-6 {
                hypotheses.push((object, label));
            }
        }
    }
    Fixture {
        answers,
        expert,
        current,
        aggregator,
        hypotheses,
    }
}

fn measure(
    f: &Fixture,
    reps: usize,
    mut eval: impl FnMut(&Fixture, ObjectId, LabelId) -> usize,
) -> PathReport {
    // One untimed warm-up pass so thread-local workspaces are sized before
    // the clock starts.
    let (o, l) = f.hypotheses[0];
    eval(f, o, l);

    let mut em_iterations = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        for &(object, label) in &f.hypotheses {
            em_iterations += eval(f, object, label);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    PathReport {
        candidates_per_sec: (reps * f.hypotheses.len()) as f64 / wall.max(1e-12),
        wall_seconds: wall,
        em_iterations,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_guidance.json");
    let (num_candidates, reps) = if args.quick { (24, 2) } else { (64, 5) };
    let f = fixture(num_candidates, 70_000);

    let exact = measure(&f, reps, |f, object, label| {
        let hypothesis = HypothesisOverlay::new(&f.expert, object, label);
        f.aggregator
            .conclude_hypothesis(&f.answers, &hypothesis, &f.current, ScoringMode::Exact)
            .em_iterations()
    });
    let delta = measure(&f, reps, |f, object, label| {
        let hypothesis = HypothesisOverlay::new(&f.expert, object, label);
        f.aggregator
            .conclude_hypothesis(&f.answers, &hypothesis, &f.current, ScoringMode::Delta)
            .em_iterations()
    });

    let report = BenchReport {
        scenario: format!(
            "paper-default mix, seed 70000, single-threaded{}",
            if args.quick { " (quick)" } else { "" }
        ),
        host_cpus: host_cpus(),
        num_objects: f.answers.num_objects(),
        num_workers: f.answers.num_workers(),
        num_labels: f.answers.num_labels(),
        validated: f.expert.count(),
        hypotheses_per_rep: f.hypotheses.len(),
        reps,
        speedup_delta_vs_exact: delta.candidates_per_sec / exact.candidates_per_sec.max(1e-12),
        exact,
        delta,
    };

    args.write_report(&report);
    println!(
        "\nexact {:.1}/s | delta {:.1}/s  (delta vs exact {:.2}x) -> {}",
        report.exact.candidates_per_sec,
        report.delta.candidates_per_sec,
        report.speedup_delta_vs_exact,
        args.out
    );

    // Two-part gate: the EM-iteration comparison is deterministic (no
    // wall-clock noise on a shared CI runner), the throughput comparison
    // keeps a 20 % noise margin so only a real regression trips it.
    let mut gates = args.gates();
    gates.at_most(
        "delta-path EM iterations",
        report.delta.em_iterations,
        report.exact.em_iterations,
    );
    gates.at_least("delta vs exact speedup", report.speedup_delta_vs_exact, 0.8);
    gates.finish();
}
