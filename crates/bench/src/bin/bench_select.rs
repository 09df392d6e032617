//! Selection-loop benchmark: measures how fast the guidance loop —
//! `select_next` + `integrate`, the paper's Algorithm 1 driven to a full
//! expert budget — runs with the cross-step guidance cache against the eager
//! re-score-everything baseline, and records the result as
//! `BENCH_select.json` so the across-step view-maintenance win is a tracked
//! number rather than a claim.
//!
//! Paths compared (single-threaded on purpose — the win must be algorithmic,
//! not core-count):
//!
//! * `cached` — `ProcessConfig::guidance_cache = true`: per-candidate
//!   information-gain scores are retained across selection steps, invalidated
//!   by the converged dirty frontier of each re-aggregation, and selection
//!   is lazy bound-based (CELF-style): candidates are re-evaluated in
//!   descending stale-bound order until the best fresh score strictly
//!   dominates the next bound.
//! * `eager` — the pre-cache shape of the pipeline: every selection step
//!   re-scores the entire entropy shortlist with hypothesis EM runs.
//!
//! Both sessions are driven through the identical schedule (same arrival
//! batches, same truth labels) and the benchmark **asserts** that they pick
//! the identical object at every step — the cached path's lazy bounds must
//! not change the selection order, only skip provably dominated evaluations.
//!
//! A third arm, `service`, drives the same schedule through the
//! [`ValidationService`] front door (`SubmitVotes`, `RequestGuidance`,
//! `SubmitValidation` envelopes) with the cached path's configuration, so
//! the protocol boundary (external-id interning, envelope dispatch) is
//! priced against the in-process `select_next` of the same run. The
//! service numbers objects in arrival order, so near-ties may break
//! differently and its picks are not asserted equal.
//!
//! Usage: `bench_select [--quick] [--check] [--out <path>]`
//!
//! `--quick` shrinks the scenario for CI smoke runs; `--check` exits
//! non-zero if the cached loop is slower than the eager one beyond the noise
//! margin, if the cache stops serving a meaningful share of candidate
//! evaluations at steady state, or if the guidance p50 through the service
//! exceeds 2x the cached path's `select_next` p50.

use crowdval_bench::harness::{host_cpus, BenchArgs};
use crowdval_core::{
    GuidanceTelemetry, ProcessConfig, ScoringEngine, UncertaintyDriven, ValidationSession,
    ValidationSessionBuilder,
};
use crowdval_model::{LabelId, ObjectId, Vote};
use crowdval_service::{
    ClientVote, Request, RequestEnvelope, Response, StrategyChoice, TaskConfig, ValidationService,
};
use crowdval_sim::{StreamingConfig, StreamingScenario, SyntheticConfig};
use serde::Serialize;
use std::time::Instant;

/// The service arm's task name.
const TASK: &str = "bench";

#[derive(Debug, Serialize)]
struct PathReport {
    /// Validation steps driven (same for both paths).
    selections: usize,
    /// Full loop steps (select + integrate) per second of wall time.
    selections_per_sec: f64,
    /// Select-only wall time across all steps, in seconds.
    select_wall_seconds: f64,
    /// Select + integrate wall time across all steps, in seconds.
    loop_wall_seconds: f64,
    /// Mean select latency over the steady-state window (second half), ms.
    select_ms_steady: f64,
    /// Mean full-step (select + integrate) latency over the steady-state
    /// window, ms.
    step_ms_steady: f64,
    /// Candidates evaluated exactly across all selection steps (0 reported
    /// for the eager path, which does not run the telemetry).
    candidates_evaluated: usize,
    /// Candidate evaluations served from the cache across all steps.
    served_from_cache: usize,
    /// Hypothesis EM iterations spent by selection across all steps.
    hypothesis_em_iterations: usize,
}

/// The `service` arm: guidance latency through the front door against the
/// cached path's in-process `select_next`.
#[derive(Debug, Serialize)]
struct ServiceReport {
    /// `RequestGuidance` envelopes handled (one per validation step).
    requests: usize,
    guidance_p50_ms: f64,
    /// p50 of the cached path's `select_next` over the same steps.
    in_process_p50_ms: f64,
    /// `guidance_p50_ms / in_process_p50_ms`, gated at 2x.
    overhead_factor: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    scenario: String,
    host_cpus: usize,
    total_votes: usize,
    batches: usize,
    final_objects: usize,
    final_workers: usize,
    validations: usize,
    shortlist: usize,
    cached: PathReport,
    eager: PathReport,
    service: ServiceReport,
    /// Headline number: full validation steps (select + integrate) per
    /// second over the steady-state window — the regime the cross-step
    /// cache targets (the first half of the run is dominated by arrival
    /// batches whose re-aggregations genuinely invalidate most retained
    /// scores, on both paths alike).
    speedup_steady_state: f64,
    /// Full-loop throughput across the whole budget, cached vs eager.
    speedup_end_to_end: f64,
    /// Select-only speedup (the part the cache accelerates).
    speedup_select_only: f64,
    /// Cached-path hit rate across the whole run.
    cache_hit_rate: f64,
    /// Cached-path hit rate over the steady-state window (second half of
    /// the validation steps) — the acceptance number.
    cache_hit_rate_steady: f64,
    /// Selection order was bit-identical between the two paths (asserted;
    /// recorded so the JSON is self-describing).
    selection_order_identical: bool,
}

#[derive(Default)]
struct DriveResult {
    picks: Vec<ObjectId>,
    select_walls: Vec<f64>,
    /// Per-step select + integrate wall time.
    step_walls: Vec<f64>,
    loop_wall: f64,
    /// Per-step guidance telemetry (zeros where the path does not run it).
    steps: Vec<GuidanceTelemetry>,
}

/// The three operations the validation schedule drives, in-process or
/// through the service front door.
trait GuidedLoop {
    fn ingest(&mut self, votes: &[Vote]);
    fn select(&mut self) -> Option<ObjectId>;
    fn integrate(&mut self, object: ObjectId, label: LabelId);
    fn telemetry(&self) -> GuidanceTelemetry;
}

impl GuidedLoop for ValidationSession {
    fn ingest(&mut self, votes: &[Vote]) {
        ValidationSession::ingest(self, votes).expect("stream batches ingest");
    }
    fn select(&mut self) -> Option<ObjectId> {
        self.select_next()
    }
    fn integrate(&mut self, object: ObjectId, label: LabelId) {
        ValidationSession::integrate(self, object, label).expect("truth labels are in range");
    }
    fn telemetry(&self) -> GuidanceTelemetry {
        self.last_guidance_telemetry()
    }
}

/// A single-task [`ValidationService`]; objects are named `o<index>`.
struct ServiceLoop(ValidationService);

impl ServiceLoop {
    fn send(&mut self, request: Request) -> Response {
        self.0
            .handle(&RequestEnvelope::latest(request))
            .expect("benchmark requests are well-formed")
    }
}

fn label_name(label: LabelId) -> String {
    format!("l{}", label.index())
}

impl GuidedLoop for ServiceLoop {
    fn ingest(&mut self, votes: &[Vote]) {
        let votes = votes
            .iter()
            .map(|v| ClientVote {
                worker: format!("w{}", v.worker.index()),
                object: format!("o{}", v.object.index()),
                label: label_name(v.label),
            })
            .collect();
        self.send(Request::SubmitVotes {
            task: TASK.into(),
            votes,
        });
    }
    fn select(&mut self) -> Option<ObjectId> {
        let Response::Guidance { object, .. } =
            self.send(Request::RequestGuidance { task: TASK.into() })
        else {
            panic!("guidance requests answer with guidance");
        };
        object.map(|name| {
            ObjectId(
                name.strip_prefix('o')
                    .and_then(|i| i.parse().ok())
                    .expect("bench object ids are o<index>"),
            )
        })
    }
    fn integrate(&mut self, object: ObjectId, label: LabelId) {
        self.send(Request::SubmitValidation {
            task: TASK.into(),
            object: format!("o{}", object.index()),
            label: label_name(label),
        });
    }
    fn telemetry(&self) -> GuidanceTelemetry {
        GuidanceTelemetry::default()
    }
}

/// Drives one path through the full schedule: initial snapshot, two
/// orientation anchors, then arrival batches interleaved with validations
/// until the budget is spent.
fn drive(
    scenario: &StreamingScenario,
    path: &mut impl GuidedLoop,
    per_batch: usize,
    budget: usize,
) -> DriveResult {
    let truth = &scenario.truth;
    path.ingest(&scenario.initial);

    // Two early validations anchor the label orientation (below two anchors
    // the hypothesis scorer falls back to the exact path).
    let mut anchors: Vec<ObjectId> = Vec::new();
    for vote in &scenario.initial {
        if !anchors.contains(&vote.object) {
            anchors.push(vote.object);
        }
        if anchors.len() == 2 {
            break;
        }
    }
    assert_eq!(anchors.len(), 2, "stream too small to anchor");
    for &o in &anchors {
        path.integrate(o, truth.label(o));
    }

    let mut result = DriveResult::default();
    let loop_start = Instant::now();
    // One validation step; false once the budget is spent or every object
    // is validated.
    let validate = |path: &mut dyn GuidedLoop, result: &mut DriveResult| -> bool {
        if result.picks.len() >= budget {
            return false;
        }
        let start = Instant::now();
        let Some(o) = path.select() else {
            return false;
        };
        result.select_walls.push(start.elapsed().as_secs_f64());
        result.steps.push(path.telemetry());
        result.picks.push(o);
        path.integrate(o, truth.label(o));
        result.step_walls.push(start.elapsed().as_secs_f64());
        true
    };
    for batch in &scenario.batches {
        path.ingest(batch);
        for _ in 0..per_batch {
            validate(path, &mut result);
        }
    }
    while validate(path, &mut result) {}
    result.loop_wall = loop_start.elapsed().as_secs_f64();
    result
}

fn session(scenario: &StreamingScenario, cached: bool, shortlist: usize) -> ValidationSession {
    ValidationSessionBuilder::empty(scenario.num_labels)
        .strategy(Box::new(UncertaintyDriven::with_engine(
            ScoringEngine::with_shortlist(shortlist),
        )))
        .config(ProcessConfig {
            guidance_cache: cached,
            ..ProcessConfig::default()
        })
        .build()
}

/// The cached path's configuration behind the service front door.
fn service(scenario: &StreamingScenario, shortlist: usize) -> ServiceLoop {
    let mut service = ServiceLoop(ValidationService::new());
    service.send(Request::CreateTask {
        task: TASK.into(),
        labels: (0..scenario.num_labels)
            .map(|l| label_name(LabelId(l)))
            .collect(),
        config: TaskConfig {
            strategy: StrategyChoice::UncertaintyDriven,
            shortlist: Some(shortlist),
            ..TaskConfig::default()
        },
    });
    service
}

/// Median of a sample set, in milliseconds.
fn p50_ms(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2] * 1e3
}

fn path_report(result: &DriveResult) -> PathReport {
    let select_wall: f64 = result.select_walls.iter().sum();
    let steady_from = result.select_walls.len() / 2;
    let steady: &[f64] = &result.select_walls[steady_from..];
    let totals = result
        .steps
        .iter()
        .fold(GuidanceTelemetry::default(), |mut acc, s| {
            acc.absorb(s);
            acc
        });
    PathReport {
        selections: result.picks.len(),
        selections_per_sec: result.picks.len() as f64 / result.loop_wall.max(1e-12),
        select_wall_seconds: select_wall,
        loop_wall_seconds: result.loop_wall,
        select_ms_steady: steady.iter().sum::<f64>() * 1e3 / steady.len().max(1) as f64,
        step_ms_steady: {
            let steady_steps: &[f64] = &result.step_walls[result.step_walls.len() / 2..];
            steady_steps.iter().sum::<f64>() * 1e3 / steady_steps.len().max(1) as f64
        },
        candidates_evaluated: totals.evaluated,
        served_from_cache: totals.served_from_cache,
        hypothesis_em_iterations: totals.em_iterations,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_select.json");
    let quick = args.quick;

    // The paper-default streaming scenario of `bench_scale`'s
    // `session_ingest` arm (seed aside), so the numbers are comparable.
    // Two validations per arrival batch (the expert validates continuously
    // while the stream arrives), then the remaining budget on the settled
    // corpus.
    let (num_objects, num_workers, batch_size, budget, per_batch) = if quick {
        (60, 20, 60, 45, 3)
    } else {
        (150, 32, 100, 135, 3)
    };
    // The engine-default pre-filter width (the paper-default configuration:
    // the selection comparison should measure the default select step).
    let shortlist = crowdval_core::scoring::DEFAULT_SHORTLIST;
    let scenario = StreamingConfig {
        base: SyntheticConfig {
            num_objects,
            num_workers,
            ..SyntheticConfig::paper_default(92_000)
        },
        initial_fraction: 0.3,
        batch_size,
        late_object_fraction: 0.3,
        late_worker_fraction: 0.25,
    }
    .generate();

    let mut cached_session = session(&scenario, true, shortlist);
    let cached = drive(&scenario, &mut cached_session, per_batch, budget);
    let eager = drive(
        &scenario,
        &mut session(&scenario, false, shortlist),
        per_batch,
        budget,
    );
    let through_service = drive(
        &scenario,
        &mut service(&scenario, shortlist),
        per_batch,
        budget,
    );

    assert_eq!(
        cached.picks, eager.picks,
        "cached selection order diverged from the eager path"
    );

    let cached_report = path_report(&cached);
    let eager_report = path_report(&eager);
    let steady_from = cached.steps.len() / 2;
    let steady_totals =
        cached.steps[steady_from..]
            .iter()
            .fold(GuidanceTelemetry::default(), |mut acc, s| {
                acc.absorb(s);
                acc
            });
    let overall_totals = cached
        .steps
        .iter()
        .fold(GuidanceTelemetry::default(), |mut acc, s| {
            acc.absorb(s);
            acc
        });
    let cached_steady_ms = cached_report.step_ms_steady;
    let eager_steady_ms = eager_report.step_ms_steady;
    let guidance_p50_ms = p50_ms(&through_service.select_walls);
    let in_process_p50_ms = p50_ms(&cached.select_walls);
    let service_report = ServiceReport {
        requests: through_service.picks.len(),
        guidance_p50_ms,
        in_process_p50_ms,
        overhead_factor: guidance_p50_ms / in_process_p50_ms.max(1e-12),
    };
    let report = BenchReport {
        scenario: format!(
            "paper-default stream, seed 92000, single-threaded{}",
            if quick { " (quick)" } else { "" }
        ),
        host_cpus: host_cpus(),
        total_votes: scenario.total_votes(),
        batches: scenario.batches.len(),
        final_objects: cached_session.answers().num_objects(),
        final_workers: cached_session.answers().num_workers(),
        validations: cached.picks.len(),
        shortlist,
        speedup_steady_state: eager_steady_ms / cached_steady_ms.max(1e-12),
        speedup_end_to_end: cached_report.selections_per_sec
            / eager_report.selections_per_sec.max(1e-12),
        speedup_select_only: eager_report.select_wall_seconds
            / cached_report.select_wall_seconds.max(1e-12),
        cache_hit_rate: overall_totals.hit_rate(),
        cache_hit_rate_steady: steady_totals.hit_rate(),
        selection_order_identical: true,
        cached: cached_report,
        eager: eager_report,
        service: service_report,
    };

    args.write_report(&report);
    println!(
        "\ncached {:.1}/s | eager {:.1}/s  (steady-state {:.2}x, overall {:.2}x, select-only {:.2}x) | steady hit rate {:.0}% | service guidance {:.2}x in-process -> {}",
        report.cached.selections_per_sec,
        report.eager.selections_per_sec,
        report.speedup_steady_state,
        report.speedup_end_to_end,
        report.speedup_select_only,
        report.cache_hit_rate_steady * 100.0,
        report.service.overhead_factor,
        args.out
    );

    // Three-part gate: the selection-order assert above is the correctness
    // half; the cache hit rate is deterministic (no wall-clock noise on a
    // shared CI runner); the throughput comparison keeps a noise margin so
    // only a real regression trips it. At steady state more than half of
    // all candidate evaluations must be served from the cache. The quick
    // smoke scenario is smaller and more volatile — each validation shifts
    // a larger share of its model, so retained scores survive fewer steps —
    // and gates at a meaningful share instead.
    let mut gates = args.gates();
    let min_steady_hits = if quick { 0.30 } else { 0.50 };
    gates.require(report.cache_hit_rate_steady > min_steady_hits, || {
        format!(
            "steady-state cache hit rate {:.3} is at or below {min_steady_hits}",
            report.cache_hit_rate_steady
        )
    });
    gates.at_least(
        "cached vs eager steady-state speedup",
        report.speedup_steady_state,
        0.9,
    );
    gates.at_most(
        "service vs in-process guidance p50",
        report.service.overhead_factor,
        2.0,
    );
    gates.finish();
}
