//! End-to-end benchmark of the validation service.
//!
//! Drives the public `serve()` in-process with JSON request lines under one
//! of three multi-tenant workloads and prints a report, then one JSON
//! result line:
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload ingest-fanout --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload through an instrumented copy of the serve loop and reports
//! per-layer metrics (see `trace.rs`).

mod client;
mod harness;
mod stats;
mod trace;
mod verify;
mod workloads;

use client::Runner;
use crowdval_service::{OverloadPolicy, Response, ServeOptions, SupervisionConfig};
use harness::{run_serve, Clock, Finished, Outbox};
use stats::{median, Summary};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::Arc;
use workloads::{Kind, Phase, SHARDS, WORKLOADS};

/// The service configuration every run uses.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: SHARDS,
        overload: OverloadPolicy::Block,
        supervision: SupervisionConfig::enabled(),
        ..ServeOptions::default()
    }
}

/// Set-up is measured this many times per run and the median reported.
const SETUP_REPEATS: usize = 3;

/// Pieces a measured phase is split into — time windows for rates, runs of
/// consecutive requests for percentiles; a metric is the median over them.
pub const WINDOWS: usize = 5;

/// Latency charged to a failed or refused request: it misses any limit.
pub const FAILED_LATENCY_MS: f64 = 1e9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 8u64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Runs the workload once through `serve()`.
pub fn run_once(workload: &str, seed: u64, seconds: u64, setup_only: bool) -> Finished<Runner> {
    let plan = workloads::plan(workload, seed, seconds).expect("workload names are checked");
    let outbox = Arc::new(Outbox::default());
    let clock = Clock::start();
    let mut runner = Runner::new(plan, Arc::clone(&outbox), clock);
    if setup_only {
        runner = runner.setup_only();
    }
    run_serve(runner, outbox, clock, &serve_options())
}

/// Serve start to the last set-up reply, in seconds.
pub fn setup_seconds(run: &Runner) -> f64 {
    run.stage_times
        .iter()
        .find(|(phase, _, _)| *phase == Phase::Setup)
        .map(|&(_, _, end)| end as f64 / 1e9)
        .expect("every run starts with set-up")
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where one run's end-to-end numbers come from.
pub struct E2e {
    pub setup_s: f64,
    pub throughput: f64,
    pub throughput_unit: &'static str,
    /// The latency-metric sample, ms: every open-loop request but monitor
    /// probes, or every expert cycle (guidance asked to validation acked).
    pub latency: Summary,
    /// Median over [`WINDOWS`] runs of consecutive samples of each run's p50
    /// and tail.
    pub latency_p50: f64,
    pub latency_tail: f64,
    /// Per latency class (see [`Kind::class`]), latency phase only.
    pub classes: BTreeMap<&'static str, Summary>,
    pub bytes_per_vote: f64,
    pub peak_rss_mb: f64,
    pub precision: f64,
    pub attempted: usize,
    pub failed: usize,
    pub lag_ms: Summary,
}

/// The end-to-end numbers of a finished run.
pub fn e2e(run: &Finished<Runner>, setup_s: f64, precision: f64, rss: f64) -> E2e {
    let runner = &run.client;
    let recs = &runner.log.recs;
    let latency_phase = if runner.name == "expert-loop" {
        Phase::Experts
    } else {
        Phase::Paced
    };
    let phase_start = |phase: Phase| {
        runner
            .stage_times
            .iter()
            .find(|(p, _, _)| *p == phase)
            .map_or(0, |&(_, s, _)| s)
    };
    let mut all = Vec::new();
    let mut timed = Vec::new();
    let mut classes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rec in recs.iter().filter(|r| r.phase == latency_phase) {
        let ms = match (rec.ok, rec.done_ns) {
            (true, Some(done)) => {
                stats::due_latency_ns(rec.due_ns, Some(done)).unwrap_or(0) as f64 / 1e6
            }
            _ => FAILED_LATENCY_MS,
        };
        classes.entry(rec.kind.class()).or_default().push(ms);
        if latency_phase == Phase::Paced && rec.kind.class() != "monitor" {
            all.push(ms);
            timed.push((rec.due_ns, ms));
        }
    }
    if latency_phase == Phase::Experts {
        // An expert waits from asking for guidance until the validation it
        // answers with is acknowledged: the paper's per-iteration response
        // time. Each tenant has one expert, so per tenant the log
        // alternates guidance (retried if refused) and validation.
        let mut asked: HashMap<u32, u64> = HashMap::new();
        for rec in recs.iter().filter(|r| r.phase == Phase::Experts) {
            match rec.kind {
                Kind::Guidance => {
                    asked.entry(rec.tenant).or_insert(rec.due_ns);
                }
                Kind::Validation => {
                    let start = asked
                        .remove(&rec.tenant)
                        .expect("a validation follows its guidance");
                    let ms = match (rec.ok, rec.done_ns) {
                        (true, Some(done)) => done.saturating_sub(start) as f64 / 1e6,
                        _ => FAILED_LATENCY_MS,
                    };
                    all.push(ms);
                    timed.push((start, ms));
                }
                _ => {}
            }
        }
    }
    // Percentiles per run of consecutive requests (in due order), then the
    // median across runs: equal counts, so a sparse stretch of a closed
    // loop weighs no more than a busy one.
    timed.sort_by_key(|&(due, _)| due);
    let in_order: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    let chunked = |f: fn(&Summary) -> f64| {
        stats::chunked_median(&in_order, WINDOWS, |v| {
            f(&Summary::of(v.to_vec()).expect("chunks are non-empty"))
        })
        .expect("the latency phase sends requests")
    };
    let (latency_p50, latency_tail) = (chunked(|s| s.p50), chunked(|s| s.tail));
    // Throughput: votes acknowledged per second of the saturation phase, or
    // expert validations per second of the closed loop.
    let (work_phase, work_kind) = if runner.name == "expert-loop" {
        (Phase::Experts, Kind::Validation)
    } else {
        (Phase::Saturation, Kind::Votes)
    };
    let start = phase_start(work_phase);
    let work: Vec<(u64, f64)> = recs
        .iter()
        .filter(|r| r.phase == work_phase && r.kind == work_kind && r.ok)
        .map(|r| {
            let units = if work_kind == Kind::Votes {
                f64::from(r.votes)
            } else {
                1.0
            };
            (r.done_ns.unwrap_or(start), units)
        })
        .collect();
    let last = work.iter().map(|&(t, _)| t).max().unwrap_or(start);
    let throughput = stats::windowed_median(&work, start, last, WINDOWS, |v, secs| {
        v.iter().sum::<f64>() / secs
    })
    .unwrap_or(0.0);
    // Memory gauge: the RuntimeStats read after the latency phase.
    let final_stats = recs
        .iter()
        .rev()
        .find(|r| r.phase == Phase::Probe)
        .map(|r| verify::parse_reply(r.reply.as_deref()));
    let (memory, held) = match final_stats.as_ref().map(|r| r.result()) {
        Some(Ok(Response::RuntimeStats { shards })) => {
            shards.iter().fold((0u64, 0u64), |acc, s| {
                (acc.0 + s.memory_bytes, acc.1 + s.votes_ingested)
            })
        }
        _ => (0, 0),
    };
    let sent: HashMap<u64, u64> = run.sent.iter().copied().collect();
    let lags: Vec<f64> = recs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.phase == latency_phase)
        .filter_map(|(id, r)| {
            sent.get(&(id as u64))
                .map(|&s| stats::lag_ns(r.due_ns, s) as f64 / 1e6)
        })
        .collect();
    let attempted = run.sent.len();
    let failed = run
        .sent
        .iter()
        .filter(|(id, _)| !recs[*id as usize].ok)
        .count();
    E2e {
        setup_s,
        throughput,
        throughput_unit: if work_kind == Kind::Votes {
            "votes/s"
        } else {
            "validations/s"
        },
        latency: Summary::of(all).expect("the latency phase sends requests"),
        latency_p50,
        latency_tail,
        classes: classes
            .into_iter()
            .filter_map(|(k, v)| Summary::of(v).map(|s| (k, s)))
            .collect(),
        bytes_per_vote: memory as f64 / held.max(1) as f64,
        peak_rss_mb: rss,
        precision,
        attempted,
        failed,
        lag_ms: Summary::of(lags).expect("the latency phase sends requests"),
    }
}

impl E2e {
    /// The result-line metrics (`end_to_end` in `BENCHMARK.json`).
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("throughput_per_s", "1/s", self.throughput),
            metric("latency_p50_ms", "ms", self.latency_p50),
            metric("latency_p99_ms", "ms", self.latency_tail),
            metric("bytes_per_vote", "B", self.bytes_per_vote),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
            metric("precision", "frac", self.precision),
        ]
    }

    /// The per-request-kind report: votes_per_s, <kind>_p50_ms / _p99_ms,
    /// validations_per_s, checkpoint_p99_ms, failed_frac (n/a where a
    /// workload sends no such request).
    pub fn print(&self, workload: &str) {
        let class = |name: &str| self.classes.get(name);
        let line = |name: &str, unit: &str, value: Option<f64>| match value {
            Some(v) => println!("  {name:<20} {v:>14.4} {unit}"),
            None => println!("  {name:<20} {:>14} {unit}", "n/a"),
        };
        println!("end-to-end ({workload}):");
        line("setup_s", "s", Some(self.setup_s));
        let votes = (self.throughput_unit == "votes/s").then_some(self.throughput);
        let validations = (self.throughput_unit != "votes/s").then_some(self.throughput);
        line("votes_per_s", "1/s", votes);
        for (cls, label) in [
            ("ingest", "ingest"),
            ("guidance", "guidance"),
            ("validate", "validate"),
            ("read", "read"),
        ] {
            line(&format!("{label}_p50_ms"), "ms", class(cls).map(|s| s.p50));
            line(&format!("{label}_p99_ms"), "ms", class(cls).map(|s| s.tail));
        }
        line("validations_per_s", "1/s", validations);
        line(
            "checkpoint_p99_ms",
            "ms",
            class("checkpoint").map(|s| s.tail),
        );
        line("bytes_per_vote", "B", Some(self.bytes_per_vote));
        line("peak_rss_mb", "MB", Some(self.peak_rss_mb));
        line(
            "failed_frac",
            "frac",
            Some(self.failed as f64 / self.attempted.max(1) as f64),
        );
        line("precision", "frac", Some(self.precision));
        println!(
            "  latency metric sample: n={} p50={:.4} ms p{:.1}={:.4} ms",
            self.latency.n, self.latency.p50, self.latency.tail_percentile, self.latency.tail
        );
        for (cls, s) in &self.classes {
            println!(
                "  class {cls:<10} n={:<6} p50={:.4} ms p{:.1}={:.4} ms max={:.4} ms",
                s.n, s.p50, s.tail_percentile, s.tail, s.max
            );
        }
        println!(
            "  loadgen lag: p50={:.4} ms p{:.1}={:.4} ms",
            self.lag_ms.p50, self.lag_ms.tail_percentile, self.lag_ms.tail
        );
    }
}

/// The last stdout line: the result object.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the provenance every report carries.
fn print_header(args: &Args) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, w)| *w);
    println!(
        "servebench workload={} seed={} seconds={} trace={} host_cpus={cpus} shards={SHARDS} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    println!("why: {why}");
    trace::print_layer_table();
}

/// An untraced run: the end-to-end metrics plus the output check.
pub fn untraced(workload: &str, seed: u64, seconds: u64) -> (E2e, bool) {
    let t = std::time::Instant::now();
    let run = run_once(workload, seed, seconds, false);
    // Read before anything else allocates: the repeated set-ups below would
    // otherwise leave their own high-water mark.
    let rss = peak_rss_mb();
    let stages: Vec<String> = run
        .client
        .stage_times
        .iter()
        .map(|(p, s, e)| format!("{p:?} {:.2}-{:.2} s", *s as f64 / 1e9, *e as f64 / 1e9))
        .collect();
    println!(
        "stages: {} (run {:.1} s)",
        stages.join(", "),
        t.elapsed().as_secs_f64()
    );
    let t = std::time::Instant::now();
    let mut setups = vec![setup_seconds(&run.client)];
    setups.extend(
        (1..SETUP_REPEATS).map(|_| setup_seconds(&run_once(workload, seed, seconds, true).client)),
    );
    println!(
        "set-up runs: {setups:.4?} s ({:.1} s)",
        t.elapsed().as_secs_f64()
    );
    let t = std::time::Instant::now();
    let replay = verify::replay(&run.client.log, &run.client.tenants, &run.sent, false);
    println!("serial replay: {:.1} s", t.elapsed().as_secs_f64());
    let mut correct = true;
    for m in replay.mismatches().take(5) {
        eprintln!("output check failed: {m}");
        correct = false;
    }
    if replay.compared() == 0 || replay.objects_read == 0 {
        eprintln!("output check compared nothing");
        correct = false;
    }
    println!(
        "output check: {} replies compared against the serial replay, {} mismatched; {} posteriors read",
        replay.compared(),
        replay.mismatches().count(),
        replay.objects_read
    );
    (e2e(&run, median(&setups), replay.precision, rss), correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    let (correct, attempted, failed, metrics) = if args.trace {
        trace::traced(&args.workload, args.seed, args.seconds)
    } else {
        let (e2e, correct) = untraced(&args.workload, args.seed, args.seconds);
        e2e.print(&args.workload);
        (correct, e2e.attempted, e2e.failed, e2e.metrics())
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("servebench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
