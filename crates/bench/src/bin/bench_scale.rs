//! Million-scale corpus benchmark: drives the storage and aggregation
//! engine at the corpus size the paper's crowdsourcing settings imply
//! (10^6 objects, 10^5 workers) and records the result as
//! `BENCH_scale.json`, so "the engine holds up at a million objects" is a
//! tracked number rather than a claim.
//!
//! Four measurements:
//!
//! * **Ingest** — streaming `record_arrival` throughput (votes/sec, with a
//!   steady-state window over the second half of the stream) and the
//!   resident bytes per vote from [`AnswerMatrix::memory_footprint`], for
//!   the paged-only arenas vs the CSR-mirrored matrix (the CSR arm pays
//!   `sync_compact_views` at every batch boundary — the price of flat rows).
//! * **E-step** — ns per vote of one expectation step over the full corpus,
//!   in a 2×2 grid: paged chains vs compact CSR rows, serial vs parallel
//!   (`set_em_threads(0)` = auto; on a one-core runner the parallel cell
//!   degenerates to serial, which is why the `--check` gate only asks for
//!   ≥ 0.9x there).
//! * **Snapshot stall** — p99 wall time of a full [`ValidationSession`]
//!   snapshot (O(corpus) clone) vs a delta snapshot (O(events) since the
//!   last full-snapshot anchor), each sampled right after a small re-vote
//!   batch. Delta samples deliberately let the event log grow between full
//!   anchors, so the p99 covers the *largest* delta in the cadence, not
//!   just a one-event log.
//! * **Session memory** — [`ValidationSession::memory_bytes`] of the fully
//!   grown session, the per-shard gauge `ShardStats.memory_bytes` reports,
//!   against the CSR-mirrored matrix footprint of the same corpus.
//!
//! Usage: `bench_scale [--quick] [--check] [--out <path>]`
//!
//! `--quick` shrinks the corpus for CI smoke runs (still above both
//! parallel gates, so the blocked kernels genuinely engage); `--check`
//! exits non-zero when the CSR E-step speedup drops below 1.3x, the
//! parallel arm falls below 0.9x serial, a delta snapshot stalls as long as
//! a full one, or the session holds more than 1.25x the CSR-mirrored
//! matrix footprint (a second copy of the corpus would double it) — the CI
//! `scale-smoke` gate.

use crowdval_aggregation::em::expectation_step;
use crowdval_aggregation::{em_threads, set_em_threads, EmConfig, IncrementalEm};
use crowdval_core::{ProcessConfig, RandomSelection, ValidationSessionBuilder};
use crowdval_model::{
    AnswerSet, ConfusionMatrix, ExpertValidation, LabelId, ObjectId, Vote, WorkerId,
};
use serde::Serialize;
use std::time::Instant;

/// Deterministic xorshift stream, the same generator the parallel-identity
/// test uses — no RNG crate in the hot loop, fully reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Synthesizes the vote stream: `votes_per_object` votes per object,
/// workers drawn uniformly, ~70 % agreement with a rotating ground truth —
/// enough signal that EM converges instead of thrashing.
///
/// The stream is then shuffled into **interleaved arrival order**. This is
/// what a live platform sees (workers answer whatever task is open, not one
/// object at a time), and it is load-bearing for the paged-vs-CSR
/// comparison: under object-major arrival every row's chunks happen to be
/// allocated contiguously, handing the paged chains an accidentally
/// sequential layout no production stream provides. Interleaved arrival
/// scatters each row's chunks across the arena — the access pattern the
/// compact views exist to flatten.
fn synthesize(n: usize, k: usize, m: usize, votes_per_object: usize) -> Vec<Vote> {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut votes = Vec::with_capacity(n * votes_per_object);
    for o in 0..n {
        let truth = o % m;
        for _ in 0..votes_per_object {
            let w = (rng.next() as usize) % k;
            let label = if rng.next() % 10 < 7 {
                truth
            } else {
                (rng.next() as usize) % m
            };
            votes.push(Vote {
                object: ObjectId(o),
                worker: WorkerId(w),
                label: LabelId(label),
            });
        }
    }
    for i in (1..votes.len()).rev() {
        let j = (rng.next() as usize) % (i + 1);
        votes.swap(i, j);
    }
    votes
}

#[derive(Debug, Serialize)]
struct IngestArm {
    votes_per_sec: f64,
    /// Throughput over the second half of the stream, where the matrix is
    /// large and every batch grows warm structures.
    votes_per_sec_steady: f64,
    wall_seconds: f64,
    /// Resident heap bytes per stored vote (allocator capacities).
    bytes_per_vote: f64,
    paged_bytes: usize,
    compact_bytes: usize,
    mask_bytes: usize,
}

#[derive(Debug, Serialize)]
struct EStepCell {
    ns_per_vote: f64,
    votes_per_sec: f64,
    reps: usize,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    scenario: String,
    /// CPUs available to the process (`std::thread::available_parallelism`).
    host_cpus: usize,
    num_objects: usize,
    num_workers: usize,
    num_labels: usize,
    total_votes: usize,
    /// Effective thread count of the parallel E-step cells (1 on a
    /// one-core runner — the parallel arm then measures gate overhead).
    em_threads_parallel: usize,
    ingest_paged: IngestArm,
    ingest_csr: IngestArm,
    e_step_paged_serial: EStepCell,
    e_step_paged_parallel: EStepCell,
    e_step_csr_serial: EStepCell,
    e_step_csr_parallel: EStepCell,
    /// Headline number: CSR vs paged E-step throughput, single-threaded.
    csr_speedup_serial: f64,
    csr_speedup_parallel: f64,
    /// Parallel vs serial on the CSR path (≈ 1.0 on one core).
    parallel_speedup_csr: f64,
    /// One bulk ingest of the whole stream into a validation session
    /// (bounded-iteration cold EM), wall seconds and iterations spent.
    session_build_seconds: f64,
    session_build_em_iterations: usize,
    /// `ValidationSession::memory_bytes` of the grown session — the gauge
    /// `ShardStats.memory_bytes` surfaces per shard.
    session_memory_bytes: usize,
    /// `session_memory_bytes` over the votes the session ingested.
    session_bytes_per_vote: f64,
    /// `session_memory_bytes` over the `ingest_csr` footprint (paged +
    /// compact + mask bytes): about 1 when the session stores one copy.
    session_memory_over_csr: f64,
    snapshot_full_p99_ms: f64,
    snapshot_full_max_ms: f64,
    snapshot_delta_p99_ms: f64,
    snapshot_delta_max_ms: f64,
    /// Headline number: full-snapshot p99 stall over delta-snapshot p99.
    snapshot_stall_ratio_p99: f64,
    /// Events in the last (largest) delta of the sampling cadence.
    last_delta_events: usize,
    full_snapshot_samples: usize,
    delta_snapshot_samples: usize,
}

/// Streams `votes` into a fresh answer set in `batches` batches with a
/// capacity hint per batch, returning the timing arm. `compact` toggles the
/// CSR mirrors; the CSR arm re-syncs them at every batch boundary.
fn ingest_arm(votes: &[Vote], num_labels: usize, batches: usize, compact: bool) -> IngestArm {
    let mut answers = AnswerSet::new(0, 0, num_labels);
    answers.set_compact_enabled(compact);
    let batch_size = votes.len().div_ceil(batches);
    let mut walls = Vec::with_capacity(batches);
    let mut counts = Vec::with_capacity(batches);
    for batch in votes.chunks(batch_size) {
        let start = Instant::now();
        answers.reserve_answers(batch.len());
        for &vote in batch {
            answers.record_arrival(vote).expect("labels are in range");
        }
        if compact {
            answers.sync_compact_views();
        }
        walls.push(start.elapsed().as_secs_f64());
        counts.push(batch.len());
    }
    let wall: f64 = walls.iter().sum();
    let steady_from = walls.len() / 2;
    let steady_wall: f64 = walls[steady_from..].iter().sum();
    let steady_votes: usize = counts[steady_from..].iter().sum();
    let footprint = answers.matrix().memory_footprint();
    IngestArm {
        votes_per_sec: votes.len() as f64 / wall.max(1e-12),
        votes_per_sec_steady: steady_votes as f64 / steady_wall.max(1e-12),
        wall_seconds: wall,
        bytes_per_vote: footprint.total_bytes() as f64 / votes.len().max(1) as f64,
        paged_bytes: footprint.paged_bytes,
        compact_bytes: footprint.compact_bytes,
        mask_bytes: footprint.mask_bytes,
    }
}

/// Times `reps` expectation steps over the corpus (one unmeasured warm-up
/// call first, so thread-local workspace buffers are allocated) and returns
/// ns per vote of the *fastest* rep — the min is the standard noise-robust
/// estimator on a shared runner, where any slowdown is interference, not
/// the kernel.
fn e_step_cell(
    answers: &AnswerSet,
    expert: &ExpertValidation,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
    reps: usize,
) -> EStepCell {
    let votes = answers.matrix().num_answers();
    let _ = expectation_step(answers, expert, confusions, priors);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let _ = expectation_step(answers, expert, confusions, priors);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let ns_per_vote = best * 1e9 / votes.max(1) as f64;
    EStepCell {
        ns_per_vote,
        votes_per_sec: votes as f64 / best.max(1e-12),
        reps,
    }
}

/// p99 of a sample set in milliseconds (nearest-rank; the max for fewer
/// than 100 samples — stall gates should be pessimistic, not smoothed).
fn p99_ms(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("stall times are finite"));
    let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] * 1e3
}

fn max_ms(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0f64, |a, &b| a.max(b)) * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".to_string());

    // Quick tier sits just above both parallel gates (PAR_MIN_OBJECTS /
    // PAR_MIN_WORKERS), so even the CI smoke run exercises the blocked
    // kernels rather than the serial fallback.
    // The quick corpus must already be cache-hostile (the CSR win is a
    // locality win — a corpus that fits in L2 shows none of it) and large
    // enough that per-rep timing noise stays under the gate margins.
    let (n, k, batches, reps, full_samples, delta_samples) = if quick {
        (65_536, 8_192, 16, 10, 8, 32)
    } else {
        (1_000_000, 100_000, 64, 7, 12, 48)
    };
    let m = 3usize;
    let votes_per_object = 3usize;

    eprintln!("synthesizing {n} objects x {k} workers, {votes_per_object} votes/object ...");
    let votes = synthesize(n, k, m, votes_per_object);
    let total_votes = votes.len();

    // -------------------------------------------------------------------
    // Ingest: paged-only vs CSR-mirrored streaming throughput.
    // -------------------------------------------------------------------
    eprintln!("ingest arm: paged ...");
    let ingest_paged = ingest_arm(&votes, m, batches, false);
    eprintln!("ingest arm: csr ...");
    let ingest_csr = ingest_arm(&votes, m, batches, true);

    // -------------------------------------------------------------------
    // E-step grid over one shared corpus. CSR cells run first (the corpus
    // is built with live mirrors); the paged cells then disable the
    // mirrors so the kernels walk the chains.
    // -------------------------------------------------------------------
    let mut corpus = AnswerSet::new(0, 0, m);
    corpus.reserve_answers(total_votes);
    for &vote in &votes {
        corpus.record_arrival(vote).expect("labels are in range");
    }
    corpus.sync_compact_views();
    let expert = ExpertValidation::empty(n);
    let confusions = vec![ConfusionMatrix::diagonal(m, 0.7); k];
    let priors = vec![1.0 / m as f64; m];

    eprintln!("e-step grid: csr ...");
    set_em_threads(1);
    let e_step_csr_serial = e_step_cell(&corpus, &expert, &confusions, &priors, reps);
    set_em_threads(0);
    let em_threads_parallel = em_threads();
    let e_step_csr_parallel = e_step_cell(&corpus, &expert, &confusions, &priors, reps);

    eprintln!("e-step grid: paged ...");
    corpus.set_compact_enabled(false);
    set_em_threads(1);
    let e_step_paged_serial = e_step_cell(&corpus, &expert, &confusions, &priors, reps);
    set_em_threads(0);
    let e_step_paged_parallel = e_step_cell(&corpus, &expert, &confusions, &priors, reps);
    set_em_threads(1);
    drop(corpus);

    // -------------------------------------------------------------------
    // Snapshot stall: a grown session, small re-vote batches, full vs
    // delta snapshot wall times. Cold EM is iteration-bounded: the arm
    // measures snapshot stalls, not convergence patience.
    // -------------------------------------------------------------------
    eprintln!("session build ({total_votes} votes, bounded cold EM) ...");
    let mut session = ValidationSessionBuilder::empty(m)
        .aggregator(Box::new(IncrementalEm::new(EmConfig {
            smoothing_alpha: 0.01,
            max_iterations: 20,
            tolerance: 1e-3,
        })))
        .strategy(Box::new(RandomSelection::new(7)))
        .config(ProcessConfig {
            handle_faulty_workers: false,
            guidance_cache: false,
            ..ProcessConfig::default()
        })
        .build();
    let build_start = Instant::now();
    let update = session.ingest(&votes).expect("stream ingests");
    let session_build_seconds = build_start.elapsed().as_secs_f64();
    let session_build_em_iterations = update.em_iterations;
    drop(votes);
    session.enable_delta_log();

    let mut rng = XorShift(0x51ed_270b);
    let revote_batch = |rng: &mut XorShift| -> Vec<Vote> {
        (0..256)
            .map(|_| Vote {
                object: ObjectId((rng.next() as usize) % n),
                worker: WorkerId((rng.next() as usize) % k),
                label: LabelId((rng.next() as usize) % m),
            })
            .collect()
    };

    eprintln!("snapshot stalls: full x {full_samples} ...");
    let mut full_walls = Vec::with_capacity(full_samples);
    for _ in 0..full_samples {
        let batch = revote_batch(&mut rng);
        session.ingest(&batch).expect("re-votes ingest");
        let start = Instant::now();
        let snapshot = session.snapshot().expect("session snapshots");
        full_walls.push(start.elapsed().as_secs_f64());
        drop(snapshot);
    }

    eprintln!("snapshot stalls: delta x {delta_samples} ...");
    let mut delta_walls = Vec::with_capacity(delta_samples);
    let mut last_delta_events = 0usize;
    for _ in 0..delta_samples {
        let batch = revote_batch(&mut rng);
        session.ingest(&batch).expect("re-votes ingest");
        let start = Instant::now();
        let delta = session.delta_snapshot().expect("delta log is enabled");
        delta_walls.push(start.elapsed().as_secs_f64());
        last_delta_events = delta.events.len();
    }

    let snapshot_full_p99_ms = p99_ms(&full_walls);
    let snapshot_delta_p99_ms = p99_ms(&delta_walls);
    let csr_matrix_bytes =
        ingest_csr.paged_bytes + ingest_csr.compact_bytes + ingest_csr.mask_bytes;
    let report = BenchReport {
        scenario: format!(
            "synthetic million-scale stream, xorshift seed 0x9e3779b97f4a7c15{}",
            if quick { " (quick)" } else { "" }
        ),
        host_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        num_objects: n,
        num_workers: k,
        num_labels: m,
        total_votes,
        em_threads_parallel,
        csr_speedup_serial: e_step_paged_serial.ns_per_vote
            / e_step_csr_serial.ns_per_vote.max(1e-12),
        csr_speedup_parallel: e_step_paged_parallel.ns_per_vote
            / e_step_csr_parallel.ns_per_vote.max(1e-12),
        parallel_speedup_csr: e_step_csr_serial.ns_per_vote
            / e_step_csr_parallel.ns_per_vote.max(1e-12),
        ingest_paged,
        ingest_csr,
        e_step_paged_serial,
        e_step_paged_parallel,
        e_step_csr_serial,
        e_step_csr_parallel,
        session_build_seconds,
        session_build_em_iterations,
        session_memory_bytes: session.memory_bytes(),
        session_bytes_per_vote: session.memory_bytes() as f64
            / session.votes_ingested().max(1) as f64,
        session_memory_over_csr: session.memory_bytes() as f64 / csr_matrix_bytes.max(1) as f64,
        snapshot_full_p99_ms,
        snapshot_full_max_ms: max_ms(&full_walls),
        snapshot_delta_p99_ms,
        snapshot_delta_max_ms: max_ms(&delta_walls),
        snapshot_stall_ratio_p99: snapshot_full_p99_ms / snapshot_delta_p99_ms.max(1e-12),
        last_delta_events,
        full_snapshot_samples: full_samples,
        delta_snapshot_samples: delta_samples,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    println!("{json}");
    println!(
        "\ne-step csr {:.1} ns/vote vs paged {:.1} ns/vote ({:.2}x) | parallel {:.2}x ({} threads) | snapshot p99 full {:.1} ms vs delta {:.3} ms ({:.0}x) -> {}",
        report.e_step_csr_serial.ns_per_vote,
        report.e_step_paged_serial.ns_per_vote,
        report.csr_speedup_serial,
        report.parallel_speedup_csr,
        report.em_threads_parallel,
        report.snapshot_full_p99_ms,
        report.snapshot_delta_p99_ms,
        report.snapshot_stall_ratio_p99,
        out_path
    );

    if check {
        // Ratio gates only — two arms of the same run share the runner's
        // noise, so ratios are far more stable than absolute wall times.
        let mut failed = false;
        if report.csr_speedup_serial < 1.3 {
            eprintln!(
                "FAIL: CSR e-step speedup below the 1.3x floor ({:.2}x)",
                report.csr_speedup_serial
            );
            failed = true;
        }
        if report.parallel_speedup_csr < 0.9 {
            eprintln!(
                "FAIL: parallel e-step slower than 0.9x serial ({:.2}x, {} threads)",
                report.parallel_speedup_csr, report.em_threads_parallel
            );
            failed = true;
        }
        if report.snapshot_delta_p99_ms >= report.snapshot_full_p99_ms {
            eprintln!(
                "FAIL: delta snapshot p99 stall not below full snapshot p99 ({:.3} ms >= {:.3} ms)",
                report.snapshot_delta_p99_ms, report.snapshot_full_p99_ms
            );
            failed = true;
        }
        if report.session_memory_over_csr > 1.25 {
            eprintln!(
                "FAIL: session holds {:.2}x the CSR-mirrored matrix footprint (> 1.25x: a second copy of the corpus?)",
                report.session_memory_over_csr
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
