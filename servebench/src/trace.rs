//! The traced run: the same workload through an instrumented copy of the
//! sharded serve loop, plus serial replays that time each layer's public
//! functions from the outside. Spans are recorded around calls made by this
//! benchmark's own code; nothing inside the service is instrumented.
//! [`LAYER_TABLE`] says which end-to-end number each layer should move.

use crate::client::Runner;
use crate::harness::{Client, Clock, Finished, Outbox, PacedInput, ReplySink};
use crate::stats::{self, Parts, Summary};
use crate::verify::{self, Replay};
use crate::workloads::{task_config, Kind, Log, Phase, Tenant, LABELS, SHARDS};
use crate::{metric, Metric};
use crowdval_aggregation::em::expectation_step;
use crowdval_aggregation::{Aggregator, EmConfig, IncrementalEm};
use crowdval_core::{
    HybridStrategy, ProcessConfig, TriageConfig, UncertaintyDriven, ValidationSession,
    ValidationSessionBuilder,
};
use crowdval_model::{AnswerSet, ExpertValidation, IdInterner, LabelId, ObjectId, Vote, WorkerId};
use crowdval_service::runtime::shard_for_task;
use crowdval_service::{
    Dispatch, OverloadPolicy, Request, RequestEnvelope, Response, RuntimeConfig, ShardRuntime,
    ShardStats, SupervisionConfig,
};
use crowdval_spammer::TrustConfig;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer table every report prints.
const LAYER_TABLE: &str = "\
layer (module)        | metrics                         | should move                          | on                           | should not move on
serve codec           | serve.*                         | ingest_p50_ms, votes_per_s           | ingest-fanout, bulk-readwrite | expert-loop
runtime / shard       | runtime.*, shard.*              | ingest_p99_ms, read_p99_ms, votes/s  | ingest-fanout, bulk-readwrite | expert-loop (runtime.*)
service               | service.*                       | the matching per-kind latency        | all                          | -
supervisor            | supervisor.*                    | votes_per_s, ingest_p99_ms           | bulk-readwrite, ingest-fanout | recover_ms moves nothing (no crashes)
session               | session.*                       | votes/s / guidance_* / validate_*    | bulk-readwrite / expert-loop | -
guidance + triage     | guidance.*, triage.*            | guidance_p50/p99_ms, validations/s   | expert-loop                  | ingest-fanout, bulk-readwrite
model + aggregation   | model.*, aggregation.*          | votes/s, ingest_p50, bytes/vote, rss | bulk-readwrite               | expert-loop
wal + trust           | wal.*, trust.*                  | checkpoint_p99_ms; precision         | bulk-readwrite; all          | -
e2e metric names map onto the result line as: votes_per_s/validations_per_s -> throughput_per_s;
open-loop requests (all kinds but monitor probes), or expert cycles (guidance asked to validation
acknowledged) on expert-loop -> latency_p50_ms / latency_p99_ms.";

pub fn print_layer_table() {
    println!("{LAYER_TABLE}");
}

/// Reader-side spans of one request.
#[derive(Clone, Copy, Default)]
struct ReadSpan {
    line_ns: u64,
    decode_ns: u64,
    dispatch_ns: u64,
    submitted_ns: u64,
}

/// Writer-side span of one reply.
#[derive(Clone, Copy, Default)]
struct WriteSpan {
    received_ns: u64,
    encode_ns: u64,
}

/// What the instrumented serve loop recorded.
struct LoopTrace {
    reads: HashMap<u64, ReadSpan>,
    writes: HashMap<u64, WriteSpan>,
    queue_depth_max: usize,
    stats: Vec<ShardStats>,
    wall_ns: u64,
}

/// Queue depth is sampled every this many submissions.
const DEPTH_SAMPLE_EVERY: usize = 64;

/// The sharded serve loop of `crowdval_service::serve` with a timer around
/// each call: decode, `ShardRuntime::submit`, and reply encode.
fn traced_serve<C: Client>(
    mut client: C,
    outbox: Arc<Outbox>,
    clock: Clock,
) -> (Finished<C>, LoopTrace) {
    let options = crate::serve_options();
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: options.shards,
        mailbox_capacity: options.mailbox_capacity,
        overload: OverloadPolicy::Block,
        supervision: SupervisionConfig::enabled(),
    });
    let sent_out = Arc::new(Mutex::new(Vec::new()));
    client.start(clock.now_ns());
    let input = PacedInput::new(outbox, clock, Arc::clone(&sent_out));
    let sink = ReplySink::new(clock, client);
    let writer = std::thread::spawn(move || {
        let mut sink = sink;
        let mut buf = Vec::with_capacity(4096);
        let mut writes = HashMap::new();
        for reply in replies.iter() {
            let received_ns = clock.now_ns();
            buf.clear();
            let t = Instant::now();
            serde_json::to_writer(&mut buf, &reply).expect("replies serialize");
            buf.push(b'\n');
            let encode_ns = t.elapsed().as_nanos() as u64;
            writes.insert(
                reply.request_id,
                WriteSpan {
                    received_ns,
                    encode_ns,
                },
            );
            sink.write_all(&buf).expect("the sink never fails");
        }
        (sink, writes)
    });
    let mut reads = HashMap::new();
    let mut queue_depth_max = 0;
    let start = clock.now_ns();
    for (n, line) in input.lines().enumerate() {
        let line = line.expect("the paced input never fails");
        let line_ns = clock.now_ns();
        let t = Instant::now();
        let envelope: RequestEnvelope =
            serde_json::from_str(line.trim()).expect("generated lines parse");
        let decode_ns = t.elapsed().as_nanos() as u64;
        let id = envelope.request_id;
        let t = Instant::now();
        let dispatch = runtime.submit(envelope);
        let dispatch_ns = t.elapsed().as_nanos() as u64;
        debug_assert!(!matches!(dispatch, Dispatch::Rejected { .. }));
        reads.insert(
            id,
            ReadSpan {
                line_ns,
                decode_ns,
                dispatch_ns,
                submitted_ns: clock.now_ns(),
            },
        );
        if n % DEPTH_SAMPLE_EVERY == 0 {
            let depth = runtime.stats().iter().map(|s| s.queue_depth).max();
            queue_depth_max = queue_depth_max.max(depth.unwrap_or(0));
        }
    }
    let stats = runtime.stats();
    let report = runtime.shutdown();
    assert!(
        report.failures.is_empty(),
        "shard failures: {:?}",
        report.failures
    );
    let (sink, writes) = writer.join().expect("the traced writer thread panicked");
    let wall_ns = clock.now_ns() - start;
    let sent = std::mem::take(&mut *sent_out.lock().expect("sent log lock"));
    (
        Finished {
            client: sink.client,
            sent,
        },
        LoopTrace {
            reads,
            writes,
            queue_depth_max,
            stats,
            wall_ns,
        },
    )
}

/// Collects named per-layer numbers.
#[derive(Default)]
struct Layers {
    json: Vec<Metric>,
    extra: Vec<Metric>,
}

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.json.push(metric(name, unit, value));
    }

    /// A number printed in the report but not in the result line (it only
    /// exists on some workloads).
    fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extra.push(metric(name, unit, value));
    }

    /// `<name>_p50` and `<name>_p99` of a sample scaled by `scale`; zero
    /// when the sample is empty.
    fn pair(&mut self, name: &str, unit: &'static str, values: &[f64], scale: f64, json: bool) {
        let s = Summary::of(values.iter().map(|v| v * scale).collect());
        let (p50, tail) = s.map_or((0.0, 0.0), |s| (s.p50, s.tail));
        let (a, b) = (format!("{name}_p50"), format!("{name}_p99"));
        if json {
            self.put(&a, unit, p50);
            self.put(&b, unit, tail);
        } else {
            self.note(&a, unit, p50);
            self.note(&b, unit, tail);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A traced run: returns the result-line fields with the per-layer
/// metrics.
pub fn traced(workload: &str, seed: u64, seconds: u64) -> (bool, usize, usize, Vec<Metric>) {
    // The untraced reference the overhead is measured against.
    let plain = crate::run_once(workload, seed, seconds, false);
    let plain_throughput = crate::e2e(&plain, 0.0, 0.0, 0.0).throughput;
    drop(plain);

    let plan = crate::workloads::plan(workload, seed, seconds).expect("workload names are checked");
    let outbox = Arc::new(Outbox::default());
    let clock = Clock::start();
    let runner = Runner::new(plan, Arc::clone(&outbox), clock);
    let (run, trace) = traced_serve(runner, outbox, clock);
    let e2e = crate::e2e(&run, 0.0, 0.0, 0.0);
    let mut replay = verify::replay(&run.client.log, &run.client.tenants, &run.sent, true);
    let mut correct = replay.mismatches().next().is_none() && replay.compared() > 0;
    for m in replay.mismatches().take(5) {
        eprintln!("output check failed: {m}");
    }
    let log = &run.client.log;
    let tenants = &run.client.tenants;
    let mut layers = Layers::default();

    codec_and_runtime(&mut layers, log, &trace, &replay);
    service_and_supervisor(&mut layers, log, &replay);
    let picks_ok = session_replay(&mut layers, log, tenants, &run.sent);
    if !picks_ok {
        eprintln!("the direct-session replay picked differently from the service");
        correct = false;
    }
    model_replay(&mut layers, log, tenants, &run.sent);
    wal_and_trust(&mut layers, log, &mut replay);
    layers.put(
        "trace.overhead_frac",
        "frac",
        ratio(plain_throughput, e2e.throughput) - 1.0,
    );
    layers.put("loadgen.lag_p99_ms", "ms", e2e.lag_ms.tail);

    println!("per-layer ({workload}, traced):");
    for m in layers.json.iter().chain(&layers.extra) {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    (correct, e2e.attempted, e2e.failed, layers.json)
}

/// Serve codec, dispatch, queue wait and the attribution sum.
fn codec_and_runtime(layers: &mut Layers, log: &Log, trace: &LoopTrace, replay: &Replay) {
    let service: HashMap<u64, u64> = replay
        .shards
        .iter()
        .flat_map(|s| s.service_ns.iter().copied())
        .collect();
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut dispatch = Vec::new();
    let mut queue = Vec::new();
    // Decode cost per vote of the measured phases' batches (of the set-up
    // batches on a workload that streams none).
    let (mut vote_decode, mut setup_decode) = ((0u64, 0u64), (0u64, 0u64));
    let mut by_kind: BTreeMap<Kind, (Vec<Parts>, Vec<u64>)> = BTreeMap::new();
    let mut codec_ns = 0u64;
    for (id, rec) in log.recs.iter().enumerate() {
        let id = id as u64;
        let (Some(r), Some(w)) = (trace.reads.get(&id), trace.writes.get(&id)) else {
            continue;
        };
        decode.push(r.decode_ns as f64);
        encode.push(w.encode_ns as f64);
        dispatch.push(r.dispatch_ns as f64);
        codec_ns += r.decode_ns + w.encode_ns;
        if rec.kind == Kind::Votes {
            let acc = if rec.phase == Phase::Setup {
                &mut setup_decode
            } else {
                &mut vote_decode
            };
            acc.0 += r.decode_ns;
            acc.1 += u64::from(rec.votes);
        }
        let service_ns = service.get(&id).copied().unwrap_or(0);
        let sojourn = w.received_ns.saturating_sub(r.submitted_ns);
        let parts = Parts {
            decode_ns: r.decode_ns,
            dispatch_ns: r.dispatch_ns,
            queue_wait_ns: stats::queue_wait_ns(sojourn, service_ns),
            service_ns,
            encode_ns: w.encode_ns,
        };
        if rec.phase.measured() && rec.request.task_name().is_some() {
            queue.push(parts.queue_wait_ns as f64);
        }
        let whole = (w.received_ns + w.encode_ns).saturating_sub(r.line_ns);
        let entry = by_kind.entry(rec.kind).or_default();
        entry.0.push(parts);
        entry.1.push(whole);
    }
    layers.pair("serve.decode_us", "us", &decode, 1e-3, true);
    let (ns, votes) = if vote_decode.1 > 0 {
        vote_decode
    } else {
        setup_decode
    };
    layers.put(
        "serve.decode_ns_per_vote",
        "ns",
        ratio(ns as f64, votes as f64),
    );
    layers.pair("serve.encode_us", "us", &encode, 1e-3, true);
    layers.put(
        "serve.busy_frac",
        "frac",
        ratio(codec_ns as f64, trace.wall_ns as f64),
    );
    layers.pair("runtime.dispatch_us", "us", &dispatch, 1e-3, true);
    layers.pair("runtime.queue_wait_ms", "ms", &queue, 1e-6, true);
    layers.put(
        "runtime.queue_depth_max",
        "count",
        trace.queue_depth_max as f64,
    );
    let served: Vec<f64> = trace
        .stats
        .iter()
        .map(|s| s.requests_served as f64)
        .collect();
    let mean = served.iter().sum::<f64>() / served.len().max(1) as f64;
    layers.put(
        "runtime.shard_skew",
        "ratio",
        ratio(served.iter().cloned().fold(0.0, f64::max), mean),
    );
    let total = |f: fn(&ShardStats) -> u64| trace.stats.iter().map(f).sum::<u64>() as f64;
    layers.put("runtime.shed", "count", total(|s| s.shed_requests));
    layers.put(
        "runtime.rejected",
        "count",
        total(|s| s.overload_rejections),
    );
    layers.put("runtime.lost", "count", total(|s| s.requests_lost));
    let worst = |f: fn(&ShardStats) -> f64| trace.stats.iter().map(f).fold(0.0, f64::max);
    layers.put(
        "shard.service_ms_p50",
        "ms",
        worst(|s| s.service_time_p50_us) / 1e3,
    );
    layers.put(
        "shard.service_ms_p99",
        "ms",
        worst(|s| s.service_time_p99_us) / 1e3,
    );
    let (all_parts, all_whole): (Vec<Parts>, Vec<u64>) = by_kind
        .values()
        .flat_map(|(p, w)| p.iter().copied().zip(w.iter().copied()))
        .unzip();
    layers.put(
        "trace.attribution_gap_frac",
        "frac",
        stats::attribution_gap_frac(&all_parts, &all_whole),
    );
    for (kind, (parts, whole)) in &by_kind {
        layers.note(
            &format!("trace.attribution_gap_frac.{}", kind.name()),
            "frac",
            stats::attribution_gap_frac(parts, whole),
        );
    }
}

/// Serial `ValidationService::handle` timings and the supervisor's anchors.
fn service_and_supervisor(layers: &mut Layers, log: &Log, replay: &Replay) {
    let mut all = Vec::new();
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for &(id, ns) in replay.shards.iter().flat_map(|s| s.service_ns.iter()) {
        let rec = &log.recs[id as usize];
        if rec.phase.measured() {
            all.push(ns as f64);
            by_kind.entry(rec.kind).or_default().push(ns as f64);
        }
    }
    layers.pair("service.handle_ms", "ms", &all, 1e-6, true);
    let busy_ns: f64 = all.iter().sum();
    layers.put("service.busy_s", "s", busy_ns / 1e9);
    for (kind, values) in &by_kind {
        let name = format!("service.{}_ms", kind.name());
        layers.pair(&name, "ms", values, 1e-6, false);
        layers.note(
            &format!("service.{}_busy_s", kind.name()),
            "s",
            values.iter().sum::<f64>() / 1e9,
        );
    }
    let anchors: Vec<&verify::Anchor> = replay
        .shards
        .iter()
        .flat_map(|s| s.anchors.iter())
        .collect();
    let anchor_ms: Vec<f64> = anchors.iter().map(|a| a.ns as f64).collect();
    layers.pair("supervisor.anchor_ms", "ms", &anchor_ms, 1e-6, true);
    let kb = Summary::of(anchors.iter().map(|a| a.bytes as f64 / 1024.0).collect());
    layers.put("supervisor.anchor_kb_p50", "KiB", kb.map_or(0.0, |s| s.p50));
    let anchor_ns: f64 = anchor_ms.iter().sum();
    let handle_ns: f64 = replay
        .shards
        .iter()
        .flat_map(|s| s.service_ns.iter())
        .map(|&(_, ns)| ns as f64)
        .sum();
    layers.put(
        "supervisor.anchor_busy_frac",
        "frac",
        ratio(anchor_ns, anchor_ns + handle_ns),
    );
    let recover_ns: u64 = replay.shards.iter().map(|s| s.recover_ns).sum();
    layers.put("supervisor.recover_ms", "ms", recover_ns as f64 / 1e6);
}

/// Accepted requests of each tenant in the order the runtime received them.
fn per_tenant_order(log: &Log, tenants: usize, sent: &[(u64, u64)]) -> Vec<Vec<u64>> {
    let mut order = vec![Vec::new(); tenants];
    for id in verify::accepted(log, sent) {
        order[log.recs[id as usize].tenant as usize].push(id);
    }
    order
}

/// A session built exactly as the service builds one for
/// [`task_config`]; the replay fails the run if its guidance picks ever
/// differ from the service's, so the mirror cannot drift.
fn mirror_session() -> ValidationSession {
    let config = task_config();
    let mut session = ValidationSessionBuilder::empty(LABELS.len())
        .strategy(Box::new(HybridStrategy::with_uncertainty(
            UncertaintyDriven::new(),
            config.seed,
        )))
        .config(ProcessConfig {
            budget: config.budget,
            handle_faulty_workers: config.handle_faulty_workers,
            trust: TrustConfig::streaming_default(),
            triage: TriageConfig::calibrated(),
            ..ProcessConfig::default()
        })
        .try_build()
        .expect("the mirrored configuration is valid");
    session.enable_delta_log();
    session
}

fn label_id(label: &str) -> LabelId {
    LabelId(
        LABELS
            .iter()
            .position(|l| *l == label)
            .expect("generated labels"),
    )
}

/// Dense votes of a client batch, interned in the order the service
/// interns them (object, then worker, vote by vote).
fn dense_votes(
    votes: &[crowdval_service::ClientVote],
    objects: &mut IdInterner,
    workers: &mut IdInterner,
) -> Vec<Vote> {
    votes
        .iter()
        .map(|v| {
            Vote::new(
                ObjectId(objects.intern(&v.object)),
                WorkerId(workers.intern(&v.worker)),
                label_id(&v.label),
            )
        })
        .collect()
}

/// Runs `f` over each shard's tenants (their accepted requests in order) on
/// a thread per shard, as the live runtime does, and merges the results.
fn per_shard<T: Send + Default>(
    log: &Log,
    tenants: &[Tenant],
    sent: &[(u64, u64)],
    f: impl Fn(&[Vec<u64>]) -> T + Sync,
    merge: impl Fn(&mut T, T),
) -> T {
    let mut groups: Vec<Vec<Vec<u64>>> = vec![Vec::new(); SHARDS];
    for (t, ids) in per_tenant_order(log, tenants.len(), sent)
        .into_iter()
        .enumerate()
    {
        groups[shard_for_task(&tenants[t].name, SHARDS)].push(ids);
    }
    let parts: Vec<T> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = groups.iter().map(|g| scope.spawn(move || f(g))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut total = T::default();
    for part in parts {
        merge(&mut total, part);
    }
    total
}

/// What the direct-session replay measured.
#[derive(Default)]
struct SessionTrace {
    ingest: Vec<f64>,
    select: Vec<f64>,
    integrate: Vec<f64>,
    em_iterations: usize,
    selects: usize,
    evaluated: usize,
    cached: usize,
    hyp_em: usize,
    scored: u64,
    finalized: u64,
    validations: u64,
    mismatched_picks: usize,
}

impl SessionTrace {
    fn merge(&mut self, other: SessionTrace) {
        self.ingest.extend(other.ingest);
        self.select.extend(other.select);
        self.integrate.extend(other.integrate);
        self.em_iterations += other.em_iterations;
        self.selects += other.selects;
        self.evaluated += other.evaluated;
        self.cached += other.cached;
        self.hyp_em += other.hyp_em;
        self.scored += other.scored;
        self.finalized += other.finalized;
        self.validations += other.validations;
        self.mismatched_picks += other.mismatched_picks;
    }
}

/// One shard's tenants through a mirrored `ValidationSession` each.
fn replay_sessions(log: &Log, tenants: &[Vec<u64>]) -> SessionTrace {
    let mut out = SessionTrace::default();
    for ids in tenants {
        let mut session: Option<ValidationSession> = None;
        let (mut objects, mut workers) = (IdInterner::new(), IdInterner::new());
        for &id in ids {
            let rec = &log.recs[id as usize];
            if let Request::CreateTask { .. } = rec.request {
                session = Some(mirror_session());
                continue;
            }
            let s = session.as_mut().expect("tasks are created first");
            match &rec.request {
                Request::SubmitVotes { votes, .. } => {
                    let dense = dense_votes(votes, &mut objects, &mut workers);
                    let t = Instant::now();
                    let update = s.ingest(&dense).expect("accepted batches ingest");
                    out.ingest.push(t.elapsed().as_nanos() as f64);
                    out.em_iterations += update.em_iterations;
                }
                Request::RequestGuidance { .. } => {
                    let t = Instant::now();
                    let pick = s.select_next();
                    out.select.push(t.elapsed().as_nanos() as f64);
                    let telemetry = s.last_guidance_telemetry();
                    out.selects += 1;
                    out.evaluated += telemetry.evaluated;
                    out.cached += telemetry.served_from_cache;
                    out.hyp_em += telemetry.em_iterations;
                    let pick = pick.map(|o| objects.name(o.index()).unwrap_or("?").to_string());
                    let served = verify::parse_reply(rec.reply.as_deref());
                    if let Ok(Response::Guidance { object, .. }) = served.result() {
                        out.mismatched_picks += usize::from(*object != pick);
                    }
                }
                Request::SubmitValidation { object, label, .. } => {
                    let o = ObjectId(objects.get(object).expect("validated objects are known"));
                    let t = Instant::now();
                    s.integrate(o, label_id(label))
                        .expect("accepted validations integrate");
                    out.integrate.push(t.elapsed().as_nanos() as f64);
                }
                Request::Snapshot { .. } => {
                    s.snapshot().expect("sessions snapshot");
                }
                _ => {}
            }
        }
        if let Some(s) = &session {
            let c = s.triage_counters();
            out.scored += c.scored;
            out.finalized += c.auto_finalized;
            out.validations += s.iterations() as u64;
        }
    }
    out
}

/// Direct `ValidationSession` replay per tenant: ingest, select and
/// integrate timings, EM iterations, guidance-cache and triage counters.
/// Returns whether every guidance pick matched the served one.
fn session_replay(layers: &mut Layers, log: &Log, tenants: &[Tenant], sent: &[(u64, u64)]) -> bool {
    let t = per_shard(
        log,
        tenants,
        sent,
        |g| replay_sessions(log, g),
        SessionTrace::merge,
    );
    layers.pair("session.ingest_ms", "ms", &t.ingest, 1e-6, true);
    layers.put(
        "session.em_iterations_per_batch",
        "count",
        ratio(t.em_iterations as f64, t.ingest.len() as f64),
    );
    layers.pair("session.select_ms", "ms", &t.select, 1e-6, false);
    layers.pair("session.integrate_ms", "ms", &t.integrate, 1e-6, false);
    let selects = t.selects as f64;
    layers.put(
        "guidance.evaluated_per_select",
        "count",
        ratio(t.evaluated as f64, selects),
    );
    layers.put(
        "guidance.cache_hit_ratio",
        "frac",
        ratio(t.cached as f64, (t.evaluated + t.cached) as f64),
    );
    layers.put(
        "guidance.hyp_em_iterations_per_select",
        "count",
        ratio(t.hyp_em as f64, selects),
    );
    layers.put("triage.scored", "count", t.scored as f64);
    layers.put("triage.auto_finalized", "count", t.finalized as f64);
    layers.put(
        "triage.queries_saved_frac",
        "frac",
        ratio(t.finalized as f64, (t.finalized + t.validations) as f64),
    );
    t.mismatched_picks == 0
}

/// What the model and aggregation replay measured.
#[derive(Default)]
struct ModelTrace {
    append_ns: u64,
    sync_ns: u64,
    estep_ns_per_vote: Vec<f64>,
    votes: usize,
    bytes: usize,
    arrival: Vec<f64>,
}

impl ModelTrace {
    fn merge(&mut self, other: ModelTrace) {
        self.append_ns += other.append_ns;
        self.sync_ns += other.sync_ns;
        self.estep_ns_per_vote.extend(other.estep_ns_per_vote);
        self.votes += other.votes;
        self.bytes += other.bytes;
        self.arrival.extend(other.arrival);
    }
}

/// One shard's tenants' vote streams through a bare `AnswerSet` and
/// `IncrementalEm`.
fn replay_model(log: &Log, tenants: &[Vec<u64>]) -> ModelTrace {
    let em = IncrementalEm::new(EmConfig::default());
    let mut out = ModelTrace::default();
    for ids in tenants {
        let mut answers = AnswerSet::new(0, 0, LABELS.len());
        let (mut objects, mut workers) = (IdInterner::new(), IdInterner::new());
        let mut previous = None;
        for &id in ids {
            let Request::SubmitVotes { votes, .. } = &log.recs[id as usize].request else {
                continue;
            };
            let dense = dense_votes(votes, &mut objects, &mut workers);
            let t = Instant::now();
            for &vote in &dense {
                answers
                    .record_arrival(vote)
                    .expect("generated labels are in range");
            }
            out.append_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            answers.sync_compact_views();
            out.sync_ns += t.elapsed().as_nanos() as u64;
            out.votes += dense.len();
            let expert = ExpertValidation::empty(answers.num_objects());
            let mut touched: Vec<ObjectId> = dense.iter().map(|v| v.object).collect();
            touched.sort();
            touched.dedup();
            let t = Instant::now();
            let state = match &previous {
                None => em.conclude(&answers, &expert, None),
                Some(p) => em.conclude_arrival(&answers, &expert, p, &touched),
            };
            out.arrival.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            std::hint::black_box(expectation_step(
                &answers,
                &expert,
                state.confusions(),
                state.priors(),
            ));
            let held = answers.matrix().num_answers().max(1) as f64;
            out.estep_ns_per_vote
                .push(t.elapsed().as_nanos() as f64 / held);
            previous = Some(state);
        }
        out.bytes += answers.matrix().memory_footprint().total_bytes();
    }
    out
}

/// Standalone replay of each tenant's dense vote stream through the model
/// and aggregation layers: `AnswerSet::record_arrival`,
/// `sync_compact_views`, `IncrementalEm::conclude_arrival` and one
/// `expectation_step` per batch.
fn model_replay(layers: &mut Layers, log: &Log, tenants: &[Tenant], sent: &[(u64, u64)]) {
    let t = per_shard(
        log,
        tenants,
        sent,
        |g| replay_model(log, g),
        ModelTrace::merge,
    );
    let votes = t.votes as f64;
    layers.put(
        "model.append_ns_per_vote",
        "ns",
        ratio(t.append_ns as f64, votes),
    );
    layers.put(
        "model.sync_ns_per_vote",
        "ns",
        ratio(t.sync_ns as f64, votes),
    );
    layers.put("model.bytes_per_vote", "B", ratio(t.bytes as f64, votes));
    layers.pair("aggregation.arrival_ms", "ms", &t.arrival, 1e-6, true);
    let estep = Summary::of(t.estep_ns_per_vote);
    layers.put(
        "aggregation.estep_ns_per_vote",
        "ns",
        estep.map_or(0.0, |s| s.p50),
    );
}

/// Delta-checkpoint sizes from the run's replies and the trust ledgers of
/// the replayed services.
fn wal_and_trust(layers: &mut Layers, log: &Log, replay: &mut Replay) {
    let mut events = Vec::new();
    let mut kb = Vec::new();
    for rec in log.recs.iter().filter(|r| r.kind == Kind::Delta && r.ok) {
        let line = rec.reply.as_deref().expect("answered");
        kb.push(line.len() as f64 / 1024.0);
        if let Ok(Response::SnapshotDelta { events: e, .. }) =
            verify::parse_reply(Some(line)).result()
        {
            events.push(*e as f64);
        }
    }
    let events = Summary::of(events);
    layers.put(
        "wal.delta_events_p50",
        "count",
        events.map_or(0.0, |s| s.p50),
    );
    layers.put(
        "wal.delta_kb_p99",
        "KiB",
        Summary::of(kb).map_or(0.0, |s| s.tail),
    );
    let (mut batches, mut exclusions, mut reinstatements) = (0u64, 0u64, 0u64);
    for service in replay.shards.iter_mut().filter_map(|s| s.service.as_mut()) {
        for task in service.task_names() {
            if let Ok(Response::WorkerTrust {
                batches_observed,
                exclusions: e,
                reinstatements: r,
                ..
            }) = service.handle_request(&Request::QueryWorkerTrust { task })
            {
                batches += batches_observed;
                exclusions += e;
                reinstatements += r;
            }
        }
    }
    layers.put("trust.batches_observed", "count", batches as f64);
    layers.put("trust.exclusions", "count", exclusions as f64);
    layers.put("trust.reinstatements", "count", reinstatements as f64);
}
