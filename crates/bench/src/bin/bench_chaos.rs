//! Chaos harness for the self-healing shard runtime: drives the paper
//! crowd — [`crowdval_sim::ChaosConfig`]'s multi-tenant scripts over the
//! paper-default synthetic population — through a supervised
//! [`ShardRuntime`] while a seeded [`FaultPlan`] kills **every shard at
//! least once** mid-stream, then proves the recovered state is
//! bit-identical to a serial replay of exactly the acknowledged requests,
//! and records the cost of the crashes as `BENCH_chaos.json` (restarts,
//! recovery latency, requests lost and shed, accuracy delta against an
//! unfailed run of the full script).
//!
//! Crash points interleave with live traffic on real threads, so the lost,
//! shed and recovery numbers vary from run to run at the fixed seed. The
//! seeded scenario therefore runs [`REPETITIONS`] times per invocation; the
//! report gives each count's min, median and max, and `--check` judges
//! every repetition.
//!
//! An unfailed `dispatch` arm prices the dispatch layer: a stream of many
//! tiny tenants through one unsupervised shard against the same stream
//! through one single-threaded [`ValidationService`], in
//! [`DISPATCH_PAIRS`] back-to-back pairs of passes, so host drift lands on
//! both sides of each pair's ratio instead of between two blocks of reps.
//!
//! Usage: `bench_chaos [--quick] [--check] [--out <path>]`
//!
//! `--quick` trims the crowd for CI smoke runs; `--check` exits non-zero
//! unless, in every repetition, the recovered state equals the serial
//! replay *and* every shard was restarted at least once (a chaos run in
//! which no shard died proves nothing), or when the median per-pair 1-shard
//! dispatch throughput falls below 0.9x the serial loop's.

use crowdval_bench::harness::{host_cpus, BenchArgs};
use crowdval_service::{
    ClientVote, Dispatch, FaultKind, FaultPlan, OverloadPolicy, Reply, ReplyOutcome, Request,
    RequestEnvelope, Response, RuntimeConfig, ServiceError, ShardRuntime, StrategyChoice,
    SupervisionConfig, TaskConfig, UnavailableReason, ValidationService,
};
use crowdval_sim::{ChaosConfig, ChaosStep, ChaosTenant};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const SEED: u64 = 0xC0FF_EE00;
/// Runs of the seeded chaos scenario per invocation.
const REPETITIONS: usize = 9;

/// One tenant's script as wire requests: create (WAL + triage on, so
/// recovery exercises the delta log and triage scorer), then the chaos
/// steps in arrival order.
fn tenant_requests(tenant: &ChaosTenant, index: usize) -> Vec<Request> {
    let mut requests = vec![Request::CreateTask {
        task: tenant.task.clone(),
        labels: tenant.labels.clone(),
        config: TaskConfig {
            strategy: match index % 3 {
                0 => StrategyChoice::Hybrid,
                1 => StrategyChoice::UncertaintyDriven,
                _ => StrategyChoice::EntropyBaseline,
            },
            seed: index as u64,
            shortlist: Some(6),
            wal: true,
            triage: true,
            ..TaskConfig::default()
        },
    }];
    for step in &tenant.steps {
        requests.push(match step {
            ChaosStep::Votes(batch) => Request::SubmitVotes {
                task: tenant.task.clone(),
                votes: batch
                    .iter()
                    .map(|v| ClientVote {
                        worker: v.worker.clone(),
                        object: v.object.clone(),
                        label: v.label.clone(),
                    })
                    .collect(),
            },
            ChaosStep::Guidance => Request::RequestGuidance {
                task: tenant.task.clone(),
            },
            ChaosStep::Validate { object, label } => Request::SubmitValidation {
                task: tenant.task.clone(),
                object: object.clone(),
                label: label.clone(),
            },
            ChaosStep::Probe { object } => Request::QueryPosterior {
                task: tenant.task.clone(),
                object: object.clone(),
            },
        });
    }
    requests
}

/// The verification probes of one tenant: every object's posterior, the
/// worker-trust ledger and the triage stats — the full observable state
/// the equality gate compares.
fn probe_requests(tenant: &ChaosTenant) -> Vec<Request> {
    let mut list: Vec<Request> = tenant
        .truth
        .iter()
        .map(|(object, _)| Request::QueryPosterior {
            task: tenant.task.clone(),
            object: object.clone(),
        })
        .collect();
    list.push(Request::QueryWorkerTrust {
        task: tenant.task.clone(),
    });
    list.push(Request::TriageStats {
        task: tenant.task.clone(),
    });
    list
}

/// Decision accuracy of a set of posterior replies against ground truth.
fn accuracy(replies: &[(String, Reply)], truth: &HashMap<(String, String), String>) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (task, reply) in replies {
        if let ReplyOutcome::Ok(Response::Posterior { object, label, .. }) = &reply.outcome {
            if let Some(expected) = truth.get(&(task.clone(), object.clone())) {
                total += 1;
                if expected == label {
                    correct += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// One run of the seeded chaos scenario.
#[derive(Debug, Serialize)]
struct ChaosRun {
    acknowledged: usize,
    requests_lost: usize,
    requests_shed: usize,
    restarts_total: u64,
    min_restarts_per_shard: u64,
    mean_recovery_us_per_restart: f64,
    state_identical: bool,
    accuracy_chaos: f64,
    ingest_wall_s: f64,
    drain_wall_s: f64,
}

/// A count's spread over the repetitions.
#[derive(Debug, Serialize)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Spread {
            min: values[0],
            median: values[values.len() / 2],
            max: values[values.len() - 1],
        }
    }
}

fn spread(runs: &[ChaosRun], count: impl Fn(&ChaosRun) -> f64) -> Spread {
    Spread::of(runs.iter().map(count).collect())
}

#[derive(Debug, Serialize)]
struct ChaosReport {
    quick: bool,
    seed: u64,
    host_cpus: usize,
    shards: usize,
    tenants: usize,
    total_requests: usize,
    faults_injected: usize,
    repetitions: usize,
    acknowledged: Spread,
    requests_lost: Spread,
    requests_shed: Spread,
    restarts_total: Spread,
    mean_recovery_us_per_restart: Spread,
    /// Accuracy of the serial run of the full script minus the chaos run's.
    accuracy_delta: Spread,
    accuracy_unfailed: f64,
    runs: Vec<ChaosRun>,
    dispatch: DispatchReport,
}

/// A crash plan that hits every shard while its mutation stream is still
/// flowing: each shard dies once early (Panic or Kill, seeded), stalls
/// once, then dies a second time — all within the first dozen worker
/// arrivals, which every shard is guaranteed to see (checked in `main`)
/// because each tenant script alone is longer than that.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::seeded_crashes(SEED, SHARDS, 2, 6);
    for shard in 0..SHARDS {
        plan.push(shard, 8, FaultKind::Stall { ms: 1 });
        plan.push(shard, 10 + shard as u64, FaultKind::Panic);
    }
    plan
}

/// One supervised run of the tenant scripts under [`fault_plan`], its
/// recovered state compared with a serial replay of the acknowledged
/// requests.
fn chaos_run(
    tenants: &[ChaosTenant],
    scripts: &[Vec<Request>],
    truth: &HashMap<(String, String), String>,
) -> ChaosRun {
    // A small mailbox on purpose: back-pressure keeps the dispatcher in
    // step with the workers, so crashes interleave with live traffic
    // instead of flushing one giant pre-queued backlog.
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: SHARDS,
        mailbox_capacity: 8,
        overload: OverloadPolicy::Block,
        supervision: SupervisionConfig {
            checkpoint_every: 4, // small: recovery exercises anchor + delta log
            ..SupervisionConfig::chaos()
        },
    });
    assert_eq!(
        runtime.submit(RequestEnvelope::new(
            1,
            Request::FaultInject { plan: fault_plan() }
        )),
        Dispatch::Answered
    );

    // Interleave the tenant streams round-robin and record every envelope,
    // so the acknowledged subset can be replayed serially afterwards.
    let mut submitted: BTreeMap<u64, (usize, Request)> = BTreeMap::new();
    let mut shed_dispatch = 0usize;
    let mut next_id = 2u64;
    let ingest_clock = Instant::now();
    for (tenant, request) in round_robin(scripts) {
        submitted.insert(next_id, (tenant, request.clone()));
        if let Dispatch::Shed { .. } = runtime.submit(RequestEnvelope::new(next_id, request)) {
            shed_dispatch += 1;
        }
        next_id += 1;
    }
    let ingest_wall_s = ingest_clock.elapsed().as_secs_f64();

    // Drain, settle, heal. Two effects interleave here: (a) workers run
    // behind the dispatcher, so replies lag the submissions; (b) a crash
    // flushes its queued mailbox as `RequestLost` — flushed requests never
    // reach a worker and therefore never advance the fault-arrival
    // counters, so with a short script the later faults can still be
    // pending after every scripted request is answered. Alternate between
    // `Health` heartbeats (restart dead shards, flush their reply-less
    // requests) and sacrificial read-only probes (push every shard's
    // arrival counter forward) until every submitted id has exactly one
    // reply *and* the fault registry reports zero pending faults.
    let drain_clock = Instant::now();
    let mut seen: HashMap<u64, Reply> = HashMap::new();
    let collect = |seen: &mut HashMap<u64, Reply>, replies: &Receiver<Reply>| {
        while let Ok(reply) = replies.recv_timeout(Duration::from_millis(20)) {
            assert!(
                seen.insert(reply.request_id, reply).is_none(),
                "duplicate reply for a correlation id"
            );
        }
    };
    let drain_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        collect(&mut seen, &replies);
        assert!(
            Instant::now() < drain_deadline,
            "replies never drained: {} of {}",
            seen.len(),
            next_id - 1
        );
        if !(1..next_id).all(|id| seen.contains_key(&id)) {
            runtime.submit(RequestEnvelope::new(next_id, Request::Health));
            next_id += 1;
            continue;
        }
        // Everything answered — are all injected faults spent? (An empty
        // plan arms nothing; the reply carries the pending count.)
        let poll_id = next_id;
        runtime.submit(RequestEnvelope::new(
            poll_id,
            Request::FaultInject {
                plan: FaultPlan::new(),
            },
        ));
        next_id += 1;
        while !seen.contains_key(&poll_id) {
            collect(&mut seen, &replies);
            assert!(
                Instant::now() < drain_deadline,
                "fault poll reply never arrived"
            );
        }
        let pending = match &seen[&poll_id].outcome {
            ReplyOutcome::Ok(Response::FaultInjected { pending, .. }) => *pending,
            other => panic!("fault poll failed: {other:?}"),
        };
        if pending == 0 {
            break;
        }
        for tenant in tenants {
            runtime.submit(RequestEnvelope::new(
                next_id,
                Request::QueryPosterior {
                    task: tenant.task.clone(),
                    object: tenant.truth[0].0.clone(),
                },
            ));
            next_id += 1;
        }
    }
    let drain_wall_s = drain_clock.elapsed().as_secs_f64();

    // All faults are spent, so the probes observe final recovered state.
    // Probes are read-only and idempotent, and `TriageStats` is sheddable:
    // under the small chaos mailbox a probe burst can cross the shed
    // watermark, so shed probes are resubmitted after the advertised
    // `retry_after_ms` — exactly the client retry contract the protocol
    // documents.
    let mut probe_ids: BTreeMap<u64, (usize, Request)> = BTreeMap::new();
    let mut outstanding: Vec<(usize, Request)> = tenants
        .iter()
        .enumerate()
        .flat_map(|(tenant_index, tenant)| {
            probe_requests(tenant)
                .into_iter()
                .map(move |request| (tenant_index, request))
        })
        .collect();
    while !outstanding.is_empty() {
        let mut batch: Vec<u64> = Vec::new();
        for (tenant_index, request) in outstanding.drain(..) {
            probe_ids.insert(next_id, (tenant_index, request.clone()));
            runtime.submit(RequestEnvelope::new(next_id, request));
            batch.push(next_id);
            next_id += 1;
        }
        loop {
            collect(&mut seen, &replies);
            if batch.iter().all(|id| seen.contains_key(id)) {
                break;
            }
            assert!(
                Instant::now() < drain_deadline,
                "probe replies never drained"
            );
        }
        let mut backoff_ms = 0u64;
        for id in batch {
            if let Err(ServiceError::Unavailable {
                reason: UnavailableReason::Shed,
                retry_after_ms,
                ..
            }) = seen[&id].result()
            {
                backoff_ms = backoff_ms.max(*retry_after_ms);
                // Retire the shed attempt; only the successful retry takes
                // part in the equality comparison.
                let retry = probe_ids.remove(&id).expect("own probe id");
                outstanding.push(retry);
            }
        }
        if !outstanding.is_empty() {
            std::thread::sleep(Duration::from_millis(backoff_ms.max(1)));
        }
    }
    let health_id = next_id;
    runtime.submit(RequestEnvelope::new(health_id, Request::Health));
    next_id += 1;
    let report = runtime.shutdown();
    for reply in replies {
        assert!(
            seen.insert(reply.request_id, reply).is_none(),
            "duplicate reply for a correlation id"
        );
    }
    assert_eq!(seen.len() as u64, next_id - 1, "a reply per request");
    assert!(
        report.is_clean(),
        "shutdown after healing must be clean: {report:?}"
    );

    let shards_health = match &seen[&health_id].outcome {
        ReplyOutcome::Ok(Response::Health { shards }) => shards.clone(),
        other => panic!("health probe failed: {other:?}"),
    };
    let restarts_total: u64 = shards_health.iter().map(|h| h.restarts).sum();
    let min_restarts = shards_health.iter().map(|h| h.restarts).min().unwrap_or(0);
    let recovery_us_total: u64 = shards_health.iter().map(|h| h.recovery_us).sum();

    // Lost/shed tallies cover the scripted traffic only — the sacrificial
    // settling probes are harness overhead, not workload.
    let unavailable = |reason: UnavailableReason| {
        submitted
            .keys()
            .filter(|id| {
                matches!(seen[id].result(),
                    Err(ServiceError::Unavailable { reason: r, .. }) if *r == reason)
            })
            .count()
    };
    let requests_lost = unavailable(UnavailableReason::RequestLost);
    // Dispatch-shed requests also get a typed `Unavailable { Shed }` reply,
    // so the reply count is the full tally; the dispatch count cross-checks
    // that no shed happened reply-lessly.
    let requests_shed = unavailable(UnavailableReason::Shed);
    assert!(
        requests_shed >= shed_dispatch,
        "shed replies cover dispatch sheds"
    );
    let acknowledged = submitted
        .keys()
        .filter(|id| seen[id].result().is_ok())
        .count();

    // Serial ground truth: per tenant, replay only the Ok-replied mutating
    // requests in correlation-id order on a fresh single-threaded service,
    // then compare the serialized probe responses bit-for-bit.
    let mut state_identical = true;
    let mut chaos_posteriors: Vec<(String, Reply)> = Vec::new();
    for (tenant_index, tenant) in tenants.iter().enumerate() {
        let mut service = ValidationService::new();
        let own = |(_, (t, _)): &(&u64, &(usize, Request))| *t == tenant_index;
        for (id, (_, request)) in submitted.iter().filter(own) {
            if !request.is_mutating() || seen[id].result().is_err() {
                continue;
            }
            let replay = service.reply(&RequestEnvelope::latest(request.clone()));
            assert!(
                replay.result().is_ok(),
                "acknowledged request {id} must replay cleanly: {:?}",
                replay.result()
            );
        }
        for (id, (_, request)) in probe_ids.iter().filter(own) {
            let serial = service.reply(&RequestEnvelope::latest(request.clone()));
            let chaos_json = serde_json::to_string(&seen[id].outcome).unwrap();
            let serial_json = serde_json::to_string(&serial.outcome).unwrap();
            if chaos_json != serial_json {
                eprintln!(
                    "DIVERGED task {}: {request:?}\n  chaos : {chaos_json}\n  serial: {serial_json}",
                    tenant.task
                );
                state_identical = false;
            }
            if matches!(request, Request::QueryPosterior { .. }) {
                chaos_posteriors.push((tenant.task.clone(), seen[id].clone()));
            }
        }
    }

    ChaosRun {
        acknowledged,
        requests_lost,
        requests_shed,
        restarts_total,
        min_restarts_per_shard: min_restarts,
        mean_recovery_us_per_restart: if restarts_total == 0 {
            0.0
        } else {
            recovery_us_total as f64 / restarts_total as f64
        },
        state_identical,
        accuracy_chaos: accuracy(&chaos_posteriors, truth),
        ingest_wall_s,
        drain_wall_s,
    }
}

/// Wall times of the `dispatch` arm are best-of-N per side: the gate
/// compares a ratio of two measurements, and on a shared few-CPU host each
/// individual wall is ±25% noisy.
/// Serial / 1-shard pass pairs the dispatch arm times (odd, so the median
/// is one pair's ratio).
const DISPATCH_PAIRS: usize = 11;

#[derive(Debug, Serialize)]
struct DispatchReport {
    scenario: String,
    requests: usize,
    pairs: usize,
    /// Median pass wall times over the pairs.
    serial_wall_ms: f64,
    one_shard_wall_ms: f64,
    /// Per-pair 1-shard throughput over the serial loop's; the median is
    /// gated at 0.9x.
    one_shard_vs_serial: Spread,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One tiny tenant's scripted stream: create, three 12-vote batches, two
/// guidance/validation rounds (validating *fixed* objects so the stream is
/// reply-independent), a snapshot, and — for every second tenant — a close.
fn dispatch_script(index: usize) -> Vec<Request> {
    const LABELS: [&str; 2] = ["neg", "pos"];
    let task = format!("tenant-{index}");
    let mut rng = 0x5eed_0000 + index as u64;
    let mut script = vec![Request::CreateTask {
        task: task.clone(),
        labels: LABELS.iter().map(|&l| l.to_string()).collect(),
        config: TaskConfig {
            strategy: match index % 5 {
                0 => StrategyChoice::Hybrid,
                1 => StrategyChoice::UncertaintyDriven,
                2 => StrategyChoice::WorkerDriven,
                3 => StrategyChoice::EntropyBaseline,
                _ => StrategyChoice::Random,
            },
            seed: index as u64,
            shortlist: Some(8),
            ..TaskConfig::default()
        },
    }];
    for batch in 0..3 {
        let votes = (0..12)
            .map(|i| ClientVote {
                worker: format!("w{}", i % 6),
                object: format!("o{}", (i + batch) % 12),
                label: LABELS[(splitmix(&mut rng) % 2) as usize].to_string(),
            })
            .collect();
        script.push(Request::SubmitVotes {
            task: task.clone(),
            votes,
        });
    }
    for round in 0..2 {
        script.push(Request::RequestGuidance { task: task.clone() });
        script.push(Request::SubmitValidation {
            task: task.clone(),
            object: format!("o{round}"),
            label: LABELS[(splitmix(&mut rng) % 2) as usize].to_string(),
        });
    }
    script.push(Request::Snapshot { task: task.clone() });
    if index.is_multiple_of(2) {
        script.push(Request::CloseTask { task });
    }
    script
}

/// Each tenant's serialized final snapshot, by task name.
type Snapshots = BTreeMap<String, String>;

fn record_snapshot(reply: &Reply, snapshots: &mut Snapshots) {
    if let ReplyOutcome::Ok(Response::Snapshot { task, snapshot }) = &reply.outcome {
        let json = serde_json::to_string(snapshot).expect("snapshot serializes");
        snapshots.insert(task.clone(), json);
    }
}

/// The whole stream through one single-threaded service, in order.
/// Returns the wall time and the tenants' snapshots.
fn serial_pass(stream: &[RequestEnvelope]) -> (f64, Snapshots) {
    let mut service = ValidationService::new();
    let mut snapshots = Snapshots::new();
    let clock = Instant::now();
    for envelope in stream {
        record_snapshot(&service.reply(envelope), &mut snapshots);
    }
    (clock.elapsed().as_secs_f64(), snapshots)
}

/// The stream through one unsupervised shard whose mailbox holds all of
/// it, so the submitting thread never blocks on a full mailbox: on a
/// few-CPU host the measurement is then not dominated by one
/// wake-the-submitter context switch per served request. The clock stops
/// when the shard counters show every request served. **Nothing receives
/// replies while the clock runs** — they buffer in the reply channel, so
/// each send is a plain enqueue instead of a wake-the-collector context
/// switch, which would bill scheduler overhead to the dispatch layer.
/// Replies are drained afterwards. Returns the wall time and the tenants'
/// snapshots.
fn one_shard_pass(stream: &[RequestEnvelope], per_request_hint_s: f64) -> (f64, Snapshots) {
    let total = stream.len();
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: 1,
        mailbox_capacity: total,
        overload: OverloadPolicy::Block,
        ..RuntimeConfig::default()
    });
    // Clone the stream before starting the clock: the serial pass replays
    // by reference, so paying the deep copies inside the timed window
    // would charge an allocation artifact to the dispatch layer.
    let envelopes = stream.to_vec();
    let clock = Instant::now();
    for envelope in envelopes {
        match runtime.submit(envelope) {
            Dispatch::Enqueued { .. } => {}
            other => panic!("blocking submit must enqueue, got {other:?}"),
        }
    }
    // The poll backs off proportionally to the estimated remaining work
    // (halving each time), so completion is detected within ~50µs using
    // only ~log-many wakeups — a fixed fine-grained poll would preempt
    // the draining worker thousands of times on a few-CPU host and bill
    // that to the dispatch layer.
    loop {
        let served: u64 = runtime.stats().iter().map(|s| s.requests_served).sum();
        if served == total as u64 {
            break;
        }
        let remaining = (total as u64 - served) as f64;
        let sleep_s = (remaining * per_request_hint_s * 0.4).clamp(50e-6, 20e-3);
        std::thread::sleep(Duration::from_secs_f64(sleep_s));
    }
    let wall_s = clock.elapsed().as_secs_f64();
    runtime.shutdown();
    let mut snapshots = Snapshots::new();
    let mut drained = 0usize;
    for reply in replies {
        drained += 1;
        record_snapshot(&reply, &mut snapshots);
    }
    assert_eq!(drained, total, "a reply per request");
    (wall_s, snapshots)
}

/// [`DISPATCH_PAIRS`] back-to-back pairs of one serial pass and one
/// 1-shard pass over the same tiny-tenant stream; each pair gives one
/// throughput ratio.
fn dispatch_arm(quick: bool) -> DispatchReport {
    let tasks = if quick { 200 } else { 1000 };
    let scripts: Vec<Vec<Request>> = (0..tasks).map(dispatch_script).collect();
    let stream: Vec<RequestEnvelope> = round_robin(&scripts)
        .into_iter()
        .zip(1u64..)
        .map(|((_, request), id)| RequestEnvelope::new(id, request))
        .collect();
    // An untimed warm-up pass yields the reference snapshots.
    let (_, reference) = serial_pass(&stream);
    assert_eq!(reference.len(), tasks, "every tenant snapshots");
    let walls: Vec<(f64, f64)> = (0..DISPATCH_PAIRS)
        .map(|_| {
            let (serial_wall_s, _) = serial_pass(&stream);
            let (one_shard_wall_s, snapshots) =
                one_shard_pass(&stream, serial_wall_s / stream.len() as f64);
            assert_eq!(
                snapshots, reference,
                "1-shard snapshots diverged from serial"
            );
            (serial_wall_s, one_shard_wall_s)
        })
        .collect();
    DispatchReport {
        scenario: format!("{tasks} tiny tenants of mixed traffic, round-robin, unsupervised"),
        requests: stream.len(),
        pairs: DISPATCH_PAIRS,
        serial_wall_ms: Spread::of(walls.iter().map(|w| w.0 * 1e3).collect()).median,
        one_shard_wall_ms: Spread::of(walls.iter().map(|w| w.1 * 1e3).collect()).median,
        one_shard_vs_serial: Spread::of(walls.iter().map(|w| w.0 / w.1.max(1e-12)).collect()),
    }
}

/// Interleaves per-tenant request scripts round-robin into one stream of
/// `(tenant index, request)`; per-tenant order is script order.
fn round_robin(scripts: &[Vec<Request>]) -> Vec<(usize, Request)> {
    let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|step| {
            scripts
                .iter()
                .enumerate()
                .filter_map(move |(tenant, script)| Some((tenant, script.get(step)?.clone())))
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse("BENCH_chaos.json");
    let config = if args.quick {
        ChaosConfig::quick(SEED)
    } else {
        ChaosConfig::paper_default(SEED)
    };
    let workload = config.generate();
    let tenants = &workload.tenants;
    let scripts: Vec<Vec<Request>> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| tenant_requests(t, i))
        .collect();
    let truth: HashMap<(String, String), String> = tenants
        .iter()
        .flat_map(|t| {
            t.truth
                .iter()
                .map(|(o, l)| ((t.task.clone(), o.clone()), l.clone()))
        })
        .collect();
    // Every shard must own at least one tenant: the settling loop advances
    // each shard's fault-arrival counter with per-tenant traffic, so a
    // tenant-less shard would hold its pending faults forever.
    for shard in 0..SHARDS {
        assert!(
            tenants
                .iter()
                .any(|t| crowdval_service::runtime::shard_for_task(&t.task, SHARDS) == shard),
            "shard {shard} owns no tenant; pick different tenant names"
        );
    }

    let runs: Vec<ChaosRun> = (0..REPETITIONS)
        .map(|_| chaos_run(tenants, &scripts, &truth))
        .collect();

    // The unfailed baseline: the FULL script (nothing lost or shed) run
    // serially — its decision accuracy minus a chaos run's is the price of
    // the sustained fault load.
    let mut unfailed_posteriors: Vec<(String, Reply)> = Vec::new();
    for (tenant, script) in tenants.iter().zip(&scripts) {
        let mut service = ValidationService::new();
        for request in script {
            let _ = service.reply(&RequestEnvelope::latest(request.clone()));
        }
        for request in probe_requests(tenant) {
            let reply = service.reply(&RequestEnvelope::latest(request));
            unfailed_posteriors.push((tenant.task.clone(), reply));
        }
    }
    let accuracy_unfailed = accuracy(&unfailed_posteriors, &truth);

    let dispatch = dispatch_arm(args.quick);

    let report = ChaosReport {
        quick: args.quick,
        seed: SEED,
        host_cpus: host_cpus(),
        shards: SHARDS,
        tenants: tenants.len(),
        total_requests: scripts.iter().map(Vec::len).sum(),
        faults_injected: fault_plan().faults.len(),
        repetitions: REPETITIONS,
        acknowledged: spread(&runs, |r| r.acknowledged as f64),
        requests_lost: spread(&runs, |r| r.requests_lost as f64),
        requests_shed: spread(&runs, |r| r.requests_shed as f64),
        restarts_total: spread(&runs, |r| r.restarts_total as f64),
        mean_recovery_us_per_restart: spread(&runs, |r| r.mean_recovery_us_per_restart),
        accuracy_delta: spread(&runs, |r| accuracy_unfailed - r.accuracy_chaos),
        accuracy_unfailed,
        runs,
        dispatch,
    };
    args.write_report(&report);

    let mut gates = args.gates();
    for (i, run) in report.runs.iter().enumerate() {
        gates.require(run.state_identical, || {
            format!("run {i}: recovered state diverged from the serial replay")
        });
        // A chaos run in which no shard died proves nothing.
        gates.at_least(
            &format!("run {i}: fewest restarts of a shard"),
            run.min_restarts_per_shard,
            1,
        );
    }
    gates.at_least(
        "median per-pair 1-shard vs serial dispatch throughput",
        report.dispatch.one_shard_vs_serial.median,
        0.9,
    );
    gates.finish();
}
