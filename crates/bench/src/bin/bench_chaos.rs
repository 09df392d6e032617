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
//! Usage: `bench_chaos [--quick] [--check] [--out <path>]`
//!
//! `--quick` trims the crowd for CI smoke runs; `--check` exits non-zero
//! unless the recovered state equals the serial replay *and* every shard
//! was restarted at least once (the CI `chaos-smoke` gate — a chaos run
//! in which no shard died proves nothing).

use crowdval_service::{
    ClientVote, Dispatch, FaultKind, FaultPlan, OverloadPolicy, Reply, ReplyOutcome, Request,
    RequestEnvelope, Response, RuntimeConfig, ServiceError, ShardRuntime, StrategyChoice,
    SupervisionConfig, TaskConfig, UnavailableReason, ValidationService,
};
use crowdval_sim::{ChaosConfig, ChaosStep, ChaosTenant};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const SEED: u64 = 0xC0FF_EE00;

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

#[derive(Debug, Serialize)]
struct ShardReport {
    shard: usize,
    restarts: u64,
    panics_isolated: u64,
    recovery_us: u64,
}

#[derive(Debug, Serialize)]
struct ChaosReport {
    quick: bool,
    seed: u64,
    /// CPUs available to the process (`std::thread::available_parallelism`).
    host_cpus: usize,
    shards: usize,
    tenants: usize,
    total_requests: usize,
    acknowledged: usize,
    requests_lost: usize,
    requests_shed: usize,
    faults_injected: usize,
    restarts_total: u64,
    min_restarts_per_shard: u64,
    recovery_us_total: u64,
    mean_recovery_us_per_restart: f64,
    per_shard: Vec<ShardReport>,
    state_identical: bool,
    accuracy_chaos: f64,
    accuracy_unfailed: f64,
    accuracy_delta: f64,
    ingest_wall_s: f64,
    drain_wall_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    let config = if quick {
        ChaosConfig::quick(SEED)
    } else {
        ChaosConfig::paper_default(SEED)
    };
    let workload = config.generate();
    let scripts: Vec<(String, Vec<Request>)> = workload
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.task.clone(), tenant_requests(t, i)))
        .collect();
    let truth: HashMap<(String, String), String> = workload
        .tenants
        .iter()
        .flat_map(|t| {
            t.truth
                .iter()
                .map(|(o, l)| ((t.task.clone(), o.clone()), l.clone()))
        })
        .collect();

    // A crash plan that hits every shard while its mutation stream is
    // still flowing: each shard dies once early (Panic or Kill, seeded),
    // stalls once, then dies a second time — all within the first dozen
    // worker arrivals, which every shard is guaranteed to see (checked
    // below) because each tenant script alone is longer than that.
    let mut plan = FaultPlan::seeded_crashes(SEED, SHARDS, 2, 6);
    for shard in 0..SHARDS {
        plan.push(shard, 8, FaultKind::Stall { ms: 1 });
        plan.push(shard, 10 + shard as u64, FaultKind::Panic);
    }
    let faults_injected = plan.faults.len();
    // Every shard must own at least one tenant: the settling loop below
    // advances each shard's fault-arrival counter with per-tenant traffic,
    // so a tenant-less shard would hold its pending faults forever.
    for shard in 0..SHARDS {
        assert!(
            scripts
                .iter()
                .any(|(task, _)| crowdval_service::runtime::shard_for_task(task, SHARDS) == shard),
            "shard {shard} owns no tenant; pick different tenant names"
        );
    }

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
        runtime.submit(RequestEnvelope::new(1, Request::FaultInject { plan })),
        Dispatch::Answered
    );

    // Interleave the tenant streams round-robin and record every envelope,
    // so the acknowledged subset can be replayed serially afterwards.
    let mut submitted: HashMap<u64, (usize, Request)> = HashMap::new();
    let mut shed_dispatch = 0usize;
    let mut next_id = 2u64;
    let mut cursors = vec![0usize; scripts.len()];
    let ingest_clock = Instant::now();
    loop {
        let mut progressed = false;
        for (tenant, (_, script)) in scripts.iter().enumerate() {
            if cursors[tenant] < script.len() {
                let request = script[cursors[tenant]].clone();
                submitted.insert(next_id, (tenant, request.clone()));
                if let Dispatch::Shed { .. } =
                    runtime.submit(RequestEnvelope::new(next_id, request))
                {
                    shed_dispatch += 1;
                }
                next_id += 1;
                cursors[tenant] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
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
        for tenant in &workload.tenants {
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
    let mut probe_ids: HashMap<u64, (usize, Request)> = HashMap::new();
    let mut outstanding: Vec<(usize, Request)> = workload
        .tenants
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
    let per_shard: Vec<ShardReport> = shards_health
        .iter()
        .map(|h| ShardReport {
            shard: h.shard,
            restarts: h.restarts,
            panics_isolated: h.panics_isolated,
            recovery_us: h.recovery_us,
        })
        .collect();
    let restarts_total: u64 = per_shard.iter().map(|s| s.restarts).sum();
    let min_restarts = per_shard.iter().map(|s| s.restarts).min().unwrap_or(0);
    let recovery_us_total: u64 = per_shard.iter().map(|s| s.recovery_us).sum();

    // Lost/shed tallies cover the scripted traffic only — the sacrificial
    // settling probes are harness overhead, not workload.
    let requests_lost = submitted
        .keys()
        .filter(|id| {
            matches!(
                seen[id].result(),
                Err(ServiceError::Unavailable {
                    reason: UnavailableReason::RequestLost,
                    ..
                })
            )
        })
        .count();
    // Dispatch-shed requests also get a typed `Unavailable { Shed }` reply,
    // so the reply count is the full tally; the dispatch count cross-checks
    // that no shed happened reply-lessly.
    let requests_shed = submitted
        .keys()
        .filter(|id| {
            matches!(
                seen[id].result(),
                Err(ServiceError::Unavailable {
                    reason: UnavailableReason::Shed,
                    ..
                })
            )
        })
        .count();
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
    for (tenant_index, tenant) in workload.tenants.iter().enumerate() {
        let mut service = ValidationService::new();
        let mut ids: Vec<u64> = submitted
            .iter()
            .filter(|(_, (t, _))| *t == tenant_index)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let (_, request) = &submitted[&id];
            if !request.is_mutating() || seen[&id].result().is_err() {
                continue;
            }
            let replay = service.reply(&RequestEnvelope::latest(request.clone()));
            assert!(
                replay.result().is_ok(),
                "acknowledged request {id} must replay cleanly: {:?}",
                replay.result()
            );
        }
        let mut probe_list: Vec<u64> = probe_ids
            .iter()
            .filter(|(_, (t, _))| *t == tenant_index)
            .map(|(id, _)| *id)
            .collect();
        probe_list.sort_unstable();
        for id in probe_list {
            let (_, request) = &probe_ids[&id];
            let serial = service.reply(&RequestEnvelope::latest(request.clone()));
            let chaos_json = serde_json::to_string(&seen[&id].outcome).unwrap();
            let serial_json = serde_json::to_string(&serial.outcome).unwrap();
            if chaos_json != serial_json {
                eprintln!(
                    "DIVERGED task {}: {request:?}\n  chaos : {chaos_json}\n  serial: {serial_json}",
                    tenant.task
                );
                state_identical = false;
            }
            if matches!(request, Request::QueryPosterior { .. }) {
                chaos_posteriors.push((tenant.task.clone(), seen[&id].clone()));
            }
        }
    }

    // The unfailed baseline: the FULL script (nothing lost or shed) run
    // serially — its decision accuracy minus the chaos run's is the price
    // of the sustained fault load.
    let mut unfailed_posteriors: Vec<(String, Reply)> = Vec::new();
    for tenant in &workload.tenants {
        let mut service = ValidationService::new();
        let script = tenant_requests(
            tenant,
            workload
                .tenants
                .iter()
                .position(|t| t.task == tenant.task)
                .unwrap(),
        );
        for request in script {
            let _ = service.reply(&RequestEnvelope::latest(request));
        }
        for request in probe_requests(tenant) {
            let reply = service.reply(&RequestEnvelope::latest(request));
            unfailed_posteriors.push((tenant.task.clone(), reply));
        }
    }
    let accuracy_chaos = accuracy(&chaos_posteriors, &truth);
    let accuracy_unfailed = accuracy(&unfailed_posteriors, &truth);

    let report = ChaosReport {
        quick,
        seed: SEED,
        host_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        shards: SHARDS,
        tenants: workload.tenants.len(),
        total_requests: submitted.len(),
        acknowledged,
        requests_lost,
        requests_shed,
        faults_injected,
        restarts_total,
        min_restarts_per_shard: min_restarts,
        recovery_us_total,
        mean_recovery_us_per_restart: if restarts_total == 0 {
            0.0
        } else {
            recovery_us_total as f64 / restarts_total as f64
        },
        per_shard,
        state_identical,
        accuracy_chaos,
        accuracy_unfailed,
        accuracy_delta: accuracy_unfailed - accuracy_chaos,
        ingest_wall_s,
        drain_wall_s,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("report written");
    println!("{json}");

    if check {
        if !report.state_identical {
            eprintln!("CHECK FAILED: recovered state diverged from the serial replay");
            std::process::exit(1);
        }
        if report.min_restarts_per_shard < 1 {
            eprintln!("CHECK FAILED: a shard was never restarted — the chaos run proved nothing");
            std::process::exit(1);
        }
        println!(
            "chaos check passed: {} restarts across {} shards, state identical",
            report.restarts_total, report.shards
        );
    }
}
