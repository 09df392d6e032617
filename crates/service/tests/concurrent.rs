//! Concurrency tests for the sharded service runtime: the determinism
//! guarantee (per-task request order is preserved within a shard, so any
//! task's final snapshot under concurrent mixed traffic is bit-identical
//! to a serial replay of that task's own request stream), graceful-drain
//! shutdown, back-pressure behavior at a saturated mailbox, runtime-stats
//! aggregation, and a junk-line flood through the concurrent dispatcher.

use crowdval_service::runtime::shard_for_task;
use crowdval_service::serve::{serve, ServeOptions};
use crowdval_service::{
    ClientVote, Dispatch, OverloadPolicy, Reply, ReplyOutcome, Request, RequestEnvelope, Response,
    RuntimeConfig, ServiceError, ShardRuntime, StrategyChoice, TaskConfig, ValidationService,
};
use std::collections::HashMap;

const LABELS: [&str; 2] = ["yes", "no"];

/// SplitMix64: the tests pre-generate request streams deterministically so
/// the same stream can be replayed serially for comparison.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn create(task: &str) -> Request {
    Request::CreateTask {
        task: task.to_string(),
        labels: LABELS.iter().map(|l| l.to_string()).collect(),
        config: TaskConfig {
            strategy: StrategyChoice::EntropyBaseline,
            ..TaskConfig::default()
        },
    }
}

fn one_vote(task: &str, n: u64) -> Request {
    Request::SubmitVotes {
        task: task.to_string(),
        votes: vec![ClientVote {
            worker: format!("w{}", n % 5),
            object: format!("o{}", n % 9),
            label: LABELS[(n % 2) as usize].to_string(),
        }],
    }
}

fn guidance(task: &str) -> Request {
    Request::RequestGuidance {
        task: task.to_string(),
    }
}

fn strategy_for(index: usize) -> StrategyChoice {
    match index % 5 {
        0 => StrategyChoice::Hybrid,
        1 => StrategyChoice::UncertaintyDriven,
        2 => StrategyChoice::WorkerDriven,
        3 => StrategyChoice::EntropyBaseline,
        _ => StrategyChoice::Random,
    }
}

/// The scripted request stream of one tenant: create, then rounds of
/// mixed traffic (vote batch, guidance, validation, posterior query),
/// ending in a snapshot. Every request names *fixed* objects — nothing
/// depends on earlier replies — so the exact same stream can run through
/// the concurrent runtime and through a serial service and be compared.
fn task_script(task: &str, index: usize, rounds: usize) -> Vec<Request> {
    let mut rng = 0x5eed_0000 + index as u64;
    let mut script = vec![Request::CreateTask {
        task: task.to_string(),
        labels: LABELS.iter().map(|l| l.to_string()).collect(),
        config: TaskConfig {
            strategy: strategy_for(index),
            seed: index as u64,
            shortlist: Some(8),
            ..TaskConfig::default()
        },
    }];
    for round in 0..rounds {
        let votes = (0..12)
            .map(|i| ClientVote {
                worker: format!("w{}", i % 6),
                object: format!("o{}", (i + round) % 12),
                label: LABELS[(splitmix(&mut rng) % 2) as usize].to_string(),
            })
            .collect();
        script.push(Request::SubmitVotes {
            task: task.to_string(),
            votes,
        });
        script.push(guidance(task));
        script.push(Request::SubmitValidation {
            task: task.to_string(),
            object: format!("o{}", round % 12),
            label: LABELS[(splitmix(&mut rng) % 2) as usize].to_string(),
        });
        script.push(Request::QueryPosterior {
            task: task.to_string(),
            object: format!("o{}", round % 12),
        });
    }
    script.push(Request::Snapshot {
        task: task.to_string(),
    });
    script
}

/// The key correctness property of the sharded runtime: under concurrent
/// mixed traffic from many tenants, every task's final snapshot is
/// bit-identical (compared on the serialized wire form) to a serial
/// replay of that task's own request stream on a fresh single-threaded
/// service — at every shard count, one shard included.
#[test]
fn concurrent_mixed_traffic_is_bit_identical_to_serial_replay() {
    const TENANTS: usize = 20;
    const ROUNDS: usize = 16;
    let scripts: Vec<(String, Vec<Request>)> = (0..TENANTS)
        .map(|i| {
            let task = format!("tenant-{i}");
            let script = task_script(&task, i, ROUNDS);
            (task, script)
        })
        .collect();

    // Interleave the tenant streams round-robin into one global stream
    // with unique correlation ids — per-task order is submission order.
    let mut envelopes: Vec<RequestEnvelope> = Vec::new();
    let mut cursors = [0usize; TENANTS];
    let mut next_id = 1u64;
    let mut snapshot_ids: HashMap<u64, usize> = HashMap::new();
    loop {
        let mut progressed = false;
        for (tenant, (_, script)) in scripts.iter().enumerate() {
            if cursors[tenant] < script.len() {
                let request = script[cursors[tenant]].clone();
                if matches!(request, Request::Snapshot { .. }) {
                    snapshot_ids.insert(next_id, tenant);
                }
                envelopes.push(RequestEnvelope::new(next_id, request));
                next_id += 1;
                cursors[tenant] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let total = envelopes.len();
    assert!(total >= 1000, "want thousands of requests, got {total}");

    // Serial replay: each tenant's own stream, alone, on a fresh service.
    let serial: Vec<Option<String>> = scripts
        .iter()
        .map(|(_, script)| {
            let mut service = ValidationService::new();
            let mut serial = None;
            for request in script.iter().cloned() {
                let reply = service.reply(&RequestEnvelope::latest(request));
                if let ReplyOutcome::Ok(Response::Snapshot { snapshot, .. }) = reply.outcome {
                    serial = Some(serde_json::to_string(&snapshot).unwrap());
                }
            }
            serial
        })
        .collect();

    for num_shards in [1, 2, 4] {
        let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
            num_shards,
            mailbox_capacity: 64,
            overload: OverloadPolicy::Block,
            ..RuntimeConfig::default()
        });
        for envelope in envelopes.iter().cloned() {
            assert!(matches!(
                runtime.submit(envelope),
                Dispatch::Enqueued { .. }
            ));
        }
        runtime.shutdown();
        let collected: Vec<Reply> = replies.into_iter().collect();
        assert_eq!(collected.len(), total, "a reply per accepted request");

        // Pull each tenant's final snapshot out of the concurrent replies,
        // matched by the echoed correlation id (arrival order is arbitrary).
        let mut concurrent: HashMap<usize, String> = HashMap::new();
        for reply in &collected {
            if let Some(&tenant) = snapshot_ids.get(&reply.request_id) {
                match reply.result() {
                    Ok(Response::Snapshot { snapshot, .. }) => {
                        concurrent.insert(tenant, serde_json::to_string(snapshot).unwrap());
                    }
                    other => panic!("snapshot request failed: {other:?}"),
                }
            }
        }
        assert_eq!(concurrent.len(), TENANTS);

        for (tenant, (task, _)) in scripts.iter().enumerate() {
            assert_eq!(
                concurrent.get(&tenant),
                serial[tenant].as_ref(),
                "tenant {task} diverged from its serial replay at {num_shards} shard(s)"
            );
        }
    }
}

/// Graceful shutdown is a drain: every request accepted into a mailbox is
/// processed and its reply flushed before the reply channel disconnects,
/// even when shutdown is called the instant submission stops.
#[test]
fn shutdown_drains_every_accepted_request() {
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: 4,
        mailbox_capacity: 256,
        overload: OverloadPolicy::Block,
        ..RuntimeConfig::default()
    });
    let mut submitted = 0u64;
    for t in 0..8 {
        let task = format!("drain-{t}");
        submitted += 1;
        runtime.submit(RequestEnvelope::new(submitted, create(&task)));
        for _ in 0..25 {
            submitted += 1;
            runtime.submit(RequestEnvelope::new(submitted, one_vote(&task, submitted)));
        }
    }
    runtime.shutdown();
    let mut ids: Vec<u64> = replies.into_iter().map(|r| r.request_id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=submitted).collect::<Vec<_>>(),
        "every accepted request must be answered exactly once"
    );
}

/// Back-pressure at the ingest boundary: a saturated mailbox under the
/// reject policy fails new requests with the documented `Overloaded`
/// error (a typed reply, not a dropped line, not unbounded buffering) and
/// accepts again once the shard drains.
#[test]
fn full_mailbox_rejects_with_overloaded_and_recovers_once_drained() {
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: 1,
        mailbox_capacity: 2,
        overload: OverloadPolicy::Reject,
        ..RuntimeConfig::default()
    });
    assert_eq!(shard_for_task("burst", 1), 0);
    runtime.submit(RequestEnvelope::new(1, create("burst")));
    let created = replies.recv().unwrap();
    assert!(created.result().is_ok(), "{:?}", created.result());

    // Park the worker, then saturate the mailbox. The hold may or may not
    // still occupy its slot when the submissions land, so four attempts
    // against capacity 2 guarantee at least one acceptance and at least
    // one rejection either way.
    let hold = runtime.hold_shard(0).expect("idle shard accepts a hold");
    let mut enqueued = 0usize;
    let mut rejected: Vec<u64> = Vec::new();
    for id in 2..=5u64 {
        match runtime.submit(RequestEnvelope::new(id, guidance("burst"))) {
            Dispatch::Enqueued { shard } => {
                assert_eq!(shard, 0);
                enqueued += 1;
            }
            Dispatch::Rejected { shard } => {
                assert_eq!(shard, 0);
                rejected.push(id);
            }
            Dispatch::Answered => unreachable!("guidance is shard-routed"),
            Dispatch::Shed { .. } => unreachable!("unsupervised runtimes never shed"),
        }
    }
    assert!(enqueued >= 1, "capacity 2 admits at least one request");
    assert!(!rejected.is_empty(), "a saturated mailbox must reject");

    // Release the shard; once it drains, submissions are accepted again.
    drop(hold);
    let recovered_id = 99u64;
    loop {
        match runtime.submit(RequestEnvelope::new(recovered_id, guidance("burst"))) {
            Dispatch::Enqueued { .. } => break,
            Dispatch::Rejected { .. } => std::thread::yield_now(),
            Dispatch::Answered | Dispatch::Shed { .. } => unreachable!(),
        }
    }
    runtime.shutdown();
    let collected: Vec<Reply> = replies.into_iter().collect();

    for id in &rejected {
        let reply = collected
            .iter()
            .find(|r| r.request_id == *id)
            .expect("rejected requests still get a reply");
        match reply.result() {
            Err(ServiceError::Overloaded {
                task,
                shard,
                capacity,
                retry_after_ms,
            }) => {
                assert_eq!(task, "burst");
                assert_eq!(*shard, 0);
                assert_eq!(*capacity, 2);
                assert!(*retry_after_ms >= 1, "retry hint is always at least 1ms");
            }
            other => panic!("rejected request must reply Overloaded, got {other:?}"),
        }
    }
    assert!(
        collected
            .iter()
            .any(|r| r.request_id == recovered_id && r.result().is_ok()),
        "the shard must serve requests again after draining"
    );
}

/// `RuntimeStats` is answered by the dispatcher from the shared per-shard
/// counters; the totals account for every routed request and every
/// ingested vote.
#[test]
fn runtime_stats_aggregate_the_per_shard_counters() {
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: 4,
        mailbox_capacity: 64,
        overload: OverloadPolicy::Block,
        ..RuntimeConfig::default()
    });
    let mut id = 0u64;
    let mut votes_sent = 0u64;
    for t in 0..6 {
        let task = format!("stats-{t}");
        id += 1;
        runtime.submit(RequestEnvelope::new(id, create(&task)));
        let votes: Vec<ClientVote> = (0..5)
            .map(|i| ClientVote {
                worker: format!("w{i}"),
                object: format!("o{i}"),
                label: LABELS[i % 2].to_string(),
            })
            .collect();
        votes_sent += votes.len() as u64;
        id += 1;
        runtime.submit(RequestEnvelope::new(
            id,
            Request::SubmitVotes { task, votes },
        ));
    }
    // Workers bump their counters before replying, so once every routed
    // request has replied the stats are settled.
    for _ in 0..id {
        replies.recv().expect("a reply per routed request");
    }

    id += 1;
    let dispatch = runtime.submit(RequestEnvelope::new(id, Request::RuntimeStats));
    assert_eq!(dispatch, Dispatch::Answered, "stats never enter a mailbox");
    let reply = replies.recv().unwrap();
    assert_eq!(reply.request_id, id);
    let Ok(Response::RuntimeStats { shards }) = reply.result() else {
        panic!("stats request failed: {:?}", reply.result());
    };
    assert_eq!(shards.len(), 4);
    assert_eq!(
        shards.iter().map(|s| s.requests_served).sum::<u64>(),
        id - 1,
        "every routed request is counted by exactly one shard"
    );
    assert_eq!(
        shards.iter().map(|s| s.votes_ingested).sum::<u64>(),
        votes_sent
    );
    assert_eq!(shards.iter().map(|s| s.tasks).sum::<usize>(), 6);
    for stats in shards {
        assert_eq!(stats.queue_depth, 0, "idle shards report empty queues");
        assert_eq!(stats.mailbox_capacity, 64);
        if stats.requests_served > 0 {
            assert!(stats.service_time_p50_us > 0.0);
            assert!(stats.service_time_p99_us >= stats.service_time_p50_us);
        }
    }
    runtime.shutdown();
}

/// Flooding the concurrent dispatcher with junk lines mixed into valid
/// traffic never panics and never loses a reply: one reply line per
/// request line, malformed ones included.
#[test]
fn junk_floods_through_the_sharded_dispatcher_reply_and_never_panic() {
    const JUNK: [&str; 8] = [
        "{",
        "null",
        "42",
        "[]",
        "\"a bare string\"",
        "{\"version\":2}",
        "{\"version\":2,\"request_id\":7,\"request\":{\"NoSuchRequest\":{}}}",
        "corrupt {] line",
    ];
    let mut rng = 0xbad_5eed_u64;
    let mut lines: Vec<String> = Vec::new();
    let mut requests = 0usize;
    let mut junk = 0usize;
    for i in 0..400u64 {
        if splitmix(&mut rng).is_multiple_of(3) {
            let task = format!("fuzz-{}", i % 7);
            let request = match splitmix(&mut rng) % 3 {
                0 => create(&task),
                1 => one_vote(&task, i),
                _ => guidance(&task),
            };
            let envelope = RequestEnvelope::new(i + 1, request);
            lines.push(serde_json::to_string(&envelope).unwrap());
            requests += 1;
        } else {
            lines.push(JUNK[(splitmix(&mut rng) as usize) % JUNK.len()].to_string());
            junk += 1;
            requests += 1;
        }
    }
    let input = lines.join("\n") + "\n";
    let (out, summary) = serve(
        input.as_bytes(),
        Vec::new(),
        &ServeOptions {
            shards: 4,
            mailbox_capacity: 32,
            overload: OverloadPolicy::Block,
            ..ServeOptions::default()
        },
    );
    assert_eq!(summary.requests, requests);
    assert_eq!(summary.replies, requests, "a reply line per input line");
    assert_eq!(summary.malformed, junk);
    let text = String::from_utf8(out.expect("writer survives junk floods")).unwrap();
    assert_eq!(text.lines().count(), requests);
    for line in text.lines() {
        serde_json::from_str::<Reply>(line).expect("every output line is a parseable reply");
    }
}
