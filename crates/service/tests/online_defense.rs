//! Service-level acceptance of the online adversarial-worker defense:
//! a task created with [`TaskConfig::online_defense`] must tombstone a
//! constant-answer spammer mid-stream and report the exclusion on the
//! wire (in [`Response::VotesAccepted`]), through
//! [`Request::QueryWorkerTrust`], and in the runtime counters — while a
//! task with the default config tracks the same trust evidence without
//! ever enforcing it.

use crowdval_service::{
    ClientVote, Request, RequestEnvelope, Response, ServiceError, StrategyChoice, TaskConfig,
    ValidationService,
};
use crowdval_sim::{PopulationMix, StreamingConfig, SyntheticConfig};
use std::collections::BTreeSet;

const LABEL_NAMES: [&str; 2] = ["neg", "pos"];
const SPAMMER: &str = "spam";

/// A streaming workload of reliable workers with one constant-answer
/// spammer riding every batch: the spammer votes `neg` on each batch's
/// distinct objects (at most once per object, matching the engine's
/// no-duplicate-arrival contract).
fn batches_with_spammer(seed: u64) -> Vec<Vec<ClientVote>> {
    let scenario = StreamingConfig {
        base: SyntheticConfig {
            num_objects: 24,
            num_workers: 10,
            reliability: 0.9,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(seed)
        },
        initial_fraction: 0.3,
        batch_size: 30,
        late_object_fraction: 0.2,
        late_worker_fraction: 0.2,
    }
    .generate();
    let rename = |votes: &[crowdval_model::Vote]| -> Vec<ClientVote> {
        votes
            .iter()
            .map(|v| ClientVote {
                worker: format!("w{}", v.worker.index()),
                object: format!("obj{}", v.object.index()),
                label: LABEL_NAMES[v.label.index()].to_string(),
            })
            .collect()
    };
    let mut spammed_objects: BTreeSet<String> = BTreeSet::new();
    let mut batches = vec![rename(&scenario.initial)];
    batches.extend(scenario.batches.iter().map(|b| rename(b)));
    for batch in batches.iter_mut().skip(1) {
        let targets: Vec<String> = batch
            .iter()
            .map(|v| v.object.clone())
            .filter(|o| spammed_objects.insert(o.clone()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        batch.extend(targets.into_iter().map(|object| ClientVote {
            worker: SPAMMER.to_string(),
            object,
            label: LABEL_NAMES[0].to_string(),
        }));
    }
    batches
}

fn send(service: &mut ValidationService, request: Request) -> Response {
    service
        .handle(&RequestEnvelope::latest(request))
        .expect("scripted request must succeed")
}

fn create_task(service: &mut ValidationService, task: &str, online_defense: bool) {
    send(
        service,
        Request::CreateTask {
            task: task.into(),
            labels: LABEL_NAMES.iter().map(|&l| l.to_string()).collect(),
            config: TaskConfig {
                strategy: StrategyChoice::EntropyBaseline,
                seed: 7,
                online_defense,
                ..TaskConfig::default()
            },
        },
    );
}

/// Streams the workload into `task`, returning every exclusion and
/// reinstatement reported on the wire, in arrival order.
fn stream(service: &mut ValidationService, task: &str) -> (Vec<String>, Vec<String>) {
    let mut excluded = Vec::new();
    let mut reinstated = Vec::new();
    for batch in batches_with_spammer(4242) {
        match send(
            service,
            Request::SubmitVotes {
                task: task.into(),
                votes: batch,
            },
        ) {
            Response::VotesAccepted {
                workers_excluded,
                workers_reinstated,
                ..
            } => {
                excluded.extend(workers_excluded);
                reinstated.extend(workers_reinstated);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    (excluded, reinstated)
}

#[test]
fn defended_task_reports_spammer_exclusion_on_the_wire() {
    let mut service = ValidationService::new();
    create_task(&mut service, "guarded", true);
    let (excluded, reinstated) = stream(&mut service, "guarded");

    assert_eq!(excluded, vec![SPAMMER.to_string()], "exactly the spammer");
    assert!(reinstated.is_empty(), "nothing exonerated the spammer");

    // The trust report ranks the spammer first and marks it excluded.
    match send(
        &mut service,
        Request::QueryWorkerTrust {
            task: "guarded".into(),
        },
    ) {
        Response::WorkerTrust {
            workers,
            exclusions,
            batches_observed,
            ..
        } => {
            assert!(batches_observed > 0);
            assert_eq!(exclusions, 1);
            let top = &workers[0];
            assert_eq!(top.worker, SPAMMER);
            assert!(top.excluded);
            assert!(top.suspicion >= 0.6, "suspicion {}", top.suspicion);
            assert!(workers.iter().skip(1).all(|w| !w.excluded));
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The single-threaded runtime stats carry the defense counters too.
    match send(&mut service, Request::RuntimeStats) {
        Response::RuntimeStats { shards } => {
            assert_eq!(shards[0].workers_excluded, 1);
            assert_eq!(shards[0].workers_reinstated, 0);
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Closing counts every vote submitted, the tombstoned spammer's too.
    let submitted: usize = batches_with_spammer(4242).iter().map(Vec::len).sum();
    match send(
        &mut service,
        Request::CloseTask {
            task: "guarded".into(),
        },
    ) {
        Response::TaskClosed { votes, .. } => assert_eq!(votes, submitted),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn default_task_tracks_trust_without_enforcing() {
    let mut service = ValidationService::new();
    create_task(&mut service, "open", false);
    let (excluded, reinstated) = stream(&mut service, "open");

    assert!(excluded.is_empty(), "defense off: no wire exclusions");
    assert!(reinstated.is_empty());

    // Tracking is unconditional: the query still exposes the evidence,
    // it just never flipped a tombstone.
    match send(
        &mut service,
        Request::QueryWorkerTrust {
            task: "open".into(),
        },
    ) {
        Response::WorkerTrust {
            workers,
            exclusions,
            ..
        } => {
            assert_eq!(exclusions, 0);
            let top = &workers[0];
            assert_eq!(top.worker, SPAMMER, "spammer still tops the ranking");
            assert!(!top.excluded);
            assert!(top.suspicion >= 0.6, "suspicion {}", top.suspicion);
            assert!(workers.iter().all(|w| !w.excluded));
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn worker_trust_query_requires_an_existing_task() {
    let mut service = ValidationService::new();
    let err = service
        .handle(&RequestEnvelope::latest(Request::QueryWorkerTrust {
            task: "ghost".into(),
        }))
        .unwrap_err();
    assert!(matches!(err, ServiceError::TaskNotFound { .. }));
}
