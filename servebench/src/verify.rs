//! The output check: replays every request the service accepted, in the
//! order the runtime received it, through an in-process serial
//! `ValidationService` per shard, and requires the served posteriors and
//! guidance picks to be bit-identical to the replay's.

use crate::harness::SentLog;
use crate::workloads::{Kind, Log, Phase, Tenant, SHARDS};
use crowdval_service::runtime::shard_for_task;
use crowdval_service::supervisor::{encode_anchor, rebuild_service, CheckpointStore};
use crowdval_service::{
    Reply, ReplyOutcome, Request, RequestEnvelope, ServiceError, SupervisionConfig,
    ValidationService,
};
use std::time::Instant;

/// Whether a reply shows the request was never accepted by a shard.
fn refused(reply: &Reply) -> bool {
    matches!(
        reply.outcome,
        ReplyOutcome::Err(ServiceError::Overloaded { .. } | ServiceError::Unavailable { .. })
    )
}

/// One recovery anchor taken during the supervised replay.
pub struct Anchor {
    pub ns: u64,
    pub bytes: usize,
}

/// What one shard's replay measured.
#[derive(Default)]
pub struct ShardReplay {
    /// `(id, handle ns)` of every replayed request.
    pub service_ns: Vec<(u64, u64)>,
    pub anchors: Vec<Anchor>,
    pub recover_ns: u64,
    pub mismatches: Vec<String>,
    pub compared: usize,
    /// Final per-task trust and triage state, for the trace.
    pub service: Option<ValidationService>,
}

/// The replay of a whole run.
pub struct Replay {
    pub shards: Vec<ShardReplay>,
    pub precision: f64,
    pub objects_read: usize,
}

impl Replay {
    pub fn mismatches(&self) -> impl Iterator<Item = &String> {
        self.shards.iter().flat_map(|s| s.mismatches.iter())
    }

    pub fn compared(&self) -> usize {
        self.shards.iter().map(|s| s.compared).sum()
    }
}

/// Replays the run. With `supervise`, also mirrors the supervisor's
/// checkpointing (timing each anchor) and rebuilds each shard from its
/// final checkpoint store.
pub fn replay(log: &Log, tenants: &[Tenant], sent: &SentLog, supervise: bool) -> Replay {
    let mut order: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for id in accepted(log, sent) {
        let task = log.recs[id as usize].request.task_name();
        order[shard_for_task(task.expect("accepted requests name a task"), SHARDS)].push(id);
    }
    let shards: Vec<ShardReplay> = std::thread::scope(|scope| {
        let handles: Vec<_> = order
            .iter()
            .map(|ids| scope.spawn(move || replay_shard(log, ids, supervise)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let (mut right, mut read) = (0usize, 0usize);
    for rec in log.recs.iter().filter(|r| r.phase == Phase::Verify && r.ok) {
        let reply = parse_reply(rec.reply.as_deref());
        if let Ok(crowdval_service::Response::Posterior { object, label, .. }) = reply.result() {
            read += 1;
            if tenants[rec.tenant as usize].truth_of(object) == Some(label.as_str()) {
                right += 1;
            }
        }
    }
    Replay {
        shards,
        precision: if read == 0 {
            0.0
        } else {
            right as f64 / read as f64
        },
        objects_read: read,
    }
}

/// Ids of the task requests a shard accepted, in the order the runtime
/// received them. Dispatcher-answered requests and refused ones
/// (`Overloaded`, `Unavailable`) never reached a shard.
pub fn accepted<'a>(log: &'a Log, sent: &'a [(u64, u64)]) -> impl Iterator<Item = u64> + 'a {
    sent.iter().map(|&(id, _)| id).filter(|&id| {
        let rec = &log.recs[id as usize];
        rec.request.task_name().is_some()
            && (rec.ok || !refused(&parse_reply(rec.reply.as_deref())))
    })
}

pub fn parse_reply(line: Option<&[u8]>) -> Reply {
    let line = line.expect("an answered request has a reply line");
    serde_json::from_str(std::str::from_utf8(line).expect("reply lines are UTF-8"))
        .expect("reply lines parse")
}

fn replay_shard(log: &Log, ids: &[u64], supervise: bool) -> ShardReplay {
    let mut out = ShardReplay::default();
    let mut service = ValidationService::new();
    let store = CheckpointStore::new();
    let every = SupervisionConfig::enabled().checkpoint_every.max(1);
    for &id in ids {
        let rec = &log.recs[id as usize];
        let checked = matches!(rec.kind, Kind::Posterior | Kind::Guidance)
            && matches!(rec.phase, Phase::Verify | Phase::Experts);
        let served = checked.then(|| parse_reply(rec.reply.as_deref()));
        let envelope = RequestEnvelope::new(id, rec.request.clone());
        let start = Instant::now();
        let result = service.handle(&envelope);
        out.service_ns.push((id, start.elapsed().as_nanos() as u64));
        if supervise {
            mirror_checkpoint(
                &mut service,
                &store,
                &rec.request,
                result.is_ok(),
                every,
                &mut out,
            );
        }
        if checked {
            out.compared += 1;
            let expected = match result {
                Ok(response) => Reply::ok(id, response),
                Err(error) => Reply::err(id, error),
            };
            if served.as_ref() != Some(&expected) {
                out.mismatches.push(format!(
                    "request {id} ({}): served {:?}, replay {:?}",
                    rec.kind.name(),
                    served,
                    expected
                ));
            }
        }
    }
    if supervise {
        let start = Instant::now();
        let (_, outcome) = rebuild_service(&store);
        out.recover_ns = start.elapsed().as_nanos() as u64;
        if !outcome.dropped.is_empty() {
            out.mismatches
                .push(format!("recovery dropped tasks: {:?}", outcome.dropped));
        }
        out.service = Some(service);
    }
    out
}

/// The shard worker's checkpoint maintenance, timed from outside: anchor a
/// task on its first acknowledged mutation and every `every` mutations
/// after, drop it on close.
fn mirror_checkpoint(
    service: &mut ValidationService,
    store: &CheckpointStore,
    request: &Request,
    ok: bool,
    every: usize,
    out: &mut ShardReplay,
) {
    let Some(task) = request.task_name() else {
        return;
    };
    if !ok {
        return;
    }
    if matches!(request, Request::CloseTask { .. }) || !service.has_task(task) {
        store.remove(task);
        return;
    }
    if !request.is_mutating() {
        return;
    }
    let anchor_now = match store.append(task, request.clone()) {
        Some(len) => len >= every,
        None => true,
    };
    if anchor_now {
        let start = Instant::now();
        let anchor = service
            .checkpoint_task(task)
            .map(|a| encode_anchor(&a))
            .expect("a live task checkpoints");
        out.anchors.push(Anchor {
            ns: start.elapsed().as_nanos() as u64,
            bytes: anchor.len(),
        });
        store.set_anchor(task, anchor);
    }
}
