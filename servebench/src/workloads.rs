//! The three workloads: the tenants they create, the request scripts they
//! send and the stages those scripts run in. Everything here is a pure
//! function of the seed — the service only ever sees the generated lines.

use crowdval_service::runtime::shard_for_task;
use crowdval_service::{ClientVote, Request, StrategyChoice, TaskConfig};
use crowdval_sim::{StreamingConfig, SyntheticConfig};
use std::sync::Arc;

pub const LABELS: [&str; 2] = ["no", "yes"];

/// Shards the runtime runs (the CPU count of the host the workloads were
/// sized on; the report records the actual count next to it).
pub const SHARDS: usize = 2;

/// Every workload's name and the reason it exists, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "ingest-fanout",
        "256 small tenants, 25-vote batches: per-request layers (codec, dispatch, gauge refresh, \
         checkpointing) dominate; no scoring",
    ),
    (
        "expert-loop",
        "4 closed-loop experts on 32 pre-loaded 100-object tenants: scoring, guidance cache, \
         triage and integrate-EM dominate; no ingest",
    ),
    (
        "bulk-readwrite",
        "4 tenants of 25k sparse votes, 250-vote writes with reads, snapshots and deltas on the \
         same shard FIFO: model, EM, WAL and anchors dominate",
    ),
];

/// Request kinds, as the reports group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Create,
    Votes,
    Guidance,
    Validation,
    Posterior,
    Trust,
    Triage,
    Snapshot,
    Delta,
    Stats,
    Health,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Votes => "votes",
            Kind::Guidance => "guidance",
            Kind::Validation => "validation",
            Kind::Posterior => "posterior",
            Kind::Trust => "trust",
            Kind::Triage => "triage",
            Kind::Snapshot => "snapshot",
            Kind::Delta => "delta",
            Kind::Stats => "stats",
            Kind::Health => "health",
        }
    }

    /// The end-to-end latency class: evidence-carrying writes, reads of
    /// task state, checkpoints, and the dispatcher-answered monitor probes.
    pub fn class(self) -> &'static str {
        match self {
            Kind::Create | Kind::Votes => "ingest",
            Kind::Guidance => "guidance",
            Kind::Validation => "validate",
            Kind::Posterior | Kind::Trust | Kind::Triage => "read",
            Kind::Snapshot | Kind::Delta => "checkpoint",
            Kind::Stats | Kind::Health => "monitor",
        }
    }
}

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Task creation and pre-loading, sent as fast as the service takes it.
    Setup,
    /// Open loop at a fixed offered rate (latency phase).
    Paced,
    /// A bounded window of outstanding requests (throughput phase).
    Saturation,
    /// Closed-loop experts.
    Experts,
    /// The output check's posterior sweep.
    Verify,
    /// The `RuntimeStats` read after the latency phase (memory gauge).
    Probe,
}

impl Phase {
    /// Requests whose latency the end-to-end metrics report.
    pub fn measured(self) -> bool {
        matches!(self, Phase::Paced | Phase::Saturation | Phase::Experts)
    }
}

/// One request of a run, with its line as sent and what came back.
pub struct Rec {
    pub kind: Kind,
    pub phase: Phase,
    pub tenant: u32,
    pub votes: u32,
    pub request: Request,
    /// The line as sent, serialized when the request is first sent.
    pub line: Option<Arc<str>>,
    pub due_ns: u64,
    pub done_ns: Option<u64>,
    pub ok: bool,
    pub reply: Option<Box<[u8]>>,
}

/// The request log of a run; a request's id is its index.
#[derive(Default)]
pub struct Log {
    pub recs: Vec<Rec>,
}

impl Log {
    /// Appends a request; returns its id.
    pub fn add(&mut self, kind: Kind, phase: Phase, tenant: u32, request: Request) -> u64 {
        let id = self.recs.len() as u64;
        let votes = match &request {
            Request::SubmitVotes { votes, .. } => votes.len() as u32,
            _ => 0,
        };
        self.recs.push(Rec {
            kind,
            phase,
            tenant,
            votes,
            request,
            line: None,
            due_ns: 0,
            done_ns: None,
            ok: false,
            reply: None,
        });
        id
    }
}

/// One tenant: its task name, ground truth and vote stream.
pub struct Tenant {
    pub name: String,
    /// Ground-truth label name per object index (object `o{i}`).
    pub truth: Vec<&'static str>,
    pub preload: Vec<ClientVote>,
    pub batches: Vec<Vec<ClientVote>>,
}

impl Tenant {
    fn generate(name: String, stream: StreamingConfig) -> Tenant {
        let scenario = stream.generate();
        let client = |votes: &[crowdval_model::Vote]| -> Vec<ClientVote> {
            votes
                .iter()
                .map(|v| ClientVote {
                    worker: format!("w{}", v.worker.index()),
                    object: format!("o{}", v.object.index()),
                    label: LABELS[v.label.index()].to_string(),
                })
                .collect()
        };
        Tenant {
            name,
            truth: scenario
                .truth
                .iter()
                .map(|(_, l)| LABELS[l.index()])
                .collect(),
            preload: client(&scenario.initial),
            batches: scenario.batches.iter().map(|b| client(b)).collect(),
        }
    }

    /// Ground-truth label of an object id, `None` for a foreign id.
    pub fn truth_of(&self, object: &str) -> Option<&'static str> {
        let index: usize = object.strip_prefix('o')?.parse().ok()?;
        self.truth.get(index).copied()
    }

    pub fn create(&self) -> Request {
        Request::CreateTask {
            task: self.name.clone(),
            labels: LABELS.iter().map(|l| l.to_string()).collect(),
            config: task_config(),
        }
    }

    pub fn submit(&self, votes: Vec<ClientVote>) -> Request {
        Request::SubmitVotes {
            task: self.name.clone(),
            votes,
        }
    }
}

/// Every tenant runs the production feature set.
pub fn task_config() -> TaskConfig {
    TaskConfig {
        strategy: StrategyChoice::Hybrid,
        online_defense: true,
        wal: true,
        triage: true,
        ..TaskConfig::default()
    }
}

/// A per-tenant seed derived from the run seed (SplitMix64 finalizer).
pub fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tenant as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stage of a run. Ids index the run's [`Log`].
pub enum Stage {
    /// Everything due at once; done when every reply is in.
    Burst(Vec<u64>),
    /// An open-loop schedule of `(offset_ns, id)`; done when every reply is
    /// in.
    Paced(Vec<(u64, u64)>),
    /// Keeps `window` script requests outstanding until the script ends or
    /// `span_ns` has passed, plus a timed schedule (monitor probes).
    Window {
        script: Vec<u64>,
        window: usize,
        span_ns: u64,
        timed: Vec<(u64, u64)>,
    },
    /// Closed-loop experts (see `client::Experts`), for at most `span_ns`.
    Experts {
        experts: usize,
        cap: u32,
        span_ns: u64,
    },
    /// Reads the posterior of every object each tenant has received.
    Verify { window: usize },
    /// One `RuntimeStats` read. It follows the latency phase, whose volume
    /// is fixed by the seed, so the memory gauge it reads is too.
    Probe,
}

/// A generated workload: its tenants, the pre-built part of its request
/// log and its stages. Setup is the first stage.
pub struct Plan {
    pub name: &'static str,
    pub tenants: Vec<Tenant>,
    pub log: Log,
    pub stages: Vec<Stage>,
}

/// Generates a workload from its name and the seed.
pub fn plan(name: &str, seed: u64, seconds: u64) -> Option<Plan> {
    let span_ns = seconds.max(1) * 1_000_000_000;
    match name {
        "ingest-fanout" => Some(ingest_fanout(seed, span_ns)),
        "expert-loop" => Some(expert_loop(seed, span_ns)),
        "bulk-readwrite" => Some(bulk_readwrite(seed, span_ns)),
        _ => None,
    }
}

/// Create every tenant, then pre-load it in client-sized batches.
fn setup_stage(log: &mut Log, tenants: &mut [Tenant]) -> Stage {
    let mut ids = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        ids.push(log.add(Kind::Create, Phase::Setup, t as u32, tenant.create()));
    }
    for (t, tenant) in tenants.iter_mut().enumerate() {
        let preload = std::mem::take(&mut tenant.preload);
        for chunk in preload.chunks(PRELOAD_CHUNK) {
            let request = tenant.submit(chunk.to_vec());
            ids.push(log.add(Kind::Votes, Phase::Setup, t as u32, request));
        }
    }
    Stage::Burst(ids)
}

/// Largest pre-load batch, in votes: set-up sends client-sized lines, not
/// one line per corpus.
pub const PRELOAD_CHUNK: usize = 2500;

/// The tenants' streamed batches, round-robin across tenants (moved out of
/// the tenants, which keep only names and ground truth).
fn round_robin(tenants: &mut [Tenant]) -> Vec<(u32, Vec<ClientVote>)> {
    let mut streams: Vec<std::vec::IntoIter<Vec<ClientVote>>> = tenants
        .iter_mut()
        .map(|t| std::mem::take(&mut t.batches).into_iter())
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for (t, stream) in streams.iter_mut().enumerate() {
            if let Some(batch) = stream.next() {
                out.push((t as u32, batch));
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Offered rate of the open-loop phase of `ingest-fanout`, in requests per
/// second: about half the saturated rate measured on a 2-CPU host, frozen
/// so every run and every commit offers the same load.
pub const INGEST_PACED_RATE: f64 = 1500.0;
/// Tenants of `ingest-fanout`.
pub const INGEST_TENANTS: usize = 256;
/// Workers per `ingest-fanout` tenant: the paper-default crowd (50 objects,
/// every worker answers every object) with enough workers that the stream
/// outlasts the run at the saturated rate.
pub const INGEST_WORKERS: usize = 60;
/// Share of `--seconds` given to the open-loop phase; the saturation phase
/// gets the rest.
pub const PACED_SHARE_PERCENT: u64 = 40;
/// Outstanding requests in the saturation phases.
pub const SATURATION_WINDOW: usize = 32;

fn ingest_fanout(seed: u64, span_ns: u64) -> Plan {
    let mut tenants: Vec<Tenant> = (0..INGEST_TENANTS)
        .map(|t| {
            let mut stream = StreamingConfig::paper_default(tenant_seed(seed, t));
            stream.base.num_workers = INGEST_WORKERS;
            stream.batch_size = 25;
            Tenant::generate(format!("fan-{t}"), stream)
        })
        .collect();
    let mut log = Log::default();
    let setup = setup_stage(&mut log, &mut tenants);
    let script: Vec<(u32, Request)> = round_robin(&mut tenants)
        .into_iter()
        .map(|(t, batch)| (t, tenants[t as usize].submit(batch)))
        .collect();
    let paced_span = span_ns * PACED_SHARE_PERCENT / 100;
    let interval = 1e9 / INGEST_PACED_RATE;
    let paced_len = ((paced_span as f64 / interval) as usize).min(script.len() / 2);
    let mut script = script.into_iter();
    let paced: Vec<(u64, u64)> = (0..paced_len)
        .map(|i| {
            let (t, request) = script.next().expect("paced part fits the script");
            let id = log.add(Kind::Votes, Phase::Paced, t, request);
            ((i as f64 * interval) as u64, id)
        })
        .collect();
    let saturation: Vec<u64> = script
        .map(|(t, request)| log.add(Kind::Votes, Phase::Saturation, t, request))
        .collect();
    Plan {
        name: "ingest-fanout",
        tenants,
        log,
        stages: vec![
            setup,
            Stage::Paced(paced),
            Stage::Probe,
            Stage::Window {
                script: saturation,
                window: SATURATION_WINDOW,
                span_ns: span_ns - paced_span,
                timed: Vec::new(),
            },
            Stage::Verify { window: 64 },
        ],
    }
}

/// Tenants and closed-loop experts of `expert-loop`.
pub const EXPERT_TENANTS: usize = 32;
pub const EXPERTS: usize = 4;
pub const EXPERT_CAP: u32 = 80;
/// Worker reliability of the `expert-loop` crowds. The paper default (0.65)
/// sits near chance, where EM lands on either labelling depending on the
/// seed and guidance cost follows that coin flip; at 0.7 the experts still
/// have most of a run's worth of objects to validate before triage and the
/// crowd settle them.
pub const EXPERT_RELIABILITY: f64 = 0.7;

fn expert_loop(seed: u64, span_ns: u64) -> Plan {
    let mut tenants: Vec<Tenant> = (0..EXPERT_TENANTS)
        .map(|t| {
            let mut base = SyntheticConfig::paper_default(tenant_seed(seed, t));
            base.num_objects = 100;
            base.num_workers = 25;
            base.reliability = EXPERT_RELIABILITY;
            let stream = StreamingConfig {
                base,
                initial_fraction: 1.0,
                batch_size: 1,
                late_object_fraction: 0.0,
                late_worker_fraction: 0.0,
            };
            Tenant::generate(format!("expert-{t}"), stream)
        })
        .collect();
    let mut log = Log::default();
    let setup = setup_stage(&mut log, &mut tenants);
    Plan {
        name: "expert-loop",
        tenants,
        log,
        stages: vec![
            setup,
            Stage::Experts {
                experts: EXPERTS,
                cap: EXPERT_CAP,
                span_ns,
            },
            Stage::Probe,
            Stage::Verify { window: 64 },
        ],
    }
}

/// Tenants of `bulk-readwrite` and the shape of their corpora.
pub const BULK_TENANTS: usize = 4;
pub const BULK_OBJECTS: usize = 5000;
pub const BULK_WORKERS: usize = 500;
pub const BULK_ANSWERS_PER_OBJECT: usize = 5;
pub const BULK_BATCH: usize = 250;
/// Worker reliability of the `bulk-readwrite` crowds: with five answers per
/// object a paper-default crowd labels at chance, so precision would only
/// measure which way EM happened to fall.
pub const BULK_RELIABILITY: f64 = 0.8;
/// Write groups per second offered in the open-loop phase (a write plus
/// its reads and checkpoints), frozen like [`INGEST_PACED_RATE`].
pub const BULK_PACED_RATE: f64 = 20.0;
/// Outstanding requests in the `bulk-readwrite` saturation phase.
pub const BULK_WINDOW: usize = 32;
/// Monitor probe interval (`RuntimeStats` + `Health`).
pub const MONITOR_EVERY_NS: u64 = 100_000_000;

/// Task names that the runtime's hash splits evenly across the shards.
fn balanced_names(prefix: &str, count: usize) -> Vec<String> {
    let mut per_shard = [0usize; SHARDS];
    let mut names = Vec::new();
    let mut k = 0;
    while names.len() < count {
        let name = format!("{prefix}-{k}");
        let shard = shard_for_task(&name, SHARDS);
        if per_shard[shard] < count.div_ceil(SHARDS) {
            per_shard[shard] += 1;
            names.push(name);
        }
        k += 1;
    }
    names
}

fn bulk_readwrite(seed: u64, span_ns: u64) -> Plan {
    let mut tenants: Vec<Tenant> = balanced_names("bulk", BULK_TENANTS)
        .into_iter()
        .enumerate()
        .map(|(t, name)| {
            let mut base = SyntheticConfig::paper_default(tenant_seed(seed, t));
            base.num_objects = BULK_OBJECTS;
            base.num_workers = BULK_WORKERS;
            base.answers_per_object = Some(BULK_ANSWERS_PER_OBJECT);
            base.reliability = BULK_RELIABILITY;
            let stream = StreamingConfig {
                base,
                batch_size: BULK_BATCH,
                ..StreamingConfig::paper_default(0)
            };
            Tenant::generate(name, stream)
        })
        .collect();
    let mut known: Vec<Vec<String>> = tenants
        .iter()
        .map(|t| distinct_objects(&t.preload))
        .collect();
    let mut log = Log::default();
    let setup = setup_stage(&mut log, &mut tenants);

    // Write groups, round-robin across tenants: the write, then reads of
    // objects the tenant already holds, then the periodic checkpoints.
    let mut rng = tenant_seed(seed, usize::MAX);
    let mut next_rand = move |bound: usize| {
        rng = tenant_seed(rng, 0);
        (rng % bound as u64) as usize
    };
    let mut writes = vec![0usize; tenants.len()];
    let mut groups: Vec<Vec<(Kind, u32, Request)>> = Vec::new();
    for (tu, batch) in round_robin(&mut tenants) {
        let t = tu as usize;
        let task = tenants[t].name.clone();
        let mut seen: std::collections::HashSet<String> = known[t].iter().cloned().collect();
        let fresh: Vec<String> = batch
            .iter()
            .filter(|v| seen.insert(v.object.clone()))
            .map(|v| v.object.clone())
            .collect();
        let mut group = vec![(Kind::Votes, tu, tenants[t].submit(batch))];
        for _ in 0..4 {
            let object = known[t][next_rand(known[t].len())].clone();
            group.push((
                Kind::Posterior,
                tu,
                Request::QueryPosterior {
                    task: task.clone(),
                    object,
                },
            ));
        }
        group.push((
            Kind::Trust,
            tu,
            Request::QueryWorkerTrust { task: task.clone() },
        ));
        group.push((
            Kind::Triage,
            tu,
            Request::TriageStats { task: task.clone() },
        ));
        writes[t] += 1;
        if writes[t].is_multiple_of(8) {
            group.push((
                Kind::Delta,
                tu,
                Request::SnapshotDelta { task: task.clone() },
            ));
        }
        if writes[t].is_multiple_of(32) {
            group.push((Kind::Snapshot, tu, Request::Snapshot { task }));
        }
        known[t].extend(fresh);
        groups.push(group);
    }
    let paced_span = span_ns * PACED_SHARE_PERCENT / 100;
    let interval = 1e9 / BULK_PACED_RATE;
    let paced_groups = ((paced_span as f64 / interval) as usize).min(groups.len() / 2);
    let mut groups = groups.into_iter();
    let mut paced = Vec::new();
    for g in 0..paced_groups {
        let offset = (g as f64 * interval) as u64;
        for (kind, t, request) in groups.next().expect("paced part fits the script") {
            paced.push((offset, log.add(kind, Phase::Paced, t, request)));
        }
    }
    paced.extend(monitor(&mut log, Phase::Paced, paced_span));
    let saturation: Vec<u64> = groups
        .flatten()
        .map(|(kind, t, request)| log.add(kind, Phase::Saturation, t, request))
        .collect();
    let saturation_span = span_ns - paced_span;
    let timed = monitor(&mut log, Phase::Saturation, saturation_span);
    Plan {
        name: "bulk-readwrite",
        tenants,
        log,
        stages: vec![
            setup,
            Stage::Paced(paced),
            Stage::Probe,
            Stage::Window {
                script: saturation,
                window: BULK_WINDOW,
                span_ns: saturation_span,
                timed,
            },
            Stage::Verify { window: 64 },
        ],
    }
}

/// `RuntimeStats` + `Health` every [`MONITOR_EVERY_NS`] over `span_ns`.
fn monitor(log: &mut Log, phase: Phase, span_ns: u64) -> Vec<(u64, u64)> {
    (0..span_ns / MONITOR_EVERY_NS)
        .flat_map(|i| {
            let at = i * MONITOR_EVERY_NS;
            [
                (
                    at,
                    log.add(Kind::Stats, phase, u32::MAX, Request::RuntimeStats),
                ),
                (at, log.add(Kind::Health, phase, u32::MAX, Request::Health)),
            ]
        })
        .collect()
}

/// Distinct object ids of a vote list, in first-seen order.
pub fn distinct_objects(votes: &[ClientVote]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    votes
        .iter()
        .filter(|v| seen.insert(v.object.as_str()))
        .map(|v| v.object.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_script() {
        let a = plan("ingest-fanout", 7, 2).unwrap();
        let b = plan("ingest-fanout", 7, 2).unwrap();
        assert_eq!(a.log.recs.len(), b.log.recs.len());
        assert!(a
            .log
            .recs
            .iter()
            .zip(&b.log.recs)
            .all(|(x, y)| x.request == y.request));
        let c = plan("ingest-fanout", 8, 2).unwrap();
        assert!(a
            .log
            .recs
            .iter()
            .zip(&c.log.recs)
            .any(|(x, y)| x.request != y.request));
    }

    #[test]
    fn bulk_tenants_split_evenly_across_shards() {
        let names = balanced_names("bulk", BULK_TENANTS);
        let on_zero = names
            .iter()
            .filter(|n| shard_for_task(n, SHARDS) == 0)
            .count();
        assert_eq!(on_zero, BULK_TENANTS / 2);
    }

    #[test]
    fn reads_only_name_objects_the_tenant_already_holds() {
        let p = plan("bulk-readwrite", 3, 2).unwrap();
        let mut held: Vec<std::collections::HashSet<String>> =
            vec![Default::default(); p.tenants.len()];
        // Script order is per-tenant submission order.
        let mut ids: Vec<&Rec> = p.log.recs.iter().collect();
        ids.sort_by_key(|r| r.phase == Phase::Saturation);
        for rec in ids {
            match &rec.request {
                Request::SubmitVotes { votes, .. } => {
                    held[rec.tenant as usize].extend(votes.iter().map(|v| v.object.clone()))
                }
                Request::QueryPosterior { object, .. } => {
                    assert!(held[rec.tenant as usize].contains(object), "{object}")
                }
                _ => {}
            }
        }
    }
}
