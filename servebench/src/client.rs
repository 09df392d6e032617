//! The load generator's reply-driven state machine: runs a plan's stages
//! in order, keeps windows full, plays the closed-loop experts, and closes
//! the input once the last stage is answered.

use crate::harness::{Client, Clock, Outbox};
use crate::workloads::{Kind, Log, Phase, Plan, Stage, Tenant};
use crowdval_service::{Reply, Request, RequestEnvelope, Response};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// One expert: the tenants it works through, round-robin.
struct Expert {
    tenants: Vec<usize>,
    cursor: usize,
}

/// Closed-loop expert state of an `Experts` stage.
struct Experts {
    experts: Vec<Expert>,
    /// Which expert sent each outstanding request.
    owner: std::collections::HashMap<u64, usize>,
    validations: Vec<u32>,
    done: Vec<bool>,
    cap: u32,
}

/// What the current stage still has to send.
enum Active {
    Idle,
    Window {
        script: VecDeque<u64>,
        window_ids: BTreeSet<u64>,
        deadline_ns: u64,
        issuing: bool,
    },
    Experts {
        state: Experts,
        deadline_ns: u64,
    },
}

pub struct Runner {
    pub name: &'static str,
    pub tenants: Vec<Tenant>,
    pub log: Log,
    stages: VecDeque<Stage>,
    outbox: Arc<Outbox>,
    clock: Clock,
    active: Active,
    /// Requests of the current stage sent and not yet answered.
    pending: usize,
    /// When each stage started and ended, by phase.
    pub stage_times: Vec<(Phase, u64, u64)>,
    stage_start: u64,
    stage_phase: Phase,
}

impl Runner {
    pub fn new(plan: Plan, outbox: Arc<Outbox>, clock: Clock) -> Self {
        Runner {
            name: plan.name,
            tenants: plan.tenants,
            log: plan.log,
            stages: plan.stages.into(),
            outbox,
            clock,
            active: Active::Idle,
            pending: 0,
            stage_times: Vec::new(),
            stage_start: 0,
            stage_phase: Phase::Setup,
        }
    }

    /// Runs only the setup stage (the repeated set-up measurements).
    pub fn setup_only(mut self) -> Self {
        self.stages.truncate(1);
        self
    }

    fn send(&mut self, id: u64, due_ns: u64) {
        let line = self.line(id);
        self.log.recs[id as usize].due_ns = due_ns;
        self.outbox.push(due_ns, id, line);
        self.pending += 1;
    }

    /// The request's line, serialized on first use.
    fn line(&mut self, id: u64) -> Arc<str> {
        let rec = &mut self.log.recs[id as usize];
        let line = rec.line.get_or_insert_with(|| {
            let envelope = RequestEnvelope::new(id, rec.request.clone());
            let mut text = serde_json::to_string(&envelope).expect("requests serialize");
            text.push('\n');
            Arc::from(text)
        });
        Arc::clone(line)
    }

    fn add_and_send(
        &mut self,
        kind: Kind,
        phase: Phase,
        tenant: usize,
        request: Request,
        now: u64,
    ) -> u64 {
        let id = self.log.add(kind, phase, tenant as u32, request);
        self.send(id, now);
        id
    }

    /// Once nothing is outstanding the current stage is over (a window or
    /// an expert only sends in response to a reply): start the next stage
    /// that sends anything, or close the input after the last one.
    fn advance(&mut self, now: u64) {
        while self.pending == 0 {
            if self.stage_start != u64::MAX {
                self.stage_times
                    .push((self.stage_phase, self.stage_start, now));
            }
            self.active = Active::Idle;
            let Some(stage) = self.stages.pop_front() else {
                self.stage_start = u64::MAX;
                self.outbox.close();
                return;
            };
            self.stage_start = now;
            self.start_stage(stage, now);
        }
    }

    fn start_stage(&mut self, stage: Stage, now: u64) {
        match stage {
            Stage::Burst(ids) => {
                self.stage_phase = ids
                    .first()
                    .map_or(Phase::Setup, |&id| self.log.recs[id as usize].phase);
                for id in ids {
                    self.send(id, now);
                }
            }
            Stage::Paced(schedule) => {
                self.stage_phase = Phase::Paced;
                // Serialize the whole schedule first, so the clock starts
                // once every line is ready.
                for &(_, id) in &schedule {
                    self.line(id);
                }
                let now = self.clock.now_ns();
                self.stage_start = now;
                for (offset, id) in schedule {
                    self.send(id, now + offset);
                }
            }
            Stage::Window {
                script,
                window,
                span_ns,
                timed,
            } => {
                self.stage_phase = Phase::Saturation;
                for (offset, id) in timed {
                    self.send(id, now + offset);
                }
                self.start_window(script, window, now + span_ns, now);
            }
            Stage::Experts {
                experts,
                cap,
                span_ns,
            } => {
                self.stage_phase = Phase::Experts;
                let n = self.tenants.len();
                let mut state = Experts {
                    experts: (0..experts)
                        .map(|e| Expert {
                            tenants: (e..n).step_by(experts).collect(),
                            cursor: 0,
                        })
                        .collect(),
                    owner: Default::default(),
                    validations: vec![0; n],
                    done: vec![false; n],
                    cap,
                };
                for e in 0..experts {
                    self.expert_next(&mut state, e, now);
                }
                self.active = Active::Experts {
                    state,
                    deadline_ns: now + span_ns,
                };
            }
            Stage::Verify { window } => {
                self.stage_phase = Phase::Verify;
                let script = self.verify_script();
                self.start_window(script, window, u64::MAX, now);
            }
            Stage::Probe => {
                self.stage_phase = Phase::Probe;
                let id = self
                    .log
                    .add(Kind::Stats, Phase::Probe, u32::MAX, Request::RuntimeStats);
                self.send(id, now);
            }
        }
    }

    /// Sends the first `window` requests of `script`; each reply sends the
    /// next until the script ends or `deadline_ns` passes.
    fn start_window(&mut self, script: Vec<u64>, window: usize, deadline_ns: u64, now: u64) {
        let mut script: VecDeque<u64> = script.into();
        let mut window_ids = BTreeSet::new();
        for id in script.drain(..window.min(script.len())) {
            window_ids.insert(id);
            self.send(id, now);
        }
        self.active = Active::Window {
            script,
            window_ids,
            deadline_ns,
            issuing: true,
        };
    }

    /// A `QueryPosterior` for every object each tenant acknowledged votes
    /// for, tenant by tenant.
    fn verify_script(&mut self) -> Vec<u64> {
        let mut received: Vec<BTreeSet<String>> = vec![BTreeSet::new(); self.tenants.len()];
        for rec in &self.log.recs {
            if let (true, Request::SubmitVotes { votes, .. }) = (rec.ok, &rec.request) {
                let objects = &mut received[rec.tenant as usize];
                for vote in votes {
                    if !objects.contains(&vote.object) {
                        objects.insert(vote.object.clone());
                    }
                }
            }
        }
        let mut ids = Vec::new();
        for (t, objects) in received.into_iter().enumerate() {
            for object in objects {
                let request = Request::QueryPosterior {
                    task: self.tenants[t].name.clone(),
                    object,
                };
                ids.push(
                    self.log
                        .add(Kind::Posterior, Phase::Verify, t as u32, request),
                );
            }
        }
        ids
    }

    /// Sends expert `e`'s next guidance request, or retires the expert.
    fn expert_next(&mut self, state: &mut Experts, e: usize, now: u64) {
        let expert = &mut state.experts[e];
        for _ in 0..expert.tenants.len() {
            let t = expert.tenants[expert.cursor % expert.tenants.len()];
            expert.cursor += 1;
            if !state.done[t] {
                let request = Request::RequestGuidance {
                    task: self.tenants[t].name.clone(),
                };
                let id = self.add_and_send(Kind::Guidance, Phase::Experts, t, request, now);
                state.owner.insert(id, e);
                return;
            }
        }
    }

    fn expert_reply(
        &mut self,
        state: &mut Experts,
        id: u64,
        ok: bool,
        line: &[u8],
        now: u64,
        issuing: bool,
    ) {
        let Some(e) = state.owner.remove(&id) else {
            return;
        };
        let rec = &self.log.recs[id as usize];
        let t = rec.tenant as usize;
        match rec.kind {
            Kind::Guidance if ok => {
                let reply: Reply =
                    serde_json::from_str(std::str::from_utf8(line).expect("reply lines are UTF-8"))
                        .expect("guidance replies parse");
                match reply.into_result() {
                    Ok(Response::Guidance {
                        object: Some(object),
                        ..
                    }) if issuing => {
                        let label = self.tenants[t]
                            .truth_of(&object)
                            .expect("guidance names a generated object");
                        let request = Request::SubmitValidation {
                            task: self.tenants[t].name.clone(),
                            object,
                            label: label.to_string(),
                        };
                        let vid =
                            self.add_and_send(Kind::Validation, Phase::Experts, t, request, now);
                        state.owner.insert(vid, e);
                        return;
                    }
                    Ok(Response::Guidance { object: None, .. }) => state.done[t] = true,
                    _ => {}
                }
            }
            Kind::Validation if ok => {
                state.validations[t] += 1;
                if state.validations[t] >= state.cap {
                    state.done[t] = true;
                }
            }
            // A failed request (shed guidance, say) is retried by the next
            // guidance request of the rotation.
            _ => {}
        }
        if issuing {
            self.expert_next(state, e, now);
        }
    }
}

impl Client for Runner {
    fn start(&mut self, now_ns: u64) {
        self.stage_start = u64::MAX;
        self.advance(now_ns);
    }

    fn on_reply(&mut self, id: u64, ok: bool, line: &[u8], now_ns: u64) {
        {
            let rec = &mut self.log.recs[id as usize];
            rec.done_ns = Some(now_ns);
            rec.ok = ok;
            rec.reply = Some(line.into());
        }
        self.pending -= 1;
        match std::mem::replace(&mut self.active, Active::Idle) {
            Active::Idle => {}
            Active::Window {
                mut script,
                mut window_ids,
                deadline_ns,
                mut issuing,
            } => {
                if window_ids.remove(&id) {
                    issuing &= now_ns < deadline_ns;
                    if issuing {
                        if let Some(next) = script.pop_front() {
                            window_ids.insert(next);
                            self.send(next, now_ns);
                        }
                    }
                }
                self.active = Active::Window {
                    script,
                    window_ids,
                    deadline_ns,
                    issuing,
                };
            }
            Active::Experts {
                mut state,
                deadline_ns,
            } => {
                self.expert_reply(&mut state, id, ok, line, now_ns, now_ns < deadline_ns);
                self.active = Active::Experts { state, deadline_ns };
            }
        }
        self.advance(now_ns);
    }
}
