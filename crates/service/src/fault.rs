//! Deterministic fault injection for the sharded runtime.
//!
//! Chaos testing is only worth anything here if it is **replayable**: the
//! repo's whole verification style is bit-identical replay, so injected
//! faults must fire at exact, seed-determined points in the request stream
//! rather than on wall-clock timers. A [`FaultPlan`] names faults by
//! *(shard, arrival index)* — "the 12th request shard 2 receives" — which is
//! deterministic per shard because each shard consumes its mailbox serially,
//! even though the interleaving *across* shards is not.
//!
//! The plan is armed through protocol v5's `FaultInject` request (dispatcher
//! -handled, gated behind
//! [`crate::supervisor::SupervisionConfig::fault_injection`]) and consumed by
//! the shard workers through a shared [`FaultRegistry`]. Production builds
//! never arm a registry, and the per-arrival check is one relaxed atomic
//! increment plus a lock-free emptiness test.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What a fault does to the shard worker when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker panics **after** handling the request but before
    /// acknowledging it: the in-flight mutation is lost and the supervisor
    /// must roll the task back to its acknowledged prefix. The hardest
    /// crash point — recovery must prove the half-applied mutation left no
    /// trace.
    Panic,
    /// The worker panics **before** handling the request: a clean crash
    /// with no in-flight mutation.
    Kill,
    /// The worker stalls for the given number of milliseconds before
    /// handling the request — a straggler, exercising deadlines and
    /// shedding rather than recovery.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// The worker handles the request but its reply goes missing. Only
    /// applied to read-only requests — dropping the acknowledgement of a
    /// mutation would make "the set of acknowledged requests" ill-defined,
    /// which is the reference state recovery is proven against. The lost
    /// reply is detected at shutdown and flushed as a typed
    /// `Unavailable { reason: RequestLost }` error, so no correlation id
    /// ever goes unanswered.
    DropReply,
    /// The stored crash-recovery checkpoint of the request's task is torn
    /// (bytes bit-flipped) after the request is handled. The next recovery
    /// of that shard must surface a typed error for the task instead of
    /// resurrecting corrupt state — or panicking.
    TearCheckpoint,
}

/// One scheduled fault: fire `kind` when shard `shard` receives its
/// `arrival`-th request (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Target shard index.
    pub shard: usize,
    /// 1-based arrival index on that shard at which the fault fires.
    pub arrival: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, serializable schedule of faults.
///
/// Plans travel over the wire in the protocol v5 `FaultInject` request, so
/// a chaos run is fully described by (request stream, fault plan) — both
/// plain data, both replayable.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules one fault.
    pub fn push(&mut self, shard: usize, arrival: u64, kind: FaultKind) {
        self.faults.push(FaultSpec {
            shard,
            arrival,
            kind,
        });
    }

    /// A seeded plan that crashes **every** shard at least once: each shard
    /// gets one `Panic` or `Kill` (seed-chosen) at a pseudo-random arrival
    /// in `[lo, hi]`. The same seed always yields the same plan.
    pub fn seeded_crashes(seed: u64, num_shards: usize, lo: u64, hi: u64) -> Self {
        let mut state = seed;
        let span = hi.max(lo) - lo + 1;
        let mut plan = Self::new();
        for shard in 0..num_shards {
            let arrival = lo + splitmix(&mut state) % span;
            let kind = if splitmix(&mut state).is_multiple_of(2) {
                FaultKind::Panic
            } else {
                FaultKind::Kill
            };
            plan.push(shard, arrival.max(1), kind);
        }
        plan
    }
}

/// SplitMix64 step — the repo's standard dependency-free PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-shard fault schedule plus the arrival counter it keys on.
struct ShardFaults {
    /// Requests this shard has received (monotone across restarts — the
    /// replacement worker keeps counting where the dead one stopped, so a
    /// plan can schedule faults past the first crash).
    arrivals: AtomicU64,
    /// Armed faults by arrival index.
    pending: Mutex<BTreeMap<u64, FaultKind>>,
    /// Fast path: false ⇒ skip the mutex entirely.
    armed: AtomicBool,
}

/// The shared fault schedule the shard workers consult on every arrival.
///
/// With nothing armed the per-request cost is one relaxed increment and one
/// relaxed load. [`FaultRegistry::arm`] merges additional plans at runtime.
pub struct FaultRegistry {
    shards: Vec<ShardFaults>,
}

impl FaultRegistry {
    /// A registry for `num_shards` shards with nothing armed.
    pub fn new(num_shards: usize) -> Self {
        Self {
            shards: (0..num_shards)
                .map(|_| ShardFaults {
                    arrivals: AtomicU64::new(0),
                    pending: Mutex::new(BTreeMap::new()),
                    armed: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Arms every fault in the plan whose shard exists, returning how many
    /// were armed. Arrival indices already consumed never fire (the counter
    /// only moves forward); arming the same (shard, arrival) twice keeps the
    /// later kind.
    pub fn arm(&self, plan: &FaultPlan) -> usize {
        let mut armed = 0;
        for spec in &plan.faults {
            let Some(shard) = self.shards.get(spec.shard) else {
                continue;
            };
            shard
                .pending
                .lock()
                .expect("fault schedule lock poisoned")
                .insert(spec.arrival, spec.kind);
            shard.armed.store(true, Ordering::Release);
            armed += 1;
        }
        armed
    }

    /// Records one request arrival on `shard` and returns the fault armed
    /// for exactly this arrival, if any. Called by the shard worker before
    /// handling each mailbox request.
    pub fn on_arrival(&self, shard: usize) -> Option<FaultKind> {
        let state = self.shards.get(shard)?;
        let arrival = state.arrivals.fetch_add(1, Ordering::Relaxed) + 1;
        if !state.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut pending = state.pending.lock().expect("fault schedule lock poisoned");
        let fired = pending.remove(&arrival);
        if pending.is_empty() {
            state.armed.store(false, Ordering::Release);
        }
        fired
    }

    /// Faults still waiting to fire, across all shards.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.pending
                    .lock()
                    .expect("fault schedule lock poisoned")
                    .len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic_and_covers_every_shard() {
        let a = FaultPlan::seeded_crashes(42, 4, 3, 20);
        let b = FaultPlan::seeded_crashes(42, 4, 3, 20);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 4);
        for shard in 0..4 {
            let spec = a.faults.iter().find(|f| f.shard == shard).unwrap();
            assert!((3..=20).contains(&spec.arrival));
            assert!(matches!(spec.kind, FaultKind::Panic | FaultKind::Kill));
        }
        let c = FaultPlan::seeded_crashes(43, 4, 3, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn registry_fires_at_the_exact_arrival_and_only_once() {
        let registry = FaultRegistry::new(2);
        let mut plan = FaultPlan::new();
        plan.push(1, 3, FaultKind::Panic);
        assert_eq!(registry.arm(&plan), 1);
        assert_eq!(registry.pending(), 1);

        assert_eq!(registry.on_arrival(1), None);
        assert_eq!(registry.on_arrival(1), None);
        assert_eq!(registry.on_arrival(1), Some(FaultKind::Panic));
        assert_eq!(registry.on_arrival(1), None);
        assert_eq!(registry.pending(), 0);
        // The untargeted shard never fires.
        for _ in 0..5 {
            assert_eq!(registry.on_arrival(0), None);
        }
    }

    #[test]
    fn arrival_counter_survives_restarts_conceptually() {
        // The counter lives in the registry, not the worker: consuming
        // arrivals 1..=2, then arming a fault at 4, still fires on the 4th
        // overall arrival even if a new worker does the consuming.
        let registry = FaultRegistry::new(1);
        registry.on_arrival(0);
        registry.on_arrival(0);
        let mut plan = FaultPlan::new();
        plan.push(0, 4, FaultKind::Kill);
        registry.arm(&plan);
        assert_eq!(registry.on_arrival(0), None); // 3rd
        assert_eq!(registry.on_arrival(0), Some(FaultKind::Kill)); // 4th
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let registry = FaultRegistry::new(2);
        let mut plan = FaultPlan::new();
        plan.push(7, 1, FaultKind::DropReply);
        assert_eq!(registry.arm(&plan), 0);
        assert_eq!(registry.on_arrival(7), None);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::seeded_crashes(7, 3, 1, 9);
        let json = serde_json::to_string(&plan).unwrap();
        let reread: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, reread);
    }
}
