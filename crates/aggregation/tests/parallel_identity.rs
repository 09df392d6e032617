//! Serial vs blocked-parallel EM bit-identity (see `crate::parblock` for the
//! determinism contract this asserts).
//!
//! The corpus is sized just above both parallel gates (`PAR_MIN_OBJECTS` /
//! `PAR_MIN_WORKERS`), so the parallel arm genuinely runs the blocked
//! kernels. All assertions compare `f64::to_bits` — exact equality, not a
//! tolerance.
//!
//! Everything lives in one `#[test]` because [`set_em_threads`] is a global
//! knob: concurrent tests flipping it would race each other. Integration
//! tests get their own process, so other suites are unaffected.

use crowdval_aggregation::{
    run_delta_em_from_dirty, run_warm_em, set_em_threads, EmConfig, EmWorkspace,
};
use crowdval_model::{
    AnswerSet, ConfusionMatrix, ExpertValidation, LabelId, ObjectId, ProbabilisticAnswerSet,
    WorkerId,
};

/// Deterministic corpus above both parallel gates: `n` objects, `k` workers,
/// 3 votes per object, ~70 % agreement with a rotating ground truth.
fn build_corpus(n: usize, k: usize, m: usize) -> AnswerSet {
    let mut answers = AnswerSet::new(n, k, m);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for o in 0..n {
        let truth = o % m;
        for _ in 0..3 {
            let w = (next() as usize) % k;
            let label = if next() % 10 < 7 {
                truth
            } else {
                (next() as usize) % m
            };
            answers
                .record_answer(ObjectId(o), WorkerId(w), LabelId(label))
                .unwrap();
        }
    }
    answers
}

fn assert_bits_identical(a: &ProbabilisticAnswerSet, b: &ProbabilisticAnswerSet, what: &str) {
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(a.assignment().matrix().as_slice()),
        bits(b.assignment().matrix().as_slice()),
        "{what}: assignment diverged"
    );
    assert_eq!(
        bits(a.priors()),
        bits(b.priors()),
        "{what}: priors diverged"
    );
    for (w, (ca, cb)) in a.confusions().iter().zip(b.confusions()).enumerate() {
        assert_eq!(
            bits(ca.matrix().as_slice()),
            bits(cb.matrix().as_slice()),
            "{what}: confusion of worker {w} diverged"
        );
    }
}

#[test]
fn parallel_em_is_bit_identical_to_serial() {
    let (n, k, m) = (9216, 2304, 3);
    let answers = build_corpus(n, k, m);
    let mut expert = ExpertValidation::empty(n);
    for o in 0..8 {
        expert.set(ObjectId(o), LabelId(o % m));
    }
    let config = EmConfig::paper_default();
    let confusions = vec![ConfusionMatrix::diagonal(m, 0.7); k];
    let priors = vec![1.0 / m as f64; m];

    // Full warm EM: E- and M-steps both clear their gates.
    set_em_threads(1);
    let serial = run_warm_em(&answers, &expert, &confusions, &priors, &config);
    set_em_threads(4);
    let parallel = run_warm_em(&answers, &expert, &confusions, &priors, &config);
    assert_bits_identical(&serial, &parallel, "warm EM");

    // Delta path seeded with a corpus-wide dirty frontier, so the blocked
    // row kernel engages in the scoped sweeps too.
    let seeds: Vec<ObjectId> = (0..n).map(ObjectId).collect();
    let run_delta = |threads: usize| {
        set_em_threads(threads);
        let mut ws = EmWorkspace::new();
        ws.seed_from(&answers, &serial);
        let it = run_delta_em_from_dirty(&answers, &expert, &mut ws, &config, &seeds);
        ws.export(it)
    };
    let delta_serial = run_delta(1);
    let delta_parallel = run_delta(4);
    set_em_threads(0);
    assert_bits_identical(&delta_serial, &delta_parallel, "delta EM");
}
