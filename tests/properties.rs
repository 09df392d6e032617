//! Property-based tests of the core invariants, driven by proptest over
//! randomly generated answer sets and validation patterns.

use crowd_validation::prelude::*;
use proptest::prelude::*;

/// Strategy generating a random but well-formed answer set together with a
/// ground truth: up to `max_objects` objects, `max_workers` workers,
/// 2–4 labels, and a random subset of cells filled.
fn arb_answer_set(
    max_objects: usize,
    max_workers: usize,
) -> impl Strategy<Value = (AnswerSet, GroundTruth)> {
    (
        2usize..=max_objects,
        2usize..=max_workers,
        2usize..=4,
        any::<u64>(),
    )
        .prop_flat_map(|(objects, workers, labels, seed)| {
            // Per-cell: Some(label) with ~70 % probability.
            let cells = proptest::collection::vec(
                proptest::option::weighted(0.7, 0..labels),
                objects * workers,
            );
            let truth = proptest::collection::vec(0..labels, objects);
            (Just((objects, workers, labels, seed)), cells, truth).prop_map(
                |((objects, workers, labels, _seed), cells, truth)| {
                    let mut answers = AnswerSet::new(objects, workers, labels);
                    for o in 0..objects {
                        for w in 0..workers {
                            if let Some(l) = cells[o * workers + w] {
                                answers
                                    .record_answer(ObjectId(o), WorkerId(w), LabelId(l))
                                    .unwrap();
                            }
                        }
                    }
                    let truth = GroundTruth::new(truth.into_iter().map(LabelId).collect());
                    (answers, truth)
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The EM aggregators always produce well-formed probabilistic answer
    /// sets: row-stochastic assignment and confusion matrices, priors that
    /// sum to one, and non-negative uncertainty.
    #[test]
    fn aggregation_always_produces_valid_distributions(
        (answers, _truth) in arb_answer_set(12, 6)
    ) {
        let expert = ExpertValidation::empty(answers.num_objects());
        for aggregator in [
            Box::new(MajorityVoting) as Box<dyn Aggregator>,
            Box::new(BatchEm::default()),
            Box::new(IncrementalEm::default()),
        ] {
            let p = aggregator.conclude(&answers, &expert, None);
            prop_assert!(p.assignment().matrix().is_row_stochastic(1e-6));
            for c in p.confusions() {
                prop_assert!(c.matrix().is_row_stochastic(1e-6));
            }
            let prior_sum: f64 = p.priors().iter().sum();
            prop_assert!((prior_sum - 1.0).abs() < 1e-6);
            prop_assert!(p.uncertainty() >= -1e-9);
            prop_assert!(p.uncertainty()
                <= answers.num_objects() as f64 * (answers.num_labels() as f64).ln() + 1e-9);
        }
    }

    /// Expert validations are always honoured exactly, whatever the crowd
    /// says: the assignment pins validated objects and the deterministic
    /// result reports the validated label.
    #[test]
    fn expert_validations_are_always_honoured(
        (answers, truth) in arb_answer_set(10, 5),
        validate_count in 1usize..5
    ) {
        let mut expert = ExpertValidation::empty(answers.num_objects());
        for o in 0..validate_count.min(answers.num_objects()) {
            expert.set(ObjectId(o), truth.label(ObjectId(o)));
        }
        let p = IncrementalEm::default().conclude(&answers, &expert, None);
        for (o, l) in expert.iter() {
            prop_assert!((p.assignment().prob(o, l) - 1.0).abs() < 1e-9);
            prop_assert_eq!(p.instantiate().label(o), l);
            prop_assert!(p.object_uncertainty(o) < 1e-9);
        }
    }

    /// Incremental warm starts never invalidate the state: re-running i-EM
    /// from a previous probabilistic answer set still yields distributions.
    #[test]
    fn warm_started_iem_is_always_valid(
        (answers, truth) in arb_answer_set(10, 5)
    ) {
        let iem = IncrementalEm::default();
        let mut expert = ExpertValidation::empty(answers.num_objects());
        let mut state = iem.conclude(&answers, &expert, None);
        for o in 0..answers.num_objects().min(4) {
            expert.set(ObjectId(o), truth.label(ObjectId(o)));
            state = iem.conclude(&answers, &expert, Some(&state));
            prop_assert!(state.assignment().matrix().is_row_stochastic(1e-6));
        }
    }

    /// The spammer score is always finite, non-negative and bounded by the
    /// Frobenius norm of the confusion matrix.
    #[test]
    fn spammer_scores_are_bounded(
        (answers, truth) in arb_answer_set(10, 5)
    ) {
        let mut expert = ExpertValidation::empty(answers.num_objects());
        for (o, l) in truth.iter() {
            expert.set(o, l);
        }
        let detector = SpammerDetector::default();
        for w in answers.workers() {
            if let Some(confusion) = detector.validation_confusion(&answers, &expert, w) {
                let score = crowdval_spammer::spammer_score(&confusion);
                prop_assert!(score.is_finite());
                prop_assert!(score >= -1e-12);
                prop_assert!(score <= confusion.matrix().frobenius_norm() + 1e-9);
            }
        }
    }

    /// Partitioning covers every object exactly once and respects the block
    /// size cap, for any answer set and cap.
    #[test]
    fn partitioning_is_a_partition(
        (answers, _truth) in arb_answer_set(14, 6),
        cap in 1usize..8
    ) {
        let partition = partition_answer_matrix(&answers, cap);
        let mut seen = vec![false; answers.num_objects()];
        for block in &partition.blocks {
            prop_assert!(block.objects.len() <= cap);
            for o in &block.objects {
                prop_assert!(!seen[o.index()]);
                seen[o.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Majority voting never assigns a label nobody voted for (unless the
    /// object has no votes at all).
    #[test]
    fn majority_vote_only_uses_cast_votes(
        (answers, _truth) in arb_answer_set(12, 6)
    ) {
        let result = MajorityVoting::vote(&answers);
        for o in answers.objects() {
            let votes: Vec<_> = answers.matrix().answers_for_object(o).collect();
            if !votes.is_empty() {
                let assigned = result.label(o);
                prop_assert!(votes.iter().any(|&(_, l)| l == assigned));
            }
        }
    }

    /// Precision improvement is always within [-inf, 1] and equals 1 when the
    /// final precision is perfect.
    #[test]
    fn precision_improvement_bounds(p0 in 0.0f64..1.0, p in 0.0f64..=1.0) {
        let r = GroundTruth::precision_improvement(p0, p);
        prop_assert!(r <= 1.0 + 1e-12);
        if (p - 1.0).abs() < 1e-12 {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    /// Streaming ingestion is batch-order invariant: feeding the same votes
    /// through a [`ValidationSession`] in arbitrary batch orders and sizes
    /// reaches the same posterior as building the answer set up front and
    /// aggregating once, within the shared EM convergence tolerance.
    ///
    /// Two ground-truth validations (from the first batch) anchor the
    /// Dawid–Skene label orientation on both paths. Two assertions, by
    /// strength:
    ///
    /// 1. **Always**: the streamed final state is a genuine fixed point of
    ///    the *full* corpus — re-running the warm aggregation over all votes
    ///    must not move it beyond the convergence tolerance. This is the
    ///    order-invariant certificate (a session that dropped votes,
    ///    mis-grew the matrix, or ended in a mis-anchored orientation fails
    ///    it).
    /// 2. The posterior matches the batch build, *except* on genuinely
    ///    bifurcating likelihoods: EM fixed points are not unique, and a
    ///    streamed trajectory may legitimately settle in an alternative
    ///    optimum of near-equal likelihood (measured: ≤ ~11 % relative gap,
    ///    versus ≥ ~90 % for the degenerate states the session's doubling
    ///    re-anchor exists to escape). Those near-ties are skipped; a
    ///    materially worse likelihood still fails.
    ///
    /// Runs that exhaust the EM iteration budget are skipped outright (an
    /// oscillating estimation has no fixed point for the paths to agree on).
    #[test]
    fn streamed_ingestion_is_batch_order_invariant(
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        num_objects in 10usize..28,
        num_workers in 8usize..20,
        reliability in 0.75f64..0.95,
        batch_size in 1usize..70
    ) {
        use crowd_validation::aggregation::em::log_likelihood;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let synth = SyntheticConfig {
            num_objects,
            num_workers,
            reliability,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(seed)
        }
        .generate();
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let config = EmConfig::paper_default();
        let tolerance = 100.0 * config.tolerance;

        // Shuffle the votes into an arbitrary arrival order.
        let mut votes: Vec<Vote> = answers
            .matrix()
            .iter()
            .map(|(o, w, l)| Vote::new(o, w, l))
            .collect();
        votes.shuffle(&mut StdRng::seed_from_u64(order_seed));

        // Stream them through a session; after the first batch, two
        // validations anchor the orientation.
        let mut session = ValidationSessionBuilder::empty(answers.num_labels())
            .strategy(Box::new(EntropyBaseline))
            .build();
        let mut anchors: Vec<ObjectId> = Vec::new();
        let mut last_iterations = 0usize;
        for (i, batch) in votes.chunks(batch_size).enumerate() {
            let update = session.ingest(batch).unwrap();
            last_iterations = update.em_iterations;
            if i == 0 {
                anchors = batch.iter().map(|v| v.object).take(2).collect();
                anchors.sort();
                anchors.dedup();
                for &o in &anchors {
                    session.integrate(o, truth.label(o)).unwrap();
                }
            }
        }

        prop_assert_eq!(session.answers().num_objects(), answers.num_objects());
        prop_assert_eq!(session.answers().num_workers(), answers.num_workers());
        prop_assert_eq!(
            session.answers().matrix().num_answers(),
            answers.matrix().num_answers()
        );
        prop_assert!(session
            .current()
            .assignment()
            .matrix()
            .is_row_stochastic(1e-6));

        let mut expert = ExpertValidation::empty(answers.num_objects());
        for &o in &anchors {
            expert.set(o, truth.label(o));
        }
        let iem = IncrementalEm::default();

        // (1) Fixed-point re-certification over the full corpus.
        let streamed = session.current();
        let recertified = iem.conclude_warm(&answers, &expert, streamed);
        if recertified.em_iterations() < config.max_iterations {
            let recert_diff = recertified.assignment().max_abs_diff(streamed.assignment());
            prop_assert!(
                recert_diff <= tolerance,
                "streamed state is not a fixed point of the full corpus: moved {} on re-aggregation",
                recert_diff
            );
        }

        // (2) Posterior match against the batch build, modulo bifurcation.
        let reference = iem.conclude(&answers, &expert, None);
        if reference.em_iterations() >= config.max_iterations
            || last_iterations >= config.max_iterations
        {
            return;
        }
        let diff = reference.assignment().max_abs_diff(streamed.assignment());
        if diff > tolerance {
            let ll_ref = log_likelihood(&answers, &expert, reference.confusions(), reference.priors());
            let ll_stream = log_likelihood(&answers, &expert, streamed.confusions(), streamed.priors());
            prop_assert!(
                ll_stream >= ll_ref - 0.3 * ll_ref.abs(),
                "streamed posterior diverged by {} AND its likelihood is materially worse \
                 ({ll_stream} vs {ll_ref}; batch size {})",
                diff, batch_size
            );
        }
    }

    /// Delta-scoped and exact warm-started hypothesis evaluation agree
    /// within the EM tolerance across random *scenarios* — reliability,
    /// spammer mix and answer sparsity all vary. Both paths must also honour
    /// the pinned hypothesis exactly and stay row-stochastic.
    ///
    /// Runs that exhaust the EM iteration budget are skipped: a
    /// non-converged (oscillating) estimation has no fixed point for the two
    /// paths to agree on, in either mode.
    #[test]
    fn delta_and_exact_hypothesis_scoring_agree(
        seed in any::<u64>(),
        num_objects in 12usize..28,
        num_workers in 6usize..14,
        reliability in 0.6f64..0.95,
        spammer_ratio in 0.0f64..0.4,
        answers_per_object in 4usize..10,
        validate_count in 2usize..6
    ) {
        let synth = SyntheticConfig {
            num_objects,
            num_workers,
            reliability,
            mix: PopulationMix::with_spammer_ratio(spammer_ratio),
            answers_per_object: Some(answers_per_object.min(num_workers)),
            ..SyntheticConfig::paper_default(seed)
        }
        .generate();
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let mut expert = ExpertValidation::empty(num_objects);
        for o in 0..validate_count {
            expert.set(ObjectId(o), truth.label(ObjectId(o)));
        }
        let iem = IncrementalEm::default();
        let current = iem.conclude(&answers, &expert, None);
        let config = EmConfig::paper_default();
        // Both paths converge the full model map to `config.tolerance`; the
        // residual between them is trajectory noise (they approach the fixed
        // point from different directions), so the bound is a small multiple
        // of the per-iteration tolerance, not exact equality. Measured worst
        // case over 400 scenarios (2.8k comparisons): ~6e-3, so the 1e-2
        // bound has <2x headroom — do not tighten it without re-running
        // crates/aggregation/examples/delta_sweep.rs.
        let tolerance = 100.0 * config.tolerance;

        for object in expert.unvalidated_objects().into_iter().take(4) {
            for l in 0..answers.num_labels() {
                let label = LabelId(l);
                if current.assignment().prob(object, label) <= 1e-6 {
                    continue;
                }
                let hypothesis = HypothesisOverlay::new(&expert, object, label);
                let exact =
                    iem.conclude_hypothesis(&answers, &hypothesis, &current, ScoringMode::Exact);
                let delta =
                    iem.conclude_hypothesis(&answers, &hypothesis, &current, ScoringMode::Delta);
                prop_assert_eq!(exact.assignment().prob(object, label), 1.0);
                prop_assert_eq!(delta.assignment().prob(object, label), 1.0);
                prop_assert!(delta.assignment().matrix().is_row_stochastic(1e-6));
                if exact.em_iterations() >= config.max_iterations
                    || delta.em_iterations() >= config.max_iterations
                {
                    continue;
                }
                let diff = exact.assignment().max_abs_diff(delta.assignment());
                prop_assert!(
                    diff <= tolerance,
                    "hypothesis ({}, {}): delta/exact differ by {}", object, label, diff
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cross-step guidance caching is invisible in the selection order: a
    /// session with the [`crowdval_core::guidance_cache`] lazy path enabled
    /// picks **bit-identically** the same objects as one that eagerly
    /// re-scores the entire shortlist every step, across random streaming
    /// scenarios — paper-default worker mixes (spammers included), object
    /// and worker churn, arrival batches interleaved with validations, runs
    /// that cross the corpus-doubling cold re-anchor
    /// (`initial_fraction 0.25` guarantees one mid-stream), and a
    /// snapshot/restore of the cached session mid-budget (the cache is
    /// dropped on snapshot, so the restored session's next selection is a
    /// full re-score — which must *still* agree with the warm-cached
    /// uninterrupted run).
    ///
    /// The budget is driven to exhaustion (every object validated), so the
    /// comparison covers the volatile early phase, the settled tail, and
    /// every invalidation guard in between.
    /// `defense` additionally runs the whole comparison with the online
    /// trust ledger enforcing (auto-exclusions mid-stream): the defense
    /// must stay cache-coherent — a tombstone flipped on the cached path
    /// invalidates exactly what the eager path recomputes.
    #[test]
    fn cached_selection_order_is_bit_identical_to_eager(
        seed in any::<u64>(),
        num_objects in 12usize..24,
        num_workers in 8usize..16,
        reliability in 0.6f64..0.9,
        batch_size in 20usize..60,
        snap_numerator in any::<u64>(),
        defense in any::<bool>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects,
                num_workers,
                reliability,
                ..SyntheticConfig::paper_default(seed)
            },
            // 0.25 makes the session's doubling re-anchor fire mid-stream,
            // exercising the global-invalidation path.
            initial_fraction: 0.25,
            batch_size,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();

        let build = |cached: bool| {
            ValidationSessionBuilder::empty(scenario.num_labels)
                .strategy(Box::new(UncertaintyDriven::with_engine(
                    ScoringEngine::with_shortlist(8),
                )))
                .config(ProcessConfig {
                    guidance_cache: cached,
                    trust: if defense {
                        TrustConfig::streaming_default()
                    } else {
                        TrustConfig::default()
                    },
                    ..ProcessConfig::default()
                })
                .try_build()
                .unwrap()
        };
        let validate = |session: &mut ValidationSession, picks: &mut Vec<ObjectId>| {
            if let Some(o) = session.select_next() {
                picks.push(o);
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        let mut eager = build(false);
        let mut eager_picks = Vec::new();
        let mut cached = build(true);
        let mut cached_picks = Vec::new();
        let total_steps = scenario.batches.len() + scenario.config.base.num_objects;
        let snap_at = (snap_numerator % (total_steps as u64 + 1)) as usize;

        // Identical schedules: ingest the initial snapshot, then one
        // validation per arrival batch, then drain until every object is
        // validated. The cached session is snapshotted/restored through
        // JSON after `snap_at` validations.
        eager.ingest(&scenario.initial).unwrap();
        cached.ingest(&scenario.initial).unwrap();
        let mut snapped = false;
        for batch in &scenario.batches {
            eager.ingest(batch).unwrap();
            cached.ingest(batch).unwrap();
            validate(&mut eager, &mut eager_picks);
            validate(&mut cached, &mut cached_picks);
            prop_assert_eq!(&cached_picks, &eager_picks);
            if !snapped && cached_picks.len() >= snap_at {
                snapped = true;
                let json = serde_json::to_string(&cached.snapshot().unwrap()).unwrap();
                let snapshot: crowd_validation::core::SessionSnapshot =
                    serde_json::from_str(&json).unwrap();
                cached = ValidationSession::restore(snapshot).unwrap();
            }
        }
        while eager_picks.len() < eager.answers().num_objects() {
            let before = eager_picks.len();
            validate(&mut eager, &mut eager_picks);
            validate(&mut cached, &mut cached_picks);
            prop_assert_eq!(&cached_picks, &eager_picks);
            if eager_picks.len() == before {
                break;
            }
        }

        prop_assert_eq!(&cached_picks, &eager_picks);
        // The two paths performed identical operations, so the posteriors
        // must be identical too — any divergence would mean the cache
        // changed more than evaluation order.
        prop_assert_eq!(cached.current(), eager.current());
        prop_assert_eq!(cached.trace().len(), eager.trace().len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot/restore is transparent: interrupt a streaming validation
    /// session at a random point of a PR-3 arrival schedule (object and
    /// worker churn included), serialize the snapshot through JSON, restore,
    /// and continue — the final posterior, the trace and the selection order
    /// must be **bit-identical** to the uninterrupted session. The hybrid
    /// strategy's roulette RNG makes this sensitive to any lost state: a
    /// single skipped or replayed draw changes the selection sequence.
    #[test]
    fn snapshot_restore_is_transparent_mid_stream(
        seed in any::<u64>(),
        snap_numerator in any::<u64>(),
        strategy_seed in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: 14,
                num_workers: 9,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();

        let build = || {
            ValidationSessionBuilder::empty(scenario.num_labels)
                .strategy(Box::new(HybridStrategy::new(strategy_seed)))
                .try_build()
                .unwrap()
        };
        // One validation between arrival batches, once votes exist.
        let validate = |session: &mut ValidationSession, picks: &mut Vec<ObjectId>| {
            if session.answers().num_objects() == 0 {
                return;
            }
            if let Some(o) = session.select_next() {
                picks.push(o);
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        // Uninterrupted reference.
        let mut reference = build();
        let mut ref_picks = Vec::new();
        reference.ingest(&scenario.initial).unwrap();
        validate(&mut reference, &mut ref_picks);
        for batch in &scenario.batches {
            reference.ingest(batch).unwrap();
            validate(&mut reference, &mut ref_picks);
        }

        // Interrupted run: snapshot after a random batch, restore from JSON.
        let snap_after = (snap_numerator % (scenario.batches.len() as u64 + 1)) as usize;
        let mut live = build();
        let mut picks = Vec::new();
        live.ingest(&scenario.initial).unwrap();
        validate(&mut live, &mut picks);
        for batch in &scenario.batches[..snap_after] {
            live.ingest(batch).unwrap();
            validate(&mut live, &mut picks);
        }
        let snapshot = live.snapshot().unwrap();
        drop(live);
        let json = serde_json::to_string(&snapshot).unwrap();
        let snapshot: crowd_validation::core::SessionSnapshot =
            serde_json::from_str(&json).unwrap();
        let mut restored = ValidationSession::restore(snapshot).unwrap();
        for batch in &scenario.batches[snap_after..] {
            restored.ingest(batch).unwrap();
            validate(&mut restored, &mut picks);
        }

        prop_assert_eq!(picks, ref_picks);
        prop_assert_eq!(restored.current(), reference.current());
        prop_assert_eq!(restored.trace(), reference.trace());
        prop_assert_eq!(restored.votes_ingested(), reference.votes_ingested());
        prop_assert_eq!(
            restored.excluded_workers(),
            reference.excluded_workers()
        );
        // And the restored session still checkpoints cleanly.
        prop_assert_eq!(
            restored.snapshot().unwrap(),
            reference.snapshot().unwrap()
        );
    }

    /// Delta checkpoints replay to the live session bit-for-bit: anchor a
    /// full snapshot at a random point of a streaming schedule, keep going
    /// (arrival batches, roulette-driven validations, a manual tombstone
    /// flip), then take a [`SessionDelta`] and replay it on the anchor —
    /// posterior, trace, exclusions and the next full snapshot must all be
    /// **bit-identical** to the uninterrupted session, even though the delta
    /// carries only the event log, never the corpus.
    #[test]
    fn delta_snapshot_replays_to_the_live_session(
        seed in any::<u64>(),
        anchor_numerator in any::<u64>(),
        strategy_seed in any::<u64>(),
        flip_numerator in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: 14,
                num_workers: 9,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();

        let mut live = ValidationSessionBuilder::empty(scenario.num_labels)
            .strategy(Box::new(HybridStrategy::new(strategy_seed)))
            .try_build()
            .unwrap();
        live.enable_delta_log();
        let validate = |session: &mut ValidationSession| {
            if session.answers().num_objects() == 0 {
                return;
            }
            if let Some(o) = session.select_next() {
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        live.ingest(&scenario.initial).unwrap();
        validate(&mut live);
        let anchor_after = (anchor_numerator % (scenario.batches.len() as u64 + 1)) as usize;
        for batch in &scenario.batches[..anchor_after] {
            live.ingest(batch).unwrap();
            validate(&mut live);
        }
        // The full snapshot is the anchor; taking it re-anchors the log.
        let anchor = live.snapshot().unwrap();

        // Keep the live session going past the anchor.
        for batch in &scenario.batches[anchor_after..] {
            live.ingest(batch).unwrap();
            validate(&mut live);
        }
        let victim = WorkerId(
            (flip_numerator % live.answers().num_workers() as u64) as usize,
        );
        live.set_worker_excluded(victim, true).unwrap();

        // Deltas are plain serde values, like full snapshots.
        let delta = live.delta_snapshot().unwrap();
        let json = serde_json::to_string(&delta).unwrap();
        let delta: crowd_validation::core::SessionDelta =
            serde_json::from_str(&json).unwrap();
        let replayed = ValidationSession::restore_with_delta(anchor, delta).unwrap();

        prop_assert_eq!(replayed.current(), live.current());
        prop_assert_eq!(replayed.trace(), live.trace());
        prop_assert_eq!(replayed.votes_ingested(), live.votes_ingested());
        prop_assert_eq!(replayed.excluded_workers(), live.excluded_workers());
        prop_assert_eq!(replayed.snapshot().unwrap(), live.snapshot().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tombstoning purges a worker completely: stream a scenario to the
    /// end, exclude one random worker via
    /// [`ValidationSession::set_worker_excluded`] (which re-anchors the
    /// aggregation cold over the masked answers), and the posterior must
    /// match a fresh session that ingested the same stream with that
    /// worker's votes filtered out — the mask plus cold re-anchor leaves
    /// no trace of the excluded worker's votes in the EM state.
    #[test]
    fn excluding_a_worker_equals_never_having_seen_them(
        seed in any::<u64>(),
        num_objects in 10usize..20,
        num_workers in 6usize..12,
        reliability in 0.6f64..0.9,
        worker_numerator in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects,
                num_workers,
                reliability,
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();

        // Streamed session: warm incremental aggregation throughout, then
        // one worker tombstoned at the end.
        let mut streamed = ValidationSessionBuilder::empty(scenario.num_labels)
            .try_build()
            .unwrap();
        streamed.ingest(&scenario.initial).unwrap();
        for batch in &scenario.batches {
            streamed.ingest(batch).unwrap();
        }
        let victim = WorkerId(
            (worker_numerator % streamed.answers().num_workers() as u64) as usize,
        );
        prop_assert!(streamed.set_worker_excluded(victim, true).unwrap());
        prop_assert_eq!(streamed.excluded_workers(), vec![victim]);

        // Fresh session: the victim's votes never existed.
        let filtered: Vec<Vote> = scenario
            .all_votes()
            .into_iter()
            .filter(|v| v.worker != victim)
            .collect();
        if filtered.len() < 2 {
            return;
        }
        let mut fresh = ValidationSessionBuilder::empty(scenario.num_labels)
            .try_build()
            .unwrap();
        fresh.ingest(&filtered).unwrap();

        let a = streamed.current().assignment();
        let b = fresh.current().assignment();
        for o in 0..a.num_objects().min(b.num_objects()) {
            for l in 0..scenario.num_labels {
                let (object, label) = (ObjectId(o), LabelId(l));
                prop_assert!(
                    (a.prob(object, label) - b.prob(object, label)).abs() <= 1e-9,
                    "posterior diverged at object {o} label {l}: {} vs {}",
                    a.prob(object, label),
                    b.prob(object, label)
                );
            }
        }
    }

    /// The slab layout is invisible to the estimation: aggregating the
    /// answer set a streamed session grew in place (rows relocated and
    /// repacked along the way) yields **bit-identical** posteriors,
    /// confusions and priors to the same answer set after a JSON round trip
    /// (every row packed tightly in row order), cold and warm, across
    /// random streaming scenarios — object/worker churn, a mid-stream corpus
    /// doubling re-anchor (`initial_fraction 0.25`), and an optional
    /// worker-exclusion flip (the tombstone mask must filter identically on
    /// both layouts).
    #[test]
    fn restored_store_leaves_posteriors_bit_identical(
        seed in any::<u64>(),
        num_objects in 10usize..20,
        num_workers in 6usize..12,
        reliability in 0.6f64..0.9,
        worker_numerator in any::<u64>(),
        flip in any::<bool>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects,
                num_workers,
                reliability,
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.25,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let mut session = ValidationSessionBuilder::empty(scenario.num_labels)
            .try_build()
            .unwrap();
        session.ingest(&scenario.initial).unwrap();
        for batch in &scenario.batches {
            session.ingest(batch).unwrap();
        }
        if flip && session.answers().num_workers() > 0 {
            let victim = WorkerId(
                (worker_numerator % session.answers().num_workers() as u64) as usize,
            );
            session.set_worker_excluded(victim, true).unwrap();
        }

        let live = session.answers();
        let json = serde_json::to_string(live).unwrap();
        let restored: AnswerSet = serde_json::from_str(&json).unwrap();

        let expert = ExpertValidation::empty(live.num_objects());
        let iem = IncrementalEm::default();
        let cold_live = iem.conclude(live, &expert, None);
        let cold_restored = iem.conclude(&restored, &expert, None);
        prop_assert_eq!(&cold_live, &cold_restored);
        let warm_live = iem.conclude_warm(live, &expert, &cold_live);
        let warm_restored = iem.conclude_warm(&restored, &expert, &cold_restored);
        prop_assert_eq!(warm_live, warm_restored);
    }

    /// Exclusion and reinstatement survive snapshot/restore bit-identically:
    /// a session that tombstones a worker mid-stream and later reinstates
    /// them, interrupted by a JSON snapshot round trip at a random point,
    /// must finish with the same picks, posterior, trace, exclusion mask
    /// and checkpoint bytes as the uninterrupted run — the trust ledger is
    /// session state like any other, and both defense flips re-anchor
    /// deterministically after a restore.
    #[test]
    fn defense_flips_round_trip_through_snapshots(
        seed in any::<u64>(),
        snap_numerator in any::<u64>(),
        strategy_seed in any::<u64>(),
        worker_numerator in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: 14,
                num_workers: 9,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();
        let batches = scenario.batches.len();
        if batches < 2 {
            return;
        }
        let flip_on = 0;
        let flip_off = batches / 2;

        let build = || {
            ValidationSessionBuilder::empty(scenario.num_labels)
                .strategy(Box::new(HybridStrategy::new(strategy_seed)))
                .config(ProcessConfig {
                    trust: TrustConfig::streaming_default(),
                    ..ProcessConfig::default()
                })
                .try_build()
                .unwrap()
        };
        let validate = |session: &mut ValidationSession, picks: &mut Vec<ObjectId>| {
            if session.answers().num_objects() == 0 {
                return;
            }
            if let Some(o) = session.select_next() {
                picks.push(o);
                session.integrate(o, truth.label(o)).unwrap();
            }
        };
        // The manual override schedule, identical in both runs: tombstone
        // a worker right after the first batch, exonerate them halfway
        // through. (The streaming defense may flip other workers on its
        // own — deterministically, so the runs still agree.)
        let flip = |session: &mut ValidationSession, batch: usize| {
            let num_workers = session.answers().num_workers();
            if num_workers == 0 {
                return;
            }
            let victim = WorkerId((worker_numerator % num_workers as u64) as usize);
            if batch == flip_on {
                session.set_worker_excluded(victim, true).unwrap();
            } else if batch == flip_off {
                session.set_worker_excluded(victim, false).unwrap();
            }
        };

        // Uninterrupted reference.
        let mut reference = build();
        let mut ref_picks = Vec::new();
        reference.ingest(&scenario.initial).unwrap();
        for (i, batch) in scenario.batches.iter().enumerate() {
            reference.ingest(batch).unwrap();
            flip(&mut reference, i);
            validate(&mut reference, &mut ref_picks);
        }

        // Interrupted run: snapshot after a random batch, restore from
        // JSON, keep flipping and validating on the same schedule.
        let snap_after = (snap_numerator % (batches as u64 + 1)) as usize;
        let mut live = build();
        let mut picks = Vec::new();
        live.ingest(&scenario.initial).unwrap();
        for (i, batch) in scenario.batches[..snap_after].iter().enumerate() {
            live.ingest(batch).unwrap();
            flip(&mut live, i);
            validate(&mut live, &mut picks);
        }
        let json = serde_json::to_string(&live.snapshot().unwrap()).unwrap();
        drop(live);
        let snapshot: crowd_validation::core::SessionSnapshot =
            serde_json::from_str(&json).unwrap();
        let mut restored = ValidationSession::restore(snapshot).unwrap();
        for (i, batch) in scenario.batches[snap_after..].iter().enumerate() {
            restored.ingest(batch).unwrap();
            flip(&mut restored, snap_after + i);
            validate(&mut restored, &mut picks);
        }

        prop_assert_eq!(picks, ref_picks);
        prop_assert_eq!(restored.current(), reference.current());
        prop_assert_eq!(restored.trace(), reference.trace());
        prop_assert_eq!(restored.excluded_workers(), reference.excluded_workers());
        prop_assert_eq!(
            restored.snapshot().unwrap(),
            reference.snapshot().unwrap()
        );
    }
}

/// Triage thresholds aggressive enough to fire auto-finalizations and
/// contentious holds on property-scale crowds (a dozen objects, a handful
/// of anchors). Production uses [`TriageConfig::calibrated`]; these tests
/// are about decision *replayability*, not about the calibration itself.
fn aggressive_triage() -> TriageConfig {
    TriageConfig {
        enabled: true,
        finalize_threshold: 0.7,
        relaxed_threshold: 0.6,
        relax_after_validations: 4,
        confidence_floor: 0.7,
        min_votes: 1,
        min_margin: 0.0,
        contentious_ceiling: 0.55,
        warmup_validations: 1,
        ..TriageConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Triage decisions are bit-identical across snapshot/restore: interrupt
    /// a triage-enabled streaming session at a random batch boundary,
    /// serialize the full snapshot through JSON, restore, and continue — the
    /// selection order, the auto-finalize audit trail, the counters and the
    /// predictor weights must all equal the uninterrupted session's exactly.
    /// The audit trail carries the decide-time feature vectors, so this
    /// asserts that every *input* to every decision replayed identically,
    /// not just the verdicts.
    #[test]
    fn triage_decisions_survive_snapshot_restore(
        seed in any::<u64>(),
        snap_numerator in any::<u64>(),
        strategy_seed in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: 14,
                num_workers: 9,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();

        let build = || {
            ValidationSessionBuilder::empty(scenario.num_labels)
                .strategy(Box::new(HybridStrategy::new(strategy_seed)))
                .config(ProcessConfig {
                    triage: aggressive_triage(),
                    ..ProcessConfig::default()
                })
                .try_build()
                .unwrap()
        };
        let validate = |session: &mut ValidationSession, picks: &mut Vec<ObjectId>| {
            if session.answers().num_objects() == 0 {
                return;
            }
            if let Some(o) = session.select_next() {
                picks.push(o);
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        // Uninterrupted reference.
        let mut reference = build();
        let mut ref_picks = Vec::new();
        reference.ingest(&scenario.initial).unwrap();
        validate(&mut reference, &mut ref_picks);
        for batch in &scenario.batches {
            reference.ingest(batch).unwrap();
            validate(&mut reference, &mut ref_picks);
        }

        // Interrupted run: snapshot after a random batch, restore from JSON.
        let snap_after = (snap_numerator % (scenario.batches.len() as u64 + 1)) as usize;
        let mut live = build();
        let mut picks = Vec::new();
        live.ingest(&scenario.initial).unwrap();
        validate(&mut live, &mut picks);
        for batch in &scenario.batches[..snap_after] {
            live.ingest(batch).unwrap();
            validate(&mut live, &mut picks);
        }
        let json = serde_json::to_string(&live.snapshot().unwrap()).unwrap();
        drop(live);
        let snapshot: crowd_validation::core::SessionSnapshot =
            serde_json::from_str(&json).unwrap();
        let mut restored = ValidationSession::restore(snapshot).unwrap();
        for batch in &scenario.batches[snap_after..] {
            restored.ingest(batch).unwrap();
            validate(&mut restored, &mut picks);
        }

        prop_assert_eq!(picks, ref_picks);
        prop_assert_eq!(restored.triage_state(), reference.triage_state());
        prop_assert_eq!(restored.triage_audit(), reference.triage_audit());
        prop_assert_eq!(restored.triage_counters(), reference.triage_counters());
        prop_assert_eq!(
            restored.snapshot().unwrap(),
            reference.snapshot().unwrap()
        );
    }

    /// Triage decisions are bit-identical through the WAL/delta-replay path:
    /// anchor a full snapshot mid-schedule on a triage-enabled session with
    /// the delta log on, keep validating, then replay the
    /// [`crowd_validation::core::SessionDelta`] (serialized through JSON) on
    /// the anchor. The replayed session re-runs the triage passes from the
    /// event log — audit trail, counters and predictor weights must come out
    /// exactly as in the live session.
    #[test]
    fn triage_decisions_survive_delta_replay(
        seed in any::<u64>(),
        anchor_numerator in any::<u64>(),
        strategy_seed in any::<u64>()
    ) {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: 14,
                num_workers: 9,
                reliability: 0.85,
                mix: PopulationMix::all_reliable(),
                ..SyntheticConfig::paper_default(seed)
            },
            initial_fraction: 0.3,
            batch_size: 30,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let truth = scenario.truth.clone();

        let mut live = ValidationSessionBuilder::empty(scenario.num_labels)
            .strategy(Box::new(HybridStrategy::new(strategy_seed)))
            .config(ProcessConfig {
                triage: aggressive_triage(),
                ..ProcessConfig::default()
            })
            .try_build()
            .unwrap();
        live.enable_delta_log();
        let validate = |session: &mut ValidationSession| {
            if session.answers().num_objects() == 0 {
                return;
            }
            if let Some(o) = session.select_next() {
                session.integrate(o, truth.label(o)).unwrap();
            }
        };

        live.ingest(&scenario.initial).unwrap();
        validate(&mut live);
        let anchor_after = (anchor_numerator % (scenario.batches.len() as u64 + 1)) as usize;
        for batch in &scenario.batches[..anchor_after] {
            live.ingest(batch).unwrap();
            validate(&mut live);
        }
        let anchor = live.snapshot().unwrap();

        for batch in &scenario.batches[anchor_after..] {
            live.ingest(batch).unwrap();
            validate(&mut live);
        }

        let delta = live.delta_snapshot().unwrap();
        let json = serde_json::to_string(&delta).unwrap();
        let delta: crowd_validation::core::SessionDelta =
            serde_json::from_str(&json).unwrap();
        let replayed = ValidationSession::restore_with_delta(anchor, delta).unwrap();

        prop_assert_eq!(replayed.triage_state(), live.triage_state());
        prop_assert_eq!(replayed.triage_audit(), live.triage_audit());
        prop_assert_eq!(replayed.triage_counters(), live.triage_counters());
        prop_assert_eq!(replayed.trace(), live.trace());
        prop_assert_eq!(replayed.snapshot().unwrap(), live.snapshot().unwrap());
    }

    /// The triage feature extraction is deterministic, finite and — for the
    /// multiset features — invariant under worker-arrival reordering of the
    /// same vote multiset ingested as one batch. `votes` and `margin` are
    /// pure functions of the visible vote multiset, so they must match
    /// bit-for-bit across orders. `trust` reads the streaming ledger (whose
    /// copy evidence is arrival-order-dependent by design) and `entropy` /
    /// `churn` read the EM posterior, whose floating-point summation follows
    /// arrival order — for those three, this asserts exact determinism
    /// (same order → same bits) plus finiteness and range, not cross-order
    /// bit-equality.
    #[test]
    fn triage_features_are_deterministic_finite_and_order_invariant(
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        num_objects in 8usize..20,
        num_workers in 6usize..14,
        reliability in 0.7f64..0.95
    ) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let synth = SyntheticConfig {
            num_objects,
            num_workers,
            reliability,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(seed)
        }
        .generate();
        let answers = synth.dataset.answers().clone();
        let mut votes: Vec<Vote> = answers
            .matrix()
            .iter()
            .map(|(o, w, l)| Vote::new(o, w, l))
            .collect();

        let features_of = |votes: &[Vote]| -> Vec<TriageFeatures> {
            let mut session = ValidationSessionBuilder::empty(answers.num_labels())
                .strategy(Box::new(EntropyBaseline))
                .build();
            session.ingest(votes).unwrap();
            (0..answers.num_objects())
                .map(|o| session.triage_features(ObjectId(o)).unwrap())
                .collect()
        };

        let bits = |f: &TriageFeatures| {
            (
                f.entropy.to_bits(),
                f.votes,
                f.margin.to_bits(),
                f.trust.to_bits(),
                f.churn.to_bits(),
            )
        };

        let original = features_of(&votes);
        // Determinism: the identical arrival order reproduces every feature
        // bit-for-bit.
        let repeat = features_of(&votes);
        for (a, b) in original.iter().zip(&repeat) {
            prop_assert_eq!(bits(a), bits(b));
        }

        votes.shuffle(&mut StdRng::seed_from_u64(order_seed));
        let reordered = features_of(&votes);
        for (o, (a, b)) in original.iter().zip(&reordered).enumerate() {
            // Multiset features: bit-identical across arrival orders.
            prop_assert_eq!(a.votes, b.votes, "votes diverged on object {}", o);
            prop_assert_eq!(
                a.margin.to_bits(), b.margin.to_bits(),
                "margin diverged on object {}", o
            );
            // Posterior-path features: finite and in range in both orders.
            for f in [a, b] {
                prop_assert!(f.is_finite());
                prop_assert!((0.0..=1.0).contains(&f.entropy));
                prop_assert!((0.0..=1.0).contains(&f.margin));
                prop_assert!((0.0..=1.0).contains(&f.trust));
                prop_assert!((0.0..=1.0).contains(&f.churn));
            }
            // And the normalized vector the predictor consumes is bounded.
            for x in a.vector() {
                prop_assert!((0.0..=1.0).contains(&x));
            }
        }
    }
}
