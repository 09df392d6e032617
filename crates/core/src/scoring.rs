//! The shared hypothesis-scoring engine of the guidance hot path
//! (paper §5.2 and §5.4).
//!
//! Evaluating a guidance strategy means asking, for many candidate objects at
//! once, *"what would happen if the expert validated this object?"* — and
//! answering each hypothesis with a full (warm-started) aggregation run. This
//! module centralizes that hot path so every strategy shares one
//! implementation of its four ingredients:
//!
//! 1. **Entropy pre-filter** (§5.4 "Reducing the number of considered
//!    objects"): candidates are ranked by their current label entropy and
//!    only the top [`ScoringEngine::shortlist_limit`] enter the expensive
//!    evaluation. An object whose distribution is already a point mass
//!    cannot yield information gain, so the filter is loss-free in the limit
//!    and a large constant-factor win in practice. Per-object entropies are
//!    computed once per selection step (and the total uncertainty `H(P)` is
//!    hoisted out of the per-candidate loop — it is candidate-independent),
//!    and the entropy sort uses [`f64::total_cmp`] so a NaN entropy can
//!    never silently destabilize the shortlist order.
//! 2. **Warm-started hypothesis aggregation** (§5.2 Eq. 8–9, §4.1): each
//!    hypothesis `e(o) = l` is evaluated by re-running the aggregation via
//!    [`Aggregator::conclude_hypothesis`], reusing the confusion matrices
//!    and priors of the current probabilistic answer set
//!    (`C⁰_s = C^q_{s−1}`, the view-maintenance principle) instead of
//!    restarting EM from scratch. The hypothesis is a borrowed
//!    [`HypothesisOverlay`] — the real validations plus one pinned
//!    `(object, label)` pair — so the fan-out never clones the
//!    `ExpertValidation`. Labels whose current probability is negligible
//!    ([`NEGLIGIBLE_WEIGHT`]) are skipped — they contribute almost nothing
//!    to the expectation but would cost a full aggregation run each.
//! 3. **Delta propagation** ([`ScoringMode`], §5.4 "view maintenance"
//!    applied within one aggregation run): in the default
//!    [`ScoringMode::Delta`], the warm-started evaluation first
//!    re-estimates only the *neighborhood* of the pinned object — the dirty
//!    set is seeded with the workers who answered it, their confusion rows
//!    are re-estimated, the E-step is re-run over the objects those workers
//!    touched, and the frontier expands until assignment changes fall below
//!    the EM tolerance — then an Aitken-accelerated full-corpus polish
//!    certifies the *same* convergence criterion as the exact path. This
//!    agrees with the exact path within the EM tolerance (property-tested)
//!    and produces the same selection order on the paper-default scenarios;
//!    [`ScoringMode::Exact`] is the escape hatch for callers that need the
//!    full-corpus reference trajectory — e.g. experiments that diff
//!    absolute scores across aggregators. Two situations always take the
//!    exact path regardless of the configured mode: the §5.5 leave-one-out
//!    confirmation sweep (which *removes* a validation rather than pinning
//!    one, so it runs via [`Aggregator::conclude_warm`]), and hypothesis
//!    evaluations with fewer than two validation anchors, where the
//!    Dawid–Skene label orientation is still fragile.
//! 4. **Parallel fan-out** (§5.4 "Parallelization"): per-candidate scores
//!    are independent, so the engine distributes them across threads with
//!    [`crate::parallel::score_candidates`], preserving candidate order so
//!    serial and parallel scoring produce identical rankings. Each worker
//!    thread keeps one warm EM workspace, so the fan-out performs zero heap
//!    allocations per EM iteration.
//!
//! The concrete scores built on top of these primitives:
//!
//! * **Information gain** `IG(o) = H(P) − H(P | o)` (Eq. 9–10) with
//!   `H(P | o) = Σ_l U(o, l) · H(P_l)` (Eq. 8) — the uncertainty-driven
//!   strategy and the hybrid's uncertainty branch;
//! * **Expected spammer detections** `R(W | o) = Σ_l U(o, l) · R(W | o = l)`
//!   (Eq. 12–14) — the worker-driven strategy and the hybrid's worker
//!   branch;
//! * **Leave-one-out disagreement** (§5.5) — the confirmation check's
//!   re-aggregation without one validation at a time, which is the same
//!   warm-started hypothesis evaluation with the hypothesis *removed*.

use crate::guidance_cache::{CachedScore, GuidanceCache, GuidanceTelemetry, ScoreFamily};
use crate::parallel::score_candidates;
use crate::shortlist::EntropyShortlist;
use crate::strategy::argmax_object;
use crowdval_aggregation::Aggregator;
pub use crowdval_aggregation::ScoringMode;
use crowdval_model::{
    AnswerSet, ExpertValidation, HypothesisOverlay, LabelId, ObjectId, ProbabilisticAnswerSet,
};
use crowdval_spammer::SpammerDetector;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Labels whose current assignment probability is at or below this weight are
/// skipped during hypothesis evaluation (§5.2: they contribute almost nothing
/// to the expectation but would cost one aggregation run each).
///
/// This is the *single* negligibility threshold of the scoring hot path: both
/// the conditional-entropy expectation (Eq. 8) and the expected-detection
/// expectation (Eq. 13) skip labels by this constant, so the two scores agree
/// on which hypotheses are worth an aggregation run.
pub const NEGLIGIBLE_WEIGHT: f64 = 1e-6;

/// Default width of the entropy pre-filter shortlist.
pub const DEFAULT_SHORTLIST: usize = 32;

/// Result of a lazy (cache-aware) selection: the picked object plus how the
/// step was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazySelection {
    /// The exact argmax, `None` when there were no candidates.
    pub selected: Option<ObjectId>,
    /// How many candidates were evaluated exactly vs served from the cache.
    pub telemetry: GuidanceTelemetry,
}

/// Argmax accumulator mirroring [`argmax_object`]'s comparison exactly:
/// NaN scores act as `-∞`, ties break toward the smaller object id.
fn consider(best: &mut Option<(ObjectId, f64)>, o: ObjectId, score: f64) {
    let s = if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    };
    match *best {
        None => *best = Some((o, s)),
        Some((bo, bs)) => {
            if s > bs || (s == bs && o < bo) {
                *best = Some((o, s));
            }
        }
    }
}

/// Everything the engine needs to evaluate hypotheses against the current
/// validation state. Borrowed wholesale from the validation process (or from
/// a [`crate::strategy::StrategyContext`] via
/// [`crate::strategy::StrategyContext::scoring`]).
pub struct ScoringContext<'a> {
    /// The answer set used for aggregation (answers of excluded workers are
    /// already filtered out).
    pub answers: &'a AnswerSet,
    /// Expert validations collected so far.
    pub expert: &'a ExpertValidation,
    /// The current probabilistic answer set — the warm-start seed for every
    /// hypothesis evaluation.
    pub current: &'a ProbabilisticAnswerSet,
    /// The aggregator that realizes the *conclude* step.
    pub aggregator: &'a dyn Aggregator,
    /// The faulty-worker detector (with its thresholds).
    pub detector: &'a SpammerDetector,
    /// Whether per-candidate scoring may use multiple threads.
    pub parallel: bool,
    /// Incrementally maintained per-object entropies for the pre-filter
    /// (§5.4). `None` recomputes entropies from `current` on every call; the
    /// streaming session passes its refreshed [`EntropyShortlist`] so the
    /// pre-filter re-ranks from cached values that are bit-identical to the
    /// from-scratch computation.
    pub entropy_cache: Option<&'a EntropyShortlist>,
}

/// Configuration-carrying engine for the select→conclude hot path. Cheap to
/// copy; strategies embed one each and the validation process routes the
/// confirmation check through one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoringEngine {
    /// Upper bound on the number of candidates whose hypothesis score is
    /// evaluated exactly; `None` evaluates every candidate.
    shortlist_limit: Option<usize>,
    /// How each hypothesis aggregation is scoped (delta-propagating by
    /// default, [`ScoringMode::Exact`] as the reference escape hatch).
    mode: ScoringMode,
}

impl Default for ScoringEngine {
    fn default() -> Self {
        Self {
            shortlist_limit: Some(DEFAULT_SHORTLIST),
            mode: ScoringMode::default(),
        }
    }
}

impl ScoringEngine {
    /// Engine with the default entropy pre-filter ([`DEFAULT_SHORTLIST`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine that evaluates every candidate exactly (used by experiments
    /// that need the full ranking, e.g. the i-EM guidance-consistency study).
    pub fn exhaustive() -> Self {
        Self {
            shortlist_limit: None,
            mode: ScoringMode::default(),
        }
    }

    /// Engine with a custom pre-filter width.
    pub fn with_shortlist(limit: usize) -> Self {
        Self {
            shortlist_limit: Some(limit),
            mode: ScoringMode::default(),
        }
    }

    /// The same engine with an explicit [`ScoringMode`].
    pub fn with_mode(mut self, mode: ScoringMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured pre-filter width (`None` = exhaustive).
    pub fn shortlist_limit(&self) -> Option<usize> {
        self.shortlist_limit
    }

    /// The configured hypothesis-scoping mode.
    pub fn mode(&self) -> ScoringMode {
        self.mode
    }

    // -----------------------------------------------------------------------
    // (a) entropy pre-filter
    // -----------------------------------------------------------------------

    /// Returns the candidates that survive the entropy pre-filter: the
    /// `shortlist_limit` candidates with the highest current label entropy
    /// (ties broken toward the smaller object id, preserving determinism).
    ///
    /// Entropies are computed once per call and sorted with
    /// [`f64::total_cmp`], so the order is total even if an entropy is NaN
    /// (NaNs sort below every real entropy instead of short-circuiting the
    /// comparator).
    pub fn shortlist(
        &self,
        current: &ProbabilisticAnswerSet,
        candidates: &[ObjectId],
    ) -> Vec<ObjectId> {
        self.shortlist_by(candidates, |o| current.object_uncertainty(o))
    }

    /// [`ScoringEngine::shortlist`] reading entropies from a context: the
    /// cached values when an [`EntropyShortlist`] is attached (bit-identical
    /// to the direct computation — see the cache's invariants), the direct
    /// computation otherwise.
    pub fn shortlist_in(&self, ctx: &ScoringContext<'_>, candidates: &[ObjectId]) -> Vec<ObjectId> {
        match ctx.entropy_cache {
            Some(cache) => self.shortlist_by(candidates, |o| cache.entropy(o)),
            None => self.shortlist(ctx.current, candidates),
        }
    }

    fn shortlist_by(
        &self,
        candidates: &[ObjectId],
        entropy_of: impl Fn(ObjectId) -> f64,
    ) -> Vec<ObjectId> {
        match self.shortlist_limit {
            Some(0) => Vec::new(),
            Some(limit) if candidates.len() > limit => {
                // Cache each candidate's entropy once; the ordering must not
                // re-invoke the entropy source per comparison.
                let mut by_entropy: Vec<(ObjectId, f64)> =
                    candidates.iter().map(|&o| (o, entropy_of(o))).collect();
                // The comparator is a total order even on NaN entropies
                // (`total_cmp`; NaNs sort below every real entropy) and has
                // no equal elements (the object-id tie-break is unique), so
                // partitioning the top `limit` first and sorting only the
                // kept prefix selects bitwise the same shortlist as the full
                // sort did — in O(n + limit log limit) instead of
                // O(n log n).
                let cmp = |a: &(ObjectId, f64), b: &(ObjectId, f64)| {
                    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
                };
                by_entropy.select_nth_unstable_by(limit - 1, cmp);
                by_entropy.truncate(limit);
                by_entropy.sort_unstable_by(cmp);
                by_entropy.into_iter().map(|(o, _)| o).collect()
            }
            _ => candidates.to_vec(),
        }
    }

    // -----------------------------------------------------------------------
    // (b) warm-started hypothesis aggregation
    // -----------------------------------------------------------------------

    /// Evaluates a single hypothesis `e(object) = label`: re-runs the
    /// aggregation with the hypothetical validation overlaid (no
    /// `ExpertValidation` clone), warm-starting from `current` and scoped by
    /// `mode`.
    pub fn evaluate_hypothesis(
        aggregator: &dyn Aggregator,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        current: &ProbabilisticAnswerSet,
        object: ObjectId,
        label: LabelId,
        mode: ScoringMode,
    ) -> ProbabilisticAnswerSet {
        let hypothesis = HypothesisOverlay::new(expert, object, label);
        aggregator.conclude_hypothesis(answers, &hypothesis, current, mode)
    }

    /// Conditional uncertainty `H(P | o) = Σ_l U(o, l) · H(P_l)` (Eq. 8),
    /// the expectation running over the plausible expert answers weighted by
    /// the current assignment probabilities.
    pub fn conditional_entropy_of(
        aggregator: &dyn Aggregator,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        current: &ProbabilisticAnswerSet,
        object: ObjectId,
        mode: ScoringMode,
    ) -> f64 {
        Self::conditional_entropy_counting(aggregator, answers, expert, current, object, mode).0
    }

    /// [`ScoringEngine::conditional_entropy_of`] plus the number of EM
    /// iterations its hypothesis evaluations spent — the telemetry the lazy
    /// selection path reports per step.
    pub fn conditional_entropy_counting(
        aggregator: &dyn Aggregator,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        current: &ProbabilisticAnswerSet,
        object: ObjectId,
        mode: ScoringMode,
    ) -> (f64, usize) {
        let mut expected = 0.0;
        let mut em_iterations = 0;
        for l in 0..answers.num_labels() {
            let label = LabelId(l);
            let weight = current.assignment().prob(object, label);
            if weight <= NEGLIGIBLE_WEIGHT {
                continue;
            }
            let hypothesis = Self::evaluate_hypothesis(
                aggregator, answers, expert, current, object, label, mode,
            );
            em_iterations += hypothesis.em_iterations();
            expected += weight * hypothesis.uncertainty();
        }
        (expected, em_iterations)
    }

    /// Information gain `IG(o) = H(P) − H(P | o)` (Eq. 9): the expected
    /// reduction of the answer-set uncertainty if the expert validates `o`.
    ///
    /// Note for bulk scoring: `H(P)` is candidate-independent —
    /// [`ScoringEngine::information_gain_scores`] hoists it out of the
    /// per-candidate loop instead of calling this per candidate.
    pub fn information_gain_of(
        aggregator: &dyn Aggregator,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        current: &ProbabilisticAnswerSet,
        object: ObjectId,
        mode: ScoringMode,
    ) -> f64 {
        current.uncertainty()
            - Self::conditional_entropy_of(aggregator, answers, expert, current, object, mode)
    }

    /// Expected number of faulty-worker detections from validating `object`:
    /// `R(W | o) = Σ_l U(o, l) · R(W | o = l)` (Eq. 13). Labels are skipped
    /// by the same [`NEGLIGIBLE_WEIGHT`] threshold as the conditional
    /// entropy, so both expectations agree on which hypotheses are
    /// evaluated.
    pub fn expected_detections_of(
        detector: &SpammerDetector,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        current: &ProbabilisticAnswerSet,
        object: ObjectId,
    ) -> f64 {
        let priors = current.priors();
        let mut expected = 0.0;
        for l in 0..answers.num_labels() {
            let label = LabelId(l);
            let weight = current.assignment().prob(object, label);
            if weight <= NEGLIGIBLE_WEIGHT {
                continue;
            }
            let detections =
                detector.expected_detections_with(answers, expert, priors, object, label);
            expected += weight * detections as f64;
        }
        expected
    }

    // -----------------------------------------------------------------------
    // (c) parallel fan-out over candidates
    // -----------------------------------------------------------------------

    /// Information gain of every shortlisted candidate, in shortlist order.
    /// Serial and parallel execution produce identical results. The total
    /// uncertainty `H(P)` is computed once for the whole sweep, not per
    /// candidate.
    pub fn information_gain_scores(
        &self,
        ctx: &ScoringContext<'_>,
        candidates: &[ObjectId],
    ) -> Vec<(ObjectId, f64)> {
        let shortlist = self.shortlist_in(ctx, candidates);
        let total_uncertainty = ctx.current.uncertainty();
        let mode = self.mode;
        score_candidates(&shortlist, ctx.parallel, |o| {
            total_uncertainty
                - Self::conditional_entropy_of(
                    ctx.aggregator,
                    ctx.answers,
                    ctx.expert,
                    ctx.current,
                    o,
                    mode,
                )
        })
    }

    /// Expected detections of every candidate, in candidate order. The
    /// entropy pre-filter is *not* applied: a certain object can still expose
    /// faulty workers (Eq. 13 weights by the current distribution, not its
    /// entropy).
    pub fn detection_scores(
        &self,
        ctx: &ScoringContext<'_>,
        candidates: &[ObjectId],
    ) -> Vec<(ObjectId, f64)> {
        score_candidates(candidates, ctx.parallel, |o| {
            Self::expected_detections_of(ctx.detector, ctx.answers, ctx.expert, ctx.current, o)
        })
    }

    // -----------------------------------------------------------------------
    // (d) lazy bound-based selection over the guidance cache
    // -----------------------------------------------------------------------

    /// Selects the information-gain argmax over `candidates`, serving scores
    /// from `cache` where possible (see [`crate::guidance_cache`] for the
    /// exactness argument). With `cache: None` this is exactly the eager
    /// path: score the whole shortlist, take the argmax.
    ///
    /// The cached path picks **the same object, bitwise**, as the eager
    /// path: entries at the current cache version are values an evaluation
    /// against the current state would reproduce; stale entries only order
    /// the exact re-evaluations (descending bound, CELF-style) and justify
    /// stopping once the best fresh score strictly dominates the next stale
    /// bound (per-age slack from
    /// [`crate::GuidanceCache::stale_bound_margin`]); the argmax comparison
    /// (NaN as `-∞`, ties to the smaller id) mirrors the eager
    /// `strategy::argmax_object`.
    pub fn select_information_gain(
        &self,
        ctx: &ScoringContext<'_>,
        candidates: &[ObjectId],
        cache: Option<&RefCell<GuidanceCache>>,
    ) -> LazySelection {
        let Some(cell) = cache else {
            let scores = self.information_gain_scores(ctx, candidates);
            return LazySelection {
                selected: argmax_object(&scores),
                telemetry: GuidanceTelemetry {
                    evaluated: scores.len(),
                    ..GuidanceTelemetry::default()
                },
            };
        };
        let shortlist = self.shortlist_in(ctx, candidates);
        let total_uncertainty = ctx.current.uncertainty();
        // Per-step drift slack, scaled to the last observed best score
        // (None until a reference exists: then nothing is skipped).
        let margin = cell.borrow().stale_bound_margin(ctx.current.num_objects());
        let mode = self.mode;
        let mut cache = cell.borrow_mut();
        let mut telemetry = GuidanceTelemetry::default();
        let mut best: Option<(ObjectId, f64)> = None;
        // Exact entries stand in for evaluations outright. Candidates with
        // no usable entry (missing, invalidated, NaN, or no margin
        // reference) must be evaluated unconditionally — they go through
        // the parallel fan-out like the eager path, since no skip decision
        // depends on their order. The rest queue with their aged stale
        // bound (`value + age · margin`) for the serial lazy loop, whose
        // early termination is inherently sequential.
        let mut must_evaluate: Vec<ObjectId> = Vec::new();
        let mut pending: Vec<(ObjectId, f64)> = Vec::new();
        for &o in &shortlist {
            match cache.lookup(ScoreFamily::InformationGain, o) {
                CachedScore::Exact(v) => {
                    telemetry.served_from_cache += 1;
                    consider(&mut best, o, v);
                }
                CachedScore::Stale { value, age } if !value.is_nan() && margin.is_some() => {
                    pending.push((o, value + age as f64 * margin.unwrap_or(0.0)));
                }
                _ => must_evaluate.push(o),
            }
        }
        for (o, (conditional, em_iterations)) in
            crate::parallel::map_candidates(&must_evaluate, ctx.parallel, |o| {
                Self::conditional_entropy_counting(
                    ctx.aggregator,
                    ctx.answers,
                    ctx.expert,
                    ctx.current,
                    o,
                    mode,
                )
            })
        {
            let score = total_uncertainty - conditional;
            cache.store(ScoreFamily::InformationGain, o, score);
            telemetry.evaluated += 1;
            telemetry.em_iterations += em_iterations;
            consider(&mut best, o, score);
        }
        pending.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // Two tripwires guard the diminishing-returns assumption the stale
        // bounds rest on. The near-chance crowd can reorganize around a
        // basin boundary and inflate every hypothesis's gain at once — a
        // change no dirty-region diff sees coming. (1) The *reorganization
        // ceiling*: in the diminishing regime the per-step best only
        // declines, so skips are permitted only while the running best
        // stays under the last step's best plus drift slack; a best beyond
        // the ceiling turns the step into a full re-score. (2) The
        // *self-violation check*: a freshly evaluated candidate landing
        // above its own aged bound proves the bounds are broken this step,
        // so the remaining candidates are all evaluated instead of skipped.
        // A best that the stale landscape cannot explain — above every
        // stale bound, or above the last step's best, beyond drift slack —
        // is itself evidence of reorganization: domination becomes
        // suspiciously easy exactly when the bounds are broken. And an
        // information gain beyond `ln(labels)` exceeds what resolving the
        // candidate's *own* entropy can yield, proving the validation would
        // cascade through other objects (the near-chance crowd's
        // basin-boundary regime) — long-range coupling that no dirty-region
        // diff can see coming, so no skip is trusted there at all.
        let max_stale_bound = pending
            .iter()
            .map(|&(_, b)| b)
            .filter(|b| b.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        let cascade_cap = (ctx.answers.num_labels().max(2) as f64).ln();
        let ceiling = margin.and_then(|m| {
            cache
                .trusted_best_ceiling(m)
                .map(|c| c.min(max_stale_bound + m).min(cascade_cap))
        });
        let mut bounds_trusted = true;
        let mut stop_at = pending.len();
        for (i, &(o, bound)) in pending.iter().enumerate() {
            if let (Some((_, best_score)), Some(ceiling)) = (best, ceiling) {
                if bounds_trusted
                    && bound.is_finite()
                    && best_score > bound
                    && best_score <= ceiling
                {
                    // Every remaining candidate's bound is at most `bound`:
                    // none can reach the current best.
                    stop_at = i;
                    break;
                }
            }
            let (conditional, em_iterations) = Self::conditional_entropy_counting(
                ctx.aggregator,
                ctx.answers,
                ctx.expert,
                ctx.current,
                o,
                mode,
            );
            let score = total_uncertainty - conditional;
            if bound.is_finite() && score > bound {
                bounds_trusted = false;
            }
            cache.store(ScoreFamily::InformationGain, o, score);
            telemetry.evaluated += 1;
            telemetry.em_iterations += em_iterations;
            consider(&mut best, o, score);
        }
        telemetry.served_from_cache += pending.len() - stop_at;
        if std::env::var_os("CROWDVAL_GUIDANCE_DEBUG").is_some() {
            eprintln!(
                "select: best={:?} margin={margin:?} ceiling={ceiling:?} \
                 cascade={cascade_cap:.3} pending={} stop_at={stop_at} trusted={bounds_trusted}",
                best.map(|(_, s)| s),
                pending.len(),
            );
        }
        if let Some((_, best_score)) = best {
            cache.note_best_ig(best_score);
        }
        cache.record_step(telemetry);
        if std::env::var_os("CROWDVAL_GUIDANCE_PARANOID").is_some() {
            // Verifier mode: every skipped candidate's fresh score must
            // actually lose to the selected best — a violation is reported
            // with its magnitude (so the drift threshold / margin pair can
            // be recalibrated) and then **panics**, making any run under
            // this flag a hard proof of the skip decisions it executed.
            if let Some((bo, bs)) = best {
                for &(o, bound) in &pending[stop_at..] {
                    let (conditional, _) = Self::conditional_entropy_counting(
                        ctx.aggregator,
                        ctx.answers,
                        ctx.expert,
                        ctx.current,
                        o,
                        mode,
                    );
                    let fresh = total_uncertainty - conditional;
                    assert!(
                        !(fresh > bs || (fresh == bs && o < bo)),
                        "PARANOID: skipped {o} fresh {fresh:.6} beats best {bo} {bs:.6} \
                         (aged bound {bound:.6}, entry {:?}, rise {:+.6})",
                        cache.lookup(ScoreFamily::InformationGain, o),
                        fresh - bound
                    );
                }
            }
        }
        LazySelection {
            selected: best.map(|(o, _)| o),
            telemetry,
        }
    }

    /// Selects the expected-detection argmax over `candidates` (no entropy
    /// pre-filter — a certain object can still expose faulty workers),
    /// reusing cache entries only at an unchanged version. Detection scores
    /// *grow* as validations accumulate, so stale entries are never trusted
    /// as bounds — they are re-evaluated like misses; the cache still
    /// short-circuits repeated guidance requests against an unchanged state.
    pub fn select_detections(
        &self,
        ctx: &ScoringContext<'_>,
        candidates: &[ObjectId],
        cache: Option<&RefCell<GuidanceCache>>,
    ) -> LazySelection {
        let Some(cell) = cache else {
            let scores = self.detection_scores(ctx, candidates);
            return LazySelection {
                selected: argmax_object(&scores),
                telemetry: GuidanceTelemetry {
                    evaluated: scores.len(),
                    ..GuidanceTelemetry::default()
                },
            };
        };
        let mut cache = cell.borrow_mut();
        let mut telemetry = GuidanceTelemetry::default();
        let mut best: Option<(ObjectId, f64)> = None;
        let mut must_evaluate: Vec<ObjectId> = Vec::new();
        for &o in candidates {
            match cache.lookup(ScoreFamily::Detections, o) {
                CachedScore::Exact(v) => {
                    telemetry.served_from_cache += 1;
                    consider(&mut best, o, v);
                }
                _ => must_evaluate.push(o),
            }
        }
        // The non-reusable candidates fan out in parallel like the eager
        // path — there is no early termination to serialize here.
        for (o, score) in crate::parallel::score_candidates(&must_evaluate, ctx.parallel, |o| {
            Self::expected_detections_of(ctx.detector, ctx.answers, ctx.expert, ctx.current, o)
        }) {
            cache.store(ScoreFamily::Detections, o, score);
            telemetry.evaluated += 1;
            consider(&mut best, o, score);
        }
        cache.record_step(telemetry);
        LazySelection {
            selected: best.map(|(o, _)| o),
            telemetry,
        }
    }

    /// Leave-one-out confirmation sweep (§5.5): for every validated object,
    /// re-aggregates without that validation (warm-started) and reports the
    /// objects whose reconstructed label disagrees with the expert's. Runs
    /// the per-object re-aggregations through the same parallel fan-out as
    /// candidate scoring.
    ///
    /// This sweep always uses the exact path ([`Aggregator::conclude_warm`]):
    /// removing a validation un-clamps an object, which the pin-seeded delta
    /// frontier does not model.
    pub fn leave_one_out_disagreements(&self, ctx: &ScoringContext<'_>) -> Vec<ObjectId> {
        let validated: Vec<ObjectId> = ctx.expert.iter().map(|(o, _)| o).collect();
        let disagree = score_candidates(&validated, ctx.parallel, |o| {
            let leave_one_out = ctx.expert.without(o);
            let p = ctx
                .aggregator
                .conclude_warm(ctx.answers, &leave_one_out, ctx.current);
            let reconstructed = p.instantiate();
            let validated_label = ctx.expert.get(o).expect("object is validated");
            if reconstructed.label(o) != validated_label {
                1.0
            } else {
                0.0
            }
        });
        disagree
            .into_iter()
            .filter(|&(_, d)| d > 0.5)
            .map(|(o, _)| o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::tests_support::context_fixture;

    #[test]
    fn lazy_selection_matches_eager_argmax_and_serves_repeats_from_cache() {
        let fixture = context_fixture(14, 6, 2, 47);
        let candidates: Vec<ObjectId> = (0..14).map(ObjectId).collect();
        let engine = ScoringEngine::with_shortlist(6);
        let ctx = ScoringContext {
            answers: &fixture.answers,
            expert: &fixture.expert,
            current: &fixture.current,
            aggregator: &fixture.aggregator,
            detector: &fixture.detector,
            parallel: false,
            entropy_cache: None,
        };

        let eager = engine.select_information_gain(&ctx, &candidates, None);
        assert!(eager.selected.is_some());
        assert_eq!(eager.telemetry.evaluated, 6);

        // A cold cache evaluates everything and picks the same object.
        let cache = RefCell::new(GuidanceCache::new());
        let first = engine.select_information_gain(&ctx, &candidates, Some(&cache));
        assert_eq!(first.selected, eager.selected);
        assert_eq!(first.telemetry.evaluated, 6);
        assert_eq!(first.telemetry.served_from_cache, 0);
        assert!(first.telemetry.em_iterations > 0);

        // Unchanged state: the repeat is served entirely from exact entries.
        let second = engine.select_information_gain(&ctx, &candidates, Some(&cache));
        assert_eq!(second.selected, eager.selected);
        assert_eq!(second.telemetry.evaluated, 0);
        assert_eq!(second.telemetry.served_from_cache, 6);

        // After a version bump with no actual state change, the lazy loop
        // works from stale bounds — and must still land on the same argmax.
        cache.borrow_mut().bump_version();
        let third = engine.select_information_gain(&ctx, &candidates, Some(&cache));
        assert_eq!(third.selected, eager.selected);

        // Detection family: same argmax as eager, exact repeats served.
        let det_eager = engine.select_detections(&ctx, &candidates, None);
        let det_first = engine.select_detections(&ctx, &candidates, Some(&cache));
        assert_eq!(det_first.selected, det_eager.selected);
        let det_second = engine.select_detections(&ctx, &candidates, Some(&cache));
        assert_eq!(det_second.selected, det_eager.selected);
        assert_eq!(det_second.telemetry.evaluated, 0);

        // Telemetry accumulated across the recorded steps.
        let totals = cache.borrow().totals();
        assert!(totals.evaluated > 0 && totals.served_from_cache > 0);

        // The parallel fan-out over must-evaluate candidates picks the same
        // object from a cold cache.
        let parallel_ctx = ScoringContext {
            parallel: true,
            ..ctx
        };
        let parallel_cache = RefCell::new(GuidanceCache::new());
        let parallel =
            engine.select_information_gain(&parallel_ctx, &candidates, Some(&parallel_cache));
        assert_eq!(parallel.selected, eager.selected);
        assert_eq!(parallel.telemetry.evaluated, 6);
        assert_eq!(
            engine
                .select_detections(&parallel_ctx, &candidates, Some(&parallel_cache))
                .selected,
            det_eager.selected
        );
    }

    #[test]
    fn shortlist_keeps_the_most_uncertain_candidates() {
        let mut fixture = context_fixture(10, 5, 2, 11);
        fixture
            .current
            .assignment_mut()
            .set_distribution(ObjectId(6), &[0.5, 0.5]);
        fixture
            .current
            .assignment_mut()
            .set_certain(ObjectId(2), LabelId(0));
        let candidates: Vec<ObjectId> = (0..10).map(ObjectId).collect();
        let engine = ScoringEngine::with_shortlist(3);
        let short = engine.shortlist(&fixture.current, &candidates);
        assert_eq!(short.len(), 3);
        assert!(
            short.contains(&ObjectId(6)),
            "most uncertain object was filtered out"
        );
        assert!(
            !short.contains(&ObjectId(2)),
            "certain object survived the pre-filter"
        );
        // Without pressure the shortlist is the identity.
        assert_eq!(
            ScoringEngine::exhaustive().shortlist(&fixture.current, &candidates),
            candidates
        );
    }

    #[test]
    fn shortlist_order_is_total_even_with_nan_entropies() {
        let mut fixture = context_fixture(6, 4, 2, 13);
        // A poisoned (NaN) distribution must sort below every real entropy
        // instead of short-circuiting the comparator.
        fixture
            .current
            .assignment_mut()
            .set_distribution(ObjectId(1), &[f64::NAN, f64::NAN]);
        fixture
            .current
            .assignment_mut()
            .set_distribution(ObjectId(4), &[0.5, 0.5]);
        let candidates: Vec<ObjectId> = (0..6).map(ObjectId).collect();
        let short = ScoringEngine::with_shortlist(3).shortlist(&fixture.current, &candidates);
        assert_eq!(short.len(), 3);
        assert!(short.contains(&ObjectId(4)), "max-entropy object dropped");
        assert!(
            !short.contains(&ObjectId(1)),
            "NaN entropy outranked real entropies: {short:?}"
        );
    }

    #[test]
    fn serial_and_parallel_rankings_are_identical() {
        let fixture = context_fixture(12, 6, 2, 13);
        let candidates: Vec<ObjectId> = (0..12).map(ObjectId).collect();
        let engine = ScoringEngine::exhaustive();
        let serial_ctx = ScoringContext {
            answers: &fixture.answers,
            expert: &fixture.expert,
            current: &fixture.current,
            aggregator: &fixture.aggregator,
            detector: &fixture.detector,
            parallel: false,
            entropy_cache: None,
        };
        let parallel_ctx = ScoringContext {
            parallel: true,
            ..serial_ctx
        };
        let serial = engine.information_gain_scores(&serial_ctx, &candidates);
        let parallel = engine.information_gain_scores(&parallel_ctx, &candidates);
        assert_eq!(serial.len(), parallel.len());
        for ((o1, s1), (o2, s2)) in serial.iter().zip(&parallel) {
            assert_eq!(o1, o2);
            assert!((s1 - s2).abs() < 1e-12, "IG for {o1} differs: {s1} vs {s2}");
        }
        let serial_det = engine.detection_scores(&serial_ctx, &candidates);
        let parallel_det = engine.detection_scores(&parallel_ctx, &candidates);
        assert_eq!(serial_det, parallel_det);
    }

    #[test]
    fn hypothesis_evaluation_pins_the_hypothetical_label() {
        let fixture = context_fixture(8, 4, 2, 17);
        for mode in [ScoringMode::Exact, ScoringMode::Delta] {
            let p = ScoringEngine::evaluate_hypothesis(
                &fixture.aggregator,
                &fixture.answers,
                &fixture.expert,
                &fixture.current,
                ObjectId(3),
                LabelId(1),
                mode,
            );
            assert_eq!(p.assignment().prob(ObjectId(3), LabelId(1)), 1.0);
        }
        // The original state is untouched.
        assert!(fixture.expert.get(ObjectId(3)).is_none());
    }

    #[test]
    fn warm_started_hypotheses_match_cold_restarts_within_em_tolerance() {
        use crowdval_aggregation::{Aggregator, BatchEm, EmConfig, IncrementalEm};
        use crowdval_sim::{PopulationMix, SyntheticConfig};
        // A reliable crowd keeps the EM single-basin, so the warm start and
        // the cold restart must converge to the same fixed point (within the
        // EM convergence tolerance) — in both scoring modes.
        let synth = SyntheticConfig {
            num_objects: 16,
            num_workers: 8,
            reliability: 0.85,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(43)
        }
        .generate();
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let mut expert = ExpertValidation::empty(16);
        for o in 0..4 {
            expert.set(ObjectId(o), truth.label(ObjectId(o)));
        }
        let warm_aggregator = IncrementalEm::default();
        let cold_aggregator = BatchEm::default();
        let current = warm_aggregator.conclude(&answers, &expert, None);

        let tolerance = 50.0 * EmConfig::paper_default().tolerance;
        for &object in &expert.unvalidated_objects()[..6] {
            for l in 0..answers.num_labels() {
                let label = LabelId(l);
                if current.assignment().prob(object, label) <= NEGLIGIBLE_WEIGHT {
                    continue;
                }
                let mut hypothetical = expert.clone();
                hypothetical.set(object, label);
                let cold = cold_aggregator.conclude(&answers, &hypothetical, None);
                for mode in [ScoringMode::Exact, ScoringMode::Delta] {
                    let warm = ScoringEngine::evaluate_hypothesis(
                        &warm_aggregator,
                        &answers,
                        &expert,
                        &current,
                        object,
                        label,
                        mode,
                    );
                    let diff = warm.assignment().max_abs_diff(cold.assignment());
                    assert!(
                        diff <= tolerance,
                        "hypothesis ({object}, {label}, {mode:?}): warm/cold assignments differ by {diff}"
                    );
                    assert!(
                        (warm.uncertainty() - cold.uncertainty()).abs() <= tolerance * 16.0,
                        "hypothesis ({object}, {label}, {mode:?}): warm H {} vs cold H {}",
                        warm.uncertainty(),
                        cold.uncertainty()
                    );
                }
            }
        }
    }

    #[test]
    fn leave_one_out_flags_contradicted_validations() {
        use crowdval_sim::{PopulationMix, SyntheticConfig};
        let synth = SyntheticConfig {
            num_objects: 20,
            num_workers: 12,
            reliability: 0.9,
            mix: PopulationMix::all_reliable(),
            ..SyntheticConfig::paper_default(19)
        }
        .generate();
        let answers = synth.dataset.answers().clone();
        let truth = synth.dataset.ground_truth().clone();
        let mut expert = ExpertValidation::empty(20);
        for o in 0..5 {
            expert.set(ObjectId(o), truth.label(ObjectId(o)));
        }
        // Flip one validation against a reliable crowd.
        let flipped = ObjectId(2);
        expert.set(flipped, LabelId(1 - truth.label(flipped).index()));
        let aggregator = crowdval_aggregation::IncrementalEm::default();
        let current =
            crowdval_aggregation::Aggregator::conclude(&aggregator, &answers, &expert, None);
        let detector = SpammerDetector::default();
        let ctx = ScoringContext {
            answers: &answers,
            expert: &expert,
            current: &current,
            aggregator: &aggregator,
            detector: &detector,
            parallel: false,
            entropy_cache: None,
        };
        let flagged = ScoringEngine::new().leave_one_out_disagreements(&ctx);
        assert!(
            flagged.contains(&flipped),
            "flipped validation not flagged: {flagged:?}"
        );
        // Parallel sweep agrees with the serial one.
        let parallel_ctx = ScoringContext {
            parallel: true,
            ..ctx
        };
        assert_eq!(
            ScoringEngine::new().leave_one_out_disagreements(&parallel_ctx),
            flagged
        );
    }
}
