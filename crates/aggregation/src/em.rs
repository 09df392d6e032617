//! Dawid–Skene expectation maximization over worker confusion matrices
//! (paper §4.1, Eq. 1–5).
//!
//! The module exposes the individual E- and M-steps (shared with the
//! incremental variant in [`crate::iem`]) and the traditional batch estimator
//! [`BatchEm`] that restarts the estimation on every call.
//!
//! All estimation runs through an [`EmWorkspace`] of reusable scratch
//! buffers: the E-step reads per-worker log-confusion tables cached once per
//! M-step (instead of calling `ln()` per vote per object per iteration) and
//! writes into a preallocated assignment buffer, so the steady-state EM
//! iteration allocates nothing. The public `*_step`
//! functions below are thin allocation-at-the-edges wrappers over those
//! workspace kernels; the guidance hot path bypasses the wrappers entirely
//! via [`run_warm_em`] and [`crate::delta`].

use crate::config::EmConfig;
use crate::init::InitStrategy;
use crate::workspace::{refresh_worker_logs, with_workspace, EmWorkspace, LOG_FLOOR};
use crate::Aggregator;
use crowdval_model::{
    AnswerSet, AssignmentMatrix, ConfusionMatrix, ExpertValidation, LabelId, ObjectId,
    ProbabilisticAnswerSet, ValidationView, WorkerId,
};
use crowdval_numerics::Matrix;

/// Computes one object's posterior label distribution into `row` from the
/// cached log tables (Eq. 1–3, log domain). `votes` is the object's flat
/// `(worker, label)` row; votes of tombstoned workers are skipped, exactly
/// as `ObjectVotes` skips them. `scores` is the per-label log-score
/// scratch. The row is normalized in place exactly as
/// [`Matrix::normalize_rows`] would.
#[inline]
pub(crate) fn posterior_row(
    m: usize,
    votes: &[(u32, u32)],
    excluded: &[bool],
    log_confusions: &[f64],
    log_priors: &[f64],
    scores: &mut [f64],
    row: &mut [f64],
) {
    for (l, score) in scores.iter_mut().enumerate() {
        *score = log_priors[l];
        for &(w, answered) in votes {
            if excluded[w as usize] {
                continue;
            }
            *score += log_confusions[w as usize * m * m + l * m + answered as usize];
        }
    }
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (l, &score) in scores.iter().enumerate() {
        row[l] = (score - max).exp();
    }
    let sum: f64 = row.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for v in row.iter_mut() {
            *v /= sum;
        }
    } else {
        let uniform = 1.0 / m as f64;
        for v in row.iter_mut() {
            *v = uniform;
        }
    }
}

/// One object's E-step row: clamp when validated, else the posterior from
/// the cached log tables over the object's flat row.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn e_step_row<V: ValidationView>(
    m: usize,
    matrix: &crowdval_model::AnswerMatrix,
    view: &V,
    o: ObjectId,
    log_confusions: &[f64],
    log_priors: &[f64],
    scores: &mut [f64],
    row: &mut [f64],
) {
    if let Some(validated) = view.validated(o) {
        row.fill(0.0);
        row[validated.index()] = 1.0;
        return;
    }
    posterior_row(
        m,
        matrix.object_row_slice(o),
        matrix.excluded_mask(),
        log_confusions,
        log_priors,
        scores,
        row,
    );
}

/// How many rows ahead of the one being computed the E-step prefetches
/// voter confusion tables. Sized so the prefetch
/// distance covers roughly one DRAM round-trip of per-row compute at
/// paper-typical row lengths (a handful of votes, a handful of labels).
const E_STEP_PREFETCH_ROWS: usize = 8;

/// Issues software prefetches for the log-confusion cache lines of a
/// *future* object row's voters. Rows are slices of one pair slab, so the
/// voters of row `o + distance` are one load away while row `o` computes.
/// Prefetching performs no arithmetic, so serial/parallel bit-identity is
/// untouched; on non-x86_64 targets this is a no-op.
#[inline]
fn prefetch_confusion_rows(
    matrix: &crowdval_model::AnswerMatrix,
    o: usize,
    m: usize,
    log_confusions: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    for &(w, _) in matrix.object_row_slice(ObjectId(o)) {
        let idx = w as usize * m * m;
        // A worker's m×m log table spans up to two cache lines; touch the
        // first and last element so both lines are in flight.
        if idx + m * m <= log_confusions.len() {
            // SAFETY: the check above keeps both addresses inside
            // `log_confusions` (`m >= 1`); a prefetch is a hint that reads
            // nothing and cannot fault.
            unsafe {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let base = log_confusions.as_ptr().add(idx);
                _mm_prefetch(base as *const i8, _MM_HINT_T0);
                _mm_prefetch(base.add(m * m - 1) as *const i8, _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (matrix, o, m, log_confusions);
    }
}

/// Workspace E-step kernel (Eq. 1–4): fills the workspace's current (or
/// `next`) assignment buffer from the cached log tables. Objects with a
/// validation in `view` get a point mass on the validated label (Eq. 4);
/// objects without any answers fall back to the priors.
pub(crate) fn expectation_step_ws<V: ValidationView>(
    answers: &AnswerSet,
    view: &V,
    ws: &mut EmWorkspace,
    into_next: bool,
) {
    let m = answers.num_labels();
    let n = answers.num_objects();
    let matrix = answers.matrix();
    let EmWorkspace {
        assignment,
        next_assignment,
        log_confusions,
        log_priors,
        log_scores,
        stat_rows_recomputed,
        ..
    } = ws;
    let target: &mut Matrix = if into_next {
        next_assignment
    } else {
        assignment
    };
    if crate::parblock::should_parallelize(n, crate::parblock::PAR_MIN_OBJECTS) {
        *stat_rows_recomputed += n;
        let log_confusions: &[f64] = log_confusions;
        let log_priors: &[f64] = log_priors;
        let block = crate::parblock::BLOCK_ROWS;
        let tasks: Vec<(usize, &mut [f64])> = target
            .as_mut_slice()
            .chunks_mut(block * m)
            .enumerate()
            .map(|(i, rows)| (i * block, rows))
            .collect();
        rayon::run_scoped_tasks(tasks, crate::parblock::em_threads(), |(first, rows)| {
            let mut scores = vec![0.0f64; m];
            for (j, row) in rows.chunks_mut(m).enumerate() {
                let o = ObjectId(first + j);
                prefetch_confusion_rows(
                    matrix,
                    o.index() + E_STEP_PREFETCH_ROWS,
                    m,
                    log_confusions,
                );
                e_step_row(
                    m,
                    matrix,
                    view,
                    o,
                    log_confusions,
                    log_priors,
                    &mut scores,
                    row,
                );
            }
        });
        return;
    }
    for o in answers.objects() {
        *stat_rows_recomputed += 1;
        let row = target.row_mut(o.index());
        prefetch_confusion_rows(matrix, o.index() + E_STEP_PREFETCH_ROWS, m, log_confusions);
        e_step_row(
            m,
            matrix,
            view,
            o,
            log_confusions,
            log_priors,
            log_scores,
            row,
        );
    }
}

/// Workspace M-step kernel for one worker (Eq. 5): accumulates soft counts
/// into the shared `counts` scratch and re-normalizes the worker's confusion
/// matrix in place, with Laplace smoothing `alpha`.
pub(crate) fn m_step_worker(
    answers: &AnswerSet,
    worker: WorkerId,
    assignment: &Matrix,
    counts: &mut Matrix,
    confusion: &mut ConfusionMatrix,
    alpha: f64,
    m: usize,
) {
    counts.fill(0.0);
    for &(o, answered) in answers.matrix().worker_row_slice(worker) {
        for true_label in 0..m {
            counts[(true_label, answered as usize)] += assignment[(o as usize, true_label)];
        }
    }
    let cm = confusion.matrix_mut();
    cm.copy_from(counts);
    if alpha > 0.0 {
        cm.add_scalar(alpha);
    }
    cm.normalize_rows();
}

/// Workspace M-step over every worker, refreshing each worker's cached
/// log-confusion rows afterwards (the once-per-M-step `ln()` refresh).
pub(crate) fn maximization_step_ws(answers: &AnswerSet, ws: &mut EmWorkspace, alpha: f64) {
    let m = answers.num_labels();
    let k = answers.num_workers();
    let EmWorkspace {
        assignment,
        confusions,
        counts,
        log_confusions,
        ..
    } = ws;
    if crate::parblock::should_parallelize(k, crate::parblock::PAR_MIN_WORKERS) {
        let assignment: &Matrix = assignment;
        let block = crate::parblock::BLOCK_WORKERS;
        let tasks: Vec<(usize, &mut [ConfusionMatrix], &mut [f64])> = confusions
            .chunks_mut(block)
            .zip(log_confusions.chunks_mut(block * m * m))
            .enumerate()
            .map(|(i, (confs, logs))| (i * block, confs, logs))
            .collect();
        rayon::run_scoped_tasks(
            tasks,
            crate::parblock::em_threads(),
            |(first, confs, logs)| {
                let mut counts = Matrix::zeros(m, m);
                for (j, confusion) in confs.iter_mut().enumerate() {
                    m_step_worker(
                        answers,
                        WorkerId(first + j),
                        assignment,
                        &mut counts,
                        confusion,
                        alpha,
                        m,
                    );
                    refresh_worker_logs(logs, confusion, j, m);
                }
            },
        );
        return;
    }
    for w in answers.workers() {
        let confusion = &mut confusions[w.index()];
        m_step_worker(answers, w, assignment, counts, confusion, alpha, m);
        refresh_worker_logs(log_confusions, confusion, w.index(), m);
    }
}

/// Re-estimates the workspace priors from the full assignment matrix (Eq. 3)
/// and refreshes the cached log-priors.
pub(crate) fn priors_from_assignment_ws(ws: &mut EmWorkspace) {
    let n = ws.num_objects;
    if n == 0 {
        let uniform = 1.0 / ws.num_labels as f64;
        ws.priors.iter_mut().for_each(|p| *p = uniform);
    } else {
        for l in 0..ws.num_labels {
            ws.priors[l] = ws.assignment.col_sum(l) / n as f64;
        }
    }
    ws.refresh_log_priors();
}

/// E-step (Eq. 1–4): estimates assignment probabilities from the worker
/// confusion matrices and label priors. Objects with an expert validation get
/// a point mass on the validated label (Eq. 4); objects without any answers
/// fall back to the priors.
pub fn expectation_step(
    answers: &AnswerSet,
    expert: &ExpertValidation,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
) -> AssignmentMatrix {
    debug_assert_eq!(confusions.len(), answers.num_workers());
    debug_assert_eq!(priors.len(), answers.num_labels());
    with_workspace(|ws| {
        ws.seed(answers, confusions, priors);
        expectation_step_ws(answers, expert, ws, false);
        AssignmentMatrix::from_normalized(ws.assignment.clone())
    })
}

/// M-step (Eq. 5): re-estimates every worker's confusion matrix from the soft
/// label assignments, with Laplace smoothing `alpha` on the counts.
pub fn maximization_step(
    answers: &AnswerSet,
    assignment: &AssignmentMatrix,
    alpha: f64,
) -> Vec<ConfusionMatrix> {
    with_workspace(|ws| {
        ws.ensure_shape(
            answers.num_objects(),
            answers.num_workers(),
            answers.num_labels(),
        );
        ws.assignment.copy_from(assignment.matrix());
        maximization_step_ws(answers, ws, alpha);
        ws.confusions.clone()
    })
}

/// Label priors `p(l)` from the current assignment matrix (Eq. 3).
pub fn estimate_priors(assignment: &AssignmentMatrix) -> Vec<f64> {
    assignment.label_priors()
}

/// Runs alternating E/M iterations starting from the given confusion matrices
/// and priors until the assignment matrix converges or the iteration budget
/// is exhausted. Returns the final probabilistic answer set with the number
/// of EM iterations it took.
///
/// After convergence the solution is checked for the Dawid–Skene
/// *label-switching* ambiguity (see `realign_in_workspace`).
pub fn run_em_from_confusions(
    answers: &AnswerSet,
    expert: &ExpertValidation,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
    config: &EmConfig,
) -> ProbabilisticAnswerSet {
    run_warm_em(answers, expert, confusions, priors, config)
}

/// [`run_em_from_confusions`] generalized over [`ValidationView`], so a
/// borrowed [`crowdval_model::HypothesisOverlay`] can drive the estimation
/// without materializing an `ExpertValidation` clone per hypothesis.
pub fn run_warm_em<V: ValidationView>(
    answers: &AnswerSet,
    view: &V,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
    config: &EmConfig,
) -> ProbabilisticAnswerSet {
    with_workspace(|ws| {
        ws.seed(answers, confusions, priors);
        let iterations = run_em_in_workspace(answers, view, ws, config);
        let iterations = realign_in_workspace(answers, view, ws, iterations, config);
        ws.export(iterations)
    })
}

/// The alternating E/M loop shared by the batch and incremental entry points,
/// operating entirely inside the workspace. The workspace must be seeded
/// ([`EmWorkspace::seed`] or [`EmWorkspace::seed_from`]) with the starting
/// confusion matrices and priors — seeding also refreshes the cached log
/// tables, which this loop relies on (a preceding
/// `maximization_step_ws` + `priors_from_assignment_ws` pair refreshes
/// them too). On return the workspace holds the converged assignment,
/// confusions and priors. Performs zero heap allocations once the workspace
/// buffers are warm (asserted by the counting-allocator test in
/// `tests/alloc_free.rs`).
pub fn run_em_in_workspace<V: ValidationView>(
    answers: &AnswerSet,
    view: &V,
    ws: &mut EmWorkspace,
    config: &EmConfig,
) -> usize {
    expectation_step_ws(answers, view, ws, false);
    let mut iterations = 1;
    ws.stat_iterations += 1;
    while iterations < config.max_iterations {
        maximization_step_ws(answers, ws, config.smoothing_alpha);
        priors_from_assignment_ws(ws);
        expectation_step_ws(answers, view, ws, true);
        iterations += 1;
        ws.stat_iterations += 1;
        let delta = ws.next_assignment.max_abs_diff(&ws.assignment);
        std::mem::swap(&mut ws.assignment, &mut ws.next_assignment);
        if delta <= config.tolerance {
            break;
        }
    }
    // Make sure the reported confusions/priors correspond to the final
    // assignment matrix.
    maximization_step_ws(answers, ws, config.smoothing_alpha);
    priors_from_assignment_ws(ws);
    iterations
}

/// A worker counts as *informative* when its prior-weighted accuracy exceeds
/// chance (`1/m`) by this margin; the orientation with more informative
/// workers wins the cold-start realignment.
const ORIENTATION_MARGIN: f64 = 0.05;

/// Resolves the Dawid–Skene *label-switching* ambiguity of a converged EM
/// solution held in the workspace, returning the (possibly increased) total
/// iteration count.
///
/// With a barely-better-than-chance crowd (the paper's default mix averages
/// ≈ 52 % per-answer accuracy) the likelihood has an exactly mirrored
/// optimum in which every label is globally permuted and the sloppy workers
/// masquerade as the reliable ones. The observed-data likelihood is
/// *invariant* under such global permutations, so the orientation must come
/// from an assumption or an anchor outside the crowd matrix:
///
/// * **Cold start** (no validations): the orientation with the larger number
///   of *informative* workers — prior-weighted accuracy above chance by
///   [`ORIENTATION_MARGIN`] — is chosen. This encodes the population
///   assumption behind the paper's synthetic setup (43 % reliable vs. 32 %
///   sloppy workers): honest workers outnumber systematically inverted ones.
///   The mirrored state is itself an EM fixed point, so realignment is a
///   free permutation of the converged solution — no EM re-run.
/// * **With validations**: expert validations (pinned hypotheses included)
///   are the anchor (the §4.1 premise that validations act as ground truth).
///   The solution is oriented so the *crowd-only* posterior (clamping
///   bypassed — a clamped posterior trivially agrees with every orientation)
///   agrees with the validated labels as much as possible; when a permutation
///   wins, the EM is re-run from the realigned estimate and kept only if it
///   still anchors better after convergence.
///
/// Landing in the mirrored basin is catastrophic for guided validation:
/// warm-started i-EM inherits the flipped basin forever, and
/// information-gain guidance then avoids the very validations that would
/// correct it (a validation contradicting a confident-but-wrong belief
/// *raises* expected entropy). Validated objects are clamped by the E-step
/// and are never affected by realignment.
pub(crate) fn realign_in_workspace<V: ValidationView>(
    answers: &AnswerSet,
    view: &V,
    ws: &mut EmWorkspace,
    iterations: usize,
    config: &EmConfig,
) -> usize {
    let m = ws.num_labels;
    // Beyond 6 labels the factorial sweep is skipped (the paper's datasets
    // have at most 4 labels).
    if !(2..=6).contains(&m) || ws.confusions.is_empty() {
        return iterations;
    }
    let identity: Vec<usize> = (0..m).collect();

    // A single validated object is too weak an anchor: hypothesis
    // evaluations (which add exactly one hypothetical validation) would
    // otherwise flip the orientation back and forth and drown the
    // information-gain signal in realignment noise.
    const MIN_VALIDATION_ANCHORS: usize = 2;

    if view.validated_count() < MIN_VALIDATION_ANCHORS {
        // Cold start: compare the number of informative workers per
        // orientation. Under permutation π the accuracy of worker w reads
        // Σ_l p(π(l)) · C_w(π(l), l).
        let informative = |perm: &[usize]| -> usize {
            let chance = 1.0 / m as f64;
            ws.confusions
                .iter()
                .filter(|c| {
                    let acc: f64 = (0..m)
                        .map(|l| ws.priors[perm[l]] * c.prob(LabelId(perm[l]), LabelId(l)))
                        .sum();
                    acc > chance + ORIENTATION_MARGIN
                })
                .count()
        };
        let baseline = informative(&identity);
        let mut best: Option<(Vec<usize>, usize)> = None;
        for perm in permutations(m) {
            if perm == identity {
                continue;
            }
            let count = informative(&perm);
            let beats_best = best.as_ref().is_none_or(|(_, b)| count > *b);
            if count > baseline && beats_best {
                best = Some((perm, count));
            }
        }
        if let Some((perm, _)) = best {
            permute_workspace_model(ws, &perm);
            if view.validated_count() == 0 {
                // Without clamps the mirrored solution is an exact fixed
                // point of the label-symmetric model, so permuting in place
                // is both free and exact.
                permute_assignment_columns_in_place(&mut ws.assignment, &perm);
                return iterations;
            }
            // With a clamped object present the mirror is no longer an exact
            // fixed point — re-converge from the permuted estimate so the
            // validation stays honoured exactly.
            let more_iterations = run_em_in_workspace(answers, view, ws, config);
            return iterations + more_iterations;
        }
        return iterations;
    }

    // Validation anchor: agreement between the validated labels and the
    // crowd-only posterior, per orientation. The posterior is independent of
    // the candidate permutation (a permutation only changes which entry is
    // read), so it is computed once per anchor and indexed per candidate.
    let anchor: Vec<(ObjectId, LabelId)> = view.validated_pairs();
    let anchor_posteriors = |confusions: &[ConfusionMatrix], priors: &[f64]| -> Vec<Vec<f64>> {
        anchor
            .iter()
            .map(|&(o, _)| crowd_posterior_at(answers, confusions, priors, o))
            .collect()
    };
    let agreement_of = |posteriors: &[Vec<f64>], perm: &[usize]| -> f64 {
        anchor
            .iter()
            .zip(posteriors)
            .map(|(&(_, l), posterior)| posterior[perm[l.index()]])
            .sum()
    };
    let posteriors = anchor_posteriors(&ws.confusions, &ws.priors);
    let baseline = agreement_of(&posteriors, &identity);
    let mut best: Option<(Vec<usize>, f64)> = None;
    for perm in permutations(m) {
        if perm == identity {
            continue;
        }
        let s = agreement_of(&posteriors, &perm);
        let beats_best = best.as_ref().is_none_or(|(_, bs)| s > *bs);
        if s > baseline + 1e-6 && beats_best {
            best = Some((perm, s));
        }
    }
    let Some((perm, _)) = best else {
        return iterations;
    };
    // Snapshot the pre-probe state: the probe re-run can drift back into the
    // old basin, in which case the original state (and its honest iteration
    // count — the fig08 warm-vs-cold comparison sums these) is restored.
    let snapshot_assignment = ws.assignment.clone();
    let snapshot_confusions = ws.confusions.clone();
    let snapshot_priors = ws.priors.clone();
    permute_workspace_model(ws, &perm);
    let more_iterations = run_em_in_workspace(answers, view, ws, config);
    let score_b = agreement_of(&anchor_posteriors(&ws.confusions, &ws.priors), &identity);
    if score_b > baseline {
        iterations + more_iterations
    } else {
        ws.assignment = snapshot_assignment;
        ws.confusions = snapshot_confusions;
        ws.priors = snapshot_priors;
        ws.refresh_log_tables();
        iterations
    }
}

/// Permutes the true-label axis of every workspace confusion matrix and the
/// priors by `perm` (rare realignment path — allocation is fine here).
fn permute_workspace_model(ws: &mut EmWorkspace, perm: &[usize]) {
    let realigned: Vec<ConfusionMatrix> = ws
        .confusions
        .iter()
        .map(|c| permute_true_labels(c, perm))
        .collect();
    ws.confusions = realigned;
    let realigned_priors: Vec<f64> = perm.iter().map(|&l| ws.priors[l]).collect();
    ws.priors.copy_from_slice(&realigned_priors);
    ws.refresh_log_tables();
}

/// Crowd-only posterior distribution of a single object (the E-step of Eq. 1
/// restricted to `object`, with expert clamping deliberately bypassed).
fn crowd_posterior_at(
    answers: &AnswerSet,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
    object: ObjectId,
) -> Vec<f64> {
    let m = answers.num_labels();
    let votes = answers.matrix().answers_for_object(object);
    let mut log_scores = vec![0.0f64; m];
    for (l, score) in log_scores.iter_mut().enumerate() {
        *score = priors[l].max(LOG_FLOOR).ln();
        for (w, answered) in votes.clone() {
            *score += confusions[w.index()]
                .prob(LabelId(l), answered)
                .max(LOG_FLOOR)
                .ln();
        }
    }
    let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut probs: Vec<f64> = log_scores.iter().map(|&s| (s - max).exp()).collect();
    let total: f64 = probs.iter().sum();
    if total > 0.0 {
        for p in &mut probs {
            *p /= total;
        }
    }
    probs
}

/// Re-indexes the label axis of an assignment matrix by `perm` in place
/// (`U'(o, l) = U(o, perm[l])`).
fn permute_assignment_columns_in_place(assignment: &mut Matrix, perm: &[usize]) {
    let m = perm.len();
    let mut permuted = vec![0.0f64; m];
    for o in 0..assignment.rows() {
        let row = assignment.row_mut(o);
        for (l, p) in permuted.iter_mut().enumerate() {
            *p = row[perm[l]];
        }
        row.copy_from_slice(&permuted);
    }
}

/// Observed-data log-likelihood of an EM solution under the Dawid–Skene
/// model; validated objects contribute their clamped label's terms. Exposed
/// for diagnostics and experiments (note that the likelihood is invariant
/// under global label permutations — it cannot pick an orientation).
pub fn log_likelihood(
    answers: &AnswerSet,
    expert: &ExpertValidation,
    confusions: &[ConfusionMatrix],
    priors: &[f64],
) -> f64 {
    let m = answers.num_labels();
    let mut total = 0.0;
    for o in answers.objects() {
        let votes = answers.matrix().answers_for_object(o);
        if let Some(validated) = expert.get(o) {
            total += priors[validated.index()].max(LOG_FLOOR).ln();
            for (w, a) in votes {
                total += confusions[w.index()].prob(validated, a).max(LOG_FLOOR).ln();
            }
            continue;
        }
        let mut log_terms = vec![0.0f64; m];
        for (l, term) in log_terms.iter_mut().enumerate() {
            *term = priors[l].max(LOG_FLOOR).ln();
            for (w, a) in votes.clone() {
                *term += confusions[w.index()]
                    .prob(LabelId(l), a)
                    .max(LOG_FLOOR)
                    .ln();
            }
        }
        let max = log_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        total += max + log_terms.iter().map(|t| (t - max).exp()).sum::<f64>().ln();
    }
    total
}

/// All permutations of `0..m` (Heap's algorithm).
fn permutations(m: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..m).collect();
    let mut out = Vec::new();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(m, &mut items, &mut out);
    out
}

/// Re-indexes the true-label axis of a confusion matrix by `perm`
/// (`C'(l, a) = C(perm[l], a)`); rows stay stochastic.
fn permute_true_labels(confusion: &ConfusionMatrix, perm: &[usize]) -> ConfusionMatrix {
    let m = confusion.num_labels();
    let mut rows = Matrix::zeros(m, m);
    for l in 0..m {
        for a in 0..m {
            rows[(l, a)] = confusion.prob(LabelId(perm[l]), LabelId(a));
        }
    }
    ConfusionMatrix::from_matrix(rows)
}

/// Runs alternating E/M iterations starting from an initial assignment
/// estimate (majority vote, uniform or random).
pub fn run_em_from_assignment(
    answers: &AnswerSet,
    expert: &ExpertValidation,
    initial: AssignmentMatrix,
    config: &EmConfig,
) -> ProbabilisticAnswerSet {
    with_workspace(|ws| {
        ws.ensure_shape(
            answers.num_objects(),
            answers.num_workers(),
            answers.num_labels(),
        );
        ws.assignment.copy_from(initial.matrix());
        maximization_step_ws(answers, ws, config.smoothing_alpha);
        priors_from_assignment_ws(ws);
        let iterations = run_em_in_workspace(answers, expert, ws, config);
        let iterations = realign_in_workspace(answers, expert, ws, iterations, config);
        ws.export(iterations)
    })
}

/// The traditional batch EM aggregator: every call re-estimates everything
/// from scratch, ignoring the previous probabilistic answer set.
#[derive(Debug, Clone, Copy)]
pub struct BatchEm {
    config: EmConfig,
    init: InitStrategy,
}

impl BatchEm {
    /// Batch EM with majority-vote initialization.
    pub fn new(config: EmConfig) -> Self {
        Self {
            config,
            init: InitStrategy::MajorityVote,
        }
    }

    /// Batch EM with an explicit initialization strategy.
    pub fn with_init(config: EmConfig, init: InitStrategy) -> Self {
        Self { config, init }
    }

    /// The configured initialization strategy.
    pub fn init(&self) -> InitStrategy {
        self.init
    }

    /// The EM hyper-parameters.
    pub fn config(&self) -> &EmConfig {
        &self.config
    }
}

impl Default for BatchEm {
    fn default() -> Self {
        Self::new(EmConfig::paper_default())
    }
}

impl Aggregator for BatchEm {
    fn conclude(
        &self,
        answers: &AnswerSet,
        expert: &ExpertValidation,
        _previous: Option<&ProbabilisticAnswerSet>,
    ) -> ProbabilisticAnswerSet {
        let initial = self.init.initial_assignment(answers, expert);
        run_em_from_assignment(answers, expert, initial, &self.config)
    }

    fn name(&self) -> &'static str {
        "batch-em"
    }

    fn snapshot_state(&self) -> Option<crate::AggregatorState> {
        Some(crate::AggregatorState::BatchEm {
            config: self.config,
            init: self.init,
        })
    }
}

/// Convenience helper used by examples and tests: batch EM without any expert
/// input.
pub fn aggregate(answers: &AnswerSet) -> ProbabilisticAnswerSet {
    BatchEm::default().conclude(
        answers,
        &ExpertValidation::empty(answers.num_objects()),
        None,
    )
}

/// Returns `true` when every unvalidated object's distribution is still a
/// probability distribution — a cheap internal sanity check used in tests.
pub fn is_valid_probabilistic_answer_set(p: &ProbabilisticAnswerSet) -> bool {
    p.assignment().matrix().is_row_stochastic(1e-6)
        && p.confusions()
            .iter()
            .all(|c| c.matrix().is_row_stochastic(1e-6))
        && (p.priors().iter().sum::<f64>() - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdval_model::{LabelId, ObjectId, WorkerId};
    use crowdval_sim::SyntheticConfig;

    /// Three good workers, one adversarial worker, ten objects.
    fn toy() -> (AnswerSet, Vec<LabelId>) {
        let truth: Vec<LabelId> = (0..10).map(|i| LabelId(i % 2)).collect();
        let mut n = AnswerSet::new(10, 4, 2);
        for (o, &t) in truth.iter().enumerate() {
            for w in 0..3 {
                // Good workers: correct except worker 0 errs on object 7.
                let ans = if w == 0 && o == 7 {
                    LabelId(1 - t.index())
                } else {
                    t
                };
                n.record_answer(ObjectId(o), WorkerId(w), ans).unwrap();
            }
            // Worker 3 always answers the opposite.
            n.record_answer(ObjectId(o), WorkerId(3), LabelId(1 - t.index()))
                .unwrap();
        }
        (n, truth)
    }

    #[test]
    fn em_recovers_the_truth_on_the_toy_answer_set() {
        let (answers, truth) = toy();
        let p = aggregate(&answers);
        let d = p.instantiate();
        for (o, &t) in truth.iter().enumerate() {
            assert_eq!(d.label(ObjectId(o)), t, "object {o}");
        }
        assert!(is_valid_probabilistic_answer_set(&p));
    }

    #[test]
    fn em_learns_worker_reliability() {
        let (answers, _) = toy();
        let p = aggregate(&answers);
        let priors = p.priors();
        let good = p.confusion(WorkerId(1)).weighted_accuracy(priors);
        let adversarial = p.confusion(WorkerId(3)).weighted_accuracy(priors);
        assert!(good > 0.9, "good worker accuracy {good}");
        assert!(
            adversarial < 0.2,
            "adversarial worker accuracy {adversarial}"
        );
    }

    #[test]
    fn expert_validation_clamps_assignment() {
        let (answers, _) = toy();
        let mut e = ExpertValidation::empty(10);
        // Force an object to the label every worker disagrees with.
        e.set(ObjectId(0), LabelId(1));
        let p = BatchEm::default().conclude(&answers, &e, None);
        assert_eq!(p.assignment().prob(ObjectId(0), LabelId(1)), 1.0);
        assert_eq!(p.instantiate().label(ObjectId(0)), LabelId(1));
    }

    #[test]
    fn e_step_falls_back_to_priors_for_unanswered_objects() {
        let answers = AnswerSet::new(3, 2, 2);
        let confusions = vec![ConfusionMatrix::uniform(2); 2];
        let u = expectation_step(
            &answers,
            &ExpertValidation::empty(3),
            &confusions,
            &[0.7, 0.3],
        );
        assert!((u.prob(ObjectId(1), LabelId(0)) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn m_step_counts_match_hand_computation() {
        // One worker, two objects with hard assignments.
        let mut answers = AnswerSet::new(2, 1, 2);
        answers
            .record_answer(ObjectId(0), WorkerId(0), LabelId(0))
            .unwrap();
        answers
            .record_answer(ObjectId(1), WorkerId(0), LabelId(0))
            .unwrap();
        let mut assignment = AssignmentMatrix::uniform(2, 2);
        assignment.set_certain(ObjectId(0), LabelId(0));
        assignment.set_certain(ObjectId(1), LabelId(1));
        let confusions = maximization_step(&answers, &assignment, 0.0);
        // True label 0 answered as 0 once -> F(0,0) = 1; true label 1 answered
        // as 0 once -> F(1,0) = 1.
        assert!((confusions[0].prob(LabelId(0), LabelId(0)) - 1.0).abs() < 1e-9);
        assert!((confusions[0].prob(LabelId(1), LabelId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_em_beats_majority_voting_on_spammy_synthetic_data() {
        // Snapshot seed: at the paper-default mix the per-answer accuracy is
        // ≈ 52 %, so EM's edge over majority voting is stream-dependent (on a
        // minority of seeds the label orientation is unrecoverable without
        // expert input). This seed exercises the typical case.
        let synth = SyntheticConfig::paper_default(42).generate();
        let answers = synth.dataset.answers();
        let truth = synth.dataset.ground_truth();
        let mv = truth.precision(&crate::majority::majority_vote(answers));
        let em = truth.precision(&aggregate(answers).instantiate());
        assert!(
            em >= mv - 0.02,
            "EM precision {em:.3} should not be materially below majority voting {mv:.3}"
        );
        assert!(em > 0.6, "EM precision unexpectedly low: {em:.3}");
    }

    #[test]
    fn em_iteration_count_is_reported_and_bounded() {
        let (answers, _) = toy();
        let config = EmConfig {
            max_iterations: 5,
            ..EmConfig::paper_default()
        };
        let p = BatchEm::new(config).conclude(&answers, &ExpertValidation::empty(10), None);
        assert!(p.em_iterations() >= 1 && p.em_iterations() <= 5);
    }

    #[test]
    fn aggregator_name() {
        assert_eq!(BatchEm::default().name(), "batch-em");
        assert_eq!(BatchEm::default().init(), InitStrategy::MajorityVote);
    }

    #[test]
    fn workspace_e_step_matches_the_public_wrapper() {
        let (answers, _) = toy();
        let confusions = vec![ConfusionMatrix::diagonal(2, 0.8); 4];
        let priors = [0.6, 0.4];
        let expert = ExpertValidation::empty(10);
        let via_wrapper = expectation_step(&answers, &expert, &confusions, &priors);
        let mut ws = EmWorkspace::new();
        ws.seed(&answers, &confusions, &priors);
        expectation_step_ws(&answers, &expert, &mut ws, false);
        assert_eq!(ws.assignment().max_abs_diff(via_wrapper.matrix()), 0.0);
    }
}
