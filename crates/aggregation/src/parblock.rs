//! Blocked parallel execution policy for the EM kernels.
//!
//! At million-object scale a full E-step or M-step is an embarrassingly
//! parallel sweep: every assignment row (E) and every worker's confusion
//! matrix (M) is computed independently from shared read-only state. The
//! kernels in [`crate::em`] and [`crate::delta`] partition that work into
//! contiguous, cache-sized row blocks and run the blocks on a fixed scoped
//! thread pool (`rayon::run_scoped_tasks`).
//!
//! ## Determinism contract
//!
//! Parallel and serial runs are **bit-identical**, by construction rather
//! than by tolerance:
//!
//! - Each block owns a disjoint `&mut` row range; within a block, rows are
//!   computed in index order with exactly the serial kernel's per-row
//!   operation sequence. No float ever crosses a block boundary during the
//!   parallel phase.
//! - Every cross-row reduction — label priors from assignment column sums,
//!   and the delta path's incrementally patched `col_sums` — stays in one
//!   deterministic serial pass over the same element order the serial path
//!   uses (equivalently: per-block partials reduced in block order, with
//!   block size 1 element). The reduction cost is `O(objects × labels)`
//!   against the E-step's `O(votes × labels)`, so serializing it costs
//!   almost nothing and buys exact reproducibility.
//!
//! ## Sizing
//!
//! The parallel path only engages above `PAR_MIN_OBJECTS` /
//! `PAR_MIN_WORKERS` rows: below that, thread spawn/join overhead
//! dominates, and the serial kernels additionally guarantee zero steady-state
//! allocations (asserted by the counting-allocator test), which the parallel
//! blocks do not (each block allocates its small per-block scratch).
//!
//! Thread count: [`set_em_threads`] wins, else `CROWDVAL_EM_THREADS`, else
//! the rayon pool width (which itself honors `RAYON_NUM_THREADS`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum assignment rows (objects) before the E-step goes parallel.
pub(crate) const PAR_MIN_OBJECTS: usize = 8192;

/// Minimum confusion rows (workers) before the M-step goes parallel.
pub(crate) const PAR_MIN_WORKERS: usize = 2048;

/// Rows per E-step block: 1024 rows × 4 labels × 8 bytes ≈ 32 KiB of
/// assignment output per block — small enough to stay cache-resident, large
/// enough that queue claims are noise.
pub(crate) const BLOCK_ROWS: usize = 1024;

/// Workers per M-step block (each worker's unit of work is a whole confusion
/// matrix re-estimation, much heavier than one E-step row).
pub(crate) const BLOCK_WORKERS: usize = 256;

/// 0 = unset (resolve from the environment); otherwise the forced count.
static EM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Forces the EM thread count (0 restores environment resolution). Intended
/// for benchmarks that A/B serial vs parallel arms in one process.
pub fn set_em_threads(threads: usize) {
    EM_THREADS.store(threads, Ordering::Relaxed);
}

/// The thread count the blocked EM kernels will use: the
/// [`set_em_threads`] override, else `CROWDVAL_EM_THREADS`, else the rayon
/// pool width.
pub fn em_threads() -> usize {
    let forced = EM_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(env) = std::env::var("CROWDVAL_EM_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    rayon::current_num_threads()
}

/// Whether a sweep over `rows` rows should run on the pool, given the
/// per-step minimum `min_rows`.
#[inline]
pub(crate) fn should_parallelize(rows: usize, min_rows: usize) -> bool {
    rows >= min_rows && em_threads() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_thread_count_wins_and_resets() {
        set_em_threads(3);
        assert_eq!(em_threads(), 3);
        assert!(should_parallelize(PAR_MIN_OBJECTS, PAR_MIN_OBJECTS));
        assert!(!should_parallelize(PAR_MIN_OBJECTS - 1, PAR_MIN_OBJECTS));
        set_em_threads(1);
        assert!(!should_parallelize(usize::MAX, PAR_MIN_OBJECTS));
        set_em_threads(0);
        assert!(em_threads() >= 1);
    }
}
