//! Offline stand-in for [`rayon`](https://docs.rs/rayon).
//!
//! The build environment for this workspace has no access to crates.io, so
//! this shim provides the (small) subset of rayon's parallel-iterator API the
//! workspace actually uses — `slice.par_iter().map(f).collect()` — with the
//! same semantics: the closure runs on multiple OS threads and the results
//! come back in input order.
//!
//! Work is distributed dynamically: worker threads pull the next unclaimed
//! index from a shared atomic counter, so an expensive item (a slow EM run)
//! does not stall the items behind it the way static chunking would. This
//! matters for the guidance hot path, where per-candidate aggregation cost
//! varies with how contested the candidate is.
//!
//! Swapping the real rayon back in is a one-line change in the workspace
//! manifest; no source file mentions this shim by name.

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, ParallelIterator};
}

pub mod iter {
    use super::parallel_map_ordered;

    /// Conversion of `&self` into a parallel iterator (`.par_iter()`).
    pub trait IntoParallelRefIterator<'data> {
        /// The parallel-iterator type produced.
        type Iter;

        /// Returns a parallel iterator over borrowed items.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Iter = ParIter<'data, T>;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Iter = ParIter<'data, T>;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    /// Marker trait mirroring rayon's `ParallelIterator`; the adapters below
    /// implement it so `use rayon::prelude::*` keeps working.
    pub trait ParallelIterator {}

    /// Parallel iterator over `&[T]`.
    pub struct ParIter<'data, T: Sync> {
        pub(crate) items: &'data [T],
    }

    impl<T: Sync> ParallelIterator for ParIter<'_, T> {}

    impl<'data, T: Sync> ParIter<'data, T> {
        /// Maps every item through `f` on the worker threads.
        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
        {
            ParMap {
                items: self.items,
                f,
            }
        }

        /// Collects the borrowed items in order.
        pub fn collect<C: FromIterator<&'data T>>(self) -> C {
            self.items.iter().collect()
        }
    }

    /// The result of [`ParIter::map`].
    pub struct ParMap<'data, T: Sync, F> {
        items: &'data [T],
        f: F,
    }

    impl<T: Sync, F> ParallelIterator for ParMap<'_, T, F> {}

    impl<'data, T: Sync, F> ParMap<'data, T, F> {
        /// Runs the map on all available threads and collects the results in
        /// input order.
        pub fn collect<R, C>(self) -> C
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
            C: FromIterator<R>,
        {
            parallel_map_ordered(self.items, &self.f)
                .into_iter()
                .collect()
        }
    }
}

/// Number of worker threads used for parallel maps. Honors the real rayon's
/// `RAYON_NUM_THREADS` environment variable, falling back to the hardware
/// parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(forced) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = forced.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every task on a fixed scoped thread pool of `threads` workers and
/// waits for all of them; `f` consumes each task by value. Tasks are claimed
/// dynamically from a shared queue so uneven per-task cost still balances.
///
/// This is the primitive behind the blocked (cache-sized row chunk) parallel
/// EM kernels: a task typically carries an exclusive `&mut` sub-slice of a
/// shared buffer, which is `Send`, so disjoint blocks are processed
/// concurrently with no `unsafe` and no locking beyond queue claims. With
/// `threads <= 1` (or one task) everything runs inline on the caller's
/// thread — bit-identical results are up to the caller keeping each task's
/// work independent, which row-disjoint blocks are by construction.
pub fn run_scoped_tasks<T, F>(tasks: Vec<T>, threads: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = threads.min(tasks.len()).max(1);
    if threads <= 1 {
        for task in tasks {
            f(task);
        }
        return;
    }
    let queue = std::sync::Mutex::new(tasks.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("task queue poisoned").next();
                match next {
                    Some(task) => f(task),
                    None => break,
                }
            });
        }
    });
}

/// Maps `f` over `items` on all available threads, returning the results in
/// input order. Indices are claimed dynamically from an atomic counter so
/// uneven per-item cost still balances across threads.
fn parallel_map_ordered<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            indexed.extend(handle.join().expect("rayon-shim worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        let out: Vec<u64> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u64];
        let out: Vec<u64> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn scoped_tasks_cover_disjoint_mut_blocks() {
        let mut data = vec![0u64; 1000];
        let tasks: Vec<(usize, &mut [u64])> = data.chunks_mut(64).enumerate().collect();
        crate::run_scoped_tasks(tasks, 4, |(chunk, block)| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = (chunk * 64 + i) as u64;
            }
        });
        assert_eq!(data, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn scoped_tasks_run_inline_on_one_thread() {
        let mut hits = [false; 10];
        let tasks: Vec<&mut bool> = hits.iter_mut().collect();
        crate::run_scoped_tasks(tasks, 1, |hit| *hit = true);
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn par_map_actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        // With one worker the barrier below would wait forever.
        if crate::current_num_threads() <= 1 {
            return;
        }
        // Items 0 and 1 each wait for the other, so they can only complete
        // on two threads that run at the same time.
        let barrier = Barrier::new(2);
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u64> = (0..256).collect();
        let _: Vec<u64> = items
            .par_iter()
            .map(|&x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                if x < 2 {
                    barrier.wait();
                }
                x
            })
            .collect();
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected more than one worker thread"
        );
    }
}
