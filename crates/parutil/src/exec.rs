//! The crate's one fork-join, and the static-split executor on it.
//!
//! [`fork`] is the only place this crate creates OS threads: every
//! executor — [`Exec::run_ranges`], [`pool_map_with_state`] and the queue
//! drain loop behind [`bounded_ordered_serve`] — is written on it, so a
//! change of threading model (a warm pool instead of scoped threads) is a
//! change to one function.
//!
//! The paper's wavelet transform parallelization assigns *contiguous* row or
//! column ranges to processors ("the deterministic workload allows a static
//! load allocation") with a barrier between the vertical and horizontal
//! filtering of every decomposition level — both for the JJ2000 Java
//! threads and for Jasper's `#pragma omp parallel for` static loop split
//! (Fig. 6). [`Exec`] is exactly that pattern; one worker runs inline.
//!
//! [`pool_map_with_state`]: crate::pool_map_with_state
//! [`bounded_ordered_serve`]: crate::bounded_ordered_serve

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

use crate::schedule::chunk_ranges;

/// Run `worker(w)` for every `w in 0..k` on one scoped thread each and
/// `caller()` on the calling thread, then join them all and return what
/// `caller` returned. With `k == 0` nothing is spawned.
///
/// A panic in any share reaches the caller with its payload once every
/// thread has joined: the caller's own panic first, else the first
/// worker's to panic. Shares that wait on one another (a queue) must
/// release each other when one of them unwinds, or the join cannot
/// return.
// AUDIT(hot): batch dispatch — one panic slot per parallel region, locked
// only when a worker panics; the per-item work runs inside `worker` and
// `caller`.
pub(crate) fn fork<R>(k: usize, worker: impl Fn(usize) + Sync, caller: impl FnOnce() -> R) -> R {
    if k == 0 {
        return caller();
    }
    // Workers hand a panic over instead of leaving it to the scope, which
    // would replace the payload with its own message. The scope's wait
    // is also cheaper than joining each handle.
    let panicked = Mutex::new(None);
    let out = thread::scope(|scope| {
        for w in 0..k {
            let (worker, panicked) = (&worker, &panicked);
            scope.spawn(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(w))) {
                    let mut first = panicked.lock().unwrap_or_else(|e| e.into_inner());
                    first.get_or_insert(payload);
                }
            });
        }
        caller()
    });
    if let Some(payload) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    out
}

/// An execution policy: the number of contiguous ranges (= workers) per
/// parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Number of workers (contiguous ranges) per parallel region.
    pub workers: usize,
}

impl Exec {
    /// Sequential policy (1 worker, inline).
    pub const SEQ: Exec = Exec { workers: 1 };

    /// Scoped-thread policy with `workers` threads.
    pub fn threads(workers: usize) -> Self {
        Exec {
            workers: workers.max(1),
        }
    }

    /// Split `0..n` into `workers` contiguous ranges and run `f` on each:
    /// the first on the calling thread, which would otherwise only wait,
    /// the rest on one scoped thread each. Returns after all ranges
    /// complete (barrier semantics). The worker count is clamped to the
    /// process-wide [`thread_budget`](crate::thread_budget)
    /// (`PJ2K_THREADS`) and to `n` before splitting.
    // AUDIT(hot): batch dispatch — one O(p) range list per parallel region;
    // the clones copy Ranges, not buffers.
    pub fn run_ranges<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let p = crate::budget::clamp_workers(self.workers).min(n);
        let ranges = chunk_ranges(n, p);
        fork(p - 1, |w| f(ranges[w + 1].clone()), || f(ranges[0].clone()));
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::DisjointWriter;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_ranges_covers_everything_on_all_backends() {
        for exec in [Exec::SEQ, Exec::threads(3), Exec::threads(1)] {
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            exec.run_ranges(37, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "exec={exec:?} index {i}");
            }
        }
    }

    #[test]
    fn run_ranges_empty_is_noop() {
        Exec::threads(4).run_ranges(0, |_| panic!("must not run"));
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let hits = AtomicUsize::new(0);
        Exec::threads(16).run_ranges(3, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_ranges_claimed_writes() {
        let mut buf = vec![0u32; 64];
        let writer = DisjointWriter::new(&mut buf);
        Exec::threads(4).run_ranges(64, |range| {
            let claim = writer.claim_range(range.clone());
            for i in range {
                // SAFETY: the claim owns `range`; ranges are disjoint.
                unsafe { claim.write(i, i as u32 * 2) };
            }
        });
        writer.debug_assert_fully_claimed();
        drop(writer);
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as u32 * 2);
        }
    }
}
