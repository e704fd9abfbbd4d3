//! Static-split executor over contiguous index ranges.
//!
//! The paper's wavelet transform parallelization assigns *contiguous* row or
//! column ranges to processors ("the deterministic workload allows a static
//! load allocation") with a barrier between the vertical and horizontal
//! filtering of every decomposition level — both for the JJ2000 Java
//! threads and for Jasper's `#pragma omp parallel for` static loop split
//! (Fig. 6). [`Exec`] is exactly that pattern on scoped OS threads; one
//! worker runs inline.

use std::ops::Range;

use crate::schedule::chunk_ranges;

/// An execution policy: the number of contiguous ranges (= scoped threads)
/// per parallel region.
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
    /// (`PJ2K_THREADS`) before splitting.
    pub fn run_ranges<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let p = crate::budget::clamp_workers(self.workers).min(n);
        if p <= 1 {
            f(0..n);
            return;
        }
        std::thread::scope(|scope| {
            let mut ranges = chunk_ranges(n, p).into_iter();
            let mine = ranges.next();
            for range in ranges {
                let f = &f;
                scope.spawn(move || f(range));
            }
            if let Some(range) = mine {
                f(range);
            }
        });
    }
}

/// A raw mutable pointer that asserts `Send + Sync`, for handing disjoint
/// regions of one buffer to scoped workers.
///
/// # Safety contract (on the *user*)
/// Every concurrent user must access a disjoint set of element indices, and
/// the pointee must outlive all uses. The wavelet drivers uphold this by
/// assigning disjoint row or column ranges per worker.
pub struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// Wrap a mutable slice's base pointer.
    pub fn new(slice: &mut [T]) -> Self {
        SendPtr(slice.as_mut_ptr())
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the original buffer and not concurrently
    /// written by another thread.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        // SAFETY: `i` in bounds is the caller's contract.
        unsafe { *self.0.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and owned exclusively by the calling worker.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        // SAFETY: `i` in bounds and exclusively owned is the caller's
        // contract.
        unsafe { *self.0.add(i) = v };
    }

    /// Reborrow a sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every range handed to
    /// other threads.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        // SAFETY: the range being in bounds and disjoint from other
        // threads' ranges is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: see the safety contract in the type docs; disjointness is the
// caller's obligation.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn send_ptr_disjoint_writes() {
        let mut buf = vec![0u32; 64];
        let ptr = SendPtr::new(&mut buf);
        Exec::threads(4).run_ranges(64, |range| {
            for i in range {
                // SAFETY: ranges from run_ranges are disjoint.
                unsafe { ptr.write(i, i as u32 * 2) };
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as u32 * 2);
        }
    }
}
