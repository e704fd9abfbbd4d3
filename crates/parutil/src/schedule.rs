//! Work-to-worker assignment policies.
//!
//! The policies correspond to the allocation strategies discussed in the
//! paper: deterministic static splits for the wavelet transform (the
//! workload per row/column is uniform, so a static allocation suffices) and
//! round-robin variants for the code-block coding stage (per-block runtime
//! varies, so blocks are interleaved across workers).
//!
//! [`DynamicCursor`] is the runtime half of [`Schedule::Dynamic`]: the
//! shared atomic claim counter every executor in [`crate::pool`] loops on.
//! It lives here (instead of inline `fetch_add` loops at each call site) so
//! the loom models in `loom/tests/loom.rs` exercise the exact production
//! claiming code, and so all executors share one proven implementation.

use crate::sync::{AtomicUsize, Ordering};
use std::ops::Range;

/// How a list of independent work items is distributed over `p` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Contiguous blocks: worker `w` receives items
    /// `[w*ceil(n/p), (w+1)*ceil(n/p))`. Used for the DWT row/column split
    /// where the per-item cost is uniform and locality matters.
    StaticBlock,
    /// Plain round robin: item `i` goes to worker `i % p`.
    RoundRobin,
    /// Staggered round robin, the paper's Tier-1 policy: in round `r`
    /// (items `r*p .. (r+1)*p`), the mapping of items to workers is rotated
    /// by `r`, so that systematic cost gradients along the item list (e.g.
    /// code-blocks ordered by resolution level, whose coding cost shrinks
    /// with depth) do not always penalize the same worker.
    StaggeredRoundRobin,
    /// Dynamic self-scheduling: items are grouped into consecutive chunks
    /// of `chunk` items and workers *claim* the next unprocessed chunk from
    /// a shared atomic counter whenever they go idle, so the partition
    /// adapts to the measured per-item cost at runtime (OpenMP's
    /// `schedule(dynamic, chunk)`). The executors in [`crate::pool`] claim
    /// at runtime; [`assign`] returns the *nominal* contention-free
    /// partition (chunk `c` to worker `c % p`) so schedule-shaped analyses
    /// and the claim-table oracle still see a deterministic cover.
    Dynamic {
        /// Items claimed per grab (>= 1). Small chunks balance best;
        /// larger chunks amortize the claim and improve locality.
        chunk: usize,
    },
}

/// Compute the item indices assigned to each of `p` workers.
///
/// Returns a vector of length `p`; entry `w` lists the indices owned by
/// worker `w`, in increasing order of processing. Every index in `0..n`
/// appears exactly once across all workers.
///
/// For [`Schedule::Dynamic`] the returned partition is *nominal*: the
/// chunk-cyclic assignment a contention-free run would produce (worker
/// `c % p` claims chunk `c`). Real executors resolve the owner of each
/// chunk at runtime.
///
/// # Panics
/// Panics if `p == 0`, or if `schedule` is [`Schedule::Dynamic`] with
/// `chunk == 0`.
// AUDIT(hot): batch dispatch — assignment lists are built once per
// parallel batch, O(n) total; executors then run allocation-free off
// the returned partition.
pub fn assign(n: usize, p: usize, schedule: Schedule) -> Vec<Vec<usize>> {
    assert!(p > 0, "worker count must be positive");
    let mut out = vec![Vec::with_capacity(n.div_ceil(p)); p];
    match schedule {
        Schedule::StaticBlock => {
            for (w, range) in chunk_ranges(n, p).into_iter().enumerate() {
                out[w].extend(range);
            }
        }
        Schedule::RoundRobin => {
            for i in 0..n {
                out[i % p].push(i);
            }
        }
        Schedule::StaggeredRoundRobin => {
            for i in 0..n {
                let round = i / p;
                let lane = i % p;
                out[(lane + round) % p].push(i);
            }
        }
        Schedule::Dynamic { chunk } => {
            assert!(chunk > 0, "dynamic chunk size must be positive");
            for i in 0..n {
                out[(i / chunk) % p].push(i);
            }
        }
    }
    out
}

/// The runtime claim counter realizing [`Schedule::Dynamic`]: a shared
/// cursor over the chunked domain `0..n` from which idle workers grab the
/// next unprocessed chunk.
///
/// Claiming is a single `fetch_add` on an atomic cursor — wait-free, no
/// locks — and hands every chunk to **exactly one** claimant: two workers
/// can never observe the same `fetch_add` result. The loom model
/// `dynamic_cursor_claims_each_index_exactly_once` (loom/tests/loom.rs) checks
/// that exactly-once property across all interleavings of 2–3 threads.
///
/// `Relaxed` ordering suffices for the claim itself: the cursor only
/// partitions the index space, and every executor publishes the *results*
/// of claimed work through a separate synchronization edge (thread join,
/// channel hand-off, or the outstanding-job condvar) before readers look
/// at them.
pub struct DynamicCursor {
    next: AtomicUsize,
    n: usize,
    chunk: usize,
}

impl DynamicCursor {
    /// Cursor over `0..n` claiming `chunk` consecutive items per grab.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    // AUDIT(hot): setup-time — one cursor per dynamic batch; the chunk
    // assert is its documented contract.
    pub fn new(n: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "dynamic chunk size must be positive");
        DynamicCursor {
            next: AtomicUsize::new(0),
            n,
            chunk,
        }
    }

    /// Claim the next unprocessed chunk, or `None` when the domain is
    /// exhausted. Each index in `0..n` is handed out exactly once across
    /// all claimants.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.n {
            return None;
        }
        Some(start..(start + self.chunk).min(self.n))
    }
}

/// Split `0..n` into `p` contiguous ranges whose lengths differ by at most 1.
///
/// The first `n % p` ranges are one longer than the rest, matching the
/// canonical static loop split of OpenMP's `schedule(static)`.
// AUDIT(hot): batch dispatch — O(p) range list once per batch.
pub fn chunk_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    assert!(p > 0, "worker count must be positive");
    let base = n / p;
    let extra = n % p;
    let mut ranges = Vec::with_capacity(p);
    let mut start = 0;
    for w in 0..p {
        let len = base + usize::from(w < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn flatten_sorted(parts: &[Vec<usize>]) -> Vec<usize> {
        let mut v: Vec<usize> = parts.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn static_block_is_contiguous_and_complete() {
        for n in [0, 1, 7, 64, 65] {
            for p in [1, 2, 3, 4, 16] {
                let parts = assign(n, p, Schedule::StaticBlock);
                assert_eq!(parts.len(), p);
                assert_eq!(flatten_sorted(&parts), (0..n).collect::<Vec<_>>());
                for part in &parts {
                    for pair in part.windows(2) {
                        assert_eq!(pair[1], pair[0] + 1, "static parts must be contiguous");
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_interleaves() {
        let parts = assign(10, 3, Schedule::RoundRobin);
        assert_eq!(parts[0], vec![0, 3, 6, 9]);
        assert_eq!(parts[1], vec![1, 4, 7]);
        assert_eq!(parts[2], vec![2, 5, 8]);
    }

    #[test]
    fn staggered_rotates_by_round() {
        // p=3: round 0 keeps lanes, round 1 rotates by one, round 2 by two.
        let parts = assign(9, 3, Schedule::StaggeredRoundRobin);
        assert_eq!(parts[0], vec![0, 5, 7]);
        assert_eq!(parts[1], vec![1, 3, 8]);
        assert_eq!(parts[2], vec![2, 4, 6]);
    }

    #[test]
    fn staggered_is_a_partition() {
        for n in [0, 1, 5, 31, 100] {
            for p in [1, 2, 4, 7] {
                let parts = assign(n, p, Schedule::StaggeredRoundRobin);
                let all: BTreeSet<usize> = parts.iter().flatten().copied().collect();
                assert_eq!(all.len(), n);
                assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn staggered_balances_linear_cost_gradient() {
        // Cost of item i is i; staggering should spread the gradient so the
        // max/min worker cost ratio stays close to 1.
        let n = 64;
        let p = 4;
        let parts = assign(n, p, Schedule::StaggeredRoundRobin);
        let costs: Vec<usize> = parts
            .iter()
            .map(|idxs| idxs.iter().copied().sum::<usize>())
            .collect();
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        assert!(
            max - min <= n,
            "staggered RR should balance linear gradients: {costs:?}"
        );
    }

    #[test]
    fn dynamic_nominal_assignment_is_chunk_cyclic() {
        let parts = assign(10, 3, Schedule::Dynamic { chunk: 2 });
        assert_eq!(parts[0], vec![0, 1, 6, 7]);
        assert_eq!(parts[1], vec![2, 3, 8, 9]);
        assert_eq!(parts[2], vec![4, 5]);
    }

    #[test]
    fn dynamic_nominal_assignment_is_a_partition() {
        for n in [0, 1, 5, 31, 100] {
            for p in [1, 2, 4, 7] {
                for chunk in [1, 2, 3, 8, 200] {
                    let parts = assign(n, p, Schedule::Dynamic { chunk });
                    let all: BTreeSet<usize> = parts.iter().flatten().copied().collect();
                    assert_eq!(all.len(), n, "n={n} p={p} chunk={chunk}");
                    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn dynamic_zero_chunk_panics() {
        let _ = assign(4, 2, Schedule::Dynamic { chunk: 0 });
    }

    #[test]
    fn dynamic_cursor_covers_domain_sequentially() {
        for (n, chunk) in [(0, 1), (1, 3), (10, 3), (12, 4), (5, 100)] {
            let cursor = DynamicCursor::new(n, chunk);
            let mut seen = Vec::new();
            while let Some(range) = cursor.claim() {
                assert!(range.len() <= chunk, "n={n} chunk={chunk}");
                seen.extend(range);
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} chunk={chunk}");
            assert!(cursor.claim().is_none(), "cursor must stay exhausted");
        }
    }

    #[test]
    fn dynamic_cursor_is_exactly_once_across_threads() {
        // std-runtime regression twin of the loom model: hammer one cursor
        // from several real threads and require an exactly-once partition.
        let n = 1000;
        let cursor = DynamicCursor::new(n, 7);
        let counts: Vec<std::sync::atomic::AtomicUsize> = (0..n)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (cursor, counts) = (&cursor, &counts);
                scope.spawn(move || {
                    while let Some(range) = cursor.claim() {
                        for i in range {
                            counts[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn dynamic_cursor_zero_chunk_panics() {
        let _ = DynamicCursor::new(4, 0);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0, 1, 10, 17] {
            for p in [1, 2, 3, 5] {
                let ranges = chunk_ranges(n, p);
                assert_eq!(ranges.len(), p);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, n);
                let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let maxl = lens.iter().max().unwrap();
                let minl = lens.iter().min().unwrap();
                assert!(maxl - minl <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn zero_workers_panics() {
        let _ = assign(4, 0, Schedule::RoundRobin);
    }
}
