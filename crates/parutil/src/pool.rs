//! Fork-join execution over explicit worker threads.
//!
//! [`pool_map`] / [`pool_run`] are scoped: they run `p` workers — the
//! calling thread and `p - 1` scoped threads — over the assigned items and
//! join; the pattern used for per-stage parallelism where a stage is
//! entered and left as a unit (the Tier-1 coding of one tile's
//! code-blocks).

use crate::disjoint::{DisjointClaim, DisjointWriter};
use crate::exec::fork;
use crate::schedule::{assign, DynamicCursor, Schedule};

/// Run `f(i)` for every `i in 0..n` on `p` workers and collect the results
/// in item order.
///
/// With `p == 1` nothing is spawned and `f` runs inline, so sequential
/// baselines measured through this entry point carry no threading overhead.
///
/// Like every parutil executor, the requested `p` is clamped to the
/// process-wide [`thread_budget`](crate::thread_budget) (`PJ2K_THREADS`);
/// with the budget unset the request passes through unchanged.
pub fn pool_map<R, F>(n: usize, p: usize, schedule: Schedule, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    pool_map_with_state(n, p, schedule, |_| (), |_state: &mut (), i| f(i))
}

/// Like [`pool_map`], but each worker carries a mutable per-thread state
/// value: worker `w` starts with `init(w)` and every item it processes runs
/// as `f(&mut state, i)`. The state is the natural home for reusable
/// scratch buffers (Tier-1 coding arenas) that would otherwise be
/// reallocated per item. Results are collected in item order regardless of
/// schedule.
///
/// `p` is clamped to the thread budget and to `n`, so no worker is started
/// for an empty share; worker 0 is the calling thread, and with `p == 1`
/// (or fewer than two items) everything runs inline on one state.
///
/// For static schedules each worker claims exactly the indices [`assign`]
/// hands it; for [`Schedule::Dynamic`] workers claim consecutive chunks
/// from a shared atomic cursor as they go idle. Either way every claimed
/// region is routed through [`DisjointWriter`], so the debug-build claim
/// table validates that the realized partition is disjoint and covering.
// AUDIT(hot): batch dispatch — every allocation, assert, and claim here
// is O(n + p) once per parallel batch (slot vector, schedule, teardown
// collect); the per-sample loops live inside `f`, not in this wrapper.
pub fn pool_map_with_state<S, R, I, F>(
    n: usize,
    p: usize,
    schedule: Schedule,
    init: I,
    f: F,
) -> Vec<R>
where
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert!(p > 0, "worker count must be positive");
    let p = crate::budget::clamp_workers(p).min(n).max(1);
    let (cursor, parts) = match schedule {
        Schedule::Dynamic { chunk } => (Some(DynamicCursor::new(n, chunk)), Vec::new()),
        _ => (None, assign(n, p, schedule)),
    };
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // Each worker claims its slot indices through the checked disjoint-
    // access layer: a schedule bug that assigned one index to two workers
    // panics deterministically in debug builds instead of racing.
    let writer = DisjointWriter::new(&mut slots);
    let worker = |w: usize| {
        let mut state = init(w);
        match &cursor {
            Some(cursor) => {
                while let Some(range) = cursor.claim() {
                    fill(&writer.claim_range(range.clone()), range, &mut state, &f);
                }
            }
            None => {
                let part = &parts[w];
                fill(
                    &writer.claim_indices(part),
                    part.iter().copied(),
                    &mut state,
                    &f,
                );
            }
        }
    };
    fork(p - 1, |w| worker(w + 1), || worker(0));
    // The realized schedule must also be a *cover* of 0..n — every slot
    // written.
    writer.debug_assert_fully_claimed();
    drop(writer);
    slots
        .into_iter()
        .map(|s| s.expect("every slot written by its owning worker"))
        .collect()
}

/// Store `f(state, i)` into slot `i` for every claimed index `i` in
/// `items`.
fn fill<S, R>(
    claim: &DisjointClaim<'_, Option<R>>,
    items: impl Iterator<Item = usize>,
    state: &mut S,
    f: &impl Fn(&mut S, usize) -> R,
) {
    for i in items {
        // SAFETY: `items` is exactly the region `claim` was taken for —
        // an `assign` part or a cursor chunk, each handed to one worker
        // (checked by the claim in debug builds and the loom model) — and
        // the slots outlive the fork. Every slot starts as an initialized
        // `None`, so the plain store only drops a `None`.
        unsafe { claim.write(i, Some(f(state, i))) };
    }
}

/// Run `f(i)` for every `i in 0..n` on `p` workers, discarding results.
/// Like [`pool_map`] but for side-effecting work (e.g. in-place filtering
/// of disjoint row ranges).
pub fn pool_run<F>(n: usize, p: usize, schedule: Schedule, f: F)
where
    F: Fn(usize) + Sync,
{
    pool_map(n, p, schedule, f);
}

// Gated out under loom: these tests drive the std executors directly, and
// loom's sync primitives panic outside `loom::model`. The loom models in
// `loom/tests/loom.rs` cover the extracted claim/hand-off cores instead.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const ALL_SCHEDULES: [Schedule; 6] = [
        Schedule::StaticBlock,
        Schedule::RoundRobin,
        Schedule::StaggeredRoundRobin,
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 3 },
        Schedule::Dynamic { chunk: 64 },
    ];

    #[test]
    fn pool_map_matches_sequential() {
        for p in [1, 2, 4, 7] {
            for schedule in ALL_SCHEDULES {
                let got = pool_map(100, p, schedule, |i| i * i);
                let want: Vec<usize> = (0..100).map(|i| i * i).collect();
                assert_eq!(got, want, "p={p} schedule={schedule:?}");
            }
        }
    }

    #[test]
    fn pool_map_with_state_matches_sequential_and_isolates_state() {
        // Each worker's state accumulates only its own items; the per-item
        // results must still come back in item order, and the sum of all
        // per-state item counts must equal n.
        let inits = AtomicUsize::new(0);
        let processed = AtomicUsize::new(0);
        for p in [1, 2, 5] {
            for schedule in ALL_SCHEDULES {
                inits.store(0, Ordering::SeqCst);
                processed.store(0, Ordering::SeqCst);
                let got = pool_map_with_state(
                    80,
                    p,
                    schedule,
                    |_w| {
                        inits.fetch_add(1, Ordering::SeqCst);
                        0usize // items seen by this state
                    },
                    |count, i| {
                        *count += 1;
                        processed.fetch_add(1, Ordering::SeqCst);
                        i
                    },
                );
                let want: Vec<usize> = (0..80).collect();
                assert_eq!(got, want, "p={p} schedule={schedule:?}");
                assert_eq!(processed.load(Ordering::SeqCst), 80);
                // One state per spawned worker at most (inline run: one).
                let states = inits.load(Ordering::SeqCst);
                assert!(
                    (1..=p).contains(&states),
                    "p={p} schedule={schedule:?}: {states} states"
                );
            }
        }
    }

    #[test]
    fn pool_map_with_state_reuses_scratch_across_items() {
        // The canonical use: a growable scratch buffer that is cleared, not
        // reallocated, per item. Its capacity must survive between items.
        let got = pool_map_with_state(
            40,
            3,
            Schedule::Dynamic { chunk: 2 },
            |_| Vec::<usize>::new(),
            |scratch, i| {
                scratch.clear();
                scratch.extend(0..=i);
                scratch.iter().sum::<usize>()
            },
        );
        let want: Vec<usize> = (0..40).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_map_empty_and_single() {
        assert_eq!(
            pool_map(0, 4, Schedule::RoundRobin, |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(pool_map(1, 4, Schedule::StaticBlock, |i| i + 5), vec![5]);
    }

    #[test]
    fn pool_run_touches_every_item_once() {
        for schedule in [
            Schedule::StaggeredRoundRobin,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 5 },
        ] {
            let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool_run(64, 4, schedule, |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "{schedule:?} item {i}");
            }
        }
    }

    /// Regression test for the checked disjoint-access adoption: a buggy
    /// schedule that hands the same slot to two workers must panic
    /// deterministically in debug builds (instead of silently racing), at
    /// claim time, exactly as `pool_map`'s workers would.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overlapping claim")]
    fn overlapping_partition_panics_in_debug() {
        let mut slots = vec![0u32; 8];
        let writer = DisjointWriter::new(&mut slots);
        // A corrupted "partition": slot 3 assigned to both workers. The
        // claim table is shared and mutex-guarded, so the second claim
        // panics at claim time no matter which thread issues it (the
        // cross-thread case is exercised in `disjoint::tests`); claiming
        // from the test thread keeps the panic message observable.
        let parts: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7]];
        let _claims: Vec<_> = parts.iter().map(|p| writer.claim_indices(p)).collect();
    }
}
