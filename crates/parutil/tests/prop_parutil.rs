//! Property tests for the schedulers and executors.

// Not a loom test: drives the std executors (loom primitives would panic
// outside `loom::model`); loom/tests/loom.rs model-checks the cores instead.
#![cfg(not(loom))]

use pj2k_parutil::{
    assign, chunk_ranges, pool_map, pool_map_with_state, pool_run, DisjointWriter, Exec, Schedule,
    SendPtr,
};
use pj2k_testkit::{cases, Rng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

fn schedule(rng: &mut Rng) -> Schedule {
    match rng.range(0..4u8) {
        0 => Schedule::StaticBlock,
        1 => Schedule::RoundRobin,
        2 => Schedule::StaggeredRoundRobin,
        _ => Schedule::Dynamic {
            chunk: rng.range(1..9),
        },
    }
}

const CASES: u32 = 128;

/// Every schedule partitions the item set exactly.
#[test]
fn assign_is_a_partition() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..500);
        let p = rng.range(1usize..17);
        let s = schedule(rng);
        let parts = assign(n, p, s);
        assert_eq!(parts.len(), p);
        let mut all = BTreeSet::new();
        for part in &parts {
            for &i in part {
                assert!(i < n);
                assert!(all.insert(i), "duplicate {}", i);
            }
        }
        assert_eq!(all.len(), n);
    });
}

/// Claiming every part of every schedule through the checked
/// disjoint-access layer succeeds and exactly covers the buffer: the
/// claim table (which panics on any overlap) acts as an independent
/// oracle for the partition property above.
#[test]
fn assign_claims_are_disjoint_and_covering() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..300);
        let p = rng.range(1usize..17);
        let s = schedule(rng);
        let parts = assign(n, p, s);
        let mut buf = vec![0u8; n];
        let writer = DisjointWriter::new(&mut buf);
        let _claims: Vec<_> = parts
            .iter()
            .map(|part| writer.claim_indices(part))
            .collect();
        writer.debug_assert_fully_claimed();
    });
}

/// chunk_ranges parts claimed as ranges are likewise disjoint+covering.
#[test]
fn chunk_range_claims_cover() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..1000);
        let p = rng.range(1usize..17);
        let ranges = chunk_ranges(n, p);
        let mut buf = vec![0u8; n];
        let writer = DisjointWriter::new(&mut buf);
        let _claims: Vec<_> = ranges
            .iter()
            .map(|r| writer.claim_range(r.clone()))
            .collect();
        writer.debug_assert_fully_claimed();
    });
}

/// Round-robin family balances counts to within one item.
#[test]
fn rr_counts_balanced() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..500);
        let p = rng.range(1usize..17);
        for s in [Schedule::RoundRobin, Schedule::StaggeredRoundRobin] {
            let parts = assign(n, p, s);
            let max = parts.iter().map(Vec::len).max().unwrap();
            let min = parts.iter().map(Vec::len).min().unwrap();
            assert!(max - min <= 1, "{:?}: {} vs {}", s, max, min);
        }
    });
}

/// chunk_ranges is contiguous, ordered, and covering.
#[test]
fn chunks_cover() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..1000);
        let p = rng.range(1usize..17);
        let ranges = chunk_ranges(n, p);
        let mut expect = 0;
        for r in &ranges {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
        assert_eq!(expect, n);
    });
}

/// pool_map equals the sequential map for any worker count/schedule.
#[test]
fn pool_map_matches_map() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..200);
        let p = rng.range(1usize..9);
        let s = schedule(rng);
        let got = pool_map(n, p, s, |i| i * 3 + 1);
        let want: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
        assert_eq!(got, want);
    });
}

/// Dynamic self-scheduling processes every index exactly once under
/// real thread contention. Two independent oracles: per-item atomic
/// counters (observable effect), and the DisjointWriter claim table
/// inside `pool_map` itself, which panics if the workers' runtime
/// chunk claims ever overlapped or failed to cover 0..n.
#[test]
fn dynamic_processes_each_index_exactly_once() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..400);
        let p = rng.range(2usize..9);
        let chunk = rng.range(1usize..17);
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let results = pool_map(n, p, Schedule::Dynamic { chunk }, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(results, (0..n).collect::<Vec<_>>());
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "item {} not coded exactly once",
                i
            );
        }
        // Side-effect-only path claims nothing, so count independently.
        for c in &counters {
            c.store(0, Ordering::Relaxed);
        }
        pool_run(n, p, Schedule::Dynamic { chunk }, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "pool_run item {} ran twice or never",
                i
            );
        }
    });
}

/// Per-worker state: worker-local item tallies must sum to n for every
/// schedule (no item is processed by two states or dropped).
#[test]
fn with_state_tallies_sum_to_n() {
    cases(CASES, |rng| {
        let n = rng.range(0usize..300);
        let p = rng.range(1usize..9);
        let s = schedule(rng);
        let processed = AtomicUsize::new(0);
        let got = pool_map_with_state(
            n,
            p,
            s,
            |_| 0usize,
            |tally, i| {
                *tally += 1;
                processed.fetch_add(1, Ordering::Relaxed);
                i * 2
            },
        );
        let want: Vec<usize> = (0..n).map(|i| i * 2).collect();
        assert_eq!(got, want);
        assert_eq!(processed.load(Ordering::Relaxed), n);
    });
}

/// Exec::run_ranges writes every slot exactly once via SendPtr.
#[test]
fn run_ranges_disjoint_writes() {
    cases(CASES, |rng| {
        let n = rng.range(1usize..300);
        let workers = rng.range(1usize..9);
        let mut buf = vec![0u32; n];
        let ptr = SendPtr::new(&mut buf);
        Exec::threads(workers).run_ranges(n, |range| {
            for i in range {
                // SAFETY: ranges are disjoint.
                unsafe { ptr.write(i, ptr.read(i) + 1) };
            }
        });
        assert!(buf.iter().all(|&v| v == 1));
    });
}
