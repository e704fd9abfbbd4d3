//! Concurrency stress tests, sized to be ThreadSanitizer-friendly.
//!
//! Build with `RUSTFLAGS="-Zsanitizer=thread --cfg tsan" cargo +nightly
//! test -p pj2k-parutil --test stress_concurrency --target
//! x86_64-unknown-linux-gnu` to hunt data races; `--cfg tsan` scales the
//! iteration counts down (TSan executes roughly an order of magnitude
//! slower). The same tests run at full size in a normal `cargo test`,
//! and CI runs the TSan configuration as a blocking gate (see
//! `.github/workflows/ci.yml`, job `tsan`).

// Not a loom test: drives the std executors (loom primitives would panic
// outside `loom::model`); loom/tests/loom.rs model-checks the cores instead.
#![cfg(not(loom))]

use pj2k_parutil::{pool_map, pool_run, DisjointWriter, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

#[cfg(tsan)]
const ROUNDS: usize = 4;
#[cfg(not(tsan))]
const ROUNDS: usize = 32;

#[cfg(tsan)]
const ITEMS: usize = 64;
#[cfg(not(tsan))]
const ITEMS: usize = 512;

#[test]
#[cfg_attr(miri, ignore)] // stress volume: too slow under the interpreter
fn pool_map_stress_all_schedules() {
    for _ in 0..ROUNDS {
        for schedule in [
            Schedule::StaticBlock,
            Schedule::RoundRobin,
            Schedule::StaggeredRoundRobin,
        ] {
            let got = pool_map(ITEMS, 4, schedule, |i| i as u64 * 3);
            assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)] // stress volume: too slow under the interpreter
fn disjoint_writer_stress_many_claimants() {
    for round in 0..ROUNDS {
        let mut buf = vec![0usize; ITEMS];
        let writer = DisjointWriter::new(&mut buf);
        let workers = 2 + round % 7;
        thread::scope(|scope| {
            for w in 0..workers {
                let writer = &writer;
                scope.spawn(move || {
                    let lo = ITEMS * w / workers;
                    let hi = ITEMS * (w + 1) / workers;
                    let claim = writer.claim_range(lo..hi);
                    for i in lo..hi {
                        // SAFETY: this worker's claim owns lo..hi.
                        unsafe { claim.write(i, i + round) };
                    }
                });
            }
        });
        writer.debug_assert_fully_claimed();
        drop(writer);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i + round));
    }
}

#[test]
#[cfg_attr(miri, ignore)] // stress volume: too slow under the interpreter
fn pool_run_stress_side_effects() {
    for _ in 0..ROUNDS {
        let counters: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
        pool_run(ITEMS, 6, Schedule::RoundRobin, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }
}
