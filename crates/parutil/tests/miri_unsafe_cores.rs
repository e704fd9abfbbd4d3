//! Miri-oriented exercises of the crate's unsafe cores.
//!
//! These tests are deliberately small (Miri interprets every memory access)
//! and touch exactly the raw-pointer paths that the borrow checker cannot
//! see through: [`DisjointWriter`]/[`DisjointClaim`] and the legacy
//! [`SendPtr`] escape hatch, both single-threaded and across scoped
//! threads. Run them under the interpreter with:
//!
//! ```text
//! cargo +nightly miri test -p pj2k-parutil --test miri_unsafe_cores
//! ```
//!
//! They also run as plain tests in every normal `cargo test` invocation.

// Not a loom test: drives the std executors (loom primitives would panic
// outside `loom::model`); loom/tests/loom.rs model-checks the cores instead.
#![cfg(not(loom))]

use pj2k_parutil::{pool_map, DisjointWriter, Schedule, SendPtr};
use std::thread;

#[test]
fn disjoint_writer_single_thread_full_cycle() {
    let mut buf = vec![0u32; 16];
    let writer = DisjointWriter::new(&mut buf);
    let lo = writer.claim_range(0..8);
    let hi = writer.claim_range(8..16);
    for i in 0..8 {
        // SAFETY: `lo` owns 0..8, `hi` owns 8..16; indices stay in range.
        unsafe {
            lo.write(i, i as u32);
            hi.write(8 + i, 100 + i as u32);
        }
    }
    writer.debug_assert_fully_claimed();
    drop((lo, hi));
    drop(writer);
    for i in 0..8 {
        assert_eq!(buf[i], i as u32);
        assert_eq!(buf[8 + i], 100 + i as u32);
    }
}

#[test]
fn disjoint_writer_cross_thread_writes() {
    let mut buf = vec![0u8; 64];
    let writer = DisjointWriter::new(&mut buf);
    thread::scope(|scope| {
        for w in 0..4 {
            let writer = &writer;
            scope.spawn(move || {
                let claim = writer.claim_range(w * 16..(w + 1) * 16);
                for i in w * 16..(w + 1) * 16 {
                    // SAFETY: this worker's claim owns exactly this range.
                    unsafe { claim.write(i, w as u8 + 1) };
                }
            });
        }
    });
    writer.debug_assert_fully_claimed();
    drop(writer);
    for (i, &v) in buf.iter().enumerate() {
        assert_eq!(v as usize, i / 16 + 1, "element {i}");
    }
}

#[test]
fn disjoint_claim_slice_mut_is_writable_through() {
    let mut buf = vec![1i32; 24];
    let writer = DisjointWriter::new(&mut buf);
    {
        let claim = writer.claim_rect(0..6, 0..3, 8);
        for y in 0..3 {
            // SAFETY: each span lies inside one claimed rect row.
            let row = unsafe { claim.slice_mut(y * 8, 6) };
            for v in row.iter_mut() {
                *v += y as i32;
            }
        }
    }
    drop(writer);
    for y in 0..3 {
        for x in 0..8 {
            let want = if x < 6 { 1 + y as i32 } else { 1 };
            assert_eq!(buf[y * 8 + x], want, "({x},{y})");
        }
    }
}

#[test]
fn send_ptr_disjoint_ranges_across_threads() {
    let mut buf = vec![0u16; 32];
    let ptr = SendPtr::new(&mut buf);
    thread::scope(|scope| {
        for w in 0..2 {
            scope.spawn(move || {
                for i in w * 16..(w + 1) * 16 {
                    // SAFETY: the two workers touch disjoint halves and the
                    // buffer outlives the scope.
                    unsafe { ptr.write(i, ptr.read(i) + 7) };
                }
            });
        }
    });
    assert!(buf.iter().all(|&v| v == 7));
}

#[test]
fn pool_map_small_under_interpreter() {
    // Exercises the DisjointWriter-backed result slots of `pool_map` with a
    // size Miri can interpret quickly.
    for schedule in [
        Schedule::StaticBlock,
        Schedule::RoundRobin,
        Schedule::StaggeredRoundRobin,
    ] {
        let got = pool_map(10, 3, schedule, |i| i * 2);
        let want: Vec<usize> = (0..10).map(|i| i * 2).collect();
        assert_eq!(got, want, "{schedule:?}");
    }
}
