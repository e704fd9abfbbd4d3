//! Heap-allocation counting for the steady-state zero-allocation oracle.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation twice: in a process-wide relaxed atomic (cheap, covers all
//! threads — the number the trajectory harnesses report) and in a
//! thread-local counter (exact per-thread attribution — the number the
//! oracle asserts on, immune to background threads allocating mid-probe).
//!
//! The hot-path contract this enforces is the runtime half of
//! `cargo xtask audit`'s `hot` check: the static pass proves every
//! allocation site in the hot closure carries an `AUDIT(hot)`
//! justification, and this allocator proves the "amortized" claims —
//! after warm-up, a recycled Tier-1 arena codes blocks with **zero**
//! heap traffic, and a DWT strip pass allocates nothing per additional
//! strip. See `crates/bench/tests/alloc_oracle.rs`.
//!
//! Binaries opt in with:
//!
//! ```ignore
//! use pj2k_bench::alloc_count::{self, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAlloc = CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation-call counter wrapped around the system allocator.
///
/// Counts `alloc` and `realloc` calls (the operations that can introduce
/// steady-state heap traffic); `dealloc` is forwarded uncounted but does
/// debit the live-byte gauge backing [`live_bytes`]/[`peak_bytes`].
pub struct CountingAlloc;

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and `Cell<u64>` has no destructor, so touching it
    // from inside the allocator can neither allocate nor re-enter.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_one() {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with` instead of `with`: the allocator must never panic, and
    // a TLS destructor running during thread teardown may still allocate
    // after this thread's TLS is gone.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn credit_bytes(n: u64) {
    let live = LIVE_BYTES.fetch_add(n, Ordering::Relaxed) + n;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn debit_bytes(n: u64) {
    LIVE_BYTES.fetch_sub(n, Ordering::Relaxed);
}

/// Total allocation calls across all threads since process start.
pub fn global_allocs() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap (allocated, not yet freed), summed
/// across all threads.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak_bytes`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live-byte level, so a
/// harness can measure the peak of one phase in isolation. Concurrent
/// allocations may land between the two loads; callers serialize phases
/// (this is a measurement hook, not a synchronization point).
pub fn reset_peak_bytes() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Allocation calls made by the current thread since it started.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: defers every operation to `System` unchanged; the counters are a
// relaxed atomic increment and a const-initialized `Cell` bump, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout contract as our caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            credit_bytes(layout.size() as u64);
        }
        ptr
    }

    // SAFETY: forwards to `System`; every pointer we hand out came from it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        debit_bytes(layout.size() as u64);
        // SAFETY: `ptr` was produced by `System` in `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards to `System`; every pointer we hand out came from it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was produced by `System`; layout/new_size contract
        // is our caller's.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            debit_bytes(layout.size() as u64);
            credit_bytes(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run without `CountingAlloc` installed as the global
    // allocator (unit tests share the default test harness allocator), so
    // they exercise the counter plumbing directly.

    #[test]
    fn counters_start_consistent_and_increment() {
        let g0 = global_allocs();
        let t0 = thread_allocs();
        count_one();
        count_one();
        assert_eq!(thread_allocs(), t0 + 2);
        assert!(global_allocs() >= g0 + 2);
    }

    #[test]
    fn byte_gauge_tracks_live_and_peak() {
        // Exercise the gauge plumbing directly (the test harness does not
        // install CountingAlloc). Other tests in this binary do not touch
        // the byte counters, so the deltas here are exact.
        let base = live_bytes();
        credit_bytes(1000);
        credit_bytes(500);
        assert_eq!(live_bytes(), base + 1500);
        assert!(peak_bytes() >= base + 1500);
        debit_bytes(1200);
        assert_eq!(live_bytes(), base + 300);
        assert!(peak_bytes() >= base + 1500, "peak survives frees");
        reset_peak_bytes();
        assert_eq!(peak_bytes(), live_bytes(), "reset re-anchors at live");
        debit_bytes(300);
    }

    #[test]
    fn thread_counts_are_isolated() {
        count_one();
        let mine = thread_allocs();
        let theirs = std::thread::spawn(thread_allocs).join().unwrap();
        assert_eq!(theirs, 0, "fresh thread starts at zero");
        assert_eq!(thread_allocs(), mine, "other threads do not bleed in");
    }
}
