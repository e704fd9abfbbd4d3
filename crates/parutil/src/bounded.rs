//! Bounded-admission producer/consumer execution with ordered emission:
//! the crate's one queue and its one serve loop.
//!
//! Two producers in the codec discover work over time. The batch service
//! finds an effectively unlimited stream of jobs (files on disk, requests
//! on a socket), each carrying a large payload (a decoded image), and
//! admitting them faster than the workers drain them is how a service
//! falls over under overload. [`BoundedQueue`] adds the missing
//! backpressure: `send` blocks while the queue is at capacity, so at any
//! instant at most `capacity` payloads sit queued plus one in each
//! worker's hands — peak payload memory is O(capacity + workers),
//! independent of how many jobs the producer still has pending. The tile
//! decoder's Tier-2 parser hands code-blocks to the Tier-1 workers through
//! the same queue at capacity `usize::MAX`: its jobs are parts of a
//! codestream already in memory, so the parse never blocks.
//!
//! [`bounded_ordered_serve`] is the serve loop both run (the
//! `bounded_parallel_map` shape): the calling thread produces, `workers`
//! scoped threads consume, and finished results are handed to an `emit`
//! callback in **strictly increasing index order** regardless of completion
//! order — the reorder buffer holds only results that finished ahead of a
//! straggler, never raw payloads. Consumption is dynamically
//! self-scheduled: idle workers claim items in arrival order, the runtime
//! analogue of [`Schedule::Dynamic`](crate::Schedule) with chunk 1.
//!
//! Failure contract (pinned by `tests/pipeline_shutdown.rs`):
//!
//! * a panicking producer closes the queue on unwind, workers drain out;
//! * a panicking worker marks the queue failed (senders error out, parked
//!   peers wake and exit) and the panic propagates at the join;
//! * job-level failures are *not* panics — callers route them through the
//!   result type `R` so one poisoned job cannot sink the batch.

use crate::budget;
use crate::exec::fork;
use crate::sync::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A bounded FIFO of `(index, payload)` pairs with blocking admission.
pub struct BoundedQueue<T> {
    state: Mutex<BoundedState<T>>,
    /// Signalled when an item arrives or the queue closes/fails.
    not_empty: Condvar,
    /// Signalled when capacity frees up or the queue closes/fails.
    not_full: Condvar,
    capacity: usize,
}

struct BoundedState<T> {
    items: VecDeque<(usize, T)>,
    closed: bool,
    failed: bool,
}

/// Error returned by [`BoundedQueue::send`] on a closed or failed queue;
/// carries the rejected payload back to the producer.
#[derive(Debug)]
pub struct SendError<T>(pub T);

impl<T> BoundedQueue<T> {
    /// Create an open queue admitting at most `capacity` queued items.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero-capacity queue cannot make
    /// progress with a blocking `send`).
    // AUDIT(hot): setup-time — one queue (mutex + two condvars + ring
    // buffer) per batch run, constructed before any job is admitted.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded queue capacity must be positive");
        Self {
            state: Mutex::new(BoundedState {
                items: VecDeque::new(),
                closed: false,
                failed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Queue capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued (racy snapshot, for tests and
    /// telemetry).
    // AUDIT(hot): telemetry — called by tests and the bench harness, never
    // inside a worker's per-job loop.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// True when no items are queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit one job, blocking while the queue is at capacity. Returns the
    /// payload in [`SendError`] if the queue was closed or failed — the
    /// producer should stop submitting.
    // AUDIT(hot): by design — the lock/wait pair IS the admission
    // backpressure; it runs once per job (a whole image), never inside the
    // per-sample coding loops.
    pub fn send(&self, index: usize, item: T) -> Result<(), SendError<T>> {
        let mut q = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if q.closed || q.failed {
                return Err(SendError(item));
            }
            if q.items.len() < self.capacity {
                q.items.push_back((index, item));
                drop(q);
                self.not_empty.notify_one();
                return Ok(());
            }
            q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: no further admissions, parked consumers drain the
    /// remaining items and then observe `None`.
    // AUDIT(hot): once per batch run, at producer shutdown (including
    // producer unwind via the drop guard).
    pub fn close(&self) {
        let mut q = self.state.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Mark the queue failed: senders error out, consumers stop *without*
    /// draining (remaining payloads drop with the queue). Used when a
    /// worker dies so the batch aborts in bounded time instead of
    /// deadlocking a producer parked on `not_full`.
    // AUDIT(hot): cold — only reached when a worker panics.
    pub fn fail(&self) {
        let mut q = self.state.lock().unwrap_or_else(|e| e.into_inner());
        q.failed = true;
        drop(q);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Pop the next job, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed-and-drained or failed.
    // AUDIT(hot): by design — consumer side of the per-job handoff;
    // blocking here is idle time, not contention inside a coding loop.
    pub fn recv(&self) -> Option<(usize, T)> {
        let mut q = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if q.failed {
                return None;
            }
            if let Some(item) = q.items.pop_front() {
                drop(q);
                self.not_full.notify_one();
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// In-order result hand-off: results arrive in completion order, leave in
/// index order.
struct Reorder<R> {
    next: usize,
    pending: BTreeMap<usize, R>,
}

/// Run a bounded-admission batch: the calling thread runs `producer`
/// (admitting `(index, payload)` jobs through the queue, indices `0..n`
/// contiguous from zero), `workers` scoped threads consume jobs as
/// `work(&mut state, index, payload)`, and every result is handed to
/// `emit(index, result)` exactly once in strictly increasing index order.
///
/// `emit` runs on whichever worker completed the gap-filling result, under
/// the reorder lock — keep it cheap (hand off bytes, record a row); heavy
/// post-processing belongs in `work`.
///
/// The requested `workers` count is clamped to the process-wide
/// [`thread_budget`](crate::thread_budget); with `workers == 0` everything
/// runs inline (producer first, then consumption in admission order) and
/// `send` never blocks — the degenerate path for tiny batches, which
/// forfeits the memory bound since nothing drains concurrently.
///
/// # Panics
/// Propagates producer/worker/emit panics after releasing parked threads
/// (never deadlocks on one); panics if the producer re-uses an index.
// AUDIT(hot): batch dispatch — queue, reorder table, and fork setup are
// O(jobs + workers) once per batch; the per-job work happens inside
// `work`, not in this wrapper.
pub fn bounded_ordered_serve<T, S, R, I, W, E, P>(
    workers: usize,
    capacity: usize,
    init: I,
    work: W,
    emit: E,
    producer: P,
) where
    T: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize, T) -> R + Sync,
    E: Fn(usize, R) + Sync,
    P: FnOnce(&BoundedQueue<T>),
{
    // Without a concurrent consumer no bound can be honoured: the inline
    // path admits everything, then drains.
    let queue = BoundedQueue::new(if workers == 0 { usize::MAX } else { capacity });
    let reorder = Mutex::new(Reorder {
        next: 0,
        pending: BTreeMap::new(),
    });
    let drain = |w: usize| {
        let mut state = init(w);
        while let Some((i, item)) = queue.recv() {
            let r = work(&mut state, i, item);
            let mut ord = reorder.lock().unwrap_or_else(|e| e.into_inner());
            push_ordered(&mut ord, i, r, &emit);
        }
    };
    let produce = || {
        // Close on unwind too: a panicking producer must not strand
        // consumers parked on an open empty queue.
        let _close = CloseOnDrop(&queue);
        producer(&queue);
    };
    if workers == 0 {
        produce();
        return drain(0);
    }
    let consume = |w: usize| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drain(w))) {
            // Wake the producer (send now errors) and parked peers before
            // re-raising at the join.
            queue.fail();
            resume_unwind(payload);
        }
    };
    fork(budget::clamp_workers(workers), consume, produce);
}

/// Park `r` at index `i` and flush the contiguous run starting at `next`.
// AUDIT(hot): per-job bookkeeping — one map insert/remove per image-sized
// job, outside the per-sample coding loops.
fn push_ordered<R, E: Fn(usize, R)>(ord: &mut Reorder<R>, i: usize, r: R, emit: &E) {
    let prev = ord.pending.insert(i, r);
    assert!(prev.is_none(), "batch produced index {i} twice");
    while let Some(r) = ord.pending.remove(&ord.next) {
        let i = ord.next;
        ord.next += 1;
        emit(i, r);
    }
}

/// Closes the wrapped queue when dropped — including during unwinding.
struct CloseOnDrop<'q, T>(&'q BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

// Gated out under loom: these tests drive real scoped threads; loom's sync
// primitives panic outside `loom::model`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    #[test]
    fn results_emit_in_index_order_for_all_worker_counts() {
        for p in [0usize, 1, 2, 4] {
            let emitted = StdMutex::new(Vec::new());
            bounded_ordered_serve(
                p,
                2,
                |_| (),
                |_s, i, payload: usize| i * 10 + payload,
                |i, r| emitted.lock().unwrap().push((i, r)),
                |q| {
                    for i in 0..30 {
                        q.send(i, i + 1).expect("queue open");
                    }
                },
            );
            let got = emitted.into_inner().unwrap();
            let want: Vec<(usize, usize)> = (0..30).map(|i| (i, i * 11 + 1)).collect();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn admission_blocks_at_capacity() {
        // Slow workers + fast producer: the queue length must never exceed
        // its capacity (checked from inside the workers, where the queue
        // is quiescent-enough to observe).
        let max_seen = AtomicUsize::new(0);
        let capacity = 3;
        bounded_ordered_serve(
            2,
            capacity,
            |_| (),
            |_s, _i, _t: ()| {
                std::thread::sleep(Duration::from_millis(2));
            },
            |_i, _r| {},
            |q| {
                for i in 0..40 {
                    q.send(i, ()).expect("queue open");
                    let len = q.len();
                    let mut seen = max_seen.load(Ordering::Relaxed);
                    while len > seen {
                        match max_seen.compare_exchange(
                            seen,
                            len,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(s) => seen = s,
                        }
                    }
                }
            },
        );
        assert!(
            max_seen.load(Ordering::Relaxed) <= capacity,
            "queue grew past capacity: {} > {capacity}",
            max_seen.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn payload_live_count_is_bounded_by_capacity_plus_workers() {
        // The O(capacity + workers) memory claim, observed directly: a
        // payload type that counts live instances.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Counted {
            fn new() -> Self {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (workers, capacity) = (2, 3);
        bounded_ordered_serve(
            workers,
            capacity,
            |_| (),
            |_s, _i, c: Counted| {
                std::thread::sleep(Duration::from_millis(1));
                drop(c);
            },
            |_i, _r| {},
            |q| {
                for i in 0..50 {
                    q.send(i, Counted::new()).expect("queue open");
                }
            },
        );
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "payload leak");
        let peak = PEAK.load(Ordering::SeqCst);
        // capacity queued + one per worker + the one the producer is
        // holding while parked on a full queue.
        assert!(
            peak <= capacity + workers + 1,
            "peak live payloads {peak} exceeds admission bound {}",
            capacity + workers + 1
        );
    }

    #[test]
    fn worker_panic_unblocks_producer_and_propagates() {
        let produced = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bounded_ordered_serve(
                2,
                1,
                |_| (),
                |_s, i, _t: ()| {
                    assert!(i < 3, "poison job");
                },
                |_i, _r| {},
                |q| {
                    for i in 0..10_000 {
                        if q.send(i, ()).is_err() {
                            break; // failed queue: stop admitting
                        }
                        produced.fetch_add(1, Ordering::SeqCst);
                    }
                },
            );
        }));
        assert!(caught.is_err(), "worker panic must propagate");
        assert!(
            produced.load(Ordering::SeqCst) < 10_000,
            "producer should observe the failure and stop early"
        );
    }

    #[test]
    fn producer_panic_releases_workers() {
        let consumed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bounded_ordered_serve(
                3,
                2,
                |_| (),
                |_s, _i, _t: ()| {
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
                |_i, _r| {},
                |q| {
                    q.send(0, ()).expect("queue open");
                    panic!("producer died mid-stream");
                },
            );
        }));
        assert!(caught.is_err(), "producer panic must propagate");
    }

    #[test]
    fn send_after_close_returns_payload() {
        let q = BoundedQueue::new(2);
        q.close();
        let err = q.send(0, 41usize).unwrap_err();
        assert_eq!(err.0, 41);
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn failed_queue_drops_undrained_items() {
        let q = BoundedQueue::new(4);
        q.send(0, ()).unwrap();
        q.send(1, ()).unwrap();
        q.fail();
        assert_eq!(q.recv(), None, "failed queue must not hand out items");
        assert!(q.send(2, ()).is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<()>::new(0);
    }

    #[test]
    fn per_worker_state_reused() {
        let inits = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        bounded_ordered_serve(
            3,
            2,
            |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, i, _t: ()| {
                scratch.clear();
                scratch.extend(0..=i);
                scratch.iter().sum::<usize>()
            },
            |_i, r| {
                sum.fetch_add(r, Ordering::SeqCst);
            },
            |q| {
                for i in 0..20 {
                    q.send(i, ()).expect("queue open");
                }
            },
        );
        let want: usize = (0..20).map(|i| i * (i + 1) / 2).sum();
        assert_eq!(sum.load(Ordering::SeqCst), want);
        assert!((1..=3).contains(&inits.load(Ordering::SeqCst)));
    }
}
