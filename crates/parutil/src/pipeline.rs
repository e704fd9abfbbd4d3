//! Producer/consumer stage pipelining.
//!
//! [`pool_map`](crate::pool_map) and friends are fork-join: the whole item
//! list exists before the first worker starts. A pipelined encoder needs the
//! opposite — a producer (the per-level DWT loop) *discovers* work over time
//! and consumers (quantize + Tier-1 block coding) should start on finished
//! subbands while later decomposition levels are still being filtered.
//!
//! [`pipeline_map_with_state`] provides that shape with the same result
//! contract as `pool_map_with_state`: every item index in `0..n` is
//! processed exactly once, results come back in **index order** regardless
//! of completion order, per-worker mutable state carries reusable scratch,
//! and the result slots are routed through the checked
//! [`DisjointWriter`] layer so a duplicate or missing index panics
//! deterministically in debug builds instead of racing.
//!
//! Consumption is dynamically self-scheduled by construction: idle workers
//! block on the shared queue and claim items in arrival order, which is the
//! runtime analogue of [`Schedule::Dynamic`](crate::Schedule) with chunk 1.

use crate::disjoint::DisjointWriter;
use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::thread;

/// The channel between a pipeline's producer and its consumers.
///
/// Unbounded FIFO of `(index, payload)` pairs. The producer pushes with
/// [`send`](PipelineQueue::send); the driver closes the queue when the
/// producer returns, after which idle consumers drain out.
pub struct PipelineQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<(usize, T)>,
    closed: bool,
}

impl<T> Default for PipelineQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PipelineQueue<T> {
    /// Create an open, empty queue.
    ///
    /// [`pipeline_map_with_state`] constructs its own queue; this is public
    /// so the loom models in `loom/tests/loom.rs` can drive the exact
    /// producer/consumer hand-off the pipeline executor runs.
    // AUDIT(hot): setup-time — one queue (mutex + condvar) per pipeline
    // run, constructed before any stage starts.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Publish one work item. `index` must be in `0..n` and unique across
    /// the producer's whole run (checked by the claim table in debug
    /// builds, and by the final cover assert).
    ///
    /// # Panics
    /// Panics if called after the producer returned (queue closed).
    // AUDIT(hot): by design — the lock/notify pair IS the stage-overlap
    // handoff; it runs once per work item (a DWT strip or code block),
    // never inside the per-sample kernels.
    pub fn send(&self, index: usize, item: T) {
        let mut q = self.state.lock().expect("pipeline queue poisoned");
        assert!(!q.closed, "send on a closed pipeline queue");
        q.items.push_back((index, item));
        drop(q);
        self.ready.notify_one();
    }

    /// Close the queue: no further [`send`](PipelineQueue::send)s are
    /// allowed, and blocked consumers wake up to drain the remaining items
    /// and then observe `None`. The pipeline driver calls this when the
    /// producer returns; it is public for the loom models and shutdown
    /// tests.
    // AUDIT(hot): once per pipeline run, at producer shutdown.
    pub fn close(&self) {
        // Poison-tolerant: close runs from a drop guard during unwinding,
        // and panicking inside a Drop would escalate to an abort.
        let mut q = self.state.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.ready.notify_all();
    }

    /// Pop the next item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained.
    // AUDIT(hot): by design — consumer side of the per-item handoff;
    // blocking here is idle time the paper's overlap model accounts for,
    // not contention inside a coding loop.
    pub fn recv(&self) -> Option<(usize, T)> {
        let mut q = self.state.lock().expect("pipeline queue poisoned");
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).expect("pipeline queue poisoned");
        }
    }
}

/// Run `producer` on the calling thread while `p` scoped workers consume the
/// items it publishes, returning the `n` results in index order.
///
/// The producer receives the queue and must [`send`](PipelineQueue::send)
/// exactly one item for every index in `0..n` (in any order); each is
/// consumed exactly once as `f(&mut state, index, payload)` where worker
/// `w`'s state starts as `init(w)`.
///
/// With `p <= 1` (or fewer than two items) nothing is spawned: the producer
/// runs to completion first, then the items are consumed inline, in arrival
/// order, on a single state — so sequential baselines carry no threading
/// overhead and observe the exact same `f` call sequence a one-worker
/// pipeline would. The requested `p` is clamped to the process-wide
/// [`thread_budget`](crate::thread_budget) (`PJ2K_THREADS`).
///
/// # Panics
/// Panics if the producer publishes an index twice (debug builds, claim
/// table) or fails to cover `0..n` (all builds).
// AUDIT(hot): setup/teardown — the slot vector is allocated once per
// pipeline run and the duplicate-index assert fires once per item, both
// outside the per-sample kernels the pipeline drives.
pub fn pipeline_map_with_state<T, S, R, I, F, P>(
    n: usize,
    p: usize,
    init: I,
    f: F,
    producer: P,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
    P: FnOnce(&PipelineQueue<T>),
{
    let p = crate::budget::clamp_workers(p);
    let queue = PipelineQueue::new();
    if p <= 1 || n <= 1 {
        producer(&queue);
        queue.close();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut state = init(0);
        while let Some((i, item)) = queue.recv() {
            assert!(slots[i].is_none(), "pipeline produced index {i} twice");
            slots[i] = Some(f(&mut state, i, item));
        }
        return unwrap_slots(slots);
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let writer = DisjointWriter::new(&mut slots);
    thread::scope(|scope| {
        for w in 0..p {
            let (f, init) = (&f, &init);
            let (writer, queue) = (&writer, &queue);
            scope.spawn(move || {
                let mut state = init(w);
                while let Some((i, item)) = queue.recv() {
                    let claim = writer.claim_range(i..i + 1);
                    // SAFETY: the queue hands each published index to
                    // exactly one worker, and the producer publishes each
                    // index once (both checked by the claim table in debug
                    // builds); `slots` outlives the scope and every slot
                    // starts as an initialized `None`, so the plain store
                    // only drops a `None`.
                    unsafe { claim.write(i, Some(f(&mut state, i, item))) };
                }
            });
        }
        // Close on unwind too: if the producer panics, the workers must
        // still observe a closed queue and drain out, or the scope's
        // implicit join would deadlock on consumers parked in `recv`.
        let guard = CloseOnDrop(&queue);
        producer(&queue);
        drop(guard);
    });
    // The realized item stream must be a *cover* of 0..n.
    writer.debug_assert_fully_claimed();
    drop(writer);
    unwrap_slots(slots)
}

/// Run `p` scoped consumers draining `queue` while the calling thread first
/// runs `produce` (publishing items) and then `drive`, overlapped with the
/// consumers' tail — the decode-side mirror of [`pipeline_map_with_state`].
/// Results do not come back through slots; consumers communicate through
/// whatever shared state the caller closes over (e.g. disjoint band
/// buffers plus a completion gate the driver waits on).
///
/// * `init(w)` builds worker `w`'s reusable scratch.
/// * `consume(&mut state, index, item)` runs once per published item.
/// * `produce()` runs on the calling thread; the queue is closed when it
///   returns — normally or by unwinding — so consumers always drain out
///   and the scope's join cannot deadlock.
/// * `drive()` then runs on the calling thread, concurrent with consumers
///   still draining the queue; its return value is returned.
/// * `on_panic()` fires before a spawned consumer's panic is re-raised at
///   scope join, so a `drive` blocked on a completion gate can be
///   unblocked instead of deadlocking; the original panic still
///   propagates to the caller afterwards. (With `p <= 1` nothing is
///   spawned and a consumer panic propagates directly, so `on_panic` is
///   never called there.)
///
/// With `p <= 1`, `produce` runs fully, items are consumed inline in
/// arrival order on one state, then `drive` runs — the same `consume`
/// call sequence a one-worker pipeline would observe.
pub fn pipeline_overlap_with_state<T, S, R, I, C, U, P, D>(
    p: usize,
    queue: &PipelineQueue<T>,
    init: I,
    consume: C,
    on_panic: U,
    produce: P,
    drive: D,
) -> R
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    C: Fn(&mut S, usize, T) + Sync,
    U: Fn() + Sync,
    P: FnOnce(),
    D: FnOnce() -> R,
{
    let p = crate::budget::clamp_workers(p);
    if p <= 1 {
        let guard = CloseOnDrop(queue);
        produce();
        drop(guard);
        let mut state = init(0);
        while let Some((i, item)) = queue.recv() {
            consume(&mut state, i, item);
        }
        return drive();
    }
    thread::scope(|scope| {
        for w in 0..p {
            let (init, consume, on_panic) = (&init, &consume, &on_panic);
            scope.spawn(move || {
                let mut state = init(w);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    while let Some((i, item)) = queue.recv() {
                        consume(&mut state, i, item);
                    }
                }));
                if let Err(payload) = run {
                    on_panic();
                    std::panic::resume_unwind(payload);
                }
            });
        }
        let guard = CloseOnDrop(queue);
        produce();
        drop(guard);
        drive()
    })
}

/// Closes the wrapped queue when dropped — including during unwinding, so
/// a panicking producer cannot strand consumers on an open empty queue.
struct CloseOnDrop<'q, T>(&'q PipelineQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

// AUDIT(hot): teardown — one pass over the finished slots per run; the
// panic is the pipeline's completeness contract.
fn unwrap_slots<R>(slots: Vec<Option<R>>) -> Vec<R> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("pipeline never produced index {i}")))
        .collect()
}

// Gated out under loom: these tests run the real scoped-thread executor,
// and loom's sync primitives panic outside `loom::model`. The queue
// hand-off itself is model-checked in `loom/tests/loom.rs`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn matches_sequential_for_all_worker_counts() {
        let want: Vec<usize> = (0..60).map(|i| i * 3 + 1).collect();
        for p in [0, 1, 2, 4, 7] {
            let got = pipeline_map_with_state(
                60,
                p,
                |_| (),
                |_state, i, payload: usize| i * 2 + payload,
                |q| {
                    for i in 0..60 {
                        q.send(i, i + 1);
                    }
                },
            );
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn out_of_order_production_returns_index_order() {
        let got = pipeline_map_with_state(
            9,
            3,
            |_| (),
            |_s, _i, payload: usize| payload,
            |q| {
                // Publish fine-to-coarse, like the pipelined encoder does.
                for i in (0..9).rev() {
                    q.send(i, 100 + i);
                }
            },
        );
        assert_eq!(got, (0..9).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_consumed_exactly_once_under_contention() {
        let counters: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let _ = pipeline_map_with_state(
            200,
            6,
            |_| (),
            |_s, i, _payload: ()| counters[i].fetch_add(1, Ordering::SeqCst),
            |q| {
                for i in 0..200 {
                    q.send(i, ());
                }
            },
        );
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn consumers_overlap_a_slow_producer() {
        // The producer trickles items out; consumption of early items must
        // complete while later items are still unpublished. Observed via a
        // counter read back by the producer between sends.
        let consumed = AtomicUsize::new(0);
        let overlap_seen = AtomicUsize::new(0);
        pipeline_map_with_state(
            8,
            2,
            |_| (),
            |_s, _i, _p: ()| {
                consumed.fetch_add(1, Ordering::SeqCst);
            },
            |q| {
                for i in 0..8 {
                    q.send(i, ());
                    if i == 4 {
                        // Give consumers a chance; any progress before the
                        // last send proves the stages overlapped.
                        for _ in 0..100 {
                            if consumed.load(Ordering::SeqCst) > 0 {
                                break;
                            }
                            thread::sleep(Duration::from_millis(1));
                        }
                        overlap_seen.store(consumed.load(Ordering::SeqCst), Ordering::SeqCst);
                    }
                }
            },
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 8);
        assert!(
            overlap_seen.load(Ordering::SeqCst) > 0,
            "consumers made no progress while the producer was mid-stream"
        );
    }

    #[test]
    fn per_worker_state_is_isolated_and_reused() {
        // State is a scratch Vec: capacity must survive across items, and
        // the number of distinct states is at most p.
        let inits = AtomicUsize::new(0);
        let got = pipeline_map_with_state(
            40,
            3,
            |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, i, _p: ()| {
                scratch.clear();
                scratch.extend(0..=i);
                scratch.iter().sum::<usize>()
            },
            |q| {
                for i in 0..40 {
                    q.send(i, ());
                }
            },
        );
        let want: Vec<usize> = (0..40).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(got, want);
        assert!((1..=3).contains(&inits.load(Ordering::SeqCst)));
    }

    #[test]
    fn zero_items_returns_empty() {
        for p in [1, 4] {
            let got: Vec<usize> = pipeline_map_with_state(
                0,
                p,
                |_| (),
                |_s, _i, _p: ()| unreachable!("no items to consume"),
                |_q| {},
            );
            assert!(got.is_empty(), "p={p}");
        }
    }

    #[test]
    fn payloads_reach_the_right_index() {
        // Payload is a heap value tied to its index; any misrouting would
        // corrupt the output mapping.
        let got = pipeline_map_with_state(
            50,
            4,
            |_| (),
            |_s, i, payload: Vec<usize>| {
                assert_eq!(payload, vec![i, i + 1]);
                payload.iter().sum::<usize>()
            },
            |q| {
                for i in (0..50).rev() {
                    q.send(i, vec![i, i + 1]);
                }
            },
        );
        assert_eq!(got, (0..50).map(|i| 2 * i + 1).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "never produced index")]
    fn missing_index_panics() {
        let _ = pipeline_map_with_state(
            4,
            1,
            |_| (),
            |_s, _i, _p: ()| (),
            |q| {
                q.send(0, ());
                q.send(2, ());
                q.send(3, ());
            },
        );
    }

    #[test]
    fn overlap_consumes_everything_and_returns_drive_result() {
        for p in [0, 1, 2, 4, 7] {
            let queue = PipelineQueue::new();
            let sum = AtomicUsize::new(0);
            let got = pipeline_overlap_with_state(
                p,
                &queue,
                |_| (),
                |_s, i, payload: usize| {
                    sum.fetch_add(i * 2 + payload, Ordering::SeqCst);
                },
                || {},
                || {
                    for i in 0..60 {
                        queue.send(i, i + 1);
                    }
                },
                || 777_usize,
            );
            assert_eq!(got, 777, "p={p}");
            let want: usize = (0..60).map(|i| i * 3 + 1).sum();
            assert_eq!(sum.load(Ordering::SeqCst), want, "p={p}");
        }
    }

    #[test]
    fn overlap_inline_path_orders_produce_consume_drive() {
        let queue = PipelineQueue::new();
        let log = std::sync::Mutex::new(Vec::new());
        pipeline_overlap_with_state(
            1,
            &queue,
            |_| (),
            |_s, i, _p: ()| log.lock().unwrap().push(format!("consume {i}")),
            || {},
            || {
                log.lock().unwrap().push("produce".into());
                queue.send(0, ());
                queue.send(1, ());
            },
            || log.lock().unwrap().push("drive".into()),
        );
        assert_eq!(
            *log.lock().unwrap(),
            ["produce", "consume 0", "consume 1", "drive"]
        );
    }

    #[test]
    fn overlap_drive_runs_while_consumers_still_drain() {
        // A consumer blocks on a flag only `drive` sets. If `drive` did not
        // overlap the consumer tail, this would deadlock; the bounded spin
        // turns that into a test failure instead.
        let queue = PipelineQueue::new();
        let go = std::sync::atomic::AtomicBool::new(false);
        let consumed = AtomicUsize::new(0);
        pipeline_overlap_with_state(
            2,
            &queue,
            |_| (),
            |_s, _i, _p: ()| {
                let mut spins = 0u32;
                while !go.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                    spins += 1;
                    assert!(spins < 5_000, "drive never overlapped the consumers");
                }
                consumed.fetch_add(1, Ordering::SeqCst);
            },
            || go.store(true, Ordering::SeqCst),
            || {
                for i in 0..4 {
                    queue.send(i, ());
                }
            },
            || go.store(true, Ordering::SeqCst),
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn overlap_consumer_panic_fires_on_panic_and_propagates() {
        let queue = PipelineQueue::new();
        let unblocked = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = unblocked.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline_overlap_with_state(
                3,
                &queue,
                |_| (),
                |_s, i, _p: ()| {
                    assert!(i != 1, "poison item");
                },
                || seen.store(true, Ordering::SeqCst),
                || {
                    for i in 0..6 {
                        queue.send(i, ());
                    }
                },
                || (),
            );
        }));
        assert!(caught.is_err(), "consumer panic must propagate");
        assert!(
            unblocked.load(Ordering::SeqCst),
            "on_panic must fire so a gated driver can be released"
        );
    }

    #[test]
    fn overlap_producer_panic_still_releases_consumers() {
        // The queue must be closed when `produce` unwinds, or the spawned
        // consumers would park forever and the scope join would hang.
        let queue = PipelineQueue::new();
        let consumed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline_overlap_with_state(
                3,
                &queue,
                |_| (),
                |_s, _i, _p: ()| {
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
                || {},
                || {
                    queue.send(0, ());
                    panic!("producer died mid-stream");
                },
                || (),
            );
        }));
        assert!(caught.is_err(), "producer panic must propagate");
    }
}
