//! Producer/consumer stage pipelining.
//!
//! [`pool_map`](crate::pool_map) and friends are fork-join: the whole item
//! list exists before the first worker starts. The decoder needs the
//! opposite — a producer (the Tier-2 packet parser) *discovers* work over
//! time, and consumers (Tier-1 block decoding) should start on the blocks
//! of finished precincts while later packets are still being parsed.
//!
//! [`pipeline_overlap_with_state`] provides that shape: the calling thread
//! produces into a [`PipelineQueue`], `p` scoped workers with per-worker
//! mutable state drain it, and the call returns after the last worker has
//! joined.
//!
//! Consumption is dynamically self-scheduled by construction: idle workers
//! block on the shared queue and claim items in arrival order, which is the
//! runtime analogue of [`Schedule::Dynamic`](crate::Schedule) with chunk 1.

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
    /// The caller owns the queue and hands it to
    /// [`pipeline_overlap_with_state`]; the loom models in
    /// `loom/tests/loom.rs` drive the same producer/consumer hand-off.
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

    /// Publish one work item; `index` is handed to the consumer with it.
    ///
    /// # Panics
    /// Panics if called after the producer returned (queue closed).
    // AUDIT(hot): by design — the lock/notify pair IS the stage-overlap
    // handoff; it runs once per work item (a code-block), never inside
    // the per-sample kernels.
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

/// Run `p` scoped consumers draining `queue` while the calling thread runs
/// `produce`, which publishes the items; returns what `produce` returned
/// once every consumer has joined. Results do not come back through slots:
/// consumers communicate through whatever shared state the caller closes
/// over (the decoder's workers write disjoint regions of the output
/// planes), and the join is the synchronization point after which the
/// caller may read it.
///
/// * `init(w)` builds worker `w`'s reusable scratch.
/// * `consume(&mut state, index, item)` runs exactly once per published
///   item, on whichever idle worker claims it (arrival order).
/// * `produce()` runs on the calling thread; the queue is closed when it
///   returns — normally or by unwinding — so consumers always drain out
///   and the scope's join cannot deadlock. A consumer's panic is re-raised
///   at the join.
///
/// With `p <= 1` nothing is spawned: `produce` runs to completion, then the
/// items are consumed inline in arrival order on a single state — the same
/// `consume` call sequence a one-worker pipeline would observe, with no
/// threading overhead. The requested `p` is clamped to the process-wide
/// [`thread_budget`](crate::thread_budget) (`PJ2K_THREADS`).
pub fn pipeline_overlap_with_state<T, S, R, I, C, P>(
    p: usize,
    queue: &PipelineQueue<T>,
    init: I,
    consume: C,
    produce: P,
) -> R
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    C: Fn(&mut S, usize, T) + Sync,
    P: FnOnce() -> R,
{
    let p = crate::budget::clamp_workers(p);
    if p <= 1 {
        let guard = CloseOnDrop(queue);
        let produced = produce();
        drop(guard);
        let mut state = init(0);
        while let Some((i, item)) = queue.recv() {
            consume(&mut state, i, item);
        }
        return produced;
    }
    thread::scope(|scope| {
        for w in 0..p {
            let (init, consume) = (&init, &consume);
            scope.spawn(move || {
                let mut state = init(w);
                while let Some((i, item)) = queue.recv() {
                    consume(&mut state, i, item);
                }
            });
        }
        // Close on unwind too: if the producer panics, the workers must
        // still observe a closed queue and drain out, or the scope's
        // implicit join would deadlock on consumers parked in `recv`.
        let _guard = CloseOnDrop(queue);
        produce()
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

// Gated out under loom: these tests run the real scoped-thread executor,
// and loom's sync primitives panic outside `loom::model`. The queue
// hand-off itself is model-checked in `loom/tests/loom.rs`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Send `0..n`, item `i` carrying `payload(i)`.
    fn send_all<T>(queue: &PipelineQueue<T>, n: usize, payload: impl Fn(usize) -> T) {
        for i in 0..n {
            queue.send(i, payload(i));
        }
    }

    #[test]
    fn matches_sequential_for_all_worker_counts() {
        let want: usize = (0..60).map(|i| i * 3 + 1).sum();
        for p in [0, 1, 2, 4, 7] {
            let queue = PipelineQueue::new();
            let sum = AtomicUsize::new(0);
            let produced = pipeline_overlap_with_state(
                p,
                &queue,
                |_| (),
                |_s, i, payload: usize| {
                    sum.fetch_add(i * 2 + payload, Ordering::SeqCst);
                },
                || {
                    send_all(&queue, 60, |i| i + 1);
                    777_usize
                },
            );
            assert_eq!(produced, 777, "p={p}: produce's result comes back");
            assert_eq!(sum.load(Ordering::SeqCst), want, "p={p}");
        }
    }

    #[test]
    fn every_item_consumed_exactly_once_under_contention() {
        let counters: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let queue = PipelineQueue::new();
        pipeline_overlap_with_state(
            6,
            &queue,
            |_| (),
            |_s, i, _payload: ()| {
                counters[i].fetch_add(1, Ordering::SeqCst);
            },
            || send_all(&queue, 200, |_| ()),
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
        let queue = PipelineQueue::new();
        let overlap_seen = pipeline_overlap_with_state(
            2,
            &queue,
            |_| (),
            |_s, _i, _p: ()| {
                consumed.fetch_add(1, Ordering::SeqCst);
            },
            || {
                let mut seen = 0;
                for i in 0..8 {
                    queue.send(i, ());
                    if i == 4 {
                        // Give consumers a chance; any progress before the
                        // last send proves the stages overlapped.
                        for _ in 0..100 {
                            if consumed.load(Ordering::SeqCst) > 0 {
                                break;
                            }
                            thread::sleep(Duration::from_millis(1));
                        }
                        seen = consumed.load(Ordering::SeqCst);
                    }
                }
                seen
            },
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 8);
        assert!(
            overlap_seen > 0,
            "consumers made no progress while the producer was mid-stream"
        );
    }

    #[test]
    fn per_worker_state_is_isolated_and_reused() {
        // State is a scratch Vec: capacity must survive across items, and
        // the number of distinct states is at most p.
        let inits = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        let queue = PipelineQueue::new();
        pipeline_overlap_with_state(
            3,
            &queue,
            |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, i, _p: ()| {
                scratch.clear();
                scratch.extend(0..=i);
                total.fetch_add(scratch.iter().sum::<usize>(), Ordering::SeqCst);
            },
            || send_all(&queue, 40, |_| ()),
        );
        let want: usize = (0..40).map(|i| i * (i + 1) / 2).sum();
        assert_eq!(total.load(Ordering::SeqCst), want);
        assert!((1..=3).contains(&inits.load(Ordering::SeqCst)));
    }

    #[test]
    fn zero_items_returns_empty() {
        for p in [1, 4] {
            let queue: PipelineQueue<()> = PipelineQueue::new();
            let produced: Vec<usize> = pipeline_overlap_with_state(
                p,
                &queue,
                |_| (),
                |_s, _i, _p: ()| unreachable!("no items to consume"),
                Vec::new,
            );
            assert!(produced.is_empty(), "p={p}");
            assert_eq!(queue.recv(), None, "p={p}: queue left closed and empty");
        }
    }

    #[test]
    fn payloads_reach_the_right_index() {
        // Payload is a heap value tied to its index; any misrouting would
        // trip the consumer-side assert.
        let seen = AtomicUsize::new(0);
        let queue = PipelineQueue::new();
        pipeline_overlap_with_state(
            4,
            &queue,
            |_| (),
            |_s, i, payload: Vec<usize>| {
                assert_eq!(payload, vec![i, i + 1]);
                seen.fetch_add(1, Ordering::SeqCst);
            },
            || {
                for i in (0..50).rev() {
                    queue.send(i, vec![i, i + 1]);
                }
            },
        );
        assert_eq!(seen.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn overlap_inline_path_orders_produce_then_consume() {
        let queue = PipelineQueue::new();
        let log = std::sync::Mutex::new(Vec::new());
        pipeline_overlap_with_state(
            1,
            &queue,
            |_| (),
            |_s, i, _p: ()| log.lock().unwrap().push(format!("consume {i}")),
            || {
                log.lock().unwrap().push("produce".into());
                queue.send(0, ());
                queue.send(1, ());
            },
        );
        assert_eq!(*log.lock().unwrap(), ["produce", "consume 0", "consume 1"]);
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
                || {
                    queue.send(0, ());
                    panic!("producer died mid-stream");
                },
            );
        }));
        assert!(caught.is_err(), "producer panic must propagate");
    }
}
