//! Shutdown- and drop-path tests for the producer/consumer serve loop.
//!
//! The happy path of [`bounded_ordered_serve`] is covered by its unit
//! tests; these tests pin down what happens when a run ends
//! *abnormally* — a consumer panics mid-stream, the producer panics, a
//! queue is dropped with items still buffered — and the less-traveled
//! edges of the [`BoundedQueue`] protocol (close/recv ordering). The
//! decoder drives the same loop at capacity `usize::MAX`; its mirror is
//! `crates/core/tests/decode_pipeline_shutdown.rs`.

// Not a loom test: drives the std executor and real blocking threads
// (loom primitives would panic outside `loom::model`); loom/tests/loom.rs
// model-checks the queue hand-off instead.
#![cfg(not(loom))]

use pj2k_parutil::{bounded_ordered_serve, BoundedQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A payload that counts its drops, to observe queue-teardown behavior.
struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn worker_panic_mid_stream_propagates_and_does_not_hang() {
    // One consumer panics on item 3 while the producer keeps publishing.
    // The loop must fail the queue, join its remaining workers and re-raise
    // the panic, payload intact, to the caller — never deadlock, never
    // swallow it — at the decoder's unbounded capacity and at a bounded one.
    for capacity in [usize::MAX, 1] {
        let consumed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            bounded_ordered_serve(
                3,
                capacity,
                |_| (),
                |_s, i, _p: ()| {
                    if i == 3 {
                        std::panic::panic_any("worker died on item 3");
                    }
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
                |_i, _r| {},
                |q| {
                    for i in 0..16 {
                        if q.send(i, ()).is_err() {
                            break;
                        }
                    }
                },
            )
        }));
        let payload = result.expect_err("worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"worker died on item 3"),
            "capacity {capacity}"
        );
        // The panicking item is gone and no worker is left blocked.
        assert!(consumed.load(Ordering::SeqCst) <= 15);
    }
}

#[test]
fn producer_panic_propagates_and_workers_drain_out() {
    // The producer dies after publishing half the items. The queue guard
    // closes the queue on unwind, so the workers drain what was admitted
    // and exit, the join returns, and the panic reaches the caller.
    let consumed = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        bounded_ordered_serve(
            2,
            usize::MAX,
            |_| (),
            |_s, _i, _p: ()| {
                consumed.fetch_add(1, Ordering::SeqCst);
            },
            |_i, _r| {},
            |q| {
                for i in 0..4 {
                    q.send(i, ()).expect("queue open");
                }
                panic!("producer died mid-stream");
            },
        )
    }));
    assert!(result.is_err(), "producer panic must reach the caller");
    assert_eq!(consumed.load(Ordering::SeqCst), 4, "admitted items drained");
}

#[test]
fn dropping_a_queue_with_undrained_items_drops_the_payloads() {
    // Teardown after an abnormal run must not leak buffered payloads.
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let queue = BoundedQueue::new(usize::MAX);
        for i in 0..5 {
            assert!(queue.send(i, DropCounter(Arc::clone(&drops))).is_ok());
        }
        // Consume two, leave three buffered.
        assert!(queue.recv().is_some());
        assert!(queue.recv().is_some());
    }
    assert_eq!(drops.load(Ordering::SeqCst), 5, "buffered payloads leaked");
}

#[test]
fn close_unblocks_a_parked_consumer() {
    // A consumer blocked on an empty open queue must wake and observe
    // `None` once the queue closes — the shutdown edge every run ends with.
    let queue: Arc<BoundedQueue<()>> = Arc::new(BoundedQueue::new(usize::MAX));
    let waiter = {
        let queue = Arc::clone(&queue);
        thread::spawn(move || queue.recv())
    };
    // Give the consumer a moment to park on the condvar (best effort; the
    // test is correct for either interleaving).
    thread::sleep(Duration::from_millis(10));
    queue.close();
    let got = waiter.join().expect("consumer must not panic");
    assert!(got.is_none(), "closed empty queue must yield None");
}

#[test]
fn closed_queue_drains_then_stays_exhausted() {
    let queue = BoundedQueue::new(usize::MAX);
    queue.send(0, 'a').unwrap();
    queue.send(1, 'b').unwrap();
    queue.close();
    assert_eq!(queue.recv(), Some((0, 'a')));
    assert_eq!(queue.recv(), Some((1, 'b')));
    for _ in 0..3 {
        assert_eq!(queue.recv(), None, "drained closed queue must stay None");
    }
}
