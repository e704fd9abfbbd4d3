//! Shutdown- and drop-path tests for the pipeline executor.
//!
//! The happy path of [`pipeline_overlap_with_state`] is covered by its unit
//! tests; these tests pin down what happens when a run ends
//! *abnormally* — a consumer panics mid-stream, a queue is dropped with
//! items still buffered — and the less-traveled edges of the
//! [`PipelineQueue`] protocol (close/recv ordering, send-after-close).

// Not a loom test: drives the std executor and real blocking threads
// (loom primitives would panic outside `loom::model`); loom/tests/loom.rs
// model-checks the queue hand-off instead.
#![cfg(not(loom))]

use pj2k_parutil::{pipeline_overlap_with_state, PipelineQueue};
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
    // The scoped executor must join its remaining workers and re-raise the
    // panic to the caller — never deadlock, never swallow it.
    let consumed = Arc::new(AtomicUsize::new(0));
    let consumed_in = Arc::clone(&consumed);
    let result = catch_unwind(AssertUnwindSafe(move || {
        let queue = PipelineQueue::new();
        pipeline_overlap_with_state(
            3,
            &queue,
            |_| (),
            move |_s, i, _p: ()| {
                if i == 3 {
                    panic!("worker died on item {i}");
                }
                consumed_in.fetch_add(1, Ordering::SeqCst);
            },
            || {
                for i in 0..16 {
                    queue.send(i, ());
                }
            },
        )
    }));
    assert!(result.is_err(), "worker panic must reach the caller");
    // The surviving workers kept draining: the panicking item is gone but
    // no worker is left blocked on the queue.
    assert!(consumed.load(Ordering::SeqCst) <= 15);
}

#[test]
fn producer_panic_propagates_and_workers_drain_out() {
    // The producer dies after publishing half the items. scope unwinds the
    // producer on the caller's thread; the workers must still terminate
    // (the queue guard's close on unwind or the scope's join must not
    // deadlock) and the panic must reach the caller.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let queue = PipelineQueue::new();
        pipeline_overlap_with_state(
            2,
            &queue,
            |_| (),
            |_s, _i, _p: ()| (),
            || {
                for i in 0..4 {
                    queue.send(i, ());
                }
                panic!("producer died mid-stream");
            },
        )
    }));
    assert!(result.is_err(), "producer panic must reach the caller");
}

#[test]
fn dropping_a_queue_with_undrained_items_drops_the_payloads() {
    // Teardown after an abnormal run must not leak buffered payloads.
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let queue = PipelineQueue::new();
        for i in 0..5 {
            queue.send(i, DropCounter(Arc::clone(&drops)));
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
    // `None` once the queue closes — the shutdown edge every pipeline run
    // ends with.
    let queue: Arc<PipelineQueue<()>> = Arc::new(PipelineQueue::new());
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
    let queue = PipelineQueue::new();
    queue.send(0, 'a');
    queue.send(1, 'b');
    queue.close();
    assert_eq!(queue.recv(), Some((0, 'a')));
    assert_eq!(queue.recv(), Some((1, 'b')));
    for _ in 0..3 {
        assert_eq!(queue.recv(), None, "drained closed queue must stay None");
    }
}

#[test]
fn send_after_close_panics() {
    let queue = PipelineQueue::new();
    queue.send(0, ());
    queue.close();
    let result = catch_unwind(AssertUnwindSafe(|| queue.send(1, ())));
    assert!(result.is_err(), "send on a closed queue must panic");
}
