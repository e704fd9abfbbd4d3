//! Tests of the decoder's parse/decode pipeline: [`bounded_ordered_serve`]
//! at unbounded capacity, the shape `Decoder` runs it in — the Tier-2
//! parser produces code-block jobs on the calling thread while the Tier-1
//! workers consume them. The queue's own contract (admission at capacity,
//! failure, ordered emission) is tested with it in `bounded`.

// Gated out under loom (see `lib.rs`): these tests drive real scoped
// threads; loom's sync primitives panic outside `loom::model`.
mod tests {
    use crate::bounded_ordered_serve;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Capacity of the decoder's job queue: the parser is never held back.
    const UNBOUNDED: usize = usize::MAX;

    #[test]
    fn matches_sequential_for_all_worker_counts() {
        let want: usize = (0..60).map(|i| i * 3 + 1).sum();
        for p in [0, 1, 2, 4, 7] {
            let sum = AtomicUsize::new(0);
            let mut produced = 0;
            bounded_ordered_serve(
                p,
                UNBOUNDED,
                |_| (),
                |_s, i, payload: usize| {
                    sum.fetch_add(i * 2 + payload, Ordering::SeqCst);
                },
                |_i, ()| {},
                |q| {
                    for i in 0..60 {
                        q.send(i, i + 1).expect("queue open");
                    }
                    produced = 777;
                },
            );
            assert_eq!(produced, 777, "p={p}: the producer's result comes back");
            assert_eq!(sum.load(Ordering::SeqCst), want, "p={p}");
        }
    }

    #[test]
    fn every_item_consumed_exactly_once_under_contention() {
        let counters: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        bounded_ordered_serve(
            6,
            UNBOUNDED,
            |_| (),
            |_s, i, _p: ()| {
                counters[i].fetch_add(1, Ordering::SeqCst);
            },
            |_i, ()| {},
            |q| {
                for i in 0..200 {
                    q.send(i, ()).expect("queue open");
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
        // counter the producer reads back between sends.
        let consumed = AtomicUsize::new(0);
        let mut seen = 0;
        bounded_ordered_serve(
            2,
            UNBOUNDED,
            |_| (),
            |_s, _i, _p: ()| {
                consumed.fetch_add(1, Ordering::SeqCst);
            },
            |_i, ()| {},
            |q| {
                for i in 0..8 {
                    q.send(i, ()).expect("queue open");
                    if i == 4 {
                        // Any progress before the last send proves the
                        // stages overlapped.
                        for _ in 0..100 {
                            if consumed.load(Ordering::SeqCst) > 0 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        seen = consumed.load(Ordering::SeqCst);
                    }
                }
            },
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 8);
        assert!(
            seen > 0,
            "consumers made no progress while the producer was mid-stream"
        );
    }

    #[test]
    fn per_worker_state_is_isolated_and_reused() {
        // State is a scratch Vec: capacity must survive across items, and
        // the number of distinct states is at most p.
        let inits = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        bounded_ordered_serve(
            3,
            UNBOUNDED,
            |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, i, _p: ()| {
                scratch.clear();
                scratch.extend(0..=i);
                total.fetch_add(scratch.iter().sum::<usize>(), Ordering::SeqCst);
            },
            |_i, ()| {},
            |q| {
                for i in 0..40 {
                    q.send(i, ()).expect("queue open");
                }
            },
        );
        let want: usize = (0..40).map(|i| i * (i + 1) / 2).sum();
        assert_eq!(total.load(Ordering::SeqCst), want);
        assert!((1..=3).contains(&inits.load(Ordering::SeqCst)));
    }

    #[test]
    fn zero_items_returns_empty() {
        for p in [0, 1, 4] {
            let mut produced = vec![1];
            bounded_ordered_serve(
                p,
                UNBOUNDED,
                |_| (),
                |_s, _i, _p: ()| unreachable!("no items to consume"),
                |_i, ()| unreachable!("no results to emit"),
                |_q| produced.clear(),
            );
            assert!(produced.is_empty(), "p={p}");
        }
    }

    #[test]
    fn payloads_reach_the_right_index() {
        // Payload is a heap value tied to its index, sent in reverse index
        // order; any misrouting trips the worker-side assert, and the
        // results still come out in index order.
        let emitted = Mutex::new(Vec::new());
        bounded_ordered_serve(
            4,
            UNBOUNDED,
            |_| (),
            |_s, i, payload: Vec<usize>| {
                assert_eq!(payload, vec![i, i + 1]);
                payload[1]
            },
            |i, r| emitted.lock().unwrap().push((i, r)),
            |q| {
                for i in (0..50).rev() {
                    q.send(i, vec![i, i + 1]).expect("queue open");
                }
            },
        );
        let want: Vec<(usize, usize)> = (0..50).map(|i| (i, i + 1)).collect();
        assert_eq!(emitted.into_inner().unwrap(), want);
    }

    #[test]
    fn overlap_inline_path_orders_produce_then_consume() {
        let log = Mutex::new(Vec::new());
        bounded_ordered_serve(
            0,
            UNBOUNDED,
            |_| (),
            |_s, i, _p: ()| log.lock().unwrap().push(format!("consume {i}")),
            |_i, ()| {},
            |q| {
                log.lock().unwrap().push("produce".into());
                q.send(0, ()).expect("queue open");
                q.send(1, ()).expect("queue open");
            },
        );
        assert_eq!(*log.lock().unwrap(), ["produce", "consume 0", "consume 1"]);
    }

    #[test]
    fn overlap_producer_panic_still_releases_consumers() {
        // The queue must be closed when the producer unwinds, or the
        // spawned consumers would park forever and the join would hang;
        // the items sent before the panic are still consumed.
        let consumed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bounded_ordered_serve(
                3,
                UNBOUNDED,
                |_| (),
                |_s, _i, _p: ()| {
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
                |_i, ()| {},
                |q| {
                    q.send(0, ()).expect("queue open");
                    q.send(1, ()).expect("queue open");
                    panic!("producer died mid-stream");
                },
            );
        }));
        assert!(caught.is_err(), "producer panic must propagate");
        assert_eq!(consumed.load(Ordering::SeqCst), 2);
    }
}
