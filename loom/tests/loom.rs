//! loom model checks of the executor cores.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test --manifest-path
//! loom/Cargo.toml --release` (CI job `loom`; this crate is its own
//! workspace whose library target is `crates/parutil/src/lib.rs`, because
//! the root workspace is std-only). Under `--cfg loom` parutil's private
//! `sync` facade swaps `std::sync` for loom's model-checked primitives, so these
//! tests drive the *production* claim/hand-off code — [`DynamicCursor`],
//! [`PipelineQueue`], [`DisjointWriter`] — through every reachable thread
//! interleaving (bounded by `preemption_bound`) instead of the handful a
//! stress run happens to hit.
//!
//! loom has no scoped threads (`loom::thread::spawn` requires `'static`),
//! which is why the models target the extracted cores rather than the
//! scoped executors wrapping them; the executors themselves are covered by
//! the std/TSan/Miri gates.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use pj2k_parutil::{DisjointWriter, DynamicCursor, PipelineQueue};

/// Run `f` under loom with a bounded number of preemptions per execution.
///
/// An unbounded search is exact but explodes combinatorially; bounding
/// preemptions at 3 is the standard loom compromise (tokio uses 2) and
/// still covers every bug expressible with up to three forced context
/// switches.
fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let mut builder = loom::model::Builder::new();
    builder.preemption_bound = Some(3);
    builder.check(f);
}

/// The dynamic-schedule claim counter hands every index to exactly one
/// claimant, across all interleavings of three concurrent claimants.
#[test]
fn dynamic_cursor_claims_each_index_exactly_once() {
    model(|| {
        let cursor = Arc::new(DynamicCursor::new(4, 1));
        let counts = Arc::new(Mutex::new(vec![0usize; 4]));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cursor = Arc::clone(&cursor);
                let counts = Arc::clone(&counts);
                thread::spawn(move || {
                    while let Some(range) = cursor.claim() {
                        let mut c = counts.lock().unwrap();
                        for i in range {
                            c[i] += 1;
                        }
                    }
                })
            })
            .collect();
        // The main thread claims too: three claimants total.
        while let Some(range) = cursor.claim() {
            let mut c = counts.lock().unwrap();
            for i in range {
                c[i] += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let c = counts.lock().unwrap();
        for (i, &n) in c.iter().enumerate() {
            assert_eq!(n, 1, "index {i} claimed {n} times");
        }
    });
}

/// A cursor with chunk > 1 still partitions the domain exactly, including
/// the short tail chunk.
#[test]
fn dynamic_cursor_chunked_tail_is_exact() {
    model(|| {
        let cursor = Arc::new(DynamicCursor::new(3, 2));
        let counts = Arc::new(Mutex::new(vec![0usize; 3]));
        let h = {
            let cursor = Arc::clone(&cursor);
            let counts = Arc::clone(&counts);
            thread::spawn(move || {
                while let Some(range) = cursor.claim() {
                    let mut c = counts.lock().unwrap();
                    for i in range {
                        c[i] += 1;
                    }
                }
            })
        };
        while let Some(range) = cursor.claim() {
            let mut c = counts.lock().unwrap();
            for i in range {
                c[i] += 1;
            }
        }
        h.join().unwrap();
        assert_eq!(*counts.lock().unwrap(), vec![1, 1, 1]);
    });
}

/// Every item sent through the pipeline queue reaches exactly one of two
/// competing consumers, with its payload intact, and both consumers
/// terminate after close.
#[test]
fn pipeline_queue_hands_each_item_to_exactly_one_consumer() {
    model(|| {
        let queue = Arc::new(PipelineQueue::new());
        let seen = Arc::new(Mutex::new(vec![0usize; 2]));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let seen = Arc::clone(&seen);
                thread::spawn(move || {
                    while let Some((i, payload)) = queue.recv() {
                        assert_eq!(payload, 10 + i, "payload misrouted");
                        seen.lock().unwrap()[i] += 1;
                    }
                })
            })
            .collect();
        queue.send(0, 10);
        queue.send(1, 11);
        queue.close();
        for c in consumers {
            c.join().unwrap();
        }
        let seen = seen.lock().unwrap();
        for (i, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1, "item {i} consumed {n} times");
        }
    });
}

/// Closing the queue wakes a consumer blocked on an empty queue; it must
/// observe `None`, never hang, in every interleaving of close vs. wait.
#[test]
fn pipeline_queue_close_unblocks_empty_consumers() {
    model(|| {
        let queue: Arc<PipelineQueue<()>> = Arc::new(PipelineQueue::new());
        let h = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.recv())
        };
        queue.close();
        assert!(h.join().unwrap().is_none());
    });
}

/// Two workers claiming disjoint ranges of one buffer: the claim table
/// (itself a concurrent structure in debug builds) accepts the disjoint
/// claims in any interleaving, the writes land, and the cover assert
/// passes.
#[test]
fn disjoint_writer_parallel_claims_and_cover() {
    model(|| {
        let buf: &'static mut [u32] = Box::leak(vec![0u32; 4].into_boxed_slice());
        let ptr = buf as *mut [u32];
        let writer = Arc::new(DisjointWriter::new(buf));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let writer = Arc::clone(&writer);
                thread::spawn(move || {
                    let range = w * 2..w * 2 + 2;
                    let claim = writer.claim_range(range.clone());
                    for i in range {
                        // SAFETY: the two ranges are disjoint and in
                        // bounds; the leaked buffer outlives the threads.
                        unsafe { claim.write(i, 100 + i as u32) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        writer.debug_assert_fully_claimed();
        drop(writer);
        // SAFETY: all claims and the writer are gone; reclaim the leaked
        // buffer so every model iteration is leak-free.
        let buf = unsafe { Box::from_raw(ptr) };
        assert_eq!(&buf[..], &[100, 101, 102, 103]);
    });
}

/// The composed production pattern of `pool_map_with_state`'s dynamic arm:
/// workers claim chunks from a shared cursor and route each chunk through
/// a `DisjointWriter` claim before writing. Exactly-once claiming must
/// yield a disjoint, covering write set in every interleaving.
#[test]
fn dynamic_claim_plus_disjoint_writes_compose() {
    model(|| {
        let buf: &'static mut [u32] = Box::leak(vec![0u32; 3].into_boxed_slice());
        let ptr = buf as *mut [u32];
        let writer = Arc::new(DisjointWriter::new(buf));
        let cursor = Arc::new(DynamicCursor::new(3, 2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let writer = Arc::clone(&writer);
                let cursor = Arc::clone(&cursor);
                thread::spawn(move || {
                    while let Some(range) = cursor.claim() {
                        let claim = writer.claim_range(range.clone());
                        for i in range {
                            // SAFETY: the cursor hands each chunk to
                            // exactly one worker (the property under
                            // test — the claim table would panic on a
                            // violation); the leaked buffer outlives the
                            // threads.
                            unsafe { claim.write(i, i as u32 + 1) };
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        writer.debug_assert_fully_claimed();
        drop(writer);
        // SAFETY: all claims and the writer are gone; reclaim the leaked
        // buffer so every model iteration is leak-free.
        let buf = unsafe { Box::from_raw(ptr) };
        assert_eq!(&buf[..], &[1, 2, 3]);
    });
}
