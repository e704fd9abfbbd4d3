//! Admission-backpressure and shutdown tests for the batch scheduler: the
//! serve-layer mirror of `crates/core/tests/decode_pipeline_shutdown.rs`.
//!
//! The happy path (ordered emission, bit-identity to single encodes) is
//! covered by the unit tests in `src/batch.rs`; these tests pin the
//! *overload and abnormal-end* contracts. Backpressure: a producer that
//! outruns the workers must park on the bounded queue, so the number of
//! in-flight images can never exceed `capacity + jobs + 1`. Shutdown: a
//! mid-batch job failure is contained to its job; a worker-side panic
//! (here: in the emission callback) aborts the batch in bounded time —
//! never a hang, never a stranded producer. Every test runs under a
//! deadline guard so a parked thread is a test failure, not a CI timeout.

use pj2k_core::{EncoderConfig, RateControl};
use pj2k_image::Image;
use pj2k_serve::{encode_stream, BatchPlan, JobError};
use pj2k_testkit::synth;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

fn test_cfg() -> EncoderConfig {
    EncoderConfig {
        rate: RateControl::TargetBpp(vec![1.0]),
        levels: 3,
        ..EncoderConfig::default()
    }
}

fn img(side: usize, seed: u64) -> Image {
    synth::natural_gray(side, side, seed)
}

/// Run `f` on a helper thread and fail if it has not finished within
/// `secs` — a parked producer or worker shows up as a deadline miss here
/// instead of a CI-wide timeout.
fn with_deadline<F>(secs: u64, what: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        f();
        // The receiver only disappears after a verdict; ignore the
        // impossible send error rather than panicking in teardown.
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => runner.join().expect("deadline body must not panic"),
        Err(_) => panic!("{what}: exceeded {secs}s — a batch thread is likely parked"),
    }
}

#[test]
fn overloaded_producer_holds_in_flight_jobs_at_the_admission_ceiling() {
    // supply() is instant (images pre-built), the worker pays a real
    // encode — the producer would race ahead unboundedly (to n = 24)
    // without admission backpressure. In-flight jobs = supplied − emitted,
    // sampled inside supply(k): the k jobs before it have all been sent, so
    // each is queued (<= capacity), held by the worker between its recv
    // and its emit (<= 1), or emitted; plus the one being supplied:
    // capacity + 2, under any scheduling (`emitted` is read after
    // `supplied` is bumped and only grows, so the sample never exceeds the
    // true value).
    //
    // One worker on purpose. With j > 1 workers `supplied − emitted` also
    // counts finished results parked in the reorder buffer behind a slower
    // worker, and while that worker is descheduled (a 48x48 encode is far
    // shorter than a scheduler quantum) the others park one result after
    // another: the old `capacity + 2j` bound tripped on a loaded 2-core
    // host, and no schedule-independent bound exists for that quantity.
    // What admission bounds for any j is live *images* (capacity + j + 1),
    // pinned where a payload's drop is observable: parutil's
    // `payload_live_count_is_bounded_by_capacity_plus_workers` and the
    // bench harness's allocator check.
    with_deadline(120, "backpressure batch", || {
        let plan = BatchPlan {
            jobs: 1,
            threads_per_job: 1,
            budget: 1,
            queue_capacity: 2,
        };
        let n = 24;
        let images: Vec<Image> = (0..n).map(|i| img(48, i as u64)).collect();
        let supplied = AtomicUsize::new(0);
        let emitted = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);
        encode_stream(
            &test_cfg(),
            plan,
            n,
            |i| {
                let in_flight =
                    supplied.fetch_add(1, Ordering::SeqCst) + 1 - emitted.load(Ordering::SeqCst);
                max_in_flight.fetch_max(in_flight, Ordering::SeqCst);
                Ok(images[i].clone())
            },
            |_i, result, _lat| {
                assert!(result.is_ok());
                emitted.fetch_add(1, Ordering::SeqCst);
            },
        )
        .expect("valid config");
        assert_eq!(emitted.load(Ordering::SeqCst), n, "every job emitted");
        let ceiling = plan.queue_capacity + 2;
        let peak = max_in_flight.load(Ordering::SeqCst);
        assert!(
            peak <= ceiling,
            "producer ran {peak} jobs ahead; admission ceiling is {ceiling}"
        );
    });
}

#[test]
fn mid_batch_failures_drain_cleanly_and_stay_contained() {
    // Jobs 3 and 7 fail at supply time (the hardened-parse analogue);
    // every other job must encode, in order, within the deadline.
    with_deadline(120, "mid-batch failure batch", || {
        let plan = BatchPlan {
            jobs: 3,
            threads_per_job: 1,
            budget: 3,
            queue_capacity: 2,
        };
        let n = 12;
        let outcomes = Mutex::new(Vec::new());
        encode_stream(
            &test_cfg(),
            plan,
            n,
            |i| {
                if i == 3 || i == 7 {
                    Err(JobError::Read(format!("synthetic corruption in job {i}")))
                } else {
                    Ok(img(32, i as u64))
                }
            },
            |i, result, _lat| outcomes.lock().unwrap().push((i, result.is_ok())),
        )
        .expect("valid config");
        let outcomes = outcomes.into_inner().unwrap();
        let want: Vec<(usize, bool)> = (0..n).map(|i| (i, i != 3 && i != 7)).collect();
        assert_eq!(outcomes, want);
    });
}

#[test]
fn emission_panic_aborts_the_batch_in_bounded_time() {
    // A panic on the worker side of the queue (here: the emission
    // callback) must fail the queue, release a producer parked on
    // admission, and propagate — not deadlock. The tiny queue capacity
    // guarantees the producer really is parked when the panic fires.
    with_deadline(120, "emission panic batch", || {
        let supplied = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            encode_stream(
                &test_cfg(),
                BatchPlan {
                    jobs: 2,
                    threads_per_job: 1,
                    budget: 2,
                    queue_capacity: 1,
                },
                64,
                |i| {
                    supplied.fetch_add(1, Ordering::SeqCst);
                    Ok(img(24, i as u64))
                },
                |i, _result, _lat| {
                    assert!(i < 2, "poison emission");
                },
            )
        }));
        assert!(caught.is_err(), "emission panic must propagate");
        assert!(
            supplied.load(Ordering::SeqCst) < 64,
            "producer should observe the failed queue and stop admitting"
        );
    });
}
