//! Shutdown- and error-path tests for the decoder's parse → queue →
//! Tier-1 workers stage (DESIGN.md §15): the decode-side mirror of
//! `crates/parutil/tests/pipeline_shutdown.rs`.
//!
//! The happy path (golden pixels, worker-count invariance) is covered by
//! `golden_streams.rs` and `prop_codec.rs`; these tests pin down what
//! happens when a decode with spawned workers ends *abnormally* — the
//! Tier-2 parser errors with Tier-1 workers already parked on the block
//! queue, or with jobs still queued behind them. The contract in every
//! case: `decode` returns `Err(CodecError)` in bounded time — it never
//! hangs, never panics, and never leaks a parked worker (the scoped
//! executor cannot return while one is still blocked, so "returns at all"
//! doubles as the leak check). A block that fails *inside* a worker cannot
//! be built from bytes (the parser validates every block's plane and pass
//! counts before queueing it); `decode::tests::
//! failing_block_reports_the_first_error_at_any_worker_count` injects one.

use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode, RateControl, Wavelet};
use pj2k_testkit::{synth, Rng};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A decoder with `workers` spawned Tier-1 threads draining the block
/// queue the Tier-2 parser feeds.
fn pipelined(workers: usize) -> Decoder {
    Decoder {
        parallel: ParallelMode::WorkerPool { workers },
        ..Decoder::default()
    }
}

/// Run `f` on a helper thread and fail if it has not finished within
/// `secs`. A parked Tier-1 worker shows up as a deadline miss here
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
        Err(_) => panic!("{what}: exceeded {secs}s — a Tier-1 decode worker is likely parked"),
    }
}

/// Small but structurally rich corpus: multiple levels, both wavelets,
/// layers, and tiles (one queue and one worker scope per tile).
fn corpus() -> Vec<Vec<u8>> {
    let gray = synth::natural_gray(48, 40, 3);
    let rgb = synth::natural_rgb(32, 32, 5);
    let configs = [
        EncoderConfig {
            wavelet: Wavelet::Reversible53,
            rate: RateControl::Lossless,
            levels: 3,
            ..Default::default()
        },
        EncoderConfig {
            rate: RateControl::TargetBpp(vec![0.5, 2.0]),
            levels: 2,
            tiles: Some((32, 32)),
            ..Default::default()
        },
    ];
    let mut out = Vec::new();
    for cfg in configs {
        out.push(Encoder::new(cfg.clone()).unwrap().encode(&gray).0);
        out.push(Encoder::new(cfg).unwrap().encode(&rgb).0);
    }
    out
}

#[test]
fn truncation_sweep_terminates_at_every_cut() {
    // Every prefix of every corpus stream: early cuts die in the header
    // parser before any worker is spawned; late cuts error *inside* the
    // producer with workers already parked on the queue — closing the
    // queue on the way out is what lets them leave.
    with_deadline(120, "truncation sweep", || {
        for (ci, stream) in corpus().iter().enumerate() {
            for cut in 0..stream.len() {
                let r = pipelined(3).decode(&stream[..cut]);
                assert!(
                    r.is_err(),
                    "corpus {ci} cut {cut}: truncated stream decoded Ok"
                );
            }
        }
    });
}

#[test]
fn bit_flip_mutants_never_hang_the_pipeline() {
    // Flipped header bits end in a parse error at an arbitrary point of
    // the drain; flipped segment bytes decode to other coefficients (the
    // MQ decoder is total). Either way the call must come back.
    with_deadline(120, "bit-flip sweep", || {
        let corpus = corpus();
        let mut rng = Rng::new(0xDECD_0001);
        for _ in 0..1_500 {
            let stream = &corpus[rng.range(0..corpus.len())];
            let mut bytes = stream.clone();
            for _ in 0..rng.range(1..=3) {
                let i = rng.range(0..bytes.len());
                bytes[i] ^= 1 << rng.range(0..8);
            }
            let _ = pipelined(2).decode(&bytes);
        }
    });
}

#[test]
fn length_field_corruption_drains_cleanly() {
    // Clobbered marker-segment lengths make the Tier-2 cursor run out
    // mid-packet — the parse error must close the queue (so workers see
    // `None`) and stop queued blocks from being decoded, on every mutant.
    with_deadline(120, "length-field sweep", || {
        for stream in &corpus() {
            for i in 0..stream.len().saturating_sub(3) {
                if stream[i] != 0xFF {
                    continue;
                }
                for val in [0u16, 3, 0x00FF, 0xFFFF] {
                    let mut bytes = stream.clone();
                    bytes[i + 2] = (val >> 8) as u8;
                    bytes[i + 3] = (val & 0xFF) as u8;
                    let _ = pipelined(4).decode(&bytes);
                }
            }
        }
    });
}

#[test]
fn late_parse_error_unparks_waiting_workers() {
    // Cut each stream at 85% of its length: headers and early packets
    // parse fine, jobs are already flowing, then the producer errors.
    // Repeated runs shake out interleavings where the error lands
    // before/after workers park.
    with_deadline(120, "late-parse-error runs", || {
        let corpus = corpus();
        for stream in &corpus {
            let cut = stream.len() * 85 / 100;
            for run in 0..40 {
                let workers = 2 + (run % 3);
                let r = pipelined(workers).decode(&stream[..cut]);
                assert!(r.is_err(), "85% prefix decoded Ok on run {run}");
            }
        }
    });
}

#[test]
fn garbage_and_empty_inputs_error_before_spawning() {
    with_deadline(60, "garbage inputs", || {
        let mut rng = Rng::new(0xDECD_0002);
        assert!(pipelined(4).decode(&[]).is_err());
        for len in 0..128 {
            let bytes = vec![0xFFu8; len];
            assert!(pipelined(4).decode(&bytes).is_err(), "all-FF len {len}");
        }
        for iter in 0..500 {
            let len = rng.range(0..384);
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes);
            let _ = pipelined(3).decode(&bytes);
            let _ = iter;
        }
    });
}

#[test]
fn repeated_pipelined_decodes_stay_bit_identical() {
    // Drop/reuse path: back-to-back runs in the same process must neither
    // accumulate state nor drift from the one-worker reference (each tile
    // builds and tears down its own queue and planes).
    with_deadline(120, "repeated valid decodes", || {
        for stream in corpus() {
            let (reference, _) = Decoder::default().decode(&stream).expect("valid stream");
            for run in 0..12 {
                let (img, report) = pipelined(1 + run % 4)
                    .decode(&stream)
                    .expect("valid stream");
                assert_eq!(img, reference, "run {run} diverged");
                assert!(report.num_blocks > 0, "decoded no blocks");
            }
        }
    });
}
