//! Randomized layer of the untrusted-input hardening harness.
//!
//! `hardening.rs` sweeps deterministic mutation families; this file samples
//! the same mutation space at random: arbitrary truncations, bit flips,
//! byte splices and length-field rewrites of valid codestreams must yield
//! `Ok` or `Err` from `Decoder::decode` — never a panic. When a mutant does
//! panic, `testkit::cases` reports the case seed; the mutant it replays is
//! worth pinning in `hardening.rs`'s fixture module.

use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode, RateControl};
use pj2k_dwt::Wavelet;
use pj2k_testkit::{cases, synth};
use std::sync::OnceLock;

/// Encoded corpus, built once per process: the same structurally diverse
/// streams as `hardening.rs` (tiles, layers, both wavelets).
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
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
    })
}

/// Decode under both the sequential and a parallel execution mode; the
/// property is the absence of a panic, not a particular outcome.
fn decode_both(bytes: &[u8]) {
    let _ = Decoder::default().decode(bytes);
    let dec = Decoder {
        parallel: ParallelMode::WorkerPool { workers: 2 },
        ..Default::default()
    };
    if let Err(e) = dec.decode(bytes) {
        let _ = format!("{e}"); // errors must also render cleanly
    }
}

const CASES: u32 = 256;

/// Arbitrary truncation of a valid stream never panics.
#[test]
fn truncated_stream_never_panics() {
    cases(CASES, |rng| {
        let which = rng.range(0usize..4);
        let frac = rng.range_f64(0.0f64..1.0);
        let stream = &corpus()[which];
        let cut = ((stream.len() as f64) * frac) as usize;
        decode_both(&stream[..cut.min(stream.len())]);
    });
}

/// Up to 8 independent bit flips anywhere in the stream never panic.
#[test]
fn bit_flipped_stream_never_panics() {
    cases(CASES, |rng| {
        let which = rng.range(0usize..4);
        let mut bytes = corpus()[which].clone();
        for _ in 0..rng.range(1..8) {
            let i = rng.range(0..bytes.len());
            bytes[i] ^= 1 << rng.range(0..8);
        }
        decode_both(&bytes);
    });
}

/// Overwriting a random window with arbitrary bytes never panics.
#[test]
fn spliced_stream_never_panics() {
    cases(CASES, |rng| {
        let which = rng.range(0usize..4);
        let mut patch = vec![0u8; rng.range(1..64)];
        rng.fill(&mut patch);
        let mut bytes = corpus()[which].clone();
        let start = rng.range(0..bytes.len());
        for (i, b) in patch.into_iter().enumerate() {
            if let Some(slot) = bytes.get_mut(start + i) {
                *slot = b;
            }
        }
        decode_both(&bytes);
    });
}

/// Rewriting the 16-bit word after any 0xFF byte (i.e. candidate
/// marker-segment length fields) never panics.
#[test]
fn corrupted_length_field_never_panics() {
    cases(CASES, |rng| {
        let which = rng.range(0usize..4);
        let val: u16 = rng.range(..);
        let mut bytes = corpus()[which].clone();
        let positions: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b == 0xFF && i + 3 < bytes.len())
            .map(|(i, _)| i)
            .collect();
        // Never empty: every stream opens with the SOC marker.
        let i = positions[rng.range(0..positions.len())];
        bytes[i + 2] = (val >> 8) as u8;
        bytes[i + 3] = (val & 0xFF) as u8;
        decode_both(&bytes);
    });
}

/// Pure random bytes (no valid structure at all) never panic.
#[test]
fn random_bytes_never_panic() {
    cases(CASES, |rng| {
        let mut bytes = vec![0u8; rng.range(0..512)];
        rng.fill(&mut bytes);
        decode_both(&bytes);
    });
}

/// Untouched corpus streams keep decoding bit-identically, including
/// across execution modes — the hardening work must not perturb the
/// happy path.
#[test]
fn untouched_streams_stay_bit_identical() {
    cases(CASES, |rng| {
        let which = rng.range(0usize..4);
        let workers = rng.range(1usize..4);
        let stream = &corpus()[which];
        let (a, _) = Decoder::default().decode(stream).expect("valid stream");
        let dec = Decoder {
            parallel: ParallelMode::WorkerPool { workers },
            ..Default::default()
        };
        let (b, _) = dec.decode(stream).expect("valid stream");
        assert_eq!(a, b);
    });
}
