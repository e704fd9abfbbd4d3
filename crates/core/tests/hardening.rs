//! Untrusted-input hardening: byte-level mutation sweeps over valid
//! codestreams (DESIGN.md §9).
//!
//! Every test here asserts the same contract: `Decoder::decode` over
//! arbitrary corrupted bytes returns `Ok` or `Err` — it never panics and
//! never attempts an input-disproportionate allocation. The mutations are
//! deterministic (fixed `testkit::Rng` seeds); `prop_hardening.rs` samples
//! the same properties over many seeded cases.

use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode, RateControl};
use pj2k_dwt::Wavelet;
use pj2k_testkit::{synth, Rng};

/// Small but structurally rich corpus: tiles, layers and both wavelets
/// exercise different header paths.
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

fn decode_must_not_panic(bytes: &[u8], what: &str) {
    // The contract is the *absence of a panic* (and of an OOM abort): both
    // Ok and Err are acceptable outcomes for corrupted input.
    let _ = Decoder::default().decode(bytes);
    // And once with spawned Tier-1 workers, whose error paths (a parse
    // failure with workers parked on the block queue, a worker failing
    // mid-drain) the inline decode above does not have;
    // `decode_pipeline_shutdown.rs` adds deadline guards on top of the
    // same corpus.
    let dec = Decoder {
        parallel: ParallelMode::WorkerPool { workers: 3 },
        ..Default::default()
    };
    if let Err(e) = dec.decode(bytes) {
        // Errors must render without panicking too.
        let _ = format!("{what}: {e}");
    }
}

#[test]
fn truncation_sweep_never_panics() {
    for (ci, stream) in corpus().iter().enumerate() {
        for cut in 0..stream.len() {
            let _ = Decoder::default().decode(&stream[..cut]);
        }
        // Over-long input (trailing garbage) must error cleanly, not read
        // past the logical end.
        let mut extended = stream.clone();
        extended.extend_from_slice(&[0xFF; 64]);
        decode_must_not_panic(&extended, &format!("corpus {ci} extended"));
    }
}

#[test]
fn bit_flip_sweep_never_panics() {
    let corpus = corpus();
    let mut rng = Rng::new(0x5EED_0001);
    let mut tried = 0usize;
    while tried < 6_000 {
        let stream = &corpus[rng.range(0..corpus.len())];
        let mut bytes = stream.clone();
        // 1..=3 independent bit flips per mutant.
        for _ in 0..rng.range(1..=3) {
            let i = rng.range(0..bytes.len());
            bytes[i] ^= 1 << rng.range(0..8);
        }
        decode_must_not_panic(&bytes, &format!("bit-flip seed iter {tried}"));
        tried += 1;
    }
}

#[test]
fn byte_splice_sweep_never_panics() {
    let corpus = corpus();
    let mut rng = Rng::new(0x5EED_0002);
    for iter in 0..2_000 {
        let a = &corpus[rng.range(0..corpus.len())];
        let b = &corpus[rng.range(0..corpus.len())];
        // Random prefix of a + random suffix of b: valid marker structure
        // with inconsistent bodies.
        let cut_a = rng.range(0..a.len());
        let cut_b = rng.range(0..b.len());
        let mut bytes = a[..cut_a].to_vec();
        bytes.extend_from_slice(&b[cut_b..]);
        decode_must_not_panic(&bytes, &format!("splice iter {iter}"));
    }
}

#[test]
fn length_field_corruption_never_panics() {
    // Marker-segment length fields are the classic parser attack surface:
    // walk the stream, find each 0xFF-marker, and clobber the two length
    // bytes that follow with adversarial values.
    let corpus = corpus();
    let mut count = 0usize;
    for stream in &corpus {
        for i in 0..stream.len().saturating_sub(3) {
            if stream[i] != 0xFF {
                continue;
            }
            for val in [0u16, 1, 2, 3, 0x00FF, 0x7FFF, 0xFFFF] {
                let mut bytes = stream.clone();
                bytes[i + 2] = (val >> 8) as u8;
                bytes[i + 3] = (val & 0xFF) as u8;
                decode_must_not_panic(&bytes, &format!("len {val:#x} at {i}"));
                count += 1;
            }
        }
    }
    // Valid streams contain few 0xFF bytes (MQ byte-stuffing avoids
    // emitting them), so the position count is modest; ~1.2k mutants in
    // practice. The floor just catches a degenerate corpus.
    assert!(count > 500, "corpus too small to be meaningful: {count}");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng::new(0x5EED_0003);
    for iter in 0..2_000 {
        let len = rng.range(0..512);
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes);
        decode_must_not_panic(&bytes, &format!("garbage iter {iter}"));
    }
    // All-0xFF strings of every length: nothing but marker prefixes.
    for len in 0..256 {
        let bytes = vec![0xFFu8; len];
        decode_must_not_panic(&bytes, &format!("all-FF len {len}"));
    }
}

#[test]
fn untouched_streams_decode_bit_identically() {
    for stream in corpus() {
        let (a, _) = Decoder::default().decode(&stream).expect("valid stream");
        let (b, _) = Decoder::default().decode(&stream).expect("valid stream");
        assert_eq!(a, b, "repeated decodes must agree bit-for-bit");
        let dec = Decoder {
            parallel: ParallelMode::WorkerPool { workers: 2 },
            ..Default::default()
        };
        let (c, _) = dec.decode(&stream).expect("valid stream");
        assert_eq!(a, c, "parallel decode must agree bit-for-bit");
    }
}

/// Corpus exporter for the fuzzing harness: `fuzz/seed_corpus.sh` runs
/// this (ignored) test with `PJ2K_SEED_DIR` set to drop the same encoded
/// streams the mutation sweeps use into the cargo-fuzz corpus directory.
#[test]
#[ignore = "only run by fuzz/seed_corpus.sh to export the seed corpus"]
fn write_fuzz_seed_corpus() {
    let dir = std::env::var("PJ2K_SEED_DIR").expect("PJ2K_SEED_DIR must point at the corpus dir");
    for (i, stream) in corpus().iter().enumerate() {
        std::fs::write(format!("{dir}/seed-{i}.j2k"), stream).expect("write seed");
    }
}

// --- regression fixtures ---------------------------------------------------
// Each fixture is a minimal input that triggered a panic or an unbounded
// allocation in a pre-hardening decoder. They are kept as explicit byte
// sequences so the exact bad input stays pinned even if the writers evolve.

mod fixtures {
    use super::*;
    use pj2k_core::config::Tier1Options;
    use pj2k_core::CodecError;
    use pj2k_tier2::codestream::{self, MarkerWriter, PayloadWriter};

    fn header(w: u32, h: u32, tiles: (u32, u32), cb: (u16, u16)) -> MarkerWriter {
        let mut m = MarkerWriter::new();
        m.marker(codestream::SOC);
        let mut p = PayloadWriter::new();
        p.u32(w);
        p.u32(h);
        p.u8(1);
        p.u8(8);
        p.u8(0);
        p.u32(tiles.0);
        p.u32(tiles.1);
        m.segment(codestream::SIZ, &p.finish());
        let mut p = PayloadWriter::new();
        p.u8(0);
        p.u8(2);
        p.u16(cb.0);
        p.u16(cb.1);
        p.u16(1);
        p.u8(0);
        m.segment(codestream::COD, &p.finish());
        let mut p = PayloadWriter::new();
        p.f64(0.5);
        m.segment(codestream::QCD, &p.finish());
        m
    }

    /// Pre-hardening, a zero-length COD payload made the parser read
    /// fields past the segment end (`expect_segment` accepted any
    /// `len >= 2`).
    #[test]
    fn empty_cod_payload_errors_cleanly() {
        let bytes: &[u8] = &[
            0xFF, 0x4F, // SOC
            0xFF, 0x51, 0x00, 0x15, // SIZ, len 21 (19-byte payload)
            0, 0, 0, 16, 0, 0, 0, 16, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0x52, 0x00,
            0x02, // COD with EMPTY payload
            0xFF, 0xD9, // EOC
        ];
        assert!(Decoder::default().decode(bytes).is_err());
    }

    /// Same for QCD: an empty quantization segment must not underflow the
    /// payload reader.
    #[test]
    fn empty_qcd_payload_errors_cleanly() {
        let bytes: &[u8] = &[
            0xFF, 0x4F, // SOC
            0xFF, 0x51, 0x00, 0x15, // SIZ
            0, 0, 0, 16, 0, 0, 0, 16, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0x52, 0x00,
            0x0B, // COD, 9-byte payload
            0, 2, 0, 64, 0, 64, 0, 1, 0, //
            0xFF, 0x5C, 0x00, 0x02, // QCD with EMPTY payload
            0xFF, 0xD9, // EOC
        ];
        assert!(Decoder::default().decode(bytes).is_err());
    }

    /// A segment whose declared length runs past the end of the stream.
    #[test]
    fn overrunning_segment_length_errors_cleanly() {
        let bytes: &[u8] = &[
            0xFF, 0x4F, // SOC
            0xFF, 0x51, 0xFF, 0xFF, // SIZ claiming a 65533-byte payload
            1, 2, 3,
        ];
        assert!(Decoder::default().decode(bytes).is_err());
    }

    /// Pre-hardening, a header claiming a maximal image over 1x1 tiles
    /// reserved 2^28 tile slots up front; it must now fail on the missing
    /// tile data without ballooning memory.
    #[test]
    fn huge_tile_grid_fails_fast() {
        let bytes = header(16384, 16384, (1, 1), (64, 64)).finish();
        assert!(Decoder::default().decode(&bytes).is_err());
    }

    /// A maximal untiled image with minimal 4x4 code-blocks describes
    /// ~2^24 blocks in a ~60-byte stream; the block budget must reject it
    /// before any per-block state is allocated.
    #[test]
    fn implausible_block_count_fails_fast() {
        let mut m = header(16384, 16384, (0, 0), (4, 4));
        let mut p = PayloadWriter::new();
        p.u32(0);
        p.u32(0);
        m.segment(codestream::SOT, &p.finish());
        m.marker(codestream::SOD);
        m.marker(codestream::EOC);
        assert!(Decoder::default().decode(&m.finish()).is_err());
    }

    /// The COD style byte has two legal values, 0 (default) and 4
    /// (selective bypass); the other ISO 15444-1 code-block styles are not
    /// implemented, so every other byte is an `Invalid` stream naming the
    /// byte. Table over all 256 bytes, in an otherwise valid stream of
    /// each style.
    #[test]
    fn rejected_style_flag() {
        // SOC (2), SIZ with its length and 19-byte payload (23), COD and
        // its length (4), then the 8 COD bytes before the style byte.
        const COD_STYLE_AT: usize = 37;
        let img = synth::natural_gray(24, 20, 8);
        for bypass in [false, true] {
            let cfg = EncoderConfig {
                wavelet: Wavelet::Reversible53,
                rate: RateControl::Lossless,
                levels: 2,
                tier1: Tier1Options { bypass },
                ..Default::default()
            };
            let stream = Encoder::new(cfg).unwrap().encode(&img).0;
            let own = stream[COD_STYLE_AT];
            assert_eq!(own, u8::from(bypass) << 2);
            for flags in 0..=u8::MAX {
                let mut bytes = stream.clone();
                bytes[COD_STYLE_AT] = flags;
                let got = Decoder::default().decode(&bytes);
                match flags {
                    // The other legal style reads the same passes with the
                    // other entropy sources: wrong pixels, but no error.
                    0 | 4 => {
                        let (out, _) = got.unwrap_or_else(|e| panic!("flags {flags}: {e}"));
                        if flags == own {
                            assert_eq!(out, img, "flags {flags}");
                        }
                    }
                    _ => match got {
                        Err(CodecError::Invalid(msg)) => {
                            assert!(msg.contains(&format!("{flags:#04x}")), "{msg}")
                        }
                        other => panic!("flags {flags}: {:?}", other.map(|_| ())),
                    },
                }
            }
        }
    }

    /// Tile body full of 0xEF/0x7F patterns: an implausible Kmax table
    /// followed by packet headers that keep the "another pass" and
    /// "Lblock grows" bits set (the pattern that drove the pre-hardening
    /// Lblock accumulator up without bound — see the packet-level
    /// regression test `runaway_lblock_is_an_error_not_garbage`).
    #[test]
    fn runaway_lblock_errors_cleanly() {
        let mut m = header(16, 16, (0, 0), (64, 64));
        let mut p = PayloadWriter::new();
        p.u32(0);
        p.u32(64);
        m.segment(codestream::SOT, &p.finish());
        m.marker(codestream::SOD);
        let mut bytes = m.finish();
        bytes.extend((0..32).flat_map(|_| [0xEF, 0x7F]));
        bytes.extend_from_slice(&[0xFF, 0xD9]);
        assert!(Decoder::default().decode(&bytes).is_err());
    }
}
