//! Property tests for the full codec: lossless exactness on arbitrary
//! inputs, lossy totality, and decoder robustness against corruption.

use pj2k_core::config::{Roi, Tier1Engine};
use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode, RateControl, Wavelet};
use pj2k_image::{metrics, Image, Plane};
use pj2k_testkit::{cases, synth, Rng};

fn arb_image(rng: &mut Rng) -> Image {
    let (w, h) = (rng.range(1..48), rng.range(1..48));
    Image::gray8(Plane::from_fn(w, h, |_, _| rng.range(0..256)))
}

const CASES: u32 = 24;

/// Lossless coding is bit exact for any image content, size, level
/// count and code-block shape.
#[test]
fn lossless_always_exact() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let levels = rng.range(0u8..6);
        let cb_pow = rng.range(2u32..7);
        let cb = 1usize << cb_pow;
        let cfg = EncoderConfig {
            wavelet: Wavelet::Reversible53,
            rate: RateControl::Lossless,
            levels,
            code_block: (cb, (4096 / cb).clamp(4, 64)),
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(metrics::max_abs_error(&img, &out), 0);
    });
}

/// Lossy coding is total and quality is bounded below at decent rates.
#[test]
fn lossy_is_total_and_sane() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let bpp = rng.range_f64(0.1f64..6.0);
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![bpp]),
            levels: 3,
            ..EncoderConfig::default()
        };
        let (bytes, report) = Encoder::new(cfg).unwrap().encode(&img);
        assert!(report.bytes == bytes.len());
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
        // Reconstruction stays in range (clamped to depth).
        for v in out.component(0).samples() {
            assert!((0..=255).contains(&v));
        }
    });
}

/// Truncating the stream anywhere yields an error, never a panic.
#[test]
fn decoder_survives_truncation() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let frac = rng.range_f64(0.0f64..1.0);
        let cfg = EncoderConfig {
            levels: 2,
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = Decoder::default().decode(&bytes[..cut]);
    });
}

/// Flipping a byte anywhere yields either an error or a decoded image,
/// never a panic (decoder totality under corruption).
#[test]
fn decoder_survives_corruption() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let pos_seed = rng.range(..);
        let xor = rng.range(1u8..=255);
        check_corruption(&img, pos_seed, xor);
    });
}

fn check_corruption(img: &Image, pos_seed: u64, xor: u8) {
    let cfg = EncoderConfig {
        levels: 2,
        ..EncoderConfig::default()
    };
    let (mut bytes, _) = Encoder::new(cfg).unwrap().encode(img);
    if bytes.is_empty() {
        return;
    }
    let pos = (pos_seed % bytes.len() as u64) as usize;
    bytes[pos] ^= xor;
    let _ = Decoder::default().decode(&bytes);
}

/// Inputs once recorded as panicking the decoder, kept as explicit cases.
#[test]
fn decoder_survives_corruption_regression_19x27() {
    let img = Image::gray8(Plane::from_fn(19, 27, |x, y| REGRESSION_19X27[y * 19 + x]));
    check_corruption(&img, 4361412939294653671, 64);
}

#[test]
fn decoder_survives_corruption_regression_4x10() {
    let img = Image::gray8(Plane::from_fn(4, 10, |x, y| REGRESSION_4X10[y * 4 + x]));
    check_corruption(&img, 3487118254581580605, 208);
}

fn pooled(workers: usize, max_layers: Option<usize>) -> Decoder {
    Decoder {
        parallel: ParallelMode::WorkerPool { workers },
        max_layers,
        ..Decoder::default()
    }
}

/// The decoder (DESIGN.md §15) gives the same pixels and counts the same
/// blocks at every worker count: over wavelet x layers x tiles x ROI x
/// `max_layers` on a fixed image, then over arbitrary image content, level
/// counts and both Tier-1 encoder engines.
#[test]
fn decode_is_worker_count_invariant() {
    let img = synth::natural_gray(100, 80, 17);
    let roi = Roi {
        x0: 16,
        y0: 16,
        w: 32,
        h: 32,
    };
    for lossless in [true, false] {
        for rates in [vec![2.0], vec![0.25, 1.0, 3.0]] {
            // Lossless streams carry one layer; skip the duplicate.
            if lossless && rates.len() > 1 {
                continue;
            }
            for tiles in [None, Some((64, 64))] {
                for roi in [None, Some(roi)] {
                    let cfg = EncoderConfig {
                        wavelet: if lossless {
                            Wavelet::Reversible53
                        } else {
                            Wavelet::Irreversible97
                        },
                        rate: if lossless {
                            RateControl::Lossless
                        } else {
                            RateControl::TargetBpp(rates.clone())
                        },
                        levels: 3,
                        tiles,
                        roi,
                        ..EncoderConfig::default()
                    };
                    let (bytes, _) = Encoder::new(cfg.clone()).unwrap().encode(&img);
                    for max_layers in [None, Some(1)] {
                        let sequential = Decoder {
                            max_layers,
                            ..Decoder::default()
                        };
                        let (want, want_report) = sequential.decode(&bytes).unwrap();
                        for workers in [1usize, 2, 3, 5] {
                            let (got, report) = pooled(workers, max_layers).decode(&bytes).unwrap();
                            let what = format!("{cfg:?} max_layers={max_layers:?} p={workers}");
                            assert_eq!(want, got, "{what}");
                            assert_eq!(want_report.num_blocks, report.num_blocks, "{what}");
                        }
                    }
                }
            }
        }
    }
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let levels = rng.range(0u8..5);
        let workers = rng.range(1usize..6);
        let reference_engine = rng.bool();
        let lossless = rng.bool();
        let cfg = EncoderConfig {
            wavelet: if lossless {
                Wavelet::Reversible53
            } else {
                Wavelet::Irreversible97
            },
            rate: if lossless {
                RateControl::Lossless
            } else {
                RateControl::TargetBpp(vec![1.5])
            },
            levels,
            tier1_engine: if reference_engine {
                Tier1Engine::Reference
            } else {
                Tier1Engine::Bitplane
            },
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (sequential, sequential_report) = Decoder::default().decode(&bytes).unwrap();
        let (parallel, report) = pooled(workers, None).decode(&bytes).unwrap();
        assert_eq!(&sequential, &parallel);
        // `num_blocks` counts Tier-1 jobs; an image whose blocks all code
        // zero passes has none, at any worker count.
        assert_eq!(report.num_blocks, sequential_report.num_blocks);
    });
}

/// The codestream is deterministic: same input, same bytes.
#[test]
fn encoding_is_deterministic() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let cfg = EncoderConfig {
            levels: 3,
            ..EncoderConfig::default()
        };
        let enc = Encoder::new(cfg).unwrap();
        let (a, _) = enc.encode(&img);
        let (b, _) = enc.encode(&img);
        assert_eq!(a, b);
    });
}

const REGRESSION_19X27: [i32; 513] = [
    30, 123, 216, 100, 221, 200, 247, 144, 191, 179, 129, 207, 226, 227, 172, 241, 80, 208, 133,
    57, 237, 113, 99, 164, 214, 104, 104, 112, 252, 13, 167, 55, 171, 164, 249, 50, 151, 10, 234,
    78, 189, 199, 81, 28, 182, 43, 214, 229, 65, 4, 30, 22, 21, 94, 220, 10, 6, 123, 44, 107, 77,
    177, 155, 25, 35, 252, 125, 128, 160, 151, 46, 122, 247, 23, 188, 18, 145, 110, 218, 159, 213,
    231, 30, 182, 244, 40, 203, 252, 58, 205, 38, 55, 85, 193, 43, 123, 146, 95, 53, 87, 16, 40, 7,
    244, 35, 116, 16, 81, 214, 5, 242, 212, 244, 73, 10, 81, 162, 184, 189, 68, 6, 122, 189, 21,
    154, 199, 220, 207, 101, 126, 178, 161, 179, 219, 146, 111, 48, 39, 185, 243, 62, 45, 70, 226,
    236, 147, 5, 109, 2, 86, 214, 235, 231, 202, 132, 159, 194, 34, 4, 8, 209, 64, 95, 225, 153, 9,
    151, 33, 11, 55, 195, 42, 199, 193, 19, 103, 146, 230, 167, 93, 23, 68, 83, 160, 199, 52, 122,
    39, 67, 121, 178, 235, 180, 172, 26, 117, 46, 160, 209, 242, 220, 47, 205, 95, 42, 114, 90, 70,
    230, 198, 92, 60, 216, 208, 158, 174, 255, 232, 194, 148, 147, 178, 33, 225, 250, 78, 82, 88,
    198, 246, 182, 43, 206, 102, 141, 208, 204, 124, 6, 62, 55, 67, 62, 112, 127, 239, 208, 105,
    219, 215, 224, 195, 227, 108, 154, 65, 125, 32, 161, 92, 184, 34, 202, 165, 80, 198, 195, 177,
    49, 219, 155, 243, 196, 153, 107, 168, 98, 80, 196, 28, 159, 54, 112, 103, 75, 243, 231, 35,
    108, 239, 230, 234, 235, 213, 96, 121, 217, 18, 184, 201, 243, 10, 97, 130, 227, 97, 234, 91,
    63, 247, 158, 119, 7, 136, 104, 100, 127, 184, 55, 170, 40, 67, 223, 70, 236, 171, 237, 44, 42,
    176, 59, 148, 47, 47, 12, 142, 157, 45, 251, 197, 21, 84, 213, 130, 72, 36, 204, 178, 3, 73,
    142, 219, 175, 200, 73, 71, 128, 10, 207, 98, 18, 234, 22, 220, 124, 219, 234, 204, 217, 185,
    250, 105, 115, 213, 192, 8, 155, 61, 237, 186, 221, 197, 174, 228, 120, 48, 117, 154, 182, 113,
    154, 10, 176, 187, 14, 224, 92, 61, 140, 25, 249, 138, 182, 15, 79, 3, 162, 137, 56, 104, 35,
    53, 201, 217, 131, 240, 217, 159, 104, 129, 124, 87, 225, 16, 54, 21, 92, 237, 48, 217, 242, 1,
    0, 28, 78, 65, 84, 21, 50, 165, 220, 163, 6, 141, 235, 47, 12, 114, 235, 143, 112, 16, 177,
    122, 129, 134, 47, 165, 169, 127, 172, 193, 54, 212, 52, 130, 138, 78, 186, 8, 168, 16, 204,
    220, 45, 183, 2, 108, 199, 249, 234, 57, 70, 238, 184, 188, 113, 91, 59, 26, 136, 224, 200, 72,
    182, 50, 66, 146, 184, 196, 147, 57, 70, 254, 89, 249, 104, 154, 27, 163, 159, 123, 28,
];

const REGRESSION_4X10: [i32; 40] = [
    80, 253, 108, 183, 101, 130, 89, 156, 91, 236, 120, 40, 244, 242, 175, 108, 229, 232, 62, 54,
    106, 110, 154, 17, 244, 77, 105, 73, 87, 175, 90, 96, 197, 113, 82, 139, 116, 194, 102, 84,
];
