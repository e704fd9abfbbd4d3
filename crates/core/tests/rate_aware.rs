//! Rate-aware Tier-1 (DESIGN.md §18) must not change a single output byte:
//! every codestream here is compared with the one `with_full_coding`
//! produces by coding every pass of every block and letting PCRD discard
//! what it does not keep.

use pj2k_core::config::{Tier1Engine, Tier1Options};
use pj2k_core::{
    EncodeReport, Encoder, EncoderConfig, ParallelMode, RateControl, Roi, RoundKind, Wavelet,
};
use pj2k_image::{Image, Plane};
use pj2k_testkit::{cases, synth, Rng};

/// Encode `img` both ways, assert the bytes and the pass accounting agree,
/// and return the rate-aware side.
fn assert_identical(img: &Image, cfg: &EncoderConfig, what: &str) -> (Vec<u8>, EncodeReport) {
    let (fast, report) = Encoder::new(cfg.clone()).unwrap().encode(img);
    let (full, oracle) = Encoder::new(cfg.clone())
        .unwrap()
        .with_full_coding()
        .encode(img);
    assert!(fast == full, "{what}: codestreams differ ({cfg:?})");
    assert_eq!(report.num_blocks, oracle.num_blocks, "{what}: blocks");
    assert_eq!(report.total_passes, oracle.total_passes, "{what}: nominal");
    assert_eq!(report.kept_passes, oracle.kept_passes, "{what}: kept");
    assert_eq!(oracle.coded_passes, oracle.total_passes, "{what}: oracle");
    assert_eq!(oracle.tier1_rounds, 1, "{what}: oracle rounds");
    assert!(report.kept_passes <= report.coded_passes, "{what}");
    assert_eq!(report.block_times.len(), report.num_blocks, "{what}");
    // The two-stage pilot certifies the threshold of the pilot coded in
    // full, to the bit. Its envelope is never above that pilot's (a hull
    // prefix has no steeper normalised increment than the whole hull) and
    // equal to it unless a stage-2 block hides, below its floor, a plane
    // steeper than the envelope — DESIGN.md §18's one assumption.
    assert_eq!(
        report.pilot_estimates.len(),
        oracle.pilot_estimates.len(),
        "{what}: pilot estimates"
    );
    for (&(lambda, envelope), &(want_lambda, want_envelope)) in
        report.pilot_estimates.iter().zip(&oracle.pilot_estimates)
    {
        assert_eq!(lambda.to_bits(), want_lambda.to_bits(), "{what}: λ̂");
        assert!(
            envelope <= want_envelope,
            "{what}: envelope {envelope} > {want_envelope}"
        );
    }
    (fast, report)
}

/// Kind, blocks and passes of every Tier-1 round (not its seconds).
fn rounds(report: &EncodeReport) -> Vec<(RoundKind, usize, usize)> {
    report
        .rounds
        .iter()
        .map(|r| (r.kind, r.blocks, r.passes))
        .collect()
}

/// Sizes from 1x1 through odd and non-multiples of the code-block.
fn arb_size(rng: &mut Rng) -> (usize, usize) {
    match rng.range(0u32..8) {
        0 => (rng.range(1usize..5), rng.range(1usize..5)),
        1 => (1, rng.range(1usize..200)),
        2 => (rng.range(1usize..200), 1),
        3 => (rng.range(60usize..70), rng.range(60usize..70)),
        _ => (rng.range(5usize..180), rng.range(5usize..180)),
    }
}

/// Natural imagery, noise, a flat field, or a smooth field with a few
/// isolated spikes (blocks with one large coefficient above quiet planes).
fn arb_image(rng: &mut Rng, w: usize, h: usize, rgb: bool) -> Image {
    let seed = rng.u64();
    let kind = rng.range(0u32..5);
    let plane = |c: u64| -> Plane<i32> {
        let mut r = Rng::new(seed ^ c);
        match kind {
            0 => Plane::from_fn(w, h, |_, _| r.range(0..256)),
            1 => Plane::from_fn(w, h, |_, _| 77),
            2 => {
                let amp = r.range(1i32..40);
                Plane::from_fn(w, h, |x, y| {
                    let spike = r.range(0u32..400) == 0;
                    let base = 100 + ((x + 2 * y) / 8) as i32 % 50 + r.range(-amp..=amp);
                    if spike {
                        255
                    } else {
                        base.clamp(0, 255)
                    }
                })
            }
            _ => synth::natural_gray(w, h, seed ^ c).component(0).clone(),
        }
    };
    if rgb {
        Image::rgb8(plane(1), plane(2), plane(3))
    } else {
        Image::gray8(plane(1))
    }
}

fn arb_rates(rng: &mut Rng) -> Vec<f64> {
    // Log-uniform 0.02..8 bpp, 1-3 strictly increasing layers.
    let top = 0.02 * 400f64.powf(rng.f64());
    match rng.range(1u32..4) {
        1 => vec![top],
        2 => vec![top * rng.range_f64(0.1..0.9), top],
        _ => vec![top * 0.2, top * rng.range_f64(0.3..0.8), top],
    }
}

fn arb_config(rng: &mut Rng, w: usize, h: usize) -> EncoderConfig {
    let cb = [16usize, 32, 64][rng.range(0usize..3)];
    let tiles =
        (rng.range(0u32..4) == 0).then(|| (rng.range(24usize..120), rng.range(24usize..120)));
    let roi = (rng.range(0u32..5) == 0).then(|| Roi {
        x0: rng.range(0..w),
        y0: rng.range(0..h),
        w: rng.range(1usize..64),
        h: rng.range(1usize..64),
    });
    EncoderConfig {
        wavelet: if rng.bool() {
            Wavelet::Irreversible97
        } else {
            Wavelet::Reversible53
        },
        levels: rng.range(0u8..6),
        code_block: (cb, cb),
        rate: RateControl::TargetBpp(arb_rates(rng)),
        tiles,
        roi,
        tier1: Tier1Options { bypass: rng.bool() },
        tier1_engine: if rng.bool() {
            Tier1Engine::Bitplane
        } else {
            Tier1Engine::Reference
        },
        ..EncoderConfig::default()
    }
}

/// The main identity suite: random size, content, components, wavelet,
/// rate, layers, block size, tiling, ROI, coding style and engine.
#[test]
fn rate_aware_bytes_equal_full_coding() {
    cases(300, |rng| {
        let (w, h) = arb_size(rng);
        let rgb = rng.range(0u32..3) == 0;
        let img = arb_image(rng, w, h, rgb);
        let cfg = arb_config(rng, w, h);
        assert_identical(&img, &cfg, &format!("{w}x{h} rgb={rgb}"));
    });
}

/// Both coding styles under both engines, on an image large enough that
/// most blocks stop early.
#[test]
fn every_coding_style_and_engine() {
    let img = synth::natural_gray(160, 144, 21);
    for engine in [Tier1Engine::Bitplane, Tier1Engine::Reference] {
        for bypass in [false, true] {
            let cfg = EncoderConfig {
                levels: 3,
                code_block: (16, 16),
                rate: RateControl::TargetBpp(vec![0.3, 1.1]),
                tier1: Tier1Options { bypass },
                tier1_engine: engine,
                ..EncoderConfig::default()
            };
            let (_, report) = assert_identical(&img, &cfg, &format!("{engine:?} bypass={bypass}"));
            assert!(
                report.coded_passes < report.total_passes,
                "nothing was skipped"
            );
        }
    }
}

/// Floors, pilot membership and rounds are functions of the image and the
/// configuration: every worker count, whatever order its workers finish
/// their blocks in, writes the same file and reports the same counts.
#[test]
fn workers_and_schedules_do_not_change_the_stream() {
    cases(6, |rng| {
        let (w, h) = (rng.range(90usize..200), rng.range(90usize..200));
        let rgb = rng.range(0u32..3) == 0;
        let img = arb_image(rng, w, h, rgb);
        let cfg = EncoderConfig {
            code_block: (16, 16),
            ..arb_config(rng, w, h)
        };
        assert_schedule_free(&img, &cfg);
    });
}

/// Encode `img` sequentially and under every worker count: the same file,
/// the same passes and the same rounds every time, however the workers'
/// blocks interleave.
fn assert_schedule_free(img: &Image, cfg: &EncoderConfig) {
    let (want, seq) = assert_identical(img, cfg, "sequential");
    for workers in [1usize, 2, 3, 5] {
        let cfg = EncoderConfig {
            parallel: ParallelMode::WorkerPool { workers },
            ..cfg.clone()
        };
        let (got, report) = Encoder::new(cfg).unwrap().encode(img);
        let what = format!("workers={workers}");
        assert!(got == want, "{what}: codestream differs");
        assert_eq!(report.coded_passes, seq.coded_passes, "{what}");
        assert_eq!(report.tier1_rounds, seq.tier1_rounds, "{what}");
        assert_eq!(rounds(&report), rounds(&seq), "{what}");
        assert_eq!(report.pilot_estimates, seq.pilot_estimates, "{what}");
    }
}

/// Pinned: busy stage-1 pilot blocks, quieter stage-2 blocks, a near-flat
/// rest. Stage 1 alone predicts a threshold high in the busy planes, so
/// stage 2 codes little or nothing; the whole pilot, where the busy blocks
/// weigh a quarter as much, puts the threshold several planes lower —
/// within reach of the planes stage 2 left uncoded. Certification has to
/// code them before the main round may use the estimate.
#[test]
fn certification_codes_the_stage_two_blocks_the_threshold_reaches() {
    let mut noise = Rng::new(7);
    let plane = Plane::from_fn(256, 256, |x, y| {
        // With no decomposition level the band is the image and its 16x16
        // block grid is the pilot lattice's: `bx + 3·by` mod 32 is stage
        // 1, mod 8 stage 2.
        let lattice = x / 16 + 3 * (y / 16);
        let amp = match (lattice % 32, lattice % 8) {
            (0, _) => 120,
            (_, 0) => 30,
            _ => 2,
        };
        (128 + noise.range(-amp..=amp)).clamp(0, 255)
    });
    let img = Image::gray8(plane);
    for wavelet in [Wavelet::Reversible53, Wavelet::Irreversible97] {
        for bpp in [1.0, 1.5] {
            let cfg = EncoderConfig {
                wavelet,
                levels: 0,
                code_block: (16, 16),
                rate: RateControl::TargetBpp(vec![bpp]),
                ..EncoderConfig::default()
            };
            let what = format!("{wavelet:?} at {bpp} bpp");
            let (_, report) = assert_identical(&img, &cfg, &what);
            assert!(
                report.rounds.iter().any(|r| r.kind == RoundKind::Certify),
                "{what}: no certify round in {:?}",
                rounds(&report)
            );
            assert_schedule_free(&img, &cfg);
        }
    }
}

/// Pinned: a block whose top planes hold one outlier coefficient above a
/// busy low range, between busy neighbours. Its first planes code almost
/// nothing at slopes far below the threshold and the planes that matter
/// come after, so a rule that stops when the *observed* slope has fallen
/// below the threshold cuts it short; the floor has to come from the
/// absolute plane index.
#[test]
fn sparse_top_plane_block_is_not_cut_short() {
    let mut noise = Rng::new(0x5EED);
    let plane = Plane::from_fn(128, 128, |x, y| {
        let quiet = (32..64).contains(&x) && (32..64).contains(&y);
        if (x, y) == (48, 48) {
            255
        } else if quiet {
            128 + noise.range(-6..=6)
        } else {
            128 + noise.range(-60..=60)
        }
    });
    let img = Image::gray8(plane);
    for bpp in [0.5, 1.5, 3.0, 5.0] {
        let cfg = EncoderConfig {
            levels: 2,
            code_block: (16, 16),
            rate: RateControl::TargetBpp(vec![bpp]),
            ..EncoderConfig::default()
        };
        assert_identical(&img, &cfg, &format!("outlier block at {bpp} bpp"));
    }
}

/// A budget that holds every pass leaves nothing to skip, and a budget of
/// (almost) nothing must still match.
#[test]
fn extreme_budgets() {
    let img = synth::natural_gray(96, 80, 4);
    for (bpp, all) in [(0.001, false), (0.01, false), (40.0, true)] {
        let cfg = EncoderConfig {
            levels: 3,
            code_block: (16, 16),
            rate: RateControl::TargetBpp(vec![bpp]),
            ..EncoderConfig::default()
        };
        let (_, report) = assert_identical(&img, &cfg, &format!("{bpp} bpp"));
        if all {
            assert_eq!(report.coded_passes, report.total_passes);
        }
    }
}

/// Lossless encodes take no new code path: every pass coded exactly once.
#[test]
fn lossless_codes_every_pass_once() {
    for img in [
        synth::natural_gray(70, 50, 8),
        synth::natural_rgb(40, 64, 9),
    ] {
        let cfg = EncoderConfig {
            wavelet: Wavelet::Reversible53,
            rate: RateControl::Lossless,
            levels: 3,
            code_block: (16, 16),
            ..EncoderConfig::default()
        };
        let (_, report) = Encoder::new(cfg).unwrap().encode(&img);
        assert!(report.total_passes > 0);
        assert_eq!(report.coded_passes, report.total_passes);
        assert_eq!(report.kept_passes, report.total_passes);
        assert_eq!(report.tier1_rounds, 1);
    }
}
