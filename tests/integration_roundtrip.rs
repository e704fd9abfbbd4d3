//! Cross-crate integration: full encode/decode pipelines over realistic
//! inputs, exercising image I/O, transforms, Tier-1/Tier-2 and the
//! codestream container together.

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;
use std::io::Cursor;

fn lossless_cfg() -> EncoderConfig {
    EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        ..EncoderConfig::default()
    }
}

#[test]
fn lossless_gray_all_shapes() {
    // Odd sizes, tiny sizes, non-square, sizes smaller than a code-block.
    for (w, h) in [
        (64, 64),
        (65, 63),
        (33, 97),
        (16, 16),
        (7, 5),
        (257, 128),
        (1, 64),
    ] {
        let img = synth::natural_gray(w, h, (w * 31 + h) as u64);
        let (bytes, _) = Encoder::new(lossless_cfg()).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(
            pj2k_suite::image::metrics::max_abs_error(&img, &out),
            0,
            "{w}x{h} must be bit exact"
        );
    }
}

#[test]
fn lossless_rgb_with_rct() {
    let img = synth::natural_rgb(96, 72, 5);
    let (bytes, _) = Encoder::new(lossless_cfg()).unwrap().encode(&img);
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(pj2k_suite::image::metrics::max_abs_error(&img, &out), 0);
    // And the stream is actually compressed.
    assert!(bytes.len() < img.pixels() * 3, "no compression achieved");
}

#[test]
fn lossless_survives_pnm_round_trip() {
    // PGM write -> read -> encode -> decode -> PGM write: byte-stable.
    let img = synth::natural_gray(80, 60, 9);
    let mut pgm = Vec::new();
    pj2k_suite::image::pnm::write(&mut pgm, &img).unwrap();
    let img2 = pj2k_suite::image::pnm::read(&mut Cursor::new(&pgm)).unwrap();
    assert_eq!(img, img2);
    let (bytes, _) = Encoder::new(lossless_cfg()).unwrap().encode(&img2);
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    let mut pgm2 = Vec::new();
    pj2k_suite::image::pnm::write(&mut pgm2, &out).unwrap();
    assert_eq!(pgm, pgm2);
}

#[test]
fn lossy_quality_reasonable_across_content() {
    for (name, img) in [
        ("natural", synth::natural_gray(128, 128, 77)),
        ("gradient", synth::gradient(128, 128)),
        ("checker8", synth::checkerboard(128, 128, 8)),
    ] {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![2.0]),
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        let q = psnr(&img, &out);
        assert!(q > 24.0, "{name}: 2 bpp PSNR {q}");
    }
}

#[test]
fn tiled_lossless_equals_untiled_content() {
    let img = synth::natural_gray(130, 94, 3);
    let cfg = EncoderConfig {
        tiles: Some((64, 64)),
        ..lossless_cfg()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(pj2k_suite::image::metrics::max_abs_error(&img, &out), 0);
}

#[test]
fn extreme_code_block_sizes() {
    let img = synth::natural_gray(128, 128, 8);
    for cb in [(4, 4), (64, 4), (4, 64), (32, 32), (1024, 4)] {
        let cfg = EncoderConfig {
            code_block: cb,
            ..lossless_cfg()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(
            pj2k_suite::image::metrics::max_abs_error(&img, &out),
            0,
            "code-block {cb:?}"
        );
    }
}

#[test]
fn level_sweep_including_zero() {
    let img = synth::natural_gray(100, 100, 4);
    for levels in [0u8, 1, 2, 5, 6] {
        let cfg = EncoderConfig {
            levels,
            ..lossless_cfg()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(
            pj2k_suite::image::metrics::max_abs_error(&img, &out),
            0,
            "levels={levels}"
        );
    }
}

#[test]
fn constant_image_is_tiny() {
    let img = Image::gray8(Plane::from_fn(256, 256, |_, _| 200));
    let (bytes, _) = Encoder::new(lossless_cfg()).unwrap().encode(&img);
    assert!(bytes.len() < 2500, "constant image: {} bytes", bytes.len());
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(pj2k_suite::image::metrics::max_abs_error(&img, &out), 0);
}

#[test]
fn comparator_codecs_roundtrip_same_inputs() {
    // The three codecs of Fig. 2 all work on the same source material.
    let img = synth::natural_gray(128, 128, 21);
    let j2k = {
        let (bytes, _) = Encoder::new(lossless_cfg()).unwrap().encode(&img);
        bytes
    };
    let jpg = pj2k_suite::jpegbase::encode(&img, 85).unwrap();
    let sp = pj2k_suite::spiht::encode(&img, 5, 2.0).unwrap();
    assert!(!j2k.is_empty() && !jpg.is_empty() && !sp.is_empty());
    assert!(pj2k_suite::jpegbase::decode(&jpg).is_ok());
    assert!(pj2k_suite::spiht::decode(&sp).is_ok());
}

#[test]
fn tier1_coding_styles_roundtrip_end_to_end() {
    use pj2k_suite::core::config::Tier1Options;
    let img = synth::natural_gray(96, 96, 33);
    for bypass in [false, true] {
        let cfg = EncoderConfig {
            tier1: Tier1Options { bypass },
            ..lossless_cfg()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(
            pj2k_suite::image::metrics::max_abs_error(&img, &out),
            0,
            "bypass={bypass}"
        );
    }
}

#[test]
fn tier1_style_flags_are_signalled_in_the_stream() {
    use pj2k_suite::core::config::Tier1Options;
    let img = synth::natural_gray(64, 64, 34);
    let mk = |bypass| {
        let cfg = EncoderConfig {
            tier1: Tier1Options { bypass },
            ..lossless_cfg()
        };
        Encoder::new(cfg).unwrap().encode(&img).0
    };
    let plain = mk(false);
    let styled = mk(true);
    assert_ne!(plain, styled, "styles must change the stream");
    // Both decode with no external hints: the header carries the flag.
    let (a, _) = Decoder::default().decode(&plain).unwrap();
    let (b, _) = Decoder::default().decode(&styled).unwrap();
    assert_eq!(a, b, "both must reconstruct the same lossless image");
}

#[test]
fn roi_lossless_stays_bit_exact() {
    use pj2k_suite::core::Roi;
    let img = synth::natural_gray(128, 96, 44);
    let cfg = EncoderConfig {
        roi: Some(Roi {
            x0: 40,
            y0: 30,
            w: 32,
            h: 24,
        }),
        ..lossless_cfg()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(
        pj2k_suite::image::metrics::max_abs_error(&img, &out),
        0,
        "MAXSHIFT must be transparent at full precision"
    );
}

#[test]
fn roi_region_gets_priority_at_low_rate() {
    use pj2k_suite::core::Roi;
    let img = synth::natural_gray(256, 256, 45);
    let roi = Roi {
        x0: 96,
        y0: 96,
        w: 64,
        h: 64,
    };
    let bpp = 0.2;
    let encode = |with_roi: bool| {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![bpp]),
            roi: with_roi.then_some(roi),
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
        Decoder::default().decode(&bytes).unwrap().0
    };
    let plain = encode(false);
    let prioritized = encode(true);
    // Compare quality inside the ROI (excluding the filter-margin fringe).
    let crop = |i: &Image| i.crop(roi.x0 + 8, roi.y0 + 8, roi.w - 16, roi.h - 16);
    let q_plain = psnr(&crop(&img), &crop(&plain));
    let q_roi = psnr(&crop(&img), &crop(&prioritized));
    assert!(
        q_roi > q_plain + 3.0,
        "ROI coding should lift region quality: {q_roi:.2} vs {q_plain:.2} dB"
    );
    // And the background pays for it.
    let bg_plain = psnr(&img.crop(0, 0, 64, 64), &plain.crop(0, 0, 64, 64));
    let bg_roi = psnr(&img.crop(0, 0, 64, 64), &prioritized.crop(0, 0, 64, 64));
    assert!(
        bg_roi < bg_plain + 0.5,
        "background must not improve: {bg_roi:.2} vs {bg_plain:.2} dB"
    );
}

#[test]
fn roi_with_tiling_roundtrips() {
    use pj2k_suite::core::Roi;
    let img = synth::natural_gray(100, 100, 46);
    let cfg = EncoderConfig {
        tiles: Some((64, 64)),
        roi: Some(Roi {
            x0: 50,
            y0: 50,
            w: 30,
            h: 30,
        }), // straddles all four tiles
        ..lossless_cfg()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(pj2k_suite::image::metrics::max_abs_error(&img, &out), 0);
}
