//! Rate-control behaviour of the PCRD allocator through the public API:
//! budgets respected, quality monotone in rate, layering consistent.

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;

fn encode_at(img: &Image, bpp: f64) -> Vec<u8> {
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![bpp]),
        ..EncoderConfig::default()
    };
    Encoder::new(cfg).unwrap().encode(img).0
}

#[test]
fn body_budget_is_respected_with_bounded_overhead() {
    let img = synth::natural_gray(256, 256, 10);
    for bpp in [0.0625, 0.125, 0.25, 0.5, 1.0, 2.0] {
        let bytes = encode_at(&img, bpp);
        let budget = (bpp * img.pixels() as f64 / 8.0) as usize;
        // Headers (markers, packet headers, Kmax) add overhead on top of
        // the PCRD body budget; it must stay modest.
        assert!(
            bytes.len() <= budget + budget / 4 + 1200,
            "bpp {bpp}: {} bytes for body budget {budget}",
            bytes.len()
        );
    }
}

#[test]
fn psnr_is_monotone_in_rate() {
    let img = synth::natural_gray(256, 256, 20);
    let mut prev = 0.0;
    for bpp in [0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let bytes = encode_at(&img, bpp);
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        let q = psnr(&img, &out);
        assert!(q > prev, "bpp {bpp}: PSNR {q} <= {prev}");
        prev = q;
    }
    assert!(prev > 38.0, "4 bpp PSNR {prev}");
}

#[test]
fn layered_equals_single_layer_at_matching_rate() {
    // Decoding k layers of a multi-layer stream should be close to a
    // single-layer encode at the same rate (PCRD sees the same slopes).
    let img = synth::natural_gray(192, 192, 30);
    let layered_cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![0.25, 1.0]),
        ..EncoderConfig::default()
    };
    let (layered, _) = Encoder::new(layered_cfg).unwrap().encode(&img);
    let dec1 = Decoder {
        max_layers: Some(1),
        ..Decoder::default()
    };
    let (out_l1, _) = dec1.decode(&layered).unwrap();
    let q_layered = psnr(&img, &out_l1);

    let single = encode_at(&img, 0.25);
    let (out_s, _) = Decoder::default().decode(&single).unwrap();
    let q_single = psnr(&img, &out_s);
    assert!(
        (q_layered - q_single).abs() < 1.5,
        "layer-1 {q_layered} vs single {q_single}"
    );
}

#[test]
fn ten_layer_staircase_is_monotone() {
    let img = synth::natural_gray(128, 128, 40);
    let rates: Vec<f64> = (1..=10).map(|i| 0.1 * f64::from(i) * 4.0).collect();
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(rates),
        ..EncoderConfig::default()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let mut prev = 0.0;
    for layers in 1..=10 {
        let dec = Decoder {
            max_layers: Some(layers),
            ..Decoder::default()
        };
        let (out, _) = dec.decode(&bytes).unwrap();
        let q = psnr(&img, &out);
        assert!(q >= prev - 1e-9, "layers={layers}: {q} < {prev}");
        prev = q;
    }
}

#[test]
fn tiny_budget_still_produces_a_valid_stream() {
    let img = synth::natural_gray(128, 128, 50);
    let bytes = encode_at(&img, 0.01); // ~20 bytes of body
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert_eq!(out.width(), 128);
    // Quality will be terrible but the pipeline must not collapse.
    assert!(psnr(&img, &out) > 5.0);
}

#[test]
fn rate_control_interacts_with_tiles() {
    // Budgets are split per tile by pixel share; total must stay bounded.
    let img = synth::natural_gray(256, 128, 60);
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![0.5]),
        tiles: Some((128, 128)),
        ..EncoderConfig::default()
    };
    let (bytes, _) = Encoder::new(cfg).unwrap().encode(&img);
    let budget = (0.5 * img.pixels() as f64 / 8.0) as usize;
    assert!(
        bytes.len() <= budget + budget / 3 + 2400,
        "{} bytes vs budget {budget}",
        bytes.len()
    );
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    assert!(psnr(&img, &out) > 20.0);
}

#[test]
fn lossless_stream_beats_any_lossy_quality() {
    let img = synth::natural_gray(96, 96, 70);
    let lossless_cfg = EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        ..EncoderConfig::default()
    };
    let (ll, _) = Encoder::new(lossless_cfg).unwrap().encode(&img);
    let (out, _) = Decoder::default().decode(&ll).unwrap();
    assert_eq!(psnr(&img, &out), f64::INFINITY);
    let lossy = encode_at(&img, 2.0);
    let (out_lossy, _) = Decoder::default().decode(&lossy).unwrap();
    assert!(psnr(&img, &out_lossy).is_finite());
}
