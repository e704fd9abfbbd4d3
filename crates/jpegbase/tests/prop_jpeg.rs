//! Property tests for the baseline JPEG comparator.

use pj2k_image::{Image, Plane};
use pj2k_jpegbase::bitstream::{BitReader, BitWriter};
use pj2k_jpegbase::huffman::HuffTable;
use pj2k_jpegbase::{decode, encode};
use pj2k_testkit::{cases, Rng};

fn arb_image(rng: &mut Rng) -> Image {
    let (w, h) = (rng.range(1..48), rng.range(1..48));
    let noise = |rng: &mut Rng| Plane::from_fn(w, h, |_, _| rng.range(0..256));
    match rng.range(0u8..3) {
        0 => Image::gray8(noise(rng)),
        1 => Image::gray8(Plane::from_fn(w, h, |x, y| {
            // smooth content
            (((x * 255) / w + (y * 255) / h) / 2) as i32
        })),
        _ => Image::rgb8(noise(rng), noise(rng), noise(rng)),
    }
}

const CASES: u32 = 48;

/// Every encode decodes to an image of the same geometry with samples
/// in range, at any quality.
#[test]
fn encode_decode_total() {
    cases(CASES, |rng| {
        let img = arb_image(rng);
        let quality = rng.range(1u8..=100);
        let bytes = encode(&img, quality).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
        assert_eq!(out.num_components(), img.num_components());
        for c in 0..out.num_components() {
            for v in out.component(c).samples() {
                assert!((0..=255).contains(&v));
            }
        }
    });
}

/// High quality on smooth content reconstructs accurately.
#[test]
fn q95_is_accurate_on_smooth() {
    cases(CASES, |rng| {
        let w = rng.range(8usize..40);
        let h = rng.range(8usize..40);
        let img = Image::gray8(Plane::from_fn(w, h, |x, y| {
            (128.0 + 60.0 * ((x as f64) / 9.0).sin() + 40.0 * ((y as f64) / 7.0).cos()) as i32
        }));
        let bytes = encode(&img, 95).unwrap();
        let out = decode(&bytes).unwrap();
        let psnr = pj2k_image::metrics::psnr(&img, &out);
        assert!(psnr > 35.0, "q95 PSNR {}", psnr);
    });
}

/// The decoder is total on arbitrary garbage.
#[test]
fn decoder_is_total() {
    cases(CASES, |rng| {
        let mut bytes = vec![0u8; rng.range(0..400)];
        rng.fill(&mut bytes);
        let _ = decode(&bytes);
    });
}

/// Bit-corrupted streams never panic the decoder.
#[test]
fn decoder_survives_corruption() {
    cases(CASES, |rng| {
        let seed = rng.range(..);
        let xor = rng.range(1u8..=255);
        check_corruption(seed, xor);
    });
}

fn check_corruption(seed: u64, xor: u8) {
    let img = Image::gray8(Plane::from_fn(24, 24, |x, y| {
        ((x * 11 + y * 5) % 256) as i32
    }));
    let mut bytes = encode(&img, 60).unwrap();
    let pos = (seed % bytes.len() as u64) as usize;
    bytes[pos] ^= xor;
    let _ = decode(&bytes);
}

/// Input once recorded as panicking the decoder, kept as an explicit case.
#[test]
fn decoder_survives_corruption_regression_low_bit_flip() {
    check_corruption(5294663094726696537, 1);
}

/// Huffman tables round-trip arbitrary symbol streams (including via
/// their DHT serialization).
#[test]
fn huffman_roundtrip() {
    cases(CASES, |rng| {
        let len = rng.range(1..2000);
        let symbols = rng.vec(len, |r| r.range(0u8..40));
        let mut freq = [0u64; 256];
        for &s in &symbols {
            freq[s as usize] += 1;
        }
        let table = HuffTable::optimized(&freq);
        let (table2, _) = HuffTable::from_bytes(&table.to_bytes());
        let mut w = BitWriter::new();
        for &s in &symbols {
            table.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(table2.decode(&mut r), s);
        }
    });
}

/// Code lengths never exceed 16 bits, whatever the skew.
#[test]
fn huffman_respects_length_limit() {
    cases(CASES, |rng| {
        let len = rng.range(2..80);
        let weights = rng.vec(len, |r| r.range(0u64..u64::MAX / 1024));
        let mut freq = [0u64; 256];
        for (i, &wt) in weights.iter().enumerate() {
            freq[i] = wt.max(1);
        }
        let table = HuffTable::optimized(&freq);
        let total: usize = table.bits[1..].iter().map(|&b| b as usize).sum();
        assert_eq!(total, weights.len());
    });
}
