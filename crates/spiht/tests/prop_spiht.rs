//! Property tests for the SPIHT comparator.

use pj2k_image::{metrics, Image, Plane};
use pj2k_spiht::{decode, encode};
use pj2k_testkit::{cases, Rng};

fn arb_dyadic_image(rng: &mut Rng) -> Image {
    let n = 1usize << rng.range(2u32..7); // 4..64
    Image::gray8(Plane::from_fn(n, n, |_, _| rng.range(0..256)))
}

const CASES: u32 = 48;

/// With an unlimited budget the (5/3-based) coder is lossless.
#[test]
fn unlimited_budget_is_lossless() {
    cases(CASES, |rng| {
        let img = arb_dyadic_image(rng);
        let levels = rng.range(1u8..5);
        let bytes = encode(&img, levels, 64.0).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(metrics::max_abs_error(&img, &out), 0);
    });
}

/// Rate budgets are respected (header + ceil slack only).
#[test]
fn budget_respected() {
    cases(CASES, |rng| {
        let img = arb_dyadic_image(rng);
        let bpp = rng.range_f64(0.05f64..4.0);
        let bytes = encode(&img, 3, bpp).unwrap();
        let budget = (bpp * (img.pixels()) as f64 / 8.0) as usize;
        assert!(bytes.len() <= budget + 24, "{} vs {}", bytes.len(), budget);
        // and it decodes
        let out = decode(&bytes).unwrap();
        assert_eq!(out.width(), img.width());
    });
}

/// Decoding any truncation of a valid stream is total, and quality is
/// near-monotone in the received prefix. Exact monotonicity does not
/// hold at arbitrary byte cuts: the decoder reconstructs to the bin
/// midpoint of the last *fully received* plane, and a mid-pass cut can
/// land individual coefficients on luckier midpoints — so a modest
/// tolerance is part of the property, not a defect.
#[test]
fn truncations_are_total() {
    cases(CASES, |rng| {
        let img = arb_dyadic_image(rng);
        check_truncation(&img, rng.range_f64(0.1f64..1.0));
    });
}

fn check_truncation(img: &Image, frac: f64) {
    let bytes = encode(img, 3, 8.0).unwrap();
    let cut = 19 + (((bytes.len() - 19) as f64) * frac) as usize;
    let truncated = decode(&bytes[..cut]).unwrap();
    let full = decode(&bytes).unwrap();
    let mse_trunc = metrics::mse(img, &truncated);
    let mse_full = metrics::mse(img, &full);
    assert!(
        mse_full <= mse_trunc * 1.5 + 1.0,
        "{} vs {}",
        mse_full,
        mse_trunc
    );
}

/// Inputs once recorded as failing this property (noise images cut a few
/// bytes short of the end), kept as explicit cases.
#[test]
fn truncations_are_total_regression_8x8_cut_near_end() {
    check_truncation(&square_gray(8, &REGRESSION_8X8), 0.9925546798511351);
}

#[test]
fn truncations_are_total_regression_16x16_cut_near_end() {
    check_truncation(&square_gray(16, &REGRESSION_16X16), 0.9850629394761901);
}

fn square_gray(n: usize, data: &[i32]) -> Image {
    Image::gray8(Plane::from_fn(n, n, |x, y| data[y * n + x]))
}

/// Garbage input errors, never panics.
#[test]
fn decoder_is_total() {
    cases(CASES, |rng| {
        let mut bytes = vec![0u8; rng.range(0..200)];
        rng.fill(&mut bytes);
        let _ = decode(&bytes);
    });
}

/// Corrupted payloads (valid header) never panic.
#[test]
fn decoder_survives_payload_corruption() {
    cases(CASES, |rng| {
        let img = arb_dyadic_image(rng);
        let seed = rng.range::<u64, _>(..);
        let xor = rng.range(1u8..=255);
        let mut bytes = encode(&img, 3, 2.0).unwrap();
        if bytes.len() > 19 {
            let pos = 19 + (seed % (bytes.len() as u64 - 19)) as usize;
            bytes[pos] ^= xor;
            let _ = decode(&bytes);
        }
    });
}

const REGRESSION_8X8: [i32; 64] = [
    13, 97, 181, 35, 67, 125, 143, 31, 43, 179, 227, 172, 30, 65, 173, 74, 21, 219, 130, 174, 209,
    213, 38, 229, 149, 114, 214, 167, 195, 186, 134, 178, 63, 2, 202, 6, 9, 118, 180, 124, 55, 118,
    147, 39, 238, 85, 205, 179, 105, 167, 53, 58, 241, 13, 221, 99, 82, 214, 166, 230, 9, 251, 42,
    192,
];

const REGRESSION_16X16: [i32; 256] = [
    52, 16, 56, 112, 249, 253, 121, 103, 187, 171, 213, 189, 92, 189, 85, 155, 178, 239, 125, 70,
    164, 3, 103, 70, 155, 153, 103, 176, 162, 224, 104, 148, 64, 67, 52, 139, 192, 211, 212, 131,
    233, 151, 217, 172, 82, 128, 165, 190, 225, 234, 127, 201, 34, 180, 66, 229, 68, 61, 194, 170,
    236, 197, 82, 240, 130, 190, 38, 235, 215, 45, 115, 45, 49, 146, 249, 97, 76, 79, 54, 70, 112,
    188, 43, 230, 3, 237, 37, 148, 58, 171, 25, 71, 103, 4, 246, 224, 141, 0, 151, 242, 226, 99,
    108, 167, 161, 222, 243, 211, 247, 84, 199, 187, 204, 12, 251, 184, 120, 137, 22, 7, 9, 0, 127,
    123, 136, 95, 239, 48, 122, 219, 38, 253, 98, 83, 179, 126, 176, 45, 188, 241, 109, 151, 165,
    139, 192, 68, 152, 80, 73, 85, 168, 246, 173, 166, 9, 31, 26, 73, 193, 61, 252, 47, 29, 53,
    133, 19, 221, 208, 178, 57, 115, 94, 100, 145, 197, 54, 81, 13, 47, 74, 93, 124, 128, 24, 212,
    179, 125, 108, 40, 66, 189, 211, 4, 44, 129, 238, 114, 30, 94, 20, 218, 234, 215, 164, 216, 56,
    110, 241, 28, 78, 69, 228, 203, 119, 85, 181, 147, 199, 141, 237, 107, 154, 102, 153, 208, 17,
    169, 119, 15, 5, 83, 98, 175, 240, 52, 236, 55, 140, 88, 207, 47, 172, 7, 150, 93, 121, 119,
    166, 162, 108, 129, 247, 47, 200, 83, 249,
];
