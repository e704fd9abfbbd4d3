//! Golden hashes of the synthetic imagery (the first entries of the golden
//! manifest, whose whole-codec rows are `crates/core/tests/golden_streams.rs`).
//!
//! Every figure, threshold and committed `results/` output that depends on
//! image content is a function of these generators, so a change to them —
//! or to `pj2k_testkit::Rng` underneath — must be deliberate: it shows up
//! here first, and the tables below are then updated together with
//! whatever thresholds and `results/` files move. (`natural_*` round
//! `f64::cos` sums to 8 bits, so a libm that differs in the last ulp could
//! in principle move a sample on another platform; these are x86-64 Linux.)

use pj2k_image::Image;
use pj2k_testkit::synth;

/// 64-bit FNV-1a over width and height (u32 LE) followed by every 8-bit
/// sample, component by component in row-major order.
fn fnv1a64(img: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for dim in [img.width(), img.height()] {
        (dim as u32).to_le_bytes().into_iter().for_each(&mut eat);
    }
    for plane in img.components() {
        for v in plane.samples() {
            eat(u8::try_from(v).expect("8-bit sample"));
        }
    }
    h
}

const SIZES: [(usize, usize); 2] = [(64, 48), (256, 256)];

/// Hashes of `make(w, h, param)` over `SIZES` x `params`, size-major.
fn hashes(params: &[u64], make: impl Fn(usize, usize, u64) -> Image) -> Vec<u64> {
    let mut got = Vec::new();
    for (w, h) in SIZES {
        for &param in params {
            got.push(fnv1a64(&make(w, h, param)));
        }
    }
    got
}

fn check(name: &str, got: Vec<u64>, golden: &[u64]) {
    assert_eq!(got, golden, "{name} changed; got {got:#018x?}");
}

const SEEDS: [u64; 2] = [1, 42];

#[test]
fn natural_gray_is_pinned() {
    check(
        "natural_gray",
        hashes(&SEEDS, synth::natural_gray),
        &[
            0x0005_cda3_eba4_93b9,
            0xb776_ef81_f03d_cfc1,
            0x542e_7ce3_2c05_5ba6,
            0xaedf_2c30_848f_108b,
        ],
    );
}

#[test]
fn natural_rgb_is_pinned() {
    check(
        "natural_rgb",
        hashes(&SEEDS, synth::natural_rgb),
        &[
            0x0d9c_8b60_6e08_17e3,
            0x38d3_c119_7773_6e53,
            0x7d97_97e8_2607_f7fd,
            0xfb3f_ac15_8e7c_8b9c,
        ],
    );
}

/// The seedless generators: `gradient` per size, `checkerboard` per size
/// and cell width.
#[test]
fn gradient_and_checkerboard_are_pinned() {
    check(
        "gradient",
        hashes(&[0], |w, h, _| synth::gradient(w, h)),
        &[0x5841_f2da_52bb_12d5, 0x10ec_4c71_ea8a_6595],
    );
    check(
        "checkerboard",
        hashes(&[1, 8], |w, h, cell| {
            synth::checkerboard(w, h, cell as usize)
        }),
        &[
            0x0198_3482_3ee5_cad5,
            0x1e81_da6c_1df7_bcd5,
            0xb7e1_d408_bf14_6595,
            0x2042_0ede_ca0a_e595,
        ],
    );
}
