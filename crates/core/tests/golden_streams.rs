//! Golden manifest of whole-codec outputs, on the pattern of
//! `crates/image/tests/golden_synth.rs`.
//!
//! Each row is (`pj2k_testkit` image seed, size, components, configuration)
//! and pins three numbers: the codestream length, the FNV-1a-64 of the
//! codestream, and the FNV-1a-64 of the decoded samples. Every row is
//! decoded at 1, 2 and 3 workers. The constants were printed by
//! `print_golden_table` at commit 0e95273 — before the barriered and the
//! pipelined tile decoders were merged into one — where both of those
//! decoders and both encoder stage sequencings produced them, so the one
//! path that is left is checked against the old bytes and pixels, not
//! against itself. The last two rows (odd-sized RGB over non-dividing
//! tiles, and a decode that clamps at 0 and 255) were printed at commit
//! 333f59e, before the decoder's round, level shift and clamp became one
//! pass writing into the output image. The three rows after them, wide
//! enough for the SIMD column batches and the pooled level split, were
//! printed at commit 219c5c0, when every row still encoded through the
//! scalar naive column walker and the encoder and decoder ran different
//! wavelet kernels. The two style rows were re-printed at commit e8ed127
//! with bypass as their only style, when the stripe-causal and
//! context-reset styles were deleted: that encoder, which still had both,
//! gives the same bytes for bypass alone. A change that moves a number here changes what `pj2k`
//! writes or reads back: re-bless deliberately (`cargo test -p pj2k-core
//! --test golden_streams -- --ignored --nocapture` prints the table) and
//! say so in the PR.

use pj2k_core::config::{Roi, Tier1Options};
use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode, RateControl, Wavelet};
use pj2k_image::{metrics, Image};
use pj2k_testkit::synth;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat(bytes);
    h.0
}

/// Width, height and component count (u32 LE), then every sample as i32
/// LE, component by component in row-major order.
fn hash_image(img: &Image) -> u64 {
    let mut h = Fnv::new();
    for dim in [img.width(), img.height(), img.num_components()] {
        h.eat(&(dim as u32).to_le_bytes());
    }
    for plane in img.components() {
        for v in plane.samples() {
            h.eat(&v.to_le_bytes());
        }
    }
    h.0
}

struct Row {
    name: &'static str,
    seed: u64,
    size: (usize, usize),
    rgb: bool,
    /// Stretch the gray source's contrast until large regions sit at 0 and
    /// 255, so a lossy decode overshoots both ends and must be clamped.
    saturated: bool,
    cfg: EncoderConfig,
    max_layers: Option<usize>,
}

fn lossy(bpp: &[f64]) -> EncoderConfig {
    EncoderConfig {
        rate: RateControl::TargetBpp(bpp.to_vec()),
        levels: 3,
        ..EncoderConfig::default()
    }
}

fn lossless() -> EncoderConfig {
    EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        levels: 3,
        ..EncoderConfig::default()
    }
}

/// Every optional Tier-1 coding style the codec has: selective bypass.
const ALL_STYLES: Tier1Options = Tier1Options { bypass: true };

const ROI: Roi = Roi {
    x0: 16,
    y0: 24,
    w: 32,
    h: 20,
};

fn rows() -> Vec<Row> {
    let row = |name, seed, size, rgb, cfg| Row {
        name,
        seed,
        size,
        rgb,
        saturated: false,
        cfg,
        max_layers: None,
    };
    vec![
        row("97-gray", 1, (96, 80), false, lossy(&[1.0])),
        row("53-gray", 2, (96, 80), false, lossless()),
        row("97-rgb", 3, (64, 48), true, lossy(&[2.0])),
        row("53-rgb", 4, (64, 48), true, lossless()),
        row("97-3layers", 5, (96, 96), false, lossy(&[0.25, 1.0, 3.0])),
        Row {
            max_layers: Some(1),
            ..row(
                "97-3layers-first",
                5,
                (96, 96),
                false,
                lossy(&[0.25, 1.0, 3.0]),
            )
        },
        Row {
            max_layers: Some(2),
            ..row(
                "97-rgb-3layers-two",
                6,
                (64, 64),
                true,
                lossy(&[0.5, 1.5, 4.0]),
            )
        },
        row(
            "97-tiles",
            7,
            (100, 80),
            false,
            EncoderConfig {
                tiles: Some((64, 64)),
                ..lossy(&[2.0])
            },
        ),
        row(
            "53-rgb-tiles",
            8,
            (80, 64),
            true,
            EncoderConfig {
                tiles: Some((48, 48)),
                ..lossless()
            },
        ),
        row(
            "97-roi",
            9,
            (96, 96),
            false,
            EncoderConfig {
                roi: Some(ROI),
                ..lossy(&[1.0])
            },
        ),
        row(
            "53-roi",
            10,
            (96, 96),
            false,
            EncoderConfig {
                roi: Some(ROI),
                ..lossless()
            },
        ),
        row(
            "53-levels0",
            11,
            (72, 56),
            false,
            EncoderConfig {
                levels: 0,
                ..lossless()
            },
        ),
        row(
            "97-levels0",
            12,
            (72, 56),
            false,
            EncoderConfig {
                levels: 0,
                ..lossy(&[2.0])
            },
        ),
        row(
            "97-styles",
            13,
            (96, 80),
            false,
            EncoderConfig {
                tier1: ALL_STYLES,
                ..lossy(&[1.5])
            },
        ),
        row(
            "53-styles-cb16",
            14,
            (96, 80),
            false,
            EncoderConfig {
                tier1: ALL_STYLES,
                code_block: (16, 16),
                ..lossless()
            },
        ),
        row(
            "97-cb16",
            15,
            (128, 96),
            false,
            EncoderConfig {
                code_block: (16, 16),
                levels: 5,
                ..lossy(&[0.5])
            },
        ),
        row("53-odd", 16, (65, 127), false, lossless()),
        row(
            "97-partial-blocks",
            17,
            (100, 70),
            false,
            EncoderConfig {
                code_block: (32, 32),
                levels: 2,
                ..lossy(&[1.0])
            },
        ),
        row(
            "97-rgb-odd-tiles",
            18,
            (97, 61),
            true,
            EncoderConfig {
                tiles: Some((40, 24)),
                ..lossy(&[2.0])
            },
        ),
        Row {
            saturated: true,
            ..row(CLAMP_ROW, 19, (96, 80), false, lossy(&[4.0]))
        },
        // Power-of-two width: whole 16-column SIMD batches down to level 4
        // (16 columns), then an 8-column scalar tail at level 5.
        row(
            "97-gray-256",
            20,
            (256, 200),
            false,
            EncoderConfig {
                levels: 6,
                ..lossy(&[1.0])
            },
        ),
        // Odd width: a ragged tail at every level (131, 66, 33 columns).
        row("53-rgb-131", 21, (131, 67), true, lossless()),
        // At least 2^18 samples, so level 0 splits across the workers.
        row(
            "97-pool-640",
            22,
            (640, 420),
            false,
            EncoderConfig {
                parallel: ParallelMode::WorkerPool { workers: 2 },
                ..lossy(&[1.0])
            },
        ),
    ]
}

/// The row whose decode must clamp at both ends of the 8-bit range.
const CLAMP_ROW: &str = "97-clamp";

fn source(row: &Row) -> Image {
    let (w, h) = row.size;
    if row.rgb {
        synth::natural_rgb(w, h, row.seed)
    } else if row.saturated {
        let plane = synth::natural_gray(w, h, row.seed)
            .into_components()
            .remove(0)
            .map(|v| ((v - 128) * 3 + 128).clamp(0, 255));
        Image::gray8(plane)
    } else {
        synth::natural_gray(w, h, row.seed)
    }
}

/// Encode the row and decode it at 1, 2 and 3 workers; all three decodes
/// must agree. Returns (codestream length, codestream hash, pixel hash).
fn measure(row: &Row) -> (usize, u64, u64) {
    let img = source(row);
    let bytes = Encoder::new(row.cfg.clone()).unwrap().encode(&img).0;
    let mut pixels = None;
    for workers in 1..=3 {
        let dec = Decoder {
            parallel: if workers == 1 {
                ParallelMode::Sequential
            } else {
                ParallelMode::WorkerPool { workers }
            },
            max_layers: row.max_layers,
            ..Decoder::default()
        };
        let (out, _) = dec
            .decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode at {workers} workers: {e}", row.name));
        // An oracle that shares no code with the codec: a lossless row
        // gives back the input exactly.
        if row.cfg.rate == RateControl::Lossless {
            assert_eq!(
                metrics::max_abs_error(&img, &out),
                0,
                "{}: lossless roundtrip at {workers} workers",
                row.name
            );
        }
        let got = hash_image(&out);
        assert_eq!(
            *pixels.get_or_insert(got),
            got,
            "{}: {workers} workers decoded other pixels than 1 worker",
            row.name
        );
    }
    (bytes.len(), hash_bytes(&bytes), pixels.unwrap_or(0))
}

/// (codestream bytes, codestream FNV-1a-64, decoded-sample FNV-1a-64), in
/// `rows()` order.
const GOLDEN: [(usize, u64, u64); 23] = [
    (1153, 0xbb6a_c1f6_27be_5c99, 0x63ef_6a1f_7433_bf3b), // 97-gray
    (3047, 0xa3cf_0211_b9ec_c3fa, 0x3510_3b8f_8a41_edb6), // 53-gray
    (1056, 0x6c3b_be0d_8be2_c8fe, 0xd5e5_c554_b430_d7a9), // 97-rgb
    (3301, 0x7351_0475_7634_77c1, 0x99ab_b4d7_a025_9acb), // 53-rgb
    (3788, 0x100c_e8e3_742f_cdf2, 0x5518_492b_511a_710a), // 97-3layers
    (3788, 0x100c_e8e3_742f_cdf2, 0x06f5_4b26_97a5_c64d), // 97-3layers-first
    (2626, 0x14d4_b19e_71a3_9c10, 0x1705_0579_ed26_bfd7), // 97-rgb-3layers-two
    (2582, 0xe2a6_465e_457e_61ab, 0xd813_2b00_92b8_3041), // 97-tiles
    (6523, 0x1692_64d5_c32b_fad6, 0x7147_d4da_11bc_8ed1), // 53-rgb-tiles
    (1382, 0x741c_273f_1150_bed2, 0xed97_98ed_d2c2_7cca), // 97-roi
    (4196, 0x8540_556f_5074_7a0d, 0xe9a4_637e_3d7d_8417), // 53-roi
    (2669, 0x5f39_8de9_23f4_76b2, 0x6818_9bf7_0da6_fc18), // 53-levels0
    (1051, 0x244c_c3e3_889a_2042, 0x0f20_db40_45e1_d4a9), // 97-levels0
    (1648, 0x23d2_4110_6f7a_5602, 0xd341_e0e4_c7b3_a81a), // 97-styles
    (3511, 0x7abc_ed67_4586_729b, 0x07ff_685f_fbff_0bbd), // 53-styles-cb16
    (1048, 0x9fab_2881_a045_6907, 0x4a89_8f07_a30d_1a22), // 97-cb16
    (2970, 0x635e_db72_e6f6_cb6a, 0x56f5_c658_a74f_1422), // 53-odd
    (1048, 0x3d58_c0cf_f602_d60f, 0x1e06_319c_b561_39fc), // 97-partial-blocks
    (3189, 0x22e4_1cf1_dae7_d066, 0x7000_ab32_3af6_16eb), // 97-rgb-odd-tiles
    (4122, 0x0296_9008_77ee_bab8, 0x8173_209d_c284_fa85), // 97-clamp
    (6864, 0x7857_4430_85eb_d89e, 0x8481_f652_3738_cd18), // 97-gray-256
    (7398, 0x88b0_e5b8_6655_fa77, 0x02f0_8810_b2ea_83db), // 53-rgb-131
    (34503, 0xa036_6116_3f33_24f4, 0x8318_fecc_1256_deea), // 97-pool-640
];

#[test]
fn codestreams_and_pixels_are_pinned() {
    let rows = rows();
    assert_eq!(rows.len(), GOLDEN.len());
    for (row, want) in rows.iter().zip(GOLDEN) {
        let got = measure(row);
        assert_eq!(
            got, want,
            "{}: (len, stream hash, pixel hash) = ({}, {:#018x}, {:#018x})",
            row.name, got.0, got.1, got.2
        );
    }
}

/// The clamp row's decode overshoots both ends of the 8-bit range, and what
/// the decoder returns is exactly the clamped reconstruction. The unclamped
/// one comes from the same decoder with the stream's SIZ declaring 9 bits:
/// the level shift becomes 256 and the range `0..=511`, so `sample - 128`
/// is the 8-bit reconstruction before its clamp.
#[test]
fn clamp_row_clamps_at_both_ends() {
    // SOC, SIZ and its length (6 bytes), width and height (4 each) and the
    // component count (1) precede the bit depth.
    const DEPTH_AT: usize = 15;
    let row = rows().into_iter().find(|r| r.name == CLAMP_ROW).unwrap();
    let bytes = Encoder::new(row.cfg.clone())
        .unwrap()
        .encode(&source(&row))
        .0;
    assert_eq!(bytes[DEPTH_AT], 8);
    let mut wide = bytes.clone();
    wide[DEPTH_AT] = 9;
    let (out, _) = Decoder::default().decode(&bytes).unwrap();
    let (unclamped, _) = Decoder::default().decode(&wide).unwrap();
    let (mut below, mut above) = (0usize, 0usize);
    for (o, u) in out
        .component(0)
        .samples()
        .zip(unclamped.component(0).samples())
    {
        assert!(0 < u && u < 511, "the 9-bit decode clamped too: {u}");
        let u = u - 128;
        below += usize::from(u < 0);
        above += usize::from(u > 255);
        assert_eq!(o, u.clamp(0, 255));
    }
    assert!(
        below > 0 && above > 0,
        "clamped {below} samples up to 0 and {above} down to 255"
    );
}

#[test]
#[ignore = "prints the GOLDEN table; run by hand when blessing a deliberate change"]
fn print_golden_table() {
    for row in rows() {
        let (len, stream, pixels) = measure(&row);
        println!(
            "    ({len}, {stream:#018x}, {pixels:#018x}), // {}",
            row.name
        );
    }
}
