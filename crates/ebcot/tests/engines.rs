//! Engine-equivalence suite: the bitplane Tier-1 engine must reproduce the
//! reference engine's output byte for byte — same segments, same pass
//! table, same (order-sensitive, hence exactly equal) distortion sums —
//! across both coding styles, every band class, and block geometry.
//! The reference engine is the `oracle` cargo feature's test oracle,
//! switched on by this crate's self dev-dependency.

use pj2k_ebcot::{BandCtx, BlockCoder, EncodedBlock, Tier1Engine, Tier1Options};
use pj2k_testkit::{cases, Rng};

const BANDS: [BandCtx; 3] = [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh];

/// The default style and selective bypass.
const STYLES: [Tier1Options; 2] = [
    Tier1Options { bypass: false },
    Tier1Options { bypass: true },
];

/// Deterministic pseudo-random coefficients with a density knob
/// (`keep_mod`: 1 = dense, larger = sparser) and a magnitude cap.
fn synth_block(seed: u64, n: usize, keep_mod: u64, max_mag: i32) -> Vec<i32> {
    Rng::new(seed).vec(n, |r| {
        if r.range(0..keep_mod) != 0 {
            0
        } else {
            r.range(-max_mag..=max_mag)
        }
    })
}

fn assert_identical(a: &EncodedBlock, b: &EncodedBlock, what: &str) {
    assert_eq!(a.msb_planes, b.msb_planes, "{what}: msb_planes");
    assert_eq!(a.data, b.data, "{what}: segment bytes");
    assert_eq!(a.passes.len(), b.passes.len(), "{what}: pass count");
    for (i, (pa, pb)) in a.passes.iter().zip(&b.passes).enumerate() {
        assert_eq!(pa.kind, pb.kind, "{what}: pass {i} kind");
        assert_eq!(pa.plane, pb.plane, "{what}: pass {i} plane");
        assert_eq!(pa.len, pb.len, "{what}: pass {i} len");
        // Both engines accumulate the per-pass distortion in the same
        // coefficient order, so the f64 sums are bit-equal, not merely close.
        assert!(
            pa.delta_distortion == pb.delta_distortion,
            "{what}: pass {i} distortion {} vs {}",
            pa.delta_distortion,
            pb.delta_distortion
        );
    }
    assert!(
        a.initial_distortion == b.initial_distortion,
        "{what}: initial distortion"
    );
}

/// Stage `coeffs` in `coder` and encode them.
fn encode(
    coder: &mut BlockCoder,
    coeffs: &[i32],
    w: usize,
    h: usize,
    band: BandCtx,
    opts: Tier1Options,
) -> EncodedBlock {
    coder.coeff_scratch().extend_from_slice(coeffs);
    coder.encode_scratch(w, h, band, opts)
}

fn check_block(coeffs: &[i32], w: usize, h: usize, what: &str) {
    let mut reference = BlockCoder::with_engine(Tier1Engine::Reference);
    let mut bitplane = BlockCoder::with_engine(Tier1Engine::Bitplane);
    for band in BANDS {
        for opts in STYLES {
            let a = encode(&mut reference, coeffs, w, h, band, opts);
            let b = encode(&mut bitplane, coeffs, w, h, band, opts);
            assert_identical(&a, &b, &format!("{what} {band:?} {opts:?}"));
        }
    }
}

#[test]
fn engines_agree_on_geometry_matrix() {
    // Word-boundary widths (63/64/65 exercise the cross-word stencil and
    // wpr = 2), partial bottom stripes, single row/column blocks.
    let geometries: [(usize, usize); 10] = [
        (1, 1),
        (1, 7),
        (5, 1),
        (4, 4),
        (8, 5),
        (16, 16),
        (63, 9),
        (64, 12),
        (65, 10),
        (128, 6),
    ];
    for (i, &(w, h)) in geometries.iter().enumerate() {
        let coeffs = synth_block(0xA11CE + i as u64, w * h, 3, 200);
        check_block(&coeffs, w, h, &format!("geom {w}x{h}"));
    }
}

#[test]
fn engines_agree_on_density_sweep() {
    // Dense through very sparse: sparse blocks drive the run-batched
    // cleanup and the column-mask skipping hardest.
    for (i, keep) in [1u64, 2, 5, 17, 97].into_iter().enumerate() {
        let coeffs = synth_block(0xD05E + i as u64, 64 * 24, keep, 900);
        check_block(&coeffs, 64, 24, &format!("density 1/{keep}"));
    }
}

#[test]
fn engines_agree_on_deep_planes_and_bypass() {
    // Large magnitudes force many bit-planes, putting most passes in the
    // selective-bypass region when bypass is on (raw SPP/MR segments).
    let coeffs = synth_block(0xBEEF, 32 * 20, 4, 1 << 20);
    check_block(&coeffs, 32, 20, "deep planes");
}

#[test]
fn engines_agree_on_degenerate_blocks() {
    check_block(&vec![0; 8 * 8], 8, 8, "all zero");
    check_block(&[1], 1, 1, "single +1");
    check_block(&[-1], 1, 1, "single -1");
    // Constant stripes: every column is run-length eligible at every plane.
    check_block(&vec![4; 64 * 8], 64, 8, "constant 4");
    check_block(&vec![-3; 17 * 6], 17, 6, "constant -3");
    // Single hot coefficient in each corner of a two-word-wide block.
    for &k in &[0usize, 65, 70 * 8 - 1] {
        let mut coeffs = vec![0i32; 70 * 8];
        coeffs[k] = -777;
        check_block(&coeffs, 70, 8, &format!("hot corner {k}"));
    }
}

#[test]
fn bitplane_encode_into_recycles_without_divergence() {
    // Refilling a dirty EncodedBlock must match a fresh encode exactly.
    let mut coder = BlockCoder::with_engine(Tier1Engine::Bitplane);
    let mut out = EncodedBlock::default();
    for seed in 0..6u64 {
        let (w, h) = (48, 13);
        let coeffs = synth_block(seed, w * h, 2 + seed % 4, 300);
        let opts = Tier1Options {
            bypass: seed % 2 == 0,
        };
        let fresh = encode(&mut coder, &coeffs, w, h, BandCtx::Hl, opts);
        coder.coeff_scratch().extend_from_slice(&coeffs);
        coder.encode_scratch_into(w, h, BandCtx::Hl, opts, 0, &mut out);
        assert_identical(&fresh, &out, &format!("recycled seed {seed}"));
    }
}

const CASES: u32 = 48;

/// Random blocks, random geometry, every coding style, both engines:
/// byte-identical codestreams and pass tables.
#[test]
fn tier1_engines_bit_identical() {
    cases(CASES, |rng| {
        let seed = rng.range(..);
        let w = rng.range(1usize..96);
        let h = rng.range(1usize..24);
        let keep = rng.range(1u64..24);
        let max_mag = rng.range(1i32..5000);
        let band_i = rng.range(0usize..3);
        let style_i = rng.range(0..STYLES.len());
        let coeffs = synth_block(seed, w * h, keep, max_mag);
        let band = BANDS[band_i];
        let opts = STYLES[style_i];
        let mut reference = BlockCoder::with_engine(Tier1Engine::Reference);
        let mut bitplane = BlockCoder::with_engine(Tier1Engine::Bitplane);
        let a = encode(&mut reference, &coeffs, w, h, band, opts);
        let b = encode(&mut bitplane, &coeffs, w, h, band, opts);
        assert_eq!(&a.data, &b.data, "segments differ");
        assert_eq!(a.passes.len(), b.passes.len());
        for (pa, pb) in a.passes.iter().zip(&b.passes) {
            assert_eq!(pa.kind, pb.kind);
            assert_eq!(pa.plane, pb.plane);
            assert_eq!(pa.len, pb.len);
            assert!(pa.delta_distortion == pb.delta_distortion);
        }
    });
}

/// A floor-`q` encode must be, byte for byte, the prefix of the floor-0
/// encode that ends with plane `q`'s cleanup pass — passes, lengths,
/// distortion gains, data — and keep the block-level fields, for both
/// engines, every style and every floor from 0 past `msb_planes`.
fn check_floor_prefixes(coeffs: &[i32], w: usize, h: usize, what: &str) {
    for engine in [Tier1Engine::Reference, Tier1Engine::Bitplane] {
        let mut coder = BlockCoder::with_engine(engine);
        for band in BANDS {
            for opts in STYLES {
                let full = encode(&mut coder, coeffs, w, h, band, opts);
                let mut cut = EncodedBlock::default();
                for floor in 0..=full.msb_planes + 1 {
                    coder.coeff_scratch().extend_from_slice(coeffs);
                    coder.encode_scratch_into(w, h, band, opts, floor, &mut cut);
                    let planes = usize::from(full.msb_planes.saturating_sub(floor));
                    let n = (3 * planes).saturating_sub(2);
                    let mut want = full.clone();
                    want.passes.truncate(n);
                    want.data.truncate(full.rate_after(n));
                    let ctx = format!("{what} {engine:?} {band:?} {opts:?} floor {floor}");
                    assert_eq!(cut.passes.len(), n, "{ctx}: pass count");
                    assert_eq!((cut.width, cut.height), (w, h), "{ctx}: geometry");
                    assert_identical(&want, &cut, &ctx);
                }
            }
        }
    }
}

#[test]
fn floor_encode_is_a_prefix_of_the_full_encode() {
    check_floor_prefixes(&synth_block(0xF100, 64 * 12, 3, 700), 64, 12, "dense");
    check_floor_prefixes(
        &synth_block(0xF101, 65 * 10, 17, 1 << 14),
        65,
        10,
        "sparse deep",
    );
    check_floor_prefixes(&synth_block(0xF102, 5 * 7, 2, 40), 5, 7, "small");
    check_floor_prefixes(&[-9], 1, 1, "single");
    check_floor_prefixes(&[0; 16], 4, 4, "all zero");
    // One outlier above an otherwise busy low range: the sparse top planes
    // the rate-aware encoder must not mistake for the end of the block.
    let mut outlier = synth_block(0xF103, 32 * 16, 1, 12);
    outlier[200] = 3000;
    check_floor_prefixes(&outlier, 32, 16, "outlier");
}
