//! Decoder differential suite: the packed block decoder must reproduce the
//! per-coefficient oracle decoder (`pj2k_ebcot::oracle`, cargo feature
//! `oracle`) coefficient for coefficient — on every coding style, band
//! class and block geometry, at every pass-prefix truncation point, and on
//! hostile bytes, where both decoders are deterministic functions of the
//! input and so must produce the same *wrong* coefficients, never a panic.
//!
//! Plain seeded `#[test]` loops over fixed geometry matrices.

use pj2k_ebcot::oracle::{self, OracleDecoderScratch};
use pj2k_ebcot::{
    decode_block_with, encode_block, BandCtx, BlockDecoderScratch, EncodedBlock, Tier1Options,
};
use pj2k_testkit::Rng;

const BANDS: [BandCtx; 3] = [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh];

/// The default style and selective bypass.
const STYLES: [Tier1Options; 2] = [
    Tier1Options { bypass: false },
    Tier1Options { bypass: true },
];

/// Block geometries: degenerate shapes, heights that leave a partial last
/// stripe, widths around the 64-column word boundary, the paper's 64x64
/// and the widest legal row.
const GEOMETRIES: [(usize, usize); 14] = [
    (1, 1),
    (1, 19),
    (23, 1),
    (7, 5),
    (12, 6),
    (9, 7),
    (16, 16),
    (63, 9),
    (64, 8),
    (65, 6),
    (130, 5),
    (64, 64),
    (1024, 4),
    (3, 66),
];

#[derive(Clone, Copy, Debug)]
enum Fill {
    Dense,
    Sparse,
    Single,
}

fn synth_block(seed: u64, n: usize, fill: Fill, max_mag: i32) -> Vec<i32> {
    let mut rng = Rng::new(seed);
    let value = |rng: &mut Rng| {
        let m = rng.range(1..=max_mag);
        if rng.bool() {
            m
        } else {
            -m
        }
    };
    match fill {
        Fill::Dense => rng.vec(n, value),
        Fill::Sparse => rng.vec(n, |r| if r.range(0..13) == 0 { value(r) } else { 0 }),
        Fill::Single => {
            let mut v = vec![0; n];
            v[rng.range(0..n)] = value(&mut rng);
            v
        }
    }
}

fn segments(blk: &EncodedBlock) -> Vec<Vec<u8>> {
    (0..blk.passes.len())
        .map(|p| blk.segment(p).to_vec())
        .collect()
}

/// Both decoders over one warm scratch pair; returns the packed result
/// after asserting the two agree.
struct Pair {
    packed: BlockDecoderScratch,
    oracle: OracleDecoderScratch,
    got: Vec<i32>,
    want: Vec<i32>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            packed: BlockDecoderScratch::new(),
            oracle: OracleDecoderScratch::new(),
            got: Vec::new(),
            want: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check<S: AsRef<[u8]>>(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        planes: u8,
        segs: &[S],
        opts: Tier1Options,
        what: &str,
    ) -> &[i32] {
        let a = self
            .packed
            .decode_into(w, h, band, planes, segs, opts, &mut self.got);
        let b = self
            .oracle
            .decode_into(w, h, band, planes, segs, opts, &mut self.want);
        assert_eq!(a, b, "{what}: result kinds differ");
        if a.is_ok() {
            assert_eq!(self.got.len(), w * h, "{what}: length");
            if self.got != self.want {
                let k = self
                    .got
                    .iter()
                    .zip(&self.want)
                    .position(|(x, y)| x != y)
                    .unwrap();
                panic!(
                    "{what}: first difference at ({}, {}): packed {} vs oracle {}",
                    k % w,
                    k / w,
                    self.got[k],
                    self.want[k]
                );
            }
        }
        &self.got
    }
}

/// Every style x band x geometry x fill, decoded at every pass prefix.
#[test]
fn packed_matches_oracle_at_every_truncation_point() {
    let mut pair = Pair::new();
    let mut seed = 0u64;
    for (gi, &(w, h)) in GEOMETRIES.iter().enumerate() {
        for (si, opts) in STYLES.into_iter().enumerate() {
            for (bi, &band) in BANDS.iter().enumerate() {
                for (fi, fill) in [Fill::Dense, Fill::Sparse, Fill::Single]
                    .into_iter()
                    .enumerate()
                {
                    seed += 1;
                    // Keep the big geometries to a few planes (the pass
                    // count multiplies the prefix loop); rotate deep
                    // magnitudes through the small ones so the bypass
                    // region (five planes down) is populated too.
                    let max_mag = if w * h >= 2048 {
                        [40, 300][(si + bi + fi) % 2]
                    } else {
                        [3, 90, 5000, 1 << 20][(gi + si + bi + fi) % 4]
                    };
                    let coeffs = synth_block(seed, w * h, fill, max_mag);
                    let blk = encode_block(&coeffs, w, h, band, opts);
                    let segs = segments(&blk);
                    for n in 0..=segs.len() {
                        let what = format!(
                            "{w}x{h} {band:?} {opts:?} {fill:?} seed {seed} prefix {n}/{}",
                            segs.len()
                        );
                        let got = pair.check(w, h, band, blk.msb_planes, &segs[..n], opts, &what);
                        if n == segs.len() {
                            assert_eq!(got, &coeffs[..], "{what}: roundtrip");
                        }
                    }
                }
            }
        }
    }
}

/// Deep-plane blocks (up to the coder's 31-plane limit).
#[test]
fn packed_matches_oracle_on_deep_planes() {
    let mut pair = Pair::new();
    for (seed, opts) in STYLES.into_iter().enumerate() {
        let (w, h) = (11, 6);
        let mut rng = Rng::new(900 + seed as u64);
        let coeffs: Vec<i32> = (0..w * h)
            .map(|i| {
                let m = rng.range(0..=i32::MAX) >> (i % 31);
                if rng.bool() {
                    m
                } else {
                    -m
                }
            })
            .collect();
        let band = BANDS[seed % 3];
        let blk = encode_block(&coeffs, w, h, band, opts);
        let segs = segments(&blk);
        for n in 0..=segs.len() {
            let what = format!("deep {opts:?} prefix {n}");
            let got = pair.check(w, h, band, blk.msb_planes, &segs[..n], opts, &what);
            if n == segs.len() {
                assert_eq!(got, &coeffs[..], "{what}: roundtrip");
            }
        }
    }
}

/// Garbage segments: arbitrary bytes (with marker-range `0xFF` pairs mixed
/// in) under arbitrary plane counts, pass counts and segment lengths.
#[test]
fn packed_matches_oracle_on_garbage_segments() {
    let mut pair = Pair::new();
    let mut rng = Rng::new(0xBAD_5EED);
    for trial in 0..600 {
        let (w, h) = GEOMETRIES[rng.range(0..11)]; // skip the largest shapes
        let planes = rng.range(1u8..=12);
        let max_passes = 1 + 3 * (usize::from(planes) - 1);
        let n = rng.range(0..=max_passes);
        let segs: Vec<Vec<u8>> = rng.vec(n, |r| {
            let len = r.range(0..40);
            r.vec(len, |r| match r.range(0..6) {
                0 => 0xFF,
                1 => r.range(0x90..=0xFF),
                2 => 0,
                _ => r.range(..),
            })
        });
        let opts = STYLES[rng.range(0..STYLES.len())];
        let band = BANDS[rng.range(0..3)];
        let what = format!("garbage trial {trial}: {w}x{h} {band:?} {opts:?} planes {planes}");
        pair.check(w, h, band, planes, &segs, opts, &what);
    }
}

/// Valid streams with flipped bits, dropped tails and `0xFF`-poisoned
/// bytes: the decoders must stay in lockstep on the damaged decisions.
#[test]
fn packed_matches_oracle_on_bit_flipped_segments() {
    let mut pair = Pair::new();
    let mut rng = Rng::new(0xF11_BEEF);
    for trial in 0..240 {
        let (w, h) = GEOMETRIES[(trial % 12) as usize];
        let opts = STYLES[rng.range(0..STYLES.len())];
        let band = BANDS[rng.range(0..3)];
        let fill = [Fill::Dense, Fill::Sparse][(trial % 2) as usize];
        let max_mag = if w * h >= 2048 { 60 } else { 3000 };
        let coeffs = synth_block(7000 + trial, w * h, fill, max_mag);
        let blk = encode_block(&coeffs, w, h, band, opts);
        let mut segs = segments(&blk);
        if segs.is_empty() {
            continue;
        }
        for _ in 0..rng.range(1..=6) {
            let s = rng.range(0..segs.len());
            let seg = &mut segs[s];
            match rng.range(0..4) {
                0 => {
                    let keep = rng.range(0..=seg.len());
                    seg.truncate(keep); // mid-byte truncation of the codeword
                }
                1 if !seg.is_empty() => {
                    let at = rng.range(0..seg.len());
                    seg[at] = 0xFF;
                }
                _ if !seg.is_empty() => {
                    let at = rng.range(0..seg.len());
                    seg[at] ^= 1 << rng.range(0..8);
                }
                _ => {}
            }
        }
        let what = format!("flipped trial {trial}: {w}x{h} {band:?} {opts:?}");
        pair.check(w, h, band, blk.msb_planes, &segs, opts, &what);
    }
}

/// One warm scratch across shrinking and growing shapes, interleaved with
/// structural errors, must match a fresh one-shot decode of each block.
#[test]
fn scratch_reuse_across_shapes_matches_one_shot_decodes() {
    let mut pair = Pair::new();
    let order = [11usize, 0, 10, 3, 12, 1, 8, 2, 9, 13, 4, 11, 7, 5, 6];
    for (round, &gi) in order.iter().enumerate() {
        let (w, h) = GEOMETRIES[gi];
        let opts = STYLES[round % STYLES.len()];
        let band = BANDS[round % 3];
        let fill = [Fill::Dense, Fill::Sparse, Fill::Single][round % 3];
        let coeffs = synth_block(31 + round as u64, w * h, fill, 700);
        let blk = encode_block(&coeffs, w, h, band, opts);
        let segs = segments(&blk);
        let what = format!("reuse round {round}: {w}x{h}");
        let got = pair
            .check(w, h, band, blk.msb_planes, &segs, opts, &what)
            .to_vec();
        assert_eq!(got, coeffs, "{what}: roundtrip");
        let refs: Vec<&[u8]> = segs.iter().map(Vec::as_slice).collect();
        assert_eq!(
            decode_block_with(w, h, band, blk.msb_planes, &refs, opts).unwrap(),
            got,
            "{what}: one-shot"
        );
        assert_eq!(
            oracle::decode_block_with(w, h, band, blk.msb_planes, &refs, opts).unwrap(),
            got,
            "{what}: one-shot oracle"
        );
        // Structural errors in between leave both scratches reusable.
        let seg: &[u8] = &[0u8];
        pair.check(w, h, band, 1, &[seg, seg], opts, "too many passes");
        pair.check(w, h, band, 0, &[seg], opts, "zero-plane passes");
        pair.check(0, h, band, 1, &[seg], opts, "empty block");
        pair.check(w, h, band, 32, &[seg], opts, "too many planes");
        pair.check(w, h, band, 0, &[] as &[&[u8]], opts, "zero block");
    }
}
