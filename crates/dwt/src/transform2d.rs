//! Two-dimensional multi-level transform drivers.
//!
//! Each decomposition level filters the current `LL` region horizontally
//! (rows, always contiguous and cache-friendly) and then vertically (columns,
//! per the selected [`VerticalStrategy`]). Row ranges and column ranges are
//! split statically over the [`Exec`] workers with a barrier between the two
//! passes — the paper's parallelization: *"different parts of the data are
//! assigned to different threads ... synchronization is required at each
//! decomposition level between vertical and horizontal filtering"*.
//!
//! Per-pass wall-clock is accumulated in [`DwtStats`] so the harness can
//! report vertical vs. horizontal filtering time (Figs. 7, 8, 10, 11).
//!
//! One rule picks the kernel of each pass, in both directions:
//!
//! * **rows** run the split-halves row kernel, `simd::*_row_*` for the
//!   resolved tier or the reference `lift::*_row_*` under
//!   [`SimdMode::Scalar`], whatever the lifting mode;
//! * **columns** under `Strip` + [`LiftingMode::Fused`] run the fused SIMD
//!   batches with the scalar fused kernel for the tail (all scalar under
//!   `SimdMode::Scalar`). This is the production transform: the encoder
//!   and the decoder both run it, and it is the only column pass of a
//!   default build.
//! * **columns** under `Strip` + `PerStep`, and under `Naive` with either
//!   mode, run the scalar paper walkers of the `vertical` module, which the
//!   figure binaries and the bit-identity tests measure. Those values and
//!   that module exist only under the `oracle` feature.

use crate::fused;
use crate::lift::{fwd_row_53, fwd_row_97, inv_row_53, inv_row_97};
use crate::simd::{self, SimdMode};
use crate::subband::Decomposition;
#[cfg(feature = "oracle")]
use crate::vertical;
use pj2k_image::Plane;
use pj2k_parutil::{DisjointWriter, Exec};
use std::time::{Duration, Instant};

/// How the vertical (column) filtering pass traverses memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerticalStrategy {
    /// One column at a time, one strided walk per lifting step — the
    /// original reference-implementation behaviour the paper diagnoses as
    /// cache-hostile for power-of-two pitches (`oracle` builds only).
    #[cfg(feature = "oracle")]
    Naive,
    /// Filter `width` adjacent columns concurrently within one worker — the
    /// paper's improved vertical filtering.
    ///
    /// With [`LiftingMode::Fused`] and a SIMD tier active (see
    /// [`SimdMode`]) the strip walk is vectorized in batches of
    /// [`crate::simd::BATCH`] columns and `width` is not used; the
    /// coefficients are bit-identical either way.
    Strip {
        /// Number of adjacent columns processed together. 16 matches a
        /// 64-byte cache line of `f32` coefficients.
        width: usize,
    },
}

impl VerticalStrategy {
    /// The paper's improved filtering with a cache-line-sized strip.
    pub const DEFAULT_STRIP: VerticalStrategy = VerticalStrategy::Strip { width: 16 };
}

/// How the lifting steps of one filtering pass traverse memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftingMode {
    /// One full sweep over the signal per lifting step (two for 5/3, five
    /// for 9/7 including scaling) — the reference formulation (`oracle`
    /// builds only).
    #[cfg(feature = "oracle")]
    PerStep,
    /// All predict/update/scale steps applied in a single rolling sweep
    /// with a small coefficient-history window (the "single-loop" scheme).
    /// Bit-identical outputs; a fraction of the memory traffic. Only the
    /// column pass of [`VerticalStrategy::Strip`] has a fused kernel: rows
    /// and the naive walker are the same under both modes.
    Fused,
}

/// Wall-clock spent in the two filtering directions, summed over levels.
#[derive(Debug, Clone, Copy, Default)]
pub struct DwtStats {
    /// Total horizontal (row) filtering time.
    pub horizontal: Duration,
    /// Total vertical (column) filtering time.
    pub vertical: Duration,
}

impl DwtStats {
    /// Sum of both directions.
    pub fn total(&self) -> Duration {
        self.horizontal + self.vertical
    }

    /// Accumulate another stats record.
    pub fn merge(&mut self, other: &DwtStats) {
        self.horizontal += other.horizontal;
        self.vertical += other.vertical;
    }
}

/// Fewest samples of a decomposition level worth splitting over workers.
///
/// A level pays two fork-joins (rows, then columns). One costs 50-60 µs on
/// the 2-core benchmark host (`parutil.run_ranges_us` of the traced
/// benchmark run) while one filtering pass moves ~1.1 ns per sample on one
/// thread (`dwt.fwd_p1_s` / `dwt.samples`, halved for the two passes and
/// scaled by 3/4 for the level pyramid), so two workers save 0.55 ns per
/// sample and break even at ~110k samples. The split should save at least
/// what it costs, which takes twice that: below 2^18 samples — the deep
/// levels of every image, and every level of one smaller than 512x512 —
/// the level runs on the calling thread.
const PAR_MIN_SAMPLES: usize = 1 << 18;

/// The executor a pass over `samples` samples runs on: `exec`, or the
/// calling thread alone below `PAR_MIN_SAMPLES` (2^18). Every decomposition
/// level goes through it, and so does the decoder's output pass.
pub fn grain_exec(exec: &Exec, samples: usize) -> &Exec {
    if samples < PAR_MIN_SAMPLES {
        &Exec::SEQ
    } else {
        exec
    }
}

macro_rules! define_2d {
    ($fwd_name:ident, $fwd_with:ident, $fwd_level:ident,
     $inv_name:ident, $inv_with:ident, $inv_level:ident, $ty:ty,
     $fwd_row:ident, $inv_row:ident,
     $fwd_fused_strip:ident, $inv_fused_strip:ident,
     $fwd_row_simd:ident, $inv_row_simd:ident,
     $fwd_vert_simd:ident, $inv_vert_simd:ident) => {
        /// Forward multi-level analysis of `plane`, in place (Mallat layout),
        /// with the production kernels: fused lifting and automatic SIMD
        /// dispatch (the paper's naive walker under `VerticalStrategy::Naive`
        /// in `oracle` builds).
        ///
        /// Returns the decomposition geometry and per-direction timings.
        pub fn $fwd_name(
            plane: &mut Plane<$ty>,
            levels: u8,
            strategy: VerticalStrategy,
            exec: &Exec,
        ) -> (Decomposition, DwtStats) {
            $fwd_with(
                plane,
                levels,
                strategy,
                LiftingMode::Fused,
                SimdMode::Auto,
                exec,
            )
        }

        /// Forward multi-level analysis with an explicit [`LiftingMode`]
        /// and [`SimdMode`].
        pub fn $fwd_with(
            plane: &mut Plane<$ty>,
            levels: u8,
            strategy: VerticalStrategy,
            lifting: LiftingMode,
            simd: SimdMode,
            exec: &Exec,
        ) -> (Decomposition, DwtStats) {
            let deco = Decomposition::new(plane.width(), plane.height(), levels);
            let mut stats = DwtStats::default();
            for l in 0..levels {
                stats.merge(&$fwd_level(plane, &deco, l, strategy, lifting, simd, exec));
            }
            (deco, stats)
        }

        /// Analyze a single decomposition level `l` (filtering the LL region
        /// left by level `l-1`).
        fn $fwd_level(
            plane: &mut Plane<$ty>,
            deco: &Decomposition,
            l: u8,
            strategy: VerticalStrategy,
            lifting: LiftingMode,
            simd: SimdMode,
            exec: &Exec,
        ) -> DwtStats {
            let stride = plane.stride();
            let mut stats = DwtStats::default();
            let tier = simd.resolve();
            let (wl, hl) = deco.ll_size(l);
            let exec = grain_exec(exec, wl * hl);
            // Horizontal pass over the rows of the current LL region.
            // Each worker claims its row range through the checked
            // disjoint-access layer; debug builds verify the ranges are
            // pairwise disjoint and exactly cover the LL region.
            let t0 = Instant::now();
            if wl > 1 {
                let writer = DisjointWriter::new(plane.raw_mut());
                exec.run_ranges(hl, |rows| {
                    let claim = writer.claim_rect(0..wl, rows.clone(), stride);
                    let mut scratch = Vec::with_capacity(wl);
                    for y in rows {
                        // SAFETY: the claim covers rows `rows` of the LL
                        // region and `y * stride + wl <= stride * height`.
                        let row = unsafe { claim.slice_mut(y * stride, wl) };
                        match tier {
                            // SAFETY: `tier` came from `SimdMode::resolve`,
                            // which only yields supported tiers.
                            Some(t) => unsafe { simd::$fwd_row_simd(t, row, &mut scratch) },
                            None => $fwd_row(row, &mut scratch),
                        }
                    }
                });
                writer.debug_assert_claimed(wl * hl);
            }
            stats.horizontal += t0.elapsed();
            // Vertical pass over the columns of the current LL region.
            let t1 = Instant::now();
            if hl > 1 {
                let writer = DisjointWriter::new(plane.raw_mut());
                exec.run_ranges(wl, |cols| {
                    let claim = writer.claim_rect(cols.clone(), 0..hl, stride);
                    let mut scratch = Vec::new();
                    // SAFETY: the claim covers exactly the columns this
                    // worker filters; overlap panics in debug builds. The
                    // SIMD arm additionally requires a supported tier,
                    // guaranteed by `SimdMode::resolve`.
                    unsafe {
                        match (strategy, lifting, tier) {
                            (VerticalStrategy::Strip { .. }, LiftingMode::Fused, Some(t)) => {
                                simd::$fwd_vert_simd(t, &claim, stride, cols, hl, &mut scratch)
                            }
                            (VerticalStrategy::Strip { width }, LiftingMode::Fused, None) => {
                                fused::$fwd_fused_strip(
                                    &claim,
                                    stride,
                                    cols,
                                    hl,
                                    width,
                                    &mut scratch,
                                )
                            }
                            #[cfg(feature = "oracle")]
                            (VerticalStrategy::Naive, ..) | (_, LiftingMode::PerStep, _) => {
                                <$ty as vertical::Walkers>::fwd(
                                    strategy,
                                    &claim,
                                    stride,
                                    cols,
                                    hl,
                                    &mut scratch,
                                )
                            }
                        }
                    }
                });
                writer.debug_assert_claimed(wl * hl);
            }
            stats.vertical += t1.elapsed();
            stats
        }

        /// Inverse multi-level synthesis of a Mallat-layout `plane`, in
        /// place, undoing the matching forward transform with the
        /// production kernels (see the forward entry point).
        pub fn $inv_name(
            plane: &mut Plane<$ty>,
            levels: u8,
            strategy: VerticalStrategy,
            exec: &Exec,
        ) -> DwtStats {
            $inv_with(
                plane,
                levels,
                strategy,
                LiftingMode::Fused,
                SimdMode::Auto,
                exec,
            )
        }

        /// Inverse multi-level synthesis with an explicit [`LiftingMode`]
        /// and [`SimdMode`].
        pub fn $inv_with(
            plane: &mut Plane<$ty>,
            levels: u8,
            strategy: VerticalStrategy,
            lifting: LiftingMode,
            simd: SimdMode,
            exec: &Exec,
        ) -> DwtStats {
            let deco = Decomposition::new(plane.width(), plane.height(), levels);
            let mut stats = DwtStats::default();
            for l in (0..levels).rev() {
                stats.merge(&$inv_level(plane, &deco, l, strategy, lifting, simd, exec));
            }
            stats
        }

        /// Synthesize a single decomposition level `l` (rebuilding the LL
        /// region consumed by level `l`).
        fn $inv_level(
            plane: &mut Plane<$ty>,
            deco: &Decomposition,
            l: u8,
            strategy: VerticalStrategy,
            lifting: LiftingMode,
            simd: SimdMode,
            exec: &Exec,
        ) -> DwtStats {
            let stride = plane.stride();
            let mut stats = DwtStats::default();
            let tier = simd.resolve();
            let (wl, hl) = deco.ll_size(l);
            let exec = grain_exec(exec, wl * hl);
            // Vertical first (reverse of the forward pass order).
            let t0 = Instant::now();
            if hl > 1 {
                let writer = DisjointWriter::new(plane.raw_mut());
                exec.run_ranges(wl, |cols| {
                    let claim = writer.claim_rect(cols.clone(), 0..hl, stride);
                    let mut scratch = Vec::new();
                    // SAFETY: the claim covers exactly the columns this
                    // worker filters; overlap panics in debug builds. The
                    // SIMD arm additionally requires a supported tier,
                    // guaranteed by `SimdMode::resolve`.
                    unsafe {
                        match (strategy, lifting, tier) {
                            (VerticalStrategy::Strip { .. }, LiftingMode::Fused, Some(t)) => {
                                simd::$inv_vert_simd(t, &claim, stride, cols, hl, &mut scratch)
                            }
                            (VerticalStrategy::Strip { width }, LiftingMode::Fused, None) => {
                                fused::$inv_fused_strip(
                                    &claim,
                                    stride,
                                    cols,
                                    hl,
                                    width,
                                    &mut scratch,
                                )
                            }
                            #[cfg(feature = "oracle")]
                            (VerticalStrategy::Naive, ..) | (_, LiftingMode::PerStep, _) => {
                                <$ty as vertical::Walkers>::inv(
                                    strategy,
                                    &claim,
                                    stride,
                                    cols,
                                    hl,
                                    &mut scratch,
                                )
                            }
                        }
                    }
                });
                writer.debug_assert_claimed(wl * hl);
            }
            stats.vertical += t0.elapsed();
            let t1 = Instant::now();
            if wl > 1 {
                let writer = DisjointWriter::new(plane.raw_mut());
                exec.run_ranges(hl, |rows| {
                    let claim = writer.claim_rect(0..wl, rows.clone(), stride);
                    let mut scratch = Vec::with_capacity(wl);
                    for y in rows {
                        // SAFETY: the claim covers rows `rows` of the LL
                        // region.
                        let row = unsafe { claim.slice_mut(y * stride, wl) };
                        match tier {
                            // SAFETY: `tier` came from `SimdMode::resolve`,
                            // which only yields supported tiers.
                            Some(t) => unsafe { simd::$inv_row_simd(t, row, &mut scratch) },
                            None => $inv_row(row, &mut scratch),
                        }
                    }
                });
                writer.debug_assert_claimed(wl * hl);
            }
            stats.horizontal += t1.elapsed();
            stats
        }
    };
}

define_2d!(
    forward_53,
    forward_53_with,
    forward_53_level,
    inverse_53,
    inverse_53_with,
    inverse_53_level,
    i32,
    fwd_row_53,
    inv_row_53,
    fwd_fused_strip_53_cols,
    inv_fused_strip_53_cols,
    fwd_row_53_simd,
    inv_row_53_simd,
    fwd_vertical_53,
    inv_vertical_53
);

define_2d!(
    forward_97,
    forward_97_with,
    forward_97_level,
    inverse_97,
    inverse_97_with,
    inverse_97_level,
    f32,
    fwd_row_97,
    inv_row_97,
    fwd_fused_strip_97_cols,
    inv_fused_strip_97_cols,
    fwd_row_97_simd,
    inv_row_97_simd,
    fwd_vertical_97,
    inv_vertical_97
);

#[cfg(test)]
mod tests {
    use super::*;

    fn test_plane_i32(w: usize, h: usize, stride: usize) -> Plane<i32> {
        let mut p = Plane::with_stride(w, h, stride);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, ((x * 53 + y * 97 + x * y) % 511) as i32 - 255);
            }
        }
        p
    }

    fn test_plane_f32(w: usize, h: usize) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            ((x * 31 + y * 17 + x * y) % 255) as f32 - 127.0
        })
    }

    #[test]
    fn forward53_inverse53_exact_roundtrip() {
        for (w, h) in [(1, 1), (2, 2), (5, 9), (16, 16), (33, 31), (64, 48)] {
            for levels in [0u8, 1, 2, 3] {
                let orig = test_plane_i32(w, h, w);
                let mut p = orig.clone();
                forward_53(&mut p, levels, VerticalStrategy::Naive, &Exec::SEQ);
                inverse_53(&mut p, levels, VerticalStrategy::Naive, &Exec::SEQ);
                assert_eq!(p, orig, "{w}x{h} L={levels}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn forward97_inverse97_close_roundtrip() {
        for (w, h) in [(8, 8), (17, 33), (64, 64)] {
            let orig = test_plane_f32(w, h);
            let mut p = orig.clone();
            forward_97(&mut p, 3, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
            inverse_97(&mut p, 3, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
            for y in 0..h {
                for x in 0..w {
                    assert!(
                        (p.get(x, y) - orig.get(x, y)).abs() < 1e-2,
                        "({x},{y}): {} vs {}",
                        p.get(x, y),
                        orig.get(x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn strategies_agree_53() {
        let orig = test_plane_i32(40, 40, 40);
        let mut naive = orig.clone();
        forward_53(&mut naive, 3, VerticalStrategy::Naive, &Exec::SEQ);
        for width in [2, 16, 100] {
            let mut strip = orig.clone();
            forward_53(&mut strip, 3, VerticalStrategy::Strip { width }, &Exec::SEQ);
            assert_eq!(strip, naive, "strip width {width}");
        }
    }

    #[test]
    fn strategies_agree_97() {
        let orig = test_plane_f32(40, 24);
        let mut naive = orig.clone();
        forward_97(&mut naive, 2, VerticalStrategy::Naive, &Exec::SEQ);
        let mut strip = orig.clone();
        forward_97(&mut strip, 2, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        for y in 0..24 {
            for x in 0..40 {
                assert!(
                    (naive.get(x, y) - strip.get(x, y)).abs() < 1e-4,
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn parallel_backends_are_bit_identical_to_sequential_53() {
        let orig = test_plane_i32(50, 38, 50);
        let mut seq = orig.clone();
        forward_53(&mut seq, 3, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        for exec in [Exec::threads(2), Exec::threads(3), Exec::threads(4)] {
            let mut par = orig.clone();
            forward_53(&mut par, 3, VerticalStrategy::DEFAULT_STRIP, &exec);
            assert_eq!(par, seq, "{exec:?}");
            // and roundtrip in parallel too
            inverse_53(&mut par, 3, VerticalStrategy::DEFAULT_STRIP, &exec);
            assert_eq!(par, orig);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn parallel_backends_are_bit_identical_to_sequential_97() {
        let orig = test_plane_f32(48, 48);
        let mut seq = orig.clone();
        forward_97(&mut seq, 4, VerticalStrategy::Naive, &Exec::SEQ);
        let mut par = orig.clone();
        forward_97(&mut par, 4, VerticalStrategy::Naive, &Exec { workers: 3 });
        // Static split + identical kernels => bit-identical floats.
        for y in 0..48 {
            for x in 0..48 {
                assert_eq!(
                    par.get(x, y).to_bits(),
                    seq.get(x, y).to_bits(),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn fused_agrees_with_per_step_53() {
        // Degenerate sizes 1..8 plus larger shapes, every strategy, all
        // decomposition depths: fused must be bit-identical.
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for w in 1..=8 {
            for h in 1..=8 {
                shapes.push((w, h));
            }
        }
        shapes.extend([(33, 31), (40, 24), (64, 48)]);
        for &(w, h) in &shapes {
            let orig = test_plane_i32(w, h, w + 3);
            for levels in [1u8, 2, 5] {
                for strategy in [
                    VerticalStrategy::Naive,
                    VerticalStrategy::Strip { width: 3 },
                    VerticalStrategy::DEFAULT_STRIP,
                ] {
                    let mut a = orig.clone();
                    let mut b = orig.clone();
                    forward_53_with(
                        &mut a,
                        levels,
                        strategy,
                        LiftingMode::PerStep,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    forward_53_with(
                        &mut b,
                        levels,
                        strategy,
                        LiftingMode::Fused,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    assert_eq!(a, b, "fwd {w}x{h} L={levels} {strategy:?}");
                    let mut c = a.clone();
                    inverse_53_with(
                        &mut a,
                        levels,
                        strategy,
                        LiftingMode::PerStep,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    inverse_53_with(
                        &mut c,
                        levels,
                        strategy,
                        LiftingMode::Fused,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    assert_eq!(a, c, "inv {w}x{h} L={levels} {strategy:?}");
                    assert_eq!(c, orig, "roundtrip {w}x{h} L={levels} {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn fused_agrees_with_per_step_97() {
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for w in 1..=8 {
            for h in 1..=8 {
                shapes.push((w, h));
            }
        }
        shapes.extend([(17, 33), (40, 24), (48, 48)]);
        for &(w, h) in &shapes {
            let orig = test_plane_f32(w, h);
            for levels in [1u8, 3] {
                for strategy in [VerticalStrategy::Naive, VerticalStrategy::DEFAULT_STRIP] {
                    let mut a = orig.clone();
                    let mut b = orig.clone();
                    forward_97_with(
                        &mut a,
                        levels,
                        strategy,
                        LiftingMode::PerStep,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    forward_97_with(
                        &mut b,
                        levels,
                        strategy,
                        LiftingMode::Fused,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    for y in 0..h {
                        for x in 0..w {
                            assert_eq!(
                                a.get(x, y).to_bits(),
                                b.get(x, y).to_bits(),
                                "fwd {w}x{h} L={levels} {strategy:?} ({x},{y})"
                            );
                        }
                    }
                    inverse_97_with(
                        &mut a,
                        levels,
                        strategy,
                        LiftingMode::PerStep,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    inverse_97_with(
                        &mut b,
                        levels,
                        strategy,
                        LiftingMode::Fused,
                        SimdMode::Scalar,
                        &Exec::SEQ,
                    );
                    for y in 0..h {
                        for x in 0..w {
                            assert_eq!(
                                a.get(x, y).to_bits(),
                                b.get(x, y).to_bits(),
                                "inv {w}x{h} L={levels} {strategy:?} ({x},{y})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn fused_parallel_bit_identical_to_sequential() {
        let orig = test_plane_f32(50, 38);
        let mut seq = orig.clone();
        forward_97_with(
            &mut seq,
            3,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        for exec in [Exec::threads(2), Exec::threads(3), Exec::threads(4)] {
            let mut par = orig.clone();
            forward_97_with(
                &mut par,
                3,
                VerticalStrategy::DEFAULT_STRIP,
                LiftingMode::Fused,
                SimdMode::Scalar,
                &exec,
            );
            for y in 0..38 {
                for x in 0..50 {
                    assert_eq!(
                        par.get(x, y).to_bits(),
                        seq.get(x, y).to_bits(),
                        "{exec:?} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn level_driver_matches_whole_transform() {
        // Running levels one at a time through the `_level` steps must
        // equal the all-levels driver that loops over them.
        let orig = test_plane_f32(40, 33);
        let mut whole = orig.clone();
        let (deco, _) = forward_97_with(
            &mut whole,
            4,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        let mut stepped = orig.clone();
        for l in 0..4u8 {
            forward_97_level(
                &mut stepped,
                &deco,
                l,
                VerticalStrategy::DEFAULT_STRIP,
                LiftingMode::Fused,
                SimdMode::Scalar,
                &Exec::SEQ,
            );
        }
        for y in 0..33 {
            for x in 0..40 {
                assert_eq!(
                    whole.get(x, y).to_bits(),
                    stepped.get(x, y).to_bits(),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn padded_stride_roundtrip_53() {
        // The paper's width-padding fix: same samples, stride off the
        // power of two. Transform must still reconstruct exactly and agree
        // with the dense layout.
        let dense = test_plane_i32(32, 32, 32);
        let padded = test_plane_i32(32, 32, 37);
        let mut a = dense.clone();
        let mut b = padded.clone();
        forward_53(&mut a, 3, VerticalStrategy::Naive, &Exec::SEQ);
        forward_53(&mut b, 3, VerticalStrategy::Naive, &Exec::SEQ);
        for y in 0..32 {
            assert_eq!(a.row(y), b.row(y), "row {y}");
        }
        inverse_53(&mut b, 3, VerticalStrategy::Naive, &Exec::SEQ);
        for y in 0..32 {
            assert_eq!(b.row(y), padded.row(y));
        }
    }

    #[test]
    fn dc_image_concentrates_in_ll() {
        let mut p = Plane::from_fn(32, 32, |_, _| 800.0f32);
        let (deco, _) = forward_97(&mut p, 3, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        let (llw, llh) = deco.ll_size(3);
        for y in 0..32 {
            for x in 0..32 {
                let v = p.get(x, y);
                if x < llw && y < llh {
                    assert!((v - 800.0).abs() < 1.0, "LL({x},{y})={v}");
                } else {
                    assert!(v.abs() < 1e-2, "detail({x},{y})={v}");
                }
            }
        }
    }

    fn supported_tiers() -> Vec<crate::SimdTier> {
        use crate::SimdTier;
        [SimdTier::Portable, SimdTier::Avx2]
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    #[test]
    fn simd_tiers_bit_identical_to_scalar_53() {
        for (w, h) in [(5, 9), (16, 16), (33, 31), (40, 24)] {
            let orig = test_plane_i32(w, h, w + 1);
            for levels in [1u8, 3] {
                let mut scalar = orig.clone();
                forward_53_with(
                    &mut scalar,
                    levels,
                    VerticalStrategy::DEFAULT_STRIP,
                    LiftingMode::Fused,
                    SimdMode::Scalar,
                    &Exec::SEQ,
                );
                for tier in supported_tiers() {
                    let mut p = orig.clone();
                    forward_53_with(
                        &mut p,
                        levels,
                        VerticalStrategy::DEFAULT_STRIP,
                        LiftingMode::Fused,
                        SimdMode::Forced(tier),
                        &Exec::SEQ,
                    );
                    assert_eq!(p, scalar, "fwd {w}x{h} L={levels} {tier:?}");
                    inverse_53_with(
                        &mut p,
                        levels,
                        VerticalStrategy::DEFAULT_STRIP,
                        LiftingMode::Fused,
                        SimdMode::Forced(tier),
                        &Exec::SEQ,
                    );
                    assert_eq!(p, orig, "roundtrip {w}x{h} L={levels} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn simd_tiers_bit_identical_to_scalar_97() {
        let bits = |p: &Plane<f32>| -> Vec<u32> { p.samples().map(f32::to_bits).collect() };
        for (w, h) in [(5, 9), (16, 16), (33, 31), (40, 24)] {
            let orig = test_plane_f32(w, h);
            for levels in [1u8, 3] {
                let mut fwd_ref = orig.clone();
                forward_97_with(
                    &mut fwd_ref,
                    levels,
                    VerticalStrategy::DEFAULT_STRIP,
                    LiftingMode::Fused,
                    SimdMode::Scalar,
                    &Exec::SEQ,
                );
                let mut inv_ref = fwd_ref.clone();
                inverse_97_with(
                    &mut inv_ref,
                    levels,
                    VerticalStrategy::DEFAULT_STRIP,
                    LiftingMode::Fused,
                    SimdMode::Scalar,
                    &Exec::SEQ,
                );
                for tier in supported_tiers() {
                    let mut p = orig.clone();
                    forward_97_with(
                        &mut p,
                        levels,
                        VerticalStrategy::DEFAULT_STRIP,
                        LiftingMode::Fused,
                        SimdMode::Forced(tier),
                        &Exec::SEQ,
                    );
                    assert!(
                        bits(&p) == bits(&fwd_ref),
                        "fwd {w}x{h} L={levels} {tier:?}"
                    );
                    inverse_97_with(
                        &mut p,
                        levels,
                        VerticalStrategy::DEFAULT_STRIP,
                        LiftingMode::Fused,
                        SimdMode::Forced(tier),
                        &Exec::SEQ,
                    );
                    assert!(
                        bits(&p) == bits(&inv_ref),
                        "inv {w}x{h} L={levels} {tier:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_auto_bit_identical_to_scalar() {
        // Whatever Auto resolves to on this host (including the PJ2K_SIMD
        // override), the coefficients must match the scalar kernels bit
        // for bit.
        let orig = test_plane_f32(37, 29);
        let mut scalar = orig.clone();
        let mut auto = orig.clone();
        forward_97_with(
            &mut scalar,
            3,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        forward_97_with(
            &mut auto,
            3,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Auto,
            &Exec::SEQ,
        );
        for y in 0..29 {
            for x in 0..37 {
                assert_eq!(
                    auto.get(x, y).to_bits(),
                    scalar.get(x, y).to_bits(),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn simd_parallel_bit_identical_to_sequential() {
        // SIMD kernels under a parallel Exec must equal the sequential
        // SIMD run (static split, disjoint column ranges).
        let orig = test_plane_f32(50, 38);
        let mut seq = orig.clone();
        forward_97_with(
            &mut seq,
            3,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Auto,
            &Exec::SEQ,
        );
        for exec in [Exec::threads(3), Exec::threads(2)] {
            let mut par = orig.clone();
            forward_97_with(
                &mut par,
                3,
                VerticalStrategy::DEFAULT_STRIP,
                LiftingMode::Fused,
                SimdMode::Auto,
                &exec,
            );
            for y in 0..38 {
                for x in 0..50 {
                    assert_eq!(
                        par.get(x, y).to_bits(),
                        seq.get(x, y).to_bits(),
                        "{exec:?} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn levels_above_the_grain_split_and_match_sequential() {
        // The planes of the tests above sit below `PAR_MIN_SAMPLES` and run
        // inline whatever the executor; here level 0 splits and the
        // deeper levels run inline, for every kernel family, both
        // directions.
        let (w, h) = (640, 420);
        assert!(w * h >= PAR_MIN_SAMPLES && w * h / 4 < PAR_MIN_SAMPLES);
        let strategies = [VerticalStrategy::Naive, VerticalStrategy::DEFAULT_STRIP];
        let liftings = [LiftingMode::PerStep, LiftingMode::Fused];
        let simds = [SimdMode::Scalar, SimdMode::Auto];
        for strategy in strategies {
            for lifting in liftings {
                for simd in simds {
                    let what = format!("{strategy:?} {lifting:?} {simd:?}");
                    let orig_i = test_plane_i32(w, h, w + 8);
                    let orig_f = test_plane_f32(w, h);
                    let (mut seq_i, mut seq_f) = (orig_i.clone(), orig_f.clone());
                    forward_53_with(&mut seq_i, 3, strategy, lifting, simd, &Exec::SEQ);
                    forward_97_with(&mut seq_f, 3, strategy, lifting, simd, &Exec::SEQ);
                    for exec in [Exec::threads(2), Exec::threads(3)] {
                        let (mut par_i, mut par_f) = (orig_i.clone(), orig_f.clone());
                        forward_53_with(&mut par_i, 3, strategy, lifting, simd, &exec);
                        forward_97_with(&mut par_f, 3, strategy, lifting, simd, &exec);
                        assert_eq!(par_i, seq_i, "5/3 forward {what} {exec:?}");
                        let bits = |p: &Plane<f32>| -> Vec<u32> {
                            p.samples().map(f32::to_bits).collect()
                        };
                        assert!(bits(&par_f) == bits(&seq_f), "9/7 forward {what} {exec:?}");
                        inverse_53_with(&mut par_i, 3, strategy, lifting, simd, &exec);
                        assert_eq!(par_i, orig_i, "5/3 inverse {what} {exec:?}");
                        let mut inv_seq = seq_f.clone();
                        inverse_97_with(&mut inv_seq, 3, strategy, lifting, simd, &Exec::SEQ);
                        inverse_97_with(&mut par_f, 3, strategy, lifting, simd, &exec);
                        assert!(
                            bits(&par_f) == bits(&inv_seq),
                            "9/7 inverse {what} {exec:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // large planes: too slow under the interpreter
    fn stats_record_time() {
        let mut p = test_plane_f32(128, 128);
        let (_, stats) = forward_97(&mut p, 5, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        assert!(stats.total() > Duration::ZERO);
        assert!(stats.vertical > Duration::ZERO);
        assert!(stats.horizontal > Duration::ZERO);
    }
}
