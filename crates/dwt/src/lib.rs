//! Discrete wavelet transform substrate for pj2k.
//!
//! Implements the two JPEG2000 filter banks — the reversible integer 5/3
//! (lossless path) and the irreversible 9/7 (lossy path) — as lifting
//! schemes with whole-sample symmetric boundary extension, and the
//! multi-level Mallat decomposition over [`pj2k_image::Plane`].
//!
//! The reproduced paper (§3.2) finds that naive column filtering thrashes
//! the cache on power-of-two row pitches, and offers two fixes: pad the
//! width, or filter a strip of adjacent columns at a time so every fetched
//! cache line is fully used. The product runs one vertical pass, the strip
//! fix with fused single-loop lifting ([`fused`], vectorized in [`simd`]):
//! [`VerticalStrategy::Strip`] with [`LiftingMode::Fused`].
//!
//! The paper's baselines are test and figure oracles, compiled only under
//! the `oracle` feature: `VerticalStrategy::Naive` (one column at a time,
//! one strided walk per lifting step) and `LiftingMode::PerStep` (one sweep
//! per lifting step down a strip), both run by the scalar walkers of the
//! `vertical` module. Width padding is not a filtering algorithm but a
//! layout: a plane allocated with `stride = width + pad`
//! (`Plane::with_stride`), which every strategy accepts.
//!
//! Both the horizontal and vertical passes can be split across workers with
//! a [`pj2k_parutil::Exec`] policy (static contiguous ranges, barrier per
//! pass — exactly the paper's scheme), and per-pass wall-clock is reported
//! through [`DwtStats`] so the harness can regenerate Figs. 7, 8, 10, 11.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unused_must_use)]

pub mod fused;
pub mod gains;
pub mod lift;
pub mod simd;
pub mod subband;
pub mod transform2d;
#[cfg(feature = "oracle")]
pub mod vertical;

pub use simd::{SimdMode, SimdTier};
pub use subband::{Band, Decomposition, Subband};
pub use transform2d::{
    forward_53, forward_53_with, forward_97, forward_97_with, grain_exec, inverse_53,
    inverse_53_with, inverse_97, inverse_97_with, DwtStats, LiftingMode, VerticalStrategy,
};

/// 9/7 lifting constant α (first predict step).
pub const ALPHA: f32 = -1.586_134_3;
/// 9/7 lifting constant β (first update step).
pub const BETA: f32 = -0.052_980_117;
/// 9/7 lifting constant γ (second predict step).
pub const GAMMA: f32 = 0.882_911_1;
/// 9/7 lifting constant δ (second update step).
pub const DELTA: f32 = 0.443_506_87;
/// 9/7 scaling constant K; lowpass is scaled by `1/K`, highpass by `K/2`
/// during analysis (and inversely during synthesis), giving the lowpass
/// unit DC gain and the highpass unit Nyquist gain.
pub const KAPPA: f32 = 1.230_174_1;

/// Which JPEG2000 filter bank to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Reversible integer 5/3 (Le Gall), exact reconstruction.
    Reversible53,
    /// Irreversible floating 9/7 (CDF), the paper's default
    /// ("five-level wavelet decomposition with 7/9-biorthogonal filters").
    Irreversible97,
}
