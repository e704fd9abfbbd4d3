//! Runtime-dispatched SIMD lifting kernels across strip columns.
//!
//! The paper's strip-vertical filtering already walks rows applying the
//! same lifting step to several adjacent columns — the textbook SIMD shape:
//! one column per vector lane. This module provides vectorized 5/3 and 9/7
//! kernels: the fused single-sweep column kernels, which process a
//! [`BATCH`]-column batch per instruction sequence, and a split-halves
//! scheme for horizontal rows (the row is split into its even/odd halves,
//! after which every lifting step is a unit-offset streaming pass over two
//! contiguous arrays). Both the encoder and the decoder run exactly these
//! kernels (see [`crate::transform2d`] for the rule that picks them).
//!
//! Two tiers are selected by runtime dispatch:
//!
//! * **Portable** — plain `[T; 16]` lane arrays whose elementwise loops the
//!   compiler autovectorizes; the fallback on every architecture,
//!   including x86-64 hosts without AVX2.
//! * **AVX2** — two 256-bit registers per batch, selected via
//!   `is_x86_feature_detected!` and entered through
//!   `#[target_feature(enable = "avx2")]` wrappers.
//!
//! A batch is 16 columns — a full 64-byte cache line of 4-byte
//! coefficients — so the memory-bound vertical sweep keeps the strip
//! discipline's full-cache-line utilization regardless of register width.
//!
//! **Bit-identity is a hard requirement and holds by construction.** Every
//! vector operation here is elementwise (adds, multiplies, arithmetic
//! shifts, splats); there are no horizontal reductions and no FMA
//! contraction (explicit intrinsics only, and Rust never contracts `a*b+c`
//! on its own). Each lane therefore evaluates exactly the scalar kernel's
//! expression tree, on the same operand values, in the same order — the
//! integer 5/3 path is trivially identical, and the 9/7 path preserves the
//! per-column f32 operation order because lanes are independent columns.
//! The only rewrites are integer-exact: `2*d` becomes `d + d` and
//! `2*d + 2` becomes `d + d + 2`.
//!
//! Tails (fewer than [`BATCH`] remaining columns, or row remainders) fall
//! back to the scalar fused kernels, which compute the same expressions.
//!
//! The knob is [`SimdMode`]: `Auto` picks the best detected tier (with a
//! `PJ2K_SIMD` environment override for ablation), `Forced(tier)` clamps
//! to the best *supported* tier at or below the request, and `Scalar`
//! disables the module entirely.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::fused;
use crate::lift::mirror;
use crate::{ALPHA, BETA, DELTA, GAMMA, KAPPA};
use pj2k_parutil::DisjointClaim;
use std::ops::Range;
use std::sync::OnceLock;

/// Columns per vector batch: a full 64-byte cache line of 4-byte
/// coefficients, independent of the register width of the selected tier.
pub const BATCH: usize = 16;

#[inline]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn mirror_y(y: isize, h: usize) -> usize {
    mirror(y, h)
}

// --------------------------------------------------------------------------
// Tier selection
// --------------------------------------------------------------------------

/// One SIMD implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Generic lane arrays relying on autovectorization; always supported.
    Portable,
    /// 256-bit AVX2 intrinsics, runtime-detected.
    Avx2,
}

impl SimdTier {
    /// Whether this tier can run on the current host.
    // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
    // LANES, base indices derive from the claimed region, and ragged tails
    // fall back to the scalar path (unsafe loads carry their own SAFETY
    // bounds arguments).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The best supported tier at or below this one (`Avx2 → Portable`),
    /// so a forced tier degrades gracefully on lesser hosts.
    // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
    // LANES, base indices derive from the claimed region, and ragged tails
    // fall back to the scalar path (unsafe loads carry their own SAFETY
    // bounds arguments).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn clamp_supported(self) -> SimdTier {
        if self.is_supported() {
            self
        } else {
            SimdTier::Portable
        }
    }

    /// The best tier the current host supports.
    // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
    // LANES, base indices derive from the claimed region, and ragged tails
    // fall back to the scalar path (unsafe loads carry their own SAFETY
    // bounds arguments).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn best_detected() -> SimdTier {
        SimdTier::Avx2.clamp_supported()
    }
}

/// How the 2-D drivers select (or suppress) the SIMD kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// Use the best detected tier; honours the `PJ2K_SIMD` environment
    /// override (`scalar`/`off`, `portable`, `avx2`).
    #[default]
    Auto,
    /// Use the given tier, clamped to the best supported one at or below
    /// it. Benches use this to ablate tiers.
    Forced(SimdTier),
    /// Scalar kernels only — the pre-SIMD code paths, bit for bit.
    Scalar,
}

/// Parsed value of a `PJ2K_SIMD` token: `Some(None)` forces scalar,
/// `Some(Some(t))` forces a tier, `None` means "no override".
fn parse_tier_token(tok: &str) -> Option<Option<SimdTier>> {
    match tok.trim().to_ascii_lowercase().as_str() {
        "scalar" | "off" => Some(None),
        "portable" => Some(Some(SimdTier::Portable)),
        "avx2" => Some(Some(SimdTier::Avx2)),
        _ => None,
    }
}

/// The cached `PJ2K_SIMD` override, read once per process. A set but
/// unrecognized value warns on stderr instead of silently falling back to
/// runtime detection, so a typo (`PJ2K_SIMD=avx`) can't masquerade as a
/// forced-tier run. Empty and `auto` are accepted silently as explicit
/// "no override"; `PJ2K_THREADS` in `pj2k_parutil::budget` does the same.
fn env_override() -> Option<Option<SimdTier>> {
    static OVERRIDE: OnceLock<Option<Option<SimdTier>>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        let v = std::env::var("PJ2K_SIMD").ok()?;
        let tok = v.trim();
        if tok.is_empty() || tok.eq_ignore_ascii_case("auto") {
            return None;
        }
        let parsed = parse_tier_token(tok);
        if parsed.is_none() {
            // AUDIT(hot): cold diagnostic — runs at most once per process
            // (OnceLock) and only when the env var is set to garbage.
            eprintln!(
                "pj2k: ignoring unrecognized PJ2K_SIMD={v:?} \
                 (expected scalar|off, portable, avx2, or auto)"
            );
        }
        parsed
    })
}

impl SimdMode {
    /// Resolve the mode to a concrete tier, or `None` for scalar.
    pub fn resolve(self) -> Option<SimdTier> {
        match self {
            SimdMode::Scalar => None,
            SimdMode::Forced(t) => Some(t.clamp_supported()),
            SimdMode::Auto => match env_override() {
                Some(None) => None,
                Some(Some(t)) => Some(t.clamp_supported()),
                None => Some(SimdTier::best_detected()),
            },
        }
    }
}

// --------------------------------------------------------------------------
// Vector abstraction
// --------------------------------------------------------------------------

/// A [`BATCH`]-lane f32 vector. All operations are elementwise, so every
/// lane evaluates the scalar expression tree unchanged — the basis of the
/// module's bit-identity guarantee.
pub(crate) trait VecF: Copy {
    /// Load `BATCH` lanes from claim offset `idx`.
    ///
    /// # Safety
    /// `idx .. idx + BATCH` must be in bounds and owned by the claim.
    unsafe fn ld(c: &DisjointClaim<f32>, idx: usize) -> Self;
    /// Store `BATCH` lanes at claim offset `idx`.
    ///
    /// # Safety
    /// Same contract as [`VecF::ld`].
    unsafe fn st(self, c: &DisjointClaim<f32>, idx: usize);
    /// Load `BATCH` lanes from a slice at `idx`.
    ///
    /// # Safety
    /// `idx + BATCH <= s.len()`.
    unsafe fn lds(s: &[f32], idx: usize) -> Self;
    /// Store `BATCH` lanes into a slice at `idx`.
    ///
    /// # Safety
    /// `idx + BATCH <= s.len()`.
    unsafe fn sts(self, s: &mut [f32], idx: usize);
    /// Broadcast one value to all lanes.
    fn splat(v: f32) -> Self;
    /// Lanewise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lanewise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise `self * o`.
    fn mul(self, o: Self) -> Self;
}

/// A [`BATCH`]-lane i32 vector; see [`VecF`] for the lane discipline.
pub(crate) trait VecI: Copy {
    /// Load `BATCH` lanes from claim offset `idx`.
    ///
    /// # Safety
    /// `idx .. idx + BATCH` must be in bounds and owned by the claim.
    unsafe fn ld(c: &DisjointClaim<i32>, idx: usize) -> Self;
    /// Store `BATCH` lanes at claim offset `idx`.
    ///
    /// # Safety
    /// Same contract as [`VecI::ld`].
    unsafe fn st(self, c: &DisjointClaim<i32>, idx: usize);
    /// Load `BATCH` lanes from a slice at `idx`.
    ///
    /// # Safety
    /// `idx + BATCH <= s.len()`.
    unsafe fn lds(s: &[i32], idx: usize) -> Self;
    /// Store `BATCH` lanes into a slice at `idx`.
    ///
    /// # Safety
    /// `idx + BATCH <= s.len()`.
    unsafe fn sts(self, s: &mut [i32], idx: usize);
    /// Broadcast one value to all lanes.
    fn splat(v: i32) -> Self;
    /// Lanewise `self + o` (wrapping, like the scalar kernels' release
    /// behaviour on in-range coefficient data).
    fn add(self, o: Self) -> Self;
    /// Lanewise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise arithmetic `self >> 1`.
    fn shr1(self) -> Self;
    /// Lanewise arithmetic `self >> 2`.
    fn shr2(self) -> Self;
}

// --------------------------------------------------------------------------
// Portable tier
// --------------------------------------------------------------------------

pub(crate) mod portable {
    use super::{DisjointClaim, VecF, VecI, BATCH};

    /// Portable f32 batch: a plain lane array the compiler autovectorizes.
    #[derive(Clone, Copy)]
    pub(crate) struct F16([f32; BATCH]);

    /// Portable i32 batch.
    #[derive(Clone, Copy)]
    pub(crate) struct I16([i32; BATCH]);

    impl VecF for F16 {
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::ld` / `VecI::ld`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn ld(c: &DisjointClaim<f32>, idx: usize) -> Self {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by the
            // claim (checked by slice_mut in debug builds).
            let s = unsafe { c.slice_mut(idx, BATCH) };
            let mut a = [0.0; BATCH];
            a.copy_from_slice(s);
            F16(a)
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::st` / `VecI::st`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn st(self, c: &DisjointClaim<f32>, idx: usize) {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by the
            // claim (checked by slice_mut in debug builds).
            let s = unsafe { c.slice_mut(idx, BATCH) };
            s.copy_from_slice(&self.0);
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::lds` / `VecI::lds`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn lds(s: &[f32], idx: usize) -> Self {
            debug_assert!(idx + BATCH <= s.len());
            let mut a = [0.0; BATCH];
            // SAFETY: caller guarantees idx + BATCH <= s.len().
            unsafe {
                std::ptr::copy_nonoverlapping(s.as_ptr().add(idx), a.as_mut_ptr(), BATCH);
            }
            F16(a)
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::sts` / `VecI::sts`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn sts(self, s: &mut [f32], idx: usize) {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len().
            unsafe {
                std::ptr::copy_nonoverlapping(self.0.as_ptr(), s.as_mut_ptr().add(idx), BATCH);
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn splat(v: f32) -> Self {
            F16([v; BATCH])
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn add(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a += b;
            }
            F16(r)
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn sub(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a -= b;
            }
            F16(r)
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn mul(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a *= b;
            }
            F16(r)
        }
    }

    impl VecI for I16 {
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::ld` / `VecI::ld`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn ld(c: &DisjointClaim<i32>, idx: usize) -> Self {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by the
            // claim (checked by slice_mut in debug builds).
            let s = unsafe { c.slice_mut(idx, BATCH) };
            let mut a = [0; BATCH];
            a.copy_from_slice(s);
            I16(a)
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::st` / `VecI::st`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn st(self, c: &DisjointClaim<i32>, idx: usize) {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by the
            // claim (checked by slice_mut in debug builds).
            let s = unsafe { c.slice_mut(idx, BATCH) };
            s.copy_from_slice(&self.0);
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::lds` / `VecI::lds`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn lds(s: &[i32], idx: usize) -> Self {
            debug_assert!(idx + BATCH <= s.len());
            let mut a = [0; BATCH];
            // SAFETY: caller guarantees idx + BATCH <= s.len().
            unsafe {
                std::ptr::copy_nonoverlapping(s.as_ptr().add(idx), a.as_mut_ptr(), BATCH);
            }
            I16(a)
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::sts` / `VecI::sts`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn sts(self, s: &mut [i32], idx: usize) {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len().
            unsafe {
                std::ptr::copy_nonoverlapping(self.0.as_ptr(), s.as_mut_ptr().add(idx), BATCH);
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn splat(v: i32) -> Self {
            I16([v; BATCH])
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn add(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a = a.wrapping_add(b);
            }
            I16(r)
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn sub(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a = a.wrapping_sub(b);
            }
            I16(r)
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn shr1(self) -> Self {
            let mut r = self.0;
            for a in &mut r {
                *a >>= 1;
            }
            I16(r)
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn shr2(self) -> Self {
            let mut r = self.0;
            for a in &mut r {
                *a >>= 2;
            }
            I16(r)
        }
    }
}

// --------------------------------------------------------------------------
// AVX2 tier (x86-64)
// --------------------------------------------------------------------------

/// The AVX2 tier: a [`BATCH`]-lane composite vector built from two 256-bit
/// registers of eight lanes each.
///
/// Module invariant: values of these types are only constructed and
/// operated on inside a `#[target_feature(enable = "avx2")]` dispatch
/// wrapper guarded by runtime detection, so the required CPU features are
/// present whenever the intrinsics execute.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{DisjointClaim, VecF, VecI, BATCH};
    use std::arch::x86_64::*;

    /// f32 batch: two registers of eight lanes.
    #[derive(Clone, Copy)]
    pub(crate) struct F16([__m256; 2]);

    /// i32 batch: two registers of eight lanes.
    #[derive(Clone, Copy)]
    pub(crate) struct I16([__m256i; 2]);

    impl VecF for F16 {
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::ld` / `VecI::ld`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn ld(c: &DisjointClaim<f32>, idx: usize) -> Self {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by
            // the claim (slice_mut checks in debug builds); loads
            // are unaligned; CPU support per the module invariant.
            unsafe {
                let p = c.slice_mut(idx, BATCH).as_ptr();
                F16(core::array::from_fn(|k| _mm256_loadu_ps(p.add(k * 8))))
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::st` / `VecI::st`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn st(self, c: &DisjointClaim<f32>, idx: usize) {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by
            // the claim; stores are unaligned; CPU support per the
            // module invariant.
            unsafe {
                let p = c.slice_mut(idx, BATCH).as_mut_ptr();
                for (k, r) in self.0.iter().enumerate() {
                    _mm256_storeu_ps(p.add(k * 8), *r);
                }
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::lds` / `VecI::lds`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn lds(s: &[f32], idx: usize) -> Self {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len();
            // CPU support per the module invariant.
            unsafe {
                let p = s.as_ptr().add(idx);
                F16(core::array::from_fn(|k| _mm256_loadu_ps(p.add(k * 8))))
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::sts` / `VecI::sts`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn sts(self, s: &mut [f32], idx: usize) {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len();
            // CPU support per the module invariant.
            unsafe {
                let p = s.as_mut_ptr().add(idx);
                for (k, r) in self.0.iter().enumerate() {
                    _mm256_storeu_ps(p.add(k * 8), *r);
                }
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn splat(v: f32) -> Self {
            // SAFETY: register-only broadcast; CPU support per the
            // module invariant.
            unsafe { F16([_mm256_set1_ps(v); 2]) }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn add(self, o: Self) -> Self {
            // SAFETY: register-only lanewise op; CPU support per
            // the module invariant.
            unsafe { F16(core::array::from_fn(|k| _mm256_add_ps(self.0[k], o.0[k]))) }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: register-only lanewise op; CPU support per
            // the module invariant.
            unsafe { F16(core::array::from_fn(|k| _mm256_sub_ps(self.0[k], o.0[k]))) }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: register-only lanewise op; CPU support per
            // the module invariant.
            unsafe { F16(core::array::from_fn(|k| _mm256_mul_ps(self.0[k], o.0[k]))) }
        }
    }

    impl VecI for I16 {
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::ld` / `VecI::ld`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn ld(c: &DisjointClaim<i32>, idx: usize) -> Self {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by
            // the claim; loads are unaligned; CPU support per the
            // module invariant.
            unsafe {
                let p = c.slice_mut(idx, BATCH).as_ptr();
                I16(core::array::from_fn(|k| {
                    _mm256_loadu_si256(p.add(k * 8) as *const __m256i)
                }))
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::st` / `VecI::st`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn st(self, c: &DisjointClaim<i32>, idx: usize) {
            // SAFETY: caller guarantees idx..idx+BATCH is owned by
            // the claim; stores are unaligned; CPU support per the
            // module invariant.
            unsafe {
                let p = c.slice_mut(idx, BATCH).as_mut_ptr();
                for (k, r) in self.0.iter().enumerate() {
                    _mm256_storeu_si256(p.add(k * 8) as *mut __m256i, *r);
                }
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::lds` / `VecI::lds`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn lds(s: &[i32], idx: usize) -> Self {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len();
            // CPU support per the module invariant.
            unsafe {
                let p = s.as_ptr().add(idx);
                I16(core::array::from_fn(|k| {
                    _mm256_loadu_si256(p.add(k * 8) as *const __m256i)
                }))
            }
        }
        // SAFETY: caller upholds the `# Safety` contract documented on
        // the trait method (`VecF::sts` / `VecI::sts`).
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        unsafe fn sts(self, s: &mut [i32], idx: usize) {
            debug_assert!(idx + BATCH <= s.len());
            // SAFETY: caller guarantees idx + BATCH <= s.len();
            // CPU support per the module invariant.
            unsafe {
                let p = s.as_mut_ptr().add(idx);
                for (k, r) in self.0.iter().enumerate() {
                    _mm256_storeu_si256(p.add(k * 8) as *mut __m256i, *r);
                }
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn splat(v: i32) -> Self {
            // SAFETY: register-only broadcast; CPU support per the
            // module invariant.
            unsafe { I16([_mm256_set1_epi32(v); 2]) }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn add(self, o: Self) -> Self {
            // SAFETY: register-only lanewise op; CPU support per
            // the module invariant.
            unsafe {
                I16(core::array::from_fn(|k| {
                    _mm256_add_epi32(self.0[k], o.0[k])
                }))
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: register-only lanewise op; CPU support per
            // the module invariant.
            unsafe {
                I16(core::array::from_fn(|k| {
                    _mm256_sub_epi32(self.0[k], o.0[k])
                }))
            }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn shr1(self) -> Self {
            // SAFETY: register-only lanewise arithmetic shift; CPU
            // support per the module invariant.
            unsafe { I16(core::array::from_fn(|k| _mm256_srai_epi32::<1>(self.0[k]))) }
        }
        #[inline(always)]
        // AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
        // LANES, base indices derive from the claimed region, and ragged tails
        // fall back to the scalar path (unsafe loads carry their own SAFETY
        // bounds arguments).
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        fn shr2(self) -> Self {
            // SAFETY: register-only lanewise arithmetic shift; CPU
            // support per the module invariant.
            unsafe { I16(core::array::from_fn(|k| _mm256_srai_epi32::<2>(self.0[k]))) }
        }
    }
}

// --------------------------------------------------------------------------
// Vertical batch kernels (one BATCH of adjacent columns per call)
// --------------------------------------------------------------------------
//
// Each kernel is the vector transcription of its scalar counterpart in
// `fused` with `strip = BATCH` and the per-lane history arrays
// promoted to vector registers. Row indices, mirror handling and the order
// of arithmetic per coefficient are copied verbatim, so each lane computes
// exactly the scalar expression tree (see the module docs).

/// Fused forward 5/3 on columns `x0..x0+BATCH`; vector transcription of
/// [`fused::fwd_fused_strip_53_cols`].
///
/// # Safety
/// Columns `x0..x0+BATCH` over all `h` rows must be owned by the claim;
/// `h * stride` elements allocated; `h > 1`; CPU support for `I`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_fused_53_batch<I: VecI>(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    x0: usize,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let ce = h.div_ceil(2);
        let fh = h / 2;
        scratch.clear();
        scratch.resize(fh * BATCH, 0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
        let two = I::splat(2);
        let mut d_prev = I::splat(0);
        for i in 0..fh {
            let r0 = 2 * i * stride;
            let r1 = r0 + stride;
            let rr = mirror_y(2 * i as isize + 2, h) * stride;
            let xe = I::ld(ptr, r0 + x0);
            let d = I::ld(ptr, r1 + x0).sub(xe.add(I::ld(ptr, rr + x0)).shr1());
            let dl = if i == 0 { d } else { d_prev };
            d.sts(scratch, i * BATCH);
            d_prev = d;
            xe.add(dl.add(d).add(two).shr2()).st(ptr, i * stride + x0);
        }
        if !h.is_multiple_of(2) {
            let rn = (h - 1) * stride;
            let wl = (ce - 1) * stride;
            I::ld(ptr, rn + x0)
                .add(d_prev.add(d_prev).add(two).shr2())
                .st(ptr, wl + x0);
        }
        for j in 0..fh {
            I::lds(scratch, j * BATCH).st(ptr, (ce + j) * stride + x0);
        }
    }
}

/// Fused inverse 5/3 on columns `x0..x0+BATCH`; vector transcription of
/// [`fused::inv_fused_strip_53_cols`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`].
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_fused_53_batch<I: VecI>(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    x0: usize,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let ce = h.div_ceil(2);
        let fh = h / 2;
        scratch.clear();
        scratch.resize(ce * BATCH, 0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
        for j in 0..ce {
            I::ld(ptr, j * stride + x0).sts(scratch, j * BATCH);
        }
        let two = I::splat(2);
        let d0 = I::ld(ptr, ce * stride + x0);
        let e0 = I::lds(scratch, 0).sub(d0.add(d0).add(two).shr2());
        e0.st(ptr, x0);
        let mut d_prev = d0;
        let mut pe = e0;
        for i in 1..ce {
            let rh = (ce + i) * stride;
            let we = 2 * i * stride;
            let wo = we - stride;
            let dl = d_prev;
            let dr = if i < fh { I::ld(ptr, rh + x0) } else { dl };
            let e = I::lds(scratch, i * BATCH).sub(dl.add(dr).add(two).shr2());
            e.st(ptr, we + x0);
            dl.add(pe.add(e).shr1()).st(ptr, wo + x0);
            d_prev = dr;
            pe = e;
        }
        if h.is_multiple_of(2) {
            let wn = (h - 1) * stride;
            d_prev.add(pe.add(pe).shr1()).st(ptr, wn + x0);
        }
    }
}

/// Fused forward 9/7 on columns `x0..x0+BATCH`; vector transcription of
/// [`fused::fwd_fused_strip_97_cols`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`].
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_fused_97_batch<F: VecF>(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    x0: usize,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let ce = h.div_ceil(2);
        let fh = h / 2;
        scratch.clear();
        scratch.resize(fh * BATCH, 0.0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
        let (vkl, vkh) = (F::splat(1.0 / KAPPA), F::splat(KAPPA / 2.0));
        let (va, vb) = (F::splat(ALPHA), F::splat(BETA));
        let (vg, vd) = (F::splat(GAMMA), F::splat(DELTA));
        let mut a_prev = F::splat(0.0);
        let mut b_prev = F::splat(0.0);
        let mut c_prev = F::splat(0.0);
        for i in 0..fh {
            let r0 = 2 * i * stride;
            let r1 = r0 + stride;
            let rr = mirror_y(2 * i as isize + 2, h) * stride;
            let (first, second) = (i == 0, i == 1);
            let xe = F::ld(ptr, r0 + x0);
            let a = F::ld(ptr, r1 + x0).add(va.mul(xe.add(F::ld(ptr, rr + x0))));
            let al = if first { a } else { a_prev };
            let b = xe.add(vb.mul(al.add(a)));
            if !first {
                let c = a_prev.add(vg.mul(b_prev.add(b)));
                let cl = if second { c } else { c_prev };
                let e = b_prev.add(vd.mul(cl.add(c)));
                e.mul(vkl).st(ptr, (i - 1) * stride + x0);
                c.mul(vkh).sts(scratch, (i - 1) * BATCH);
                c_prev = c;
            }
            a_prev = a;
            b_prev = b;
        }
        let single = fh == 1;
        if h.is_multiple_of(2) {
            let c = a_prev.add(vg.mul(b_prev.add(b_prev)));
            let cl = if single { c } else { c_prev };
            let e = b_prev.add(vd.mul(cl.add(c)));
            e.mul(vkl).st(ptr, (fh - 1) * stride + x0);
            c.mul(vkh).sts(scratch, (fh - 1) * BATCH);
        } else {
            let b_last = F::ld(ptr, (h - 1) * stride + x0).add(vb.mul(a_prev.add(a_prev)));
            let c = a_prev.add(vg.mul(b_prev.add(b_last)));
            let cl = if single { c } else { c_prev };
            let e = b_prev.add(vd.mul(cl.add(c)));
            e.mul(vkl).st(ptr, (fh - 1) * stride + x0);
            c.mul(vkh).sts(scratch, (fh - 1) * BATCH);
            b_last
                .add(vd.mul(c.add(c)))
                .mul(vkl)
                .st(ptr, fh * stride + x0);
        }
        for j in 0..fh {
            F::lds(scratch, j * BATCH).st(ptr, (ce + j) * stride + x0);
        }
    }
}

/// Fused inverse 9/7 on columns `x0..x0+BATCH`; vector transcription of
/// [`fused::inv_fused_strip_97_cols`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`].
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_fused_97_batch<F: VecF>(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    x0: usize,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let ce = h.div_ceil(2);
        let fh = h / 2;
        scratch.clear();
        scratch.resize(ce * BATCH, 0.0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
        for j in 0..ce {
            F::ld(ptr, j * stride + x0).sts(scratch, j * BATCH);
        }
        let (vkl, vkh) = (F::splat(KAPPA), F::splat(2.0 / KAPPA));
        let (va, vb) = (F::splat(ALPHA), F::splat(BETA));
        let (vg, vd) = (F::splat(GAMMA), F::splat(DELTA));
        let mut c_prev = F::splat(0.0);
        let mut b_prev = F::splat(0.0);
        let mut a_prev = F::splat(0.0);
        let mut x_prev = F::splat(0.0);
        for i in 0..ce {
            let rh = (ce + i) * stride;
            let (first, second) = (i == 0, i == 1);
            let e_cur = F::lds(scratch, i * BATCH).mul(vkl);
            let c_cur = if i < fh {
                F::ld(ptr, rh + x0).mul(vkh)
            } else {
                c_prev
            };
            let b = e_cur.sub(vd.mul((if first { c_cur } else { c_prev }).add(c_cur)));
            if !first {
                let a = c_prev.sub(vg.mul(b_prev.add(b)));
                let al = if second { a } else { a_prev };
                let xe = b_prev.sub(vb.mul(al.add(a)));
                xe.st(ptr, (2 * i - 2) * stride + x0);
                if !second {
                    a_prev
                        .sub(va.mul(x_prev.add(xe)))
                        .st(ptr, (2 * i - 3) * stride + x0);
                }
                a_prev = a;
                x_prev = xe;
            }
            b_prev = b;
            c_prev = c_cur;
        }
        if h.is_multiple_of(2) {
            let we = (h - 2) * stride;
            let wn = (h - 1) * stride;
            let single = ce == 1;
            let a_last = c_prev.sub(vg.mul(b_prev.add(b_prev)));
            let al = if single { a_last } else { a_prev };
            let xe = b_prev.sub(vb.mul(al.add(a_last)));
            xe.st(ptr, we + x0);
            if h >= 4 {
                a_prev.sub(va.mul(x_prev.add(xe))).st(ptr, we - stride + x0);
            }
            a_last.sub(va.mul(xe.add(xe))).st(ptr, wn + x0);
        } else {
            let wn = (h - 1) * stride;
            let x_last = b_prev.sub(vb.mul(a_prev.add(a_prev)));
            x_last.st(ptr, wn + x0);
            a_prev
                .sub(va.mul(x_prev.add(x_last)))
                .st(ptr, wn - stride + x0);
        }
    }
}

// --------------------------------------------------------------------------
// Vertical region drivers: batches of BATCH columns + scalar tail
// --------------------------------------------------------------------------

/// Forward 5/3 vertical analysis of `cols`: full [`BATCH`]-column batches
/// through the vector kernel, remaining tail columns through the scalar
/// fused strip kernel (same expressions, hence still bit-identical).
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`] for the whole `cols` range.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_vert_53_t<V: VecI>(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let mut x0 = cols.start;
        while x0 + BATCH <= cols.end {
            fwd_fused_53_batch::<V>(ptr, stride, x0, h, scratch);
            x0 += BATCH;
        }
        if x0 < cols.end {
            let w = cols.end - x0;
            fused::fwd_fused_strip_53_cols(ptr, stride, x0..cols.end, h, w, scratch);
        }
    }
}

/// Inverse 5/3 vertical synthesis of `cols`; see [`fwd_vert_53_t`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`] for the whole `cols` range.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_vert_53_t<V: VecI>(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let mut x0 = cols.start;
        while x0 + BATCH <= cols.end {
            inv_fused_53_batch::<V>(ptr, stride, x0, h, scratch);
            x0 += BATCH;
        }
        if x0 < cols.end {
            let w = cols.end - x0;
            fused::inv_fused_strip_53_cols(ptr, stride, x0..cols.end, h, w, scratch);
        }
    }
}

/// Forward 9/7 vertical analysis of `cols`; see [`fwd_vert_53_t`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`] for the whole `cols` range.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_vert_97_t<V: VecF>(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let mut x0 = cols.start;
        while x0 + BATCH <= cols.end {
            fwd_fused_97_batch::<V>(ptr, stride, x0, h, scratch);
            x0 += BATCH;
        }
        if x0 < cols.end {
            let w = cols.end - x0;
            fused::fwd_fused_strip_97_cols(ptr, stride, x0..cols.end, h, w, scratch);
        }
    }
}

/// Inverse 9/7 vertical synthesis of `cols`; see [`fwd_vert_53_t`].
///
/// # Safety
/// Same contract as [`fwd_fused_53_batch`] for the whole `cols` range.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_vert_97_t<V: VecF>(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let mut x0 = cols.start;
        while x0 + BATCH <= cols.end {
            inv_fused_97_batch::<V>(ptr, stride, x0, h, scratch);
            x0 += BATCH;
        }
        if x0 < cols.end {
            let w = cols.end - x0;
            fused::inv_fused_strip_97_cols(ptr, stride, x0..cols.end, h, w, scratch);
        }
    }
}

// --------------------------------------------------------------------------
// Horizontal rows: the interleaved-pair scheme
// --------------------------------------------------------------------------
//
// A row is split into its even/odd halves (the pair arrays); every lifting
// step then becomes a streaming pass over two contiguous arrays whose
// neighbour accesses are unit-offset unaligned loads — no shuffles needed.
// Since the forward output layout is exactly `[low | high]`, the split IS
// the deinterleave. Boundary samples are handled scalar with the same
// mirror expressions as `crate::lift`.

/// One 9/7-style lifting step on the odd half: `o[i] += c * (e[i] +
/// e[i+1])`, with the even-length mirror tail `o[last] += c * 2*e[last]`.
///
/// # Safety
/// CPU support for `F`'s tier; `eb.len() >= ob.len() + usize::from(!even_n)`.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn step_odd_97<F: VecF>(ob: &mut [f32], eb: &[f32], c: f32, even_n: bool) {
    let fh = ob.len();
    if fh == 0 {
        return;
    }
    let interior = if even_n { fh - 1 } else { fh };
    let vc = F::splat(c);
    let mut i = 0;
    // SAFETY: i + BATCH <= interior <= ob.len(), and eb holds at least
    // interior + 1 elements per this function's contract.
    unsafe {
        while i + BATCH <= interior {
            F::lds(ob, i)
                .add(vc.mul(F::lds(eb, i).add(F::lds(eb, i + 1))))
                .sts(ob, i);
            i += BATCH;
        }
    }
    while i < interior {
        ob[i] += c * (eb[i] + eb[i + 1]);
        i += 1;
    }
    if even_n {
        ob[fh - 1] += c * (eb[fh - 1] + eb[fh - 1]);
    }
}

/// One 9/7-style lifting step on the even half: `e[0] += c * 2*o[0]`,
/// `e[i] += c * (o[i-1] + o[i])`, odd-length tail `e[last] += c *
/// 2*o[last]`.
///
/// # Safety
/// CPU support for `F`'s tier; `eb.len() == ob.len() + usize::from(odd_n)`
/// with `ob` non-empty.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn step_even_97<F: VecF>(eb: &mut [f32], ob: &[f32], c: f32, odd_n: bool) {
    let fh = ob.len();
    let vc = F::splat(c);
    eb[0] += c * (ob[0] + ob[0]);
    let mut i = 1;
    // SAFETY: i + BATCH <= fh == ob.len() and eb.len() >= fh per this
    // function's contract.
    unsafe {
        while i + BATCH <= fh {
            F::lds(eb, i)
                .add(vc.mul(F::lds(ob, i - 1).add(F::lds(ob, i))))
                .sts(eb, i);
            i += BATCH;
        }
    }
    while i < fh {
        eb[i] += c * (ob[i - 1] + ob[i]);
        i += 1;
    }
    if odd_n {
        eb[fh] += c * (ob[fh - 1] + ob[fh - 1]);
    }
}

/// Scale every element of `buf` by `k` (vector body, scalar remainder).
///
/// # Safety
/// CPU support for `F`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn scale_97<F: VecF>(buf: &mut [f32], k: f32) {
    let vk = F::splat(k);
    let mut i = 0;
    // SAFETY: i + BATCH <= buf.len() inside the loop.
    unsafe {
        while i + BATCH <= buf.len() {
            F::lds(buf, i).mul(vk).sts(buf, i);
            i += BATCH;
        }
    }
    while i < buf.len() {
        buf[i] *= k;
        i += 1;
    }
}

/// Forward 5/3 analysis of one row via the interleaved-pair scheme;
/// bit-identical to [`crate::lift::fwd_row_53`].
///
/// # Safety
/// CPU support for `I`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_row_53_t<I: VecI>(row: &mut [i32], scratch: &mut Vec<i32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    let fh = n / 2;
    scratch.clear();
    scratch.resize(n, 0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
    let (eb, ob) = scratch.split_at_mut(ce);
    for (i, e) in eb.iter_mut().enumerate() {
        *e = row[2 * i];
    }
    for (i, o) in ob.iter_mut().enumerate() {
        *o = row[2 * i + 1];
    }
    let even_n = n.is_multiple_of(2);
    // Predict the high half: o[i] -= (e[i] + e[i+1]) >> 1.
    let interior = if even_n { fh - 1 } else { fh };
    let mut i = 0;
    // SAFETY: i + BATCH <= interior <= ob.len(); eb holds interior + 1
    // elements or more.
    unsafe {
        while i + BATCH <= interior {
            I::lds(ob, i)
                .sub(I::lds(eb, i).add(I::lds(eb, i + 1)).shr1())
                .sts(ob, i);
            i += BATCH;
        }
    }
    while i < interior {
        ob[i] -= (eb[i] + eb[i + 1]) >> 1;
        i += 1;
    }
    if even_n {
        ob[fh - 1] -= (eb[fh - 1] + eb[fh - 1]) >> 1;
    }
    // Update the low half: e[i] += (o[i-1] + o[i] + 2) >> 2.
    let two = I::splat(2);
    eb[0] += (ob[0] + ob[0] + 2) >> 2;
    let mut i = 1;
    // SAFETY: i + BATCH <= fh == ob.len() <= eb.len().
    unsafe {
        while i + BATCH <= fh {
            I::lds(eb, i)
                .add(I::lds(ob, i - 1).add(I::lds(ob, i)).add(two).shr2())
                .sts(eb, i);
            i += BATCH;
        }
    }
    while i < fh {
        eb[i] += (ob[i - 1] + ob[i] + 2) >> 2;
        i += 1;
    }
    if !even_n {
        eb[ce - 1] += (ob[fh - 1] + ob[fh - 1] + 2) >> 2;
    }
    row.copy_from_slice(scratch);
}

/// Inverse 5/3 synthesis of one `[low | high]` row; bit-identical to
/// [`crate::lift::inv_row_53`].
///
/// # Safety
/// CPU support for `I`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_row_53_t<I: VecI>(row: &mut [i32], scratch: &mut Vec<i32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    let fh = n / 2;
    scratch.clear();
    scratch.extend_from_slice(row); // AUDIT(hot): amortized — refills cleared recycled scratch, capacity reused.
    let (eb, ob) = scratch.split_at_mut(ce);
    let even_n = n.is_multiple_of(2);
    // Undo the update: e[i] -= (o[i-1] + o[i] + 2) >> 2.
    let two = I::splat(2);
    eb[0] -= (ob[0] + ob[0] + 2) >> 2;
    let mut i = 1;
    // SAFETY: i + BATCH <= fh == ob.len() <= eb.len().
    unsafe {
        while i + BATCH <= fh {
            I::lds(eb, i)
                .sub(I::lds(ob, i - 1).add(I::lds(ob, i)).add(two).shr2())
                .sts(eb, i);
            i += BATCH;
        }
    }
    while i < fh {
        eb[i] -= (ob[i - 1] + ob[i] + 2) >> 2;
        i += 1;
    }
    if !even_n {
        eb[ce - 1] -= (ob[fh - 1] + ob[fh - 1] + 2) >> 2;
    }
    // Undo the predict: o[i] += (e[i] + e[i+1]) >> 1.
    let interior = if even_n { fh - 1 } else { fh };
    let mut i = 0;
    // SAFETY: i + BATCH <= interior <= ob.len(); eb holds interior + 1
    // elements or more.
    unsafe {
        while i + BATCH <= interior {
            I::lds(ob, i)
                .add(I::lds(eb, i).add(I::lds(eb, i + 1)).shr1())
                .sts(ob, i);
            i += BATCH;
        }
    }
    while i < interior {
        ob[i] += (eb[i] + eb[i + 1]) >> 1;
        i += 1;
    }
    if even_n {
        ob[fh - 1] += (eb[fh - 1] + eb[fh - 1]) >> 1;
    }
    for (i, &e) in eb.iter().enumerate() {
        row[2 * i] = e;
    }
    for (i, &o) in ob.iter().enumerate() {
        row[2 * i + 1] = o;
    }
}

/// Forward 9/7 analysis of one row via the interleaved-pair scheme;
/// bit-identical to [`crate::lift::fwd_row_97`].
///
/// # Safety
/// CPU support for `F`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn fwd_row_97_t<F: VecF>(row: &mut [f32], scratch: &mut Vec<f32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    scratch.clear();
    scratch.resize(n, 0.0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
    let (eb, ob) = scratch.split_at_mut(ce);
    for (i, e) in eb.iter_mut().enumerate() {
        *e = row[2 * i];
    }
    for (i, o) in ob.iter_mut().enumerate() {
        *o = row[2 * i + 1];
    }
    let even_n = n.is_multiple_of(2);
    // SAFETY: forwarded to the step helpers; the pair arrays satisfy their
    // length contracts by construction (ce == fh + usize::from(!even_n)).
    unsafe {
        step_odd_97::<F>(ob, eb, ALPHA, even_n);
        step_even_97::<F>(eb, ob, BETA, !even_n);
        step_odd_97::<F>(ob, eb, GAMMA, even_n);
        step_even_97::<F>(eb, ob, DELTA, !even_n);
        scale_97::<F>(eb, 1.0 / KAPPA);
        scale_97::<F>(ob, KAPPA / 2.0);
    }
    row.copy_from_slice(scratch);
}

/// Inverse 9/7 synthesis of one `[low | high]` row; bit-identical to
/// [`crate::lift::inv_row_97`].
///
/// # Safety
/// CPU support for `F`'s tier.
#[inline(always)]
// AUDIT(panic): encoder-side SIMD batch kernel: lane offsets are fixed by the tier's
// LANES, base indices derive from the claimed region, and ragged tails
// fall back to the scalar path (unsafe loads carry their own SAFETY
// bounds arguments).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn inv_row_97_t<F: VecF>(row: &mut [f32], scratch: &mut Vec<f32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    scratch.clear();
    scratch.extend_from_slice(row); // AUDIT(hot): amortized — refills cleared recycled scratch, capacity reused.
    let (eb, ob) = scratch.split_at_mut(ce);
    let even_n = n.is_multiple_of(2);
    // SAFETY: forwarded to the step helpers; the pair arrays satisfy their
    // length contracts by construction.
    unsafe {
        scale_97::<F>(eb, KAPPA);
        scale_97::<F>(ob, 2.0 / KAPPA);
        step_even_97::<F>(eb, ob, -DELTA, !even_n);
        step_odd_97::<F>(ob, eb, -GAMMA, even_n);
        step_even_97::<F>(eb, ob, -BETA, !even_n);
        step_odd_97::<F>(ob, eb, -ALPHA, even_n);
    }
    for (i, &e) in eb.iter().enumerate() {
        row[2 * i] = e;
    }
    for (i, &o) in ob.iter().enumerate() {
        row[2 * i + 1] = o;
    }
}

// --------------------------------------------------------------------------
// Tier dispatch
// --------------------------------------------------------------------------

/// Generates the public dispatch entry for one generic kernel: a
/// `#[target_feature(enable = "avx2")]` wrapper (so the whole inlined
/// kernel is compiled with AVX2 codegen) plus the tier `match`.
macro_rules! tiered_entry {
    ($(#[$meta:meta])* $name:ident, $wrap:ident, $driver:ident, $vec:ident,
     ($($arg:ident: $ty:ty),*)) => {
        // SAFETY: the caller's contract (including AVX2 presence) is
        // forwarded unchanged to the generic driver.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $wrap($($arg: $ty),*) {
            // SAFETY: the caller's contract (including AVX2 presence,
            // guaranteed by runtime detection in the dispatcher) is
            // forwarded unchanged.
            unsafe { $driver::<avx2::$vec>($($arg),*) }
        }

        $(#[$meta])*
        // SAFETY: `# Safety` contract documented at each invocation
        // (via `$meta`); the AVX2 arm additionally requires
        // `tier.is_supported()`.
        pub(crate) unsafe fn $name(tier: SimdTier, $($arg: $ty),*) {
            // SAFETY: the caller's contract is forwarded unchanged; the
            // AVX2 arm requires `tier.is_supported()`, part of the
            // documented contract.
            unsafe {
                match tier {
                    SimdTier::Portable => $driver::<portable::$vec>($($arg),*),
                    #[cfg(target_arch = "x86_64")]
                    SimdTier::Avx2 => $wrap($($arg),*),
                    #[cfg(not(target_arch = "x86_64"))]
                    _ => $driver::<portable::$vec>($($arg),*),
                }
            }
        }
    };
}

tiered_entry!(
    /// Fused forward 5/3 vertical analysis over `cols` with the `tier` kernels.
    ///
    /// # Safety
    /// `cols` (all `h` rows) owned by the claim, `h * stride` elements
    /// allocated, and `tier.is_supported()`.
    fwd_vertical_53, fwd_vertical_53_avx2, fwd_vert_53_t, I16,
    (ptr: &DisjointClaim<i32>, stride: usize, cols: Range<usize>, h: usize,
     scratch: &mut Vec<i32>)
);

tiered_entry!(
    /// Fused inverse 5/3 vertical synthesis over `cols` with the `tier` kernels.
    ///
    /// # Safety
    /// Same contract as [`fwd_vertical_53`].
    inv_vertical_53, inv_vertical_53_avx2, inv_vert_53_t, I16,
    (ptr: &DisjointClaim<i32>, stride: usize, cols: Range<usize>, h: usize,
     scratch: &mut Vec<i32>)
);

tiered_entry!(
    /// Fused forward 9/7 vertical analysis over `cols` with the `tier` kernels.
    ///
    /// # Safety
    /// Same contract as [`fwd_vertical_53`].
    fwd_vertical_97, fwd_vertical_97_avx2, fwd_vert_97_t, F16,
    (ptr: &DisjointClaim<f32>, stride: usize, cols: Range<usize>, h: usize,
     scratch: &mut Vec<f32>)
);

tiered_entry!(
    /// Fused inverse 9/7 vertical synthesis over `cols` with the `tier` kernels.
    ///
    /// # Safety
    /// Same contract as [`fwd_vertical_53`].
    inv_vertical_97, inv_vertical_97_avx2, inv_vert_97_t, F16,
    (ptr: &DisjointClaim<f32>, stride: usize, cols: Range<usize>, h: usize,
     scratch: &mut Vec<f32>)
);

tiered_entry!(
    /// Forward 5/3 row analysis (interleaved-pair scheme); bit-identical
    /// to [`crate::lift::fwd_row_53`].
    ///
    /// # Safety
    /// `tier.is_supported()`.
    fwd_row_53_simd, fwd_row_53_simd_avx2, fwd_row_53_t, I16,
    (row: &mut [i32], scratch: &mut Vec<i32>)
);

tiered_entry!(
    /// Inverse 5/3 row synthesis; bit-identical to
    /// [`crate::lift::inv_row_53`].
    ///
    /// # Safety
    /// `tier.is_supported()`.
    inv_row_53_simd, inv_row_53_simd_avx2, inv_row_53_t, I16,
    (row: &mut [i32], scratch: &mut Vec<i32>)
);

tiered_entry!(
    /// Forward 9/7 row analysis (interleaved-pair scheme); bit-identical
    /// to [`crate::lift::fwd_row_97`].
    ///
    /// # Safety
    /// `tier.is_supported()`.
    fwd_row_97_simd, fwd_row_97_simd_avx2, fwd_row_97_t, F16,
    (row: &mut [f32], scratch: &mut Vec<f32>)
);

tiered_entry!(
    /// Inverse 9/7 row synthesis; bit-identical to
    /// [`crate::lift::inv_row_97`].
    ///
    /// # Safety
    /// `tier.is_supported()`.
    inv_row_97_simd, inv_row_97_simd_avx2, inv_row_97_t, F16,
    (row: &mut [f32], scratch: &mut Vec<f32>)
);

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::lift;
    use pj2k_parutil::DisjointWriter;

    fn supported_tiers() -> Vec<SimdTier> {
        [SimdTier::Portable, SimdTier::Avx2]
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    #[test]
    fn parse_tier_token_covers_knob_vocabulary() {
        assert_eq!(parse_tier_token("scalar"), Some(None));
        assert_eq!(parse_tier_token("off"), Some(None));
        assert_eq!(parse_tier_token("portable"), Some(Some(SimdTier::Portable)));
        assert_eq!(parse_tier_token("avx2"), Some(Some(SimdTier::Avx2)));
        assert_eq!(parse_tier_token("AVX2"), Some(Some(SimdTier::Avx2)));
        assert_eq!(
            parse_tier_token(" portable "),
            Some(Some(SimdTier::Portable))
        );
        assert_eq!(parse_tier_token("sse2"), None, "the SSE2 tier is gone");
        assert_eq!(parse_tier_token("neon"), None);
        assert_eq!(parse_tier_token(""), None);
    }

    #[test]
    fn resolve_honours_mode() {
        assert_eq!(SimdMode::Scalar.resolve(), None);
        // Portable is always supported, so a forced portable sticks.
        assert_eq!(
            SimdMode::Forced(SimdTier::Portable).resolve(),
            Some(SimdTier::Portable)
        );
        // A forced tier never resolves to something unsupported.
        let t = SimdMode::Forced(SimdTier::Avx2)
            .resolve()
            .expect("clamps to a supported tier");
        assert!(t.is_supported());
    }

    #[test]
    fn clamp_supported_degrades_in_order() {
        // Whatever the host, the clamp chain ends at Portable.
        assert!(SimdTier::Portable.clamp_supported().is_supported());
        assert!(SimdTier::Avx2.clamp_supported().is_supported());
        if !SimdTier::Avx2.is_supported() {
            assert_eq!(SimdTier::Avx2.clamp_supported(), SimdTier::Portable);
        }
    }

    /// Deterministic i32 test pattern.
    fn fill_i32(buf: &mut [i32], stride: usize) {
        for (i, v) in buf.iter_mut().enumerate() {
            let (y, x) = (i / stride, i % stride);
            *v = ((x * 53 + y * 97 + x * y) % 511) as i32 - 255;
        }
    }

    /// Deterministic f32 test pattern.
    fn fill_f32(buf: &mut [f32], stride: usize) {
        for (i, v) in buf.iter_mut().enumerate() {
            let (y, x) = (i / stride, i % stride);
            *v = ((x * 31 + y * 17 + x * y) % 255) as f32 - 127.0;
        }
    }

    /// Shapes that stress every tail: widths below one batch, exact
    /// batches, non-multiples, and degenerate heights.
    const SHAPES: &[(usize, usize)] = &[
        (1, 7),
        (3, 4),
        (7, 2),
        (16, 16),
        (17, 9),
        (31, 3),
        (33, 33),
        (40, 24),
        (48, 5),
    ];

    /// Run `f` with a claim over columns `0..w` (all `h` rows) of `buf`.
    fn with_claim<T: Send>(
        buf: &mut [T],
        w: usize,
        h: usize,
        stride: usize,
        f: impl FnOnce(&DisjointClaim<T>),
    ) {
        let writer = DisjointWriter::new(buf);
        f(&writer.claim_rect(0..w, 0..h, stride));
    }

    #[test]
    fn vertical_53_bit_identical_to_scalar_every_tier() {
        for &(w, h) in SHAPES {
            let stride = w + 2; // off the batch grid on purpose
            let mut orig = vec![0i32; stride * h];
            fill_i32(&mut orig, stride);
            let mut scratch = Vec::new();
            let mut scalar = orig.clone();
            // SAFETY: the claim covers all of `0..w`; the buffer holds
            // `stride * h` elements.
            with_claim(&mut scalar, w, h, stride, |c| unsafe {
                fused::fwd_fused_strip_53_cols(c, stride, 0..w, h, 16, &mut scratch)
            });
            for tier in supported_tiers() {
                let mut buf = orig.clone();
                // SAFETY: as above; the tier is supported by construction.
                with_claim(&mut buf, w, h, stride, |c| unsafe {
                    fwd_vertical_53(tier, c, stride, 0..w, h, &mut scratch)
                });
                assert_eq!(buf, scalar, "fwd {w}x{h} {tier:?}");
                // And the inverse restores the original exactly.
                // SAFETY: as above.
                with_claim(&mut buf, w, h, stride, |c| unsafe {
                    inv_vertical_53(tier, c, stride, 0..w, h, &mut scratch)
                });
                assert_eq!(buf, orig, "roundtrip {w}x{h} {tier:?}");
            }
        }
    }

    #[test]
    fn vertical_97_bit_identical_to_scalar_every_tier() {
        for &(w, h) in SHAPES {
            let stride = w + 1;
            let mut orig = vec![0f32; stride * h];
            fill_f32(&mut orig, stride);
            let mut scratch = Vec::new();
            let mut scalar = orig.clone();
            // SAFETY: the claim covers all of `0..w`; the buffer holds
            // `stride * h` elements.
            with_claim(&mut scalar, w, h, stride, |c| unsafe {
                fused::fwd_fused_strip_97_cols(c, stride, 0..w, h, 16, &mut scratch)
            });
            let mut scalar_inv = scalar.clone();
            // SAFETY: as above.
            with_claim(&mut scalar_inv, w, h, stride, |c| unsafe {
                fused::inv_fused_strip_97_cols(c, stride, 0..w, h, 16, &mut scratch)
            });
            let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            for tier in supported_tiers() {
                let mut buf = orig.clone();
                // SAFETY: as above; the tier is supported by construction.
                with_claim(&mut buf, w, h, stride, |c| unsafe {
                    fwd_vertical_97(tier, c, stride, 0..w, h, &mut scratch)
                });
                assert!(bits(&buf) == bits(&scalar), "fwd {w}x{h} {tier:?}");
                // SAFETY: as above.
                with_claim(&mut buf, w, h, stride, |c| unsafe {
                    inv_vertical_97(tier, c, stride, 0..w, h, &mut scratch)
                });
                assert!(bits(&buf) == bits(&scalar_inv), "inv {w}x{h} {tier:?}");
                for (i, (a, b)) in buf.iter().zip(orig.iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-3,
                        "roundtrip {w}x{h} {tier:?} elem {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_53_bit_identical_to_scalar_every_tier() {
        for n in 1..=67usize {
            let mut scalar = vec![0i32; n];
            fill_i32(&mut scalar, n.max(1));
            let orig = scalar.clone();
            let mut scratch = Vec::new();
            lift::fwd_row_53(&mut scalar, &mut scratch);
            for tier in supported_tiers() {
                let mut row = orig.clone();
                // SAFETY: tier is supported by construction.
                unsafe { fwd_row_53_simd(tier, &mut row, &mut scratch) };
                assert_eq!(row, scalar, "fwd n={n} {tier:?}");
                // SAFETY: as above.
                unsafe { inv_row_53_simd(tier, &mut row, &mut scratch) };
                assert_eq!(row, orig, "roundtrip n={n} {tier:?}");
            }
        }
    }

    #[test]
    fn rows_97_bit_identical_to_scalar_every_tier() {
        for n in 1..=67usize {
            let mut scalar = vec![0f32; n];
            fill_f32(&mut scalar, n.max(1));
            let orig = scalar.clone();
            let mut scratch = Vec::new();
            lift::fwd_row_97(&mut scalar, &mut scratch);
            for tier in supported_tiers() {
                let mut row = orig.clone();
                // SAFETY: tier is supported by construction.
                unsafe { fwd_row_97_simd(tier, &mut row, &mut scratch) };
                for (i, (a, b)) in row.iter().zip(scalar.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "fwd n={n} {tier:?} elem {i}");
                }
                // The scalar inverse must also undo the SIMD forward: same
                // bits in, same bits out.
                let mut undo = row.clone();
                lift::inv_row_97(&mut undo, &mut scratch);
                // SAFETY: as above.
                unsafe { inv_row_97_simd(tier, &mut row, &mut scratch) };
                for (i, (a, b)) in row.iter().zip(undo.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "inv n={n} {tier:?} elem {i}");
                }
            }
        }
    }
}
