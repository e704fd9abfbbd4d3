//! Steady-state zero-allocation oracle.
//!
//! The static half of the hot-path contract is `cargo xtask audit` (`hot`):
//! every allocation site in the hot closure carries an `AUDIT(hot)`
//! justification, many of which claim "amortized" — the site runs only
//! while a recycled buffer grows to its high-water mark. This test is the
//! runtime half: with a counting global allocator installed, it proves
//! those claims hold — a warm Tier-1 arena codes blocks with exactly zero
//! heap traffic, and a DWT strip pass allocates nothing per additional
//! strip.
//!
//! Counts use the thread-local counter from [`pj2k_bench::alloc_count`],
//! so concurrently running tests in this harness cannot perturb the
//! numbers.

#![cfg(feature = "alloc-count")]

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_dwt::{forward_53_with, forward_97_with, LiftingMode, SimdMode, VerticalStrategy};
use pj2k_ebcot::{BandCtx, BlockCoder, EncodedBlock, Tier1Engine, Tier1Options};
use pj2k_image::Plane;
use pj2k_parutil::Exec;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Deterministic synthetic code-blocks with subband-like sparsity
/// (same generator as `bench_tier1`).
fn synth_blocks(n: usize) -> Vec<Vec<i32>> {
    let mut state = 0x5DEECE66Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|b| {
            let keep = [4usize, 4, 4, 4, 4, 4, 12, 70][b % 8];
            (0..64 * 64)
                .map(|_| {
                    let r = next();
                    if (r >> 32) % 128 < keep as u64 {
                        (((r >> 40) & 0xFF) as i32) - 128
                    } else {
                        0
                    }
                })
                .collect()
        })
        .collect()
}

fn band_of(i: usize) -> BandCtx {
    match i % 3 {
        0 => BandCtx::LlLh,
        1 => BandCtx::Hl,
        _ => BandCtx::Hh,
    }
}

/// Warm-then-measure: the recycled arena must not allocate at all once
/// every scratch buffer has reached its high-water mark.
fn tier1_steady_allocs(engine: Tier1Engine) -> u64 {
    let blocks = synth_blocks(8);
    let opts = Tier1Options::default();
    let mut coder = BlockCoder::with_engine(engine);
    let mut out = EncodedBlock::default();
    let mut sink = 0usize;
    // Warm-up pass sizes every buffer for the largest block in the set.
    for (i, coeffs) in blocks.iter().enumerate() {
        coder.coeff_scratch().extend_from_slice(coeffs);
        coder.encode_scratch_into(64, 64, band_of(i), opts, 0, &mut out);
        sink += out.data.len();
    }
    let a0 = alloc_count::thread_allocs();
    for _ in 0..3 {
        for (i, coeffs) in blocks.iter().enumerate() {
            coder.coeff_scratch().extend_from_slice(coeffs);
            coder.encode_scratch_into(64, 64, band_of(i), opts, 0, &mut out);
            sink += out.data.len();
        }
    }
    std::hint::black_box(sink);
    alloc_count::thread_allocs() - a0
}

#[test]
fn tier1_reference_engine_codes_warm_blocks_without_allocating() {
    assert_eq!(
        tier1_steady_allocs(Tier1Engine::Reference),
        0,
        "warm reference-engine arena must be allocation-free"
    );
}

#[test]
fn tier1_bitplane_engine_codes_warm_blocks_without_allocating() {
    assert_eq!(
        tier1_steady_allocs(Tier1Engine::Bitplane),
        0,
        "warm bitplane-engine arena must be allocation-free"
    );
}

fn fill_f32(p: &mut Plane<f32>) {
    for y in 0..p.height() {
        for (x, v) in p.row_mut(y).iter_mut().enumerate() {
            *v = ((x * 31 + y * 17) % 251) as f32 - 125.0;
        }
    }
}

fn fill_i32(p: &mut Plane<i32>) {
    for y in 0..p.height() {
        for (x, v) in p.row_mut(y).iter_mut().enumerate() {
            *v = ((x * 31 + y * 17) % 251) as i32 - 125;
        }
    }
}

/// Allocation-call count of one sequential strip transform; the plane and
/// its fill are excluded from the count.
fn dwt_97_allocs(w: usize, h: usize, levels: u8, lifting: LiftingMode) -> u64 {
    let mut p = Plane::<f32>::new(w, h);
    fill_f32(&mut p);
    let a0 = alloc_count::thread_allocs();
    forward_97_with(
        &mut p,
        levels,
        VerticalStrategy::DEFAULT_STRIP,
        lifting,
        SimdMode::Auto,
        &Exec::SEQ,
    );
    let spent = alloc_count::thread_allocs() - a0;
    std::hint::black_box(&p);
    spent
}

fn dwt_53_allocs(w: usize, h: usize, levels: u8) -> u64 {
    let mut p = Plane::<i32>::new(w, h);
    fill_i32(&mut p);
    let a0 = alloc_count::thread_allocs();
    forward_53_with(
        &mut p,
        levels,
        VerticalStrategy::DEFAULT_STRIP,
        LiftingMode::Fused,
        SimdMode::Auto,
        &Exec::SEQ,
    );
    let spent = alloc_count::thread_allocs() - a0;
    std::hint::black_box(&p);
    spent
}

// DWT scratch is sized per worker range per level, never per strip, so a
// taller plane — more strips, same width, same level count — must show an
// identical allocation-call count. Heights keep every level's region tall
// enough that both shapes run the same number of vertical passes.

#[test]
fn dwt_97_fused_strip_allocs_are_strip_count_invariant() {
    let short = dwt_97_allocs(128, 128, 3, LiftingMode::Fused);
    let tall = dwt_97_allocs(128, 512, 3, LiftingMode::Fused);
    assert_eq!(
        short, tall,
        "extra strips must not allocate (128 rows: {short}, 512 rows: {tall})"
    );
}

/// Per-step strip columns run the paper's scalar walker whatever the SIMD
/// mode; it keeps the same contract.
#[test]
fn dwt_97_per_step_strip_allocs_are_strip_count_invariant() {
    let short = dwt_97_allocs(128, 128, 3, LiftingMode::PerStep);
    let tall = dwt_97_allocs(128, 512, 3, LiftingMode::PerStep);
    assert_eq!(
        short, tall,
        "extra strips must not allocate (128 rows: {short}, 512 rows: {tall})"
    );
}

#[test]
fn dwt_53_fused_strip_allocs_are_strip_count_invariant() {
    let short = dwt_53_allocs(128, 128, 3);
    let tall = dwt_53_allocs(128, 512, 3);
    assert_eq!(
        short, tall,
        "extra strips must not allocate (128 rows: {short}, 512 rows: {tall})"
    );
}

#[test]
fn counting_allocator_sees_this_harness_allocate() {
    // Sanity for the oracle itself: if the counter were disconnected, the
    // zero assertions above would pass vacuously.
    let a0 = alloc_count::thread_allocs();
    let v = std::hint::black_box(vec![0u8; 4096]);
    assert!(
        alloc_count::thread_allocs() > a0,
        "vec of {} bytes",
        v.len()
    );
}
