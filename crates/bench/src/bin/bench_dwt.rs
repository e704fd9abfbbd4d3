//! DWT kernel trajectory harness.
//!
//! Emits `BENCH_dwt.json` (schema `pj2k.bench_dwt.v4`) with three
//! measurements that track this workspace's wavelet-transform performance
//! over time:
//!
//! 1. **Kernel sweep**: seconds and Mpixel/s for the 5-level forward
//!    transform. The scalar matrix covers the paper's walkers (per-step
//!    naive and strip columns) and the fused strip columns, on a
//!    power-of-two width and a padded stride; the production fused strip
//!    transform is then timed under every SIMD tier, and at p ∈ {2, 4, 8}.
//!    `naive_vertical_slowdown` is the paper's §3.2 finding in one number:
//!    the per-step naive vertical pass over the per-step strip one, at the
//!    power-of-two width.
//! 2. **Pass split**: the production transform (fused strip, one thread)
//!    forward and inverse, with row and column time reported separately,
//!    at two sizes, under the SIMD tier `Auto` picks and under scalar
//!    reference kernels.
//! 3. **Steady-state allocation oracle**: transforms of two plane heights
//!    must show identical allocation-call counts — scratch is sized per
//!    worker range per level, never per strip — the runtime proof behind
//!    the `AUDIT(hot)` justifications `cargo xtask audit` accepts
//!    in the DWT closure.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_dwt -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workload for CI: it validates the harness, not
//! the performance numbers.

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::report::Json;
use pj2k_bench::{harness_args, obj, time};
use pj2k_core::LiftingMode;
use pj2k_dwt::{
    forward_53_with, forward_97_with, inverse_53_with, inverse_97_with, DwtStats, SimdMode,
    SimdTier, VerticalStrategy,
};
use pj2k_image::Plane;
use pj2k_parutil::Exec;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const TRIALS: usize = 3;
const STRIP: VerticalStrategy = VerticalStrategy::DEFAULT_STRIP;

/// A multi-level transform: plane, levels, column walker, lifting, SIMD
/// tier, executor.
type Transform<T> =
    fn(&mut Plane<T>, u8, VerticalStrategy, LiftingMode, SimdMode, &Exec) -> DwtStats;

/// The two wavelets, each over its sample type: the 9/7 over `f32`, the
/// 5/3 over `i32`.
trait Wavelet: Copy + Default + Send + Sync {
    const NAME: &'static str;
    const FORWARD: Transform<Self>;
    const INVERSE: Transform<Self>;
    fn from_sample(v: f32) -> Self;
    fn bits_eq(self, other: Self) -> bool;
}

impl Wavelet for f32 {
    const NAME: &'static str = "9/7";
    const FORWARD: Transform<f32> = |p, l, v, f, s, e| forward_97_with(p, l, v, f, s, e).1;
    const INVERSE: Transform<f32> = inverse_97_with;
    fn from_sample(v: f32) -> f32 {
        v
    }
    fn bits_eq(self, other: f32) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl Wavelet for i32 {
    const NAME: &'static str = "5/3";
    const FORWARD: Transform<i32> = |p, l, v, f, s, e| forward_53_with(p, l, v, f, s, e).1;
    const INVERSE: Transform<i32> = inverse_53_with;
    fn from_sample(v: f32) -> i32 {
        v as i32
    }
    fn bits_eq(self, other: i32) -> bool {
        self == other
    }
}

/// Fill with a deterministic natural-ish image — smooth gradients plus
/// texture, so lifting work is representative (not all-zero highpass).
fn fill<T: Wavelet>(p: &mut Plane<T>) {
    for y in 0..p.height() {
        for (x, v) in p.row_mut(y).iter_mut().enumerate() {
            let (xf, yf) = (x as f32, y as f32);
            let texture = ((x * 31 + y * 17) % 64) as f32 - 32.0;
            *v = T::from_sample((xf * 0.37).sin() * 40.0 + (yf * 0.23).cos() * 30.0 + texture);
        }
    }
}

/// One kernel-sweep measurement row.
struct KRow {
    wavelet: &'static str,
    lifting: &'static str,
    vertical: &'static str,
    simd: &'static str,
    pad: usize,
    p: usize,
    secs: f64,
    vert_secs: f64,
    mpix_per_sec: f64,
}

/// Best of [`TRIALS`] forward transforms of a `side x side` plane with
/// row pitch `side + pad`, on `p` threads: its seconds and its vertical
/// pass's.
fn kernel<T: Wavelet>(
    side: usize,
    pad: usize,
    lifting: LiftingMode,
    vertical: VerticalStrategy,
    (simd_name, simd): (&'static str, SimdMode),
    p: usize,
) -> KRow {
    let exec = if p == 1 { Exec::SEQ } else { Exec::threads(p) };
    let mut plane = Plane::<T>::with_stride(side, side, side + pad);
    let (mut secs, mut vert_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        fill(&mut plane);
        let (stats, t) = time(|| (T::FORWARD)(&mut plane, LEVELS, vertical, lifting, simd, &exec));
        if t < secs {
            (secs, vert_secs) = (t, stats.vertical.as_secs_f64());
        }
    }
    KRow {
        wavelet: T::NAME,
        lifting: match lifting {
            LiftingMode::PerStep => "per_step",
            LiftingMode::Fused => "fused",
        },
        vertical: match vertical {
            VerticalStrategy::Naive => "naive",
            VerticalStrategy::Strip { .. } => "strip",
        },
        simd: simd_name,
        pad,
        p,
        secs,
        vert_secs,
        mpix_per_sec: (side * side) as f64 / 1e6 / secs,
    }
}

/// Best of [`TRIALS`] production transforms (fused strip, one thread) of a
/// `side x side` plane: the forward, or the inverse of a
/// forward-transformed plane. Prints and returns its row and column
/// seconds.
fn pass_split<T: Wavelet>(
    side: usize,
    (simd_name, simd): (&'static str, SimdMode),
    inverse: bool,
) -> Json {
    let mut plane = Plane::<T>::new(side, side);
    let mut best = DwtStats::default();
    for t in 0..TRIALS {
        fill(&mut plane);
        let mut stats = (T::FORWARD)(
            &mut plane,
            LEVELS,
            STRIP,
            LiftingMode::Fused,
            simd,
            &Exec::SEQ,
        );
        if inverse {
            stats = (T::INVERSE)(
                &mut plane,
                LEVELS,
                STRIP,
                LiftingMode::Fused,
                simd,
                &Exec::SEQ,
            );
        }
        if t == 0 || stats.total() < best.total() {
            best = stats;
        }
    }
    let direction = if inverse { "inverse" } else { "forward" };
    let (rows, cols) = (best.horizontal.as_secs_f64(), best.vertical.as_secs_f64());
    println!(
        "passes {} {direction} {side}x{side} simd={simd_name}: rows {:.2} ms, columns {:.2} ms",
        T::NAME,
        rows * 1e3,
        cols * 1e3
    );
    obj! {
        "wavelet" => T::NAME,
        "direction" => direction,
        "side" => side,
        "simd" => simd_name,
        "horiz_secs" => rows,
        "vert_secs" => cols,
    }
}

/// Thread-exact allocation count of one sequential fused-strip forward
/// 9/7 transform of a freshly filled `w x h` plane (plane construction
/// and fill excluded from the count).
fn strip_transform_allocs(w: usize, h: usize, levels: u8) -> u64 {
    let mut p = Plane::<f32>::new(w, h);
    fill(&mut p);
    let a0 = alloc_count::thread_allocs();
    (f32::FORWARD)(
        &mut p,
        levels,
        STRIP,
        LiftingMode::Fused,
        SimdMode::Auto,
        &Exec::SEQ,
    );
    let spent = alloc_count::thread_allocs() - a0;
    std::hint::black_box(&p);
    spent
}

/// The SIMD tiers this host can ablate, plus auto dispatch.
fn simd_modes() -> Vec<(&'static str, SimdMode)> {
    let mut modes: Vec<(&'static str, SimdMode)> = Vec::new();
    for (name, tier) in [("portable", SimdTier::Portable), ("avx2", SimdTier::Avx2)] {
        if tier.is_supported() {
            modes.push((name, SimdMode::Forced(tier)));
        }
    }
    modes.push(("auto", SimdMode::Auto));
    modes
}

/// Re-validate on the bench workload itself that every tier produces the
/// scalar coefficients bit for bit (the property tests cover small shapes;
/// this covers the exact planes being timed).
fn bit_identical<T: Wavelet>(side: usize) -> bool {
    let forward = |simd| {
        let mut p = Plane::<T>::new(side, side);
        fill(&mut p);
        (T::FORWARD)(&mut p, LEVELS, STRIP, LiftingMode::Fused, simd, &Exec::SEQ);
        p
    };
    let scalar = forward(SimdMode::Scalar);
    let mut ok = true;
    for (name, mode) in simd_modes() {
        let same = forward(mode)
            .samples()
            .zip(scalar.samples())
            .all(|(a, b)| a.bits_eq(b));
        println!(
            "bit-identity {} fused strip {side}x{side} L={LEVELS} tier={name}: {}",
            T::NAME,
            if same { "ok" } else { "MISMATCH" }
        );
        ok &= same;
    }
    ok
}

/// Decomposition levels of every transform but the allocation oracle's.
const LEVELS: u8 = 5;

fn main() {
    let (smoke, out_path) = harness_args();
    let out_path = out_path.unwrap_or_else(|| "BENCH_dwt.json".to_string());

    let side = if smoke { 256usize } else { 2048 };

    // --- kernel sweep ----------------------------------------------------
    // Untimed warm-up touches every code path once.
    let auto = ("auto", SimdMode::Auto);
    let scalar = ("scalar", SimdMode::Scalar);
    let fused = LiftingMode::Fused;
    let _ = kernel::<f32>(64, 0, fused, STRIP, auto, 1);
    let _ = kernel::<i32>(64, 0, fused, STRIP, auto, 1);

    // The scalar matrix (simd = "scalar") keeps the trajectory rows of the
    // paper's walkers comparable release over release; the tier sweep below
    // ablates the SIMD dispatch on top of the fused strip kernels. There is
    // no fused naive row: the naive walker is the same under both modes.
    let mut rows: Vec<KRow> = Vec::new();
    for (lifting, vstrat) in [
        (LiftingMode::PerStep, VerticalStrategy::Naive),
        (LiftingMode::PerStep, STRIP),
        (fused, STRIP),
    ] {
        for pad in [0usize, 8] {
            rows.push(kernel::<f32>(side, pad, lifting, vstrat, scalar, 1));
            rows.push(kernel::<i32>(side, pad, lifting, vstrat, scalar, 1));
        }
    }
    // Per-tier ablation: the production fused strip transform under every
    // runtime-dispatch tier this host supports, both wavelets.
    for mode in simd_modes() {
        rows.push(kernel::<f32>(side, 0, fused, STRIP, mode, 1));
        rows.push(kernel::<i32>(side, 0, fused, STRIP, mode, 1));
    }
    for p in [2usize, 4, 8] {
        rows.push(kernel::<f32>(side, 0, fused, STRIP, auto, p));
    }
    for r in &rows {
        println!(
            "kernel {} {}/{} simd={} pad={} p={}: {:.1} ms, vert {:.1} ms ({:.1} Mpix/s)",
            r.wavelet,
            r.lifting,
            r.vertical,
            r.simd,
            r.pad,
            r.p,
            r.secs * 1e3,
            r.vert_secs * 1e3,
            r.mpix_per_sec
        );
    }
    let pick = |wav: &str, lift: &str, vert: &str, simd: &str| {
        rows.iter()
            .find(|r| {
                r.wavelet == wav
                    && r.lifting == lift
                    && r.vertical == vert
                    && r.simd == simd
                    && r.pad == 0
                    && r.p == 1
            })
            .map_or((f64::INFINITY, f64::INFINITY), |r| (r.secs, r.vert_secs))
    };
    let fused_strip_97 =
        pick("9/7", "per_step", "strip", "scalar").0 / pick("9/7", "fused", "strip", "scalar").0;
    let fused_strip_53 =
        pick("5/3", "per_step", "strip", "scalar").0 / pick("5/3", "fused", "strip", "scalar").0;
    println!(
        "fused speedup (single thread, pow2 width): 9/7 strip {fused_strip_97:.3}x, \
         5/3 strip {fused_strip_53:.3}x"
    );
    let naive_vertical_slowdown =
        pick("9/7", "per_step", "naive", "scalar").1 / pick("9/7", "per_step", "strip", "scalar").1;
    println!(
        "naive over strip vertical pass (9/7 per-step, pow2 width): {naive_vertical_slowdown:.3}x"
    );
    // SIMD strip-vertical speedup: scalar fused strip vertical pass over
    // the best forced tier's fused strip vertical pass (ISSUE 5 gate).
    let mut simd_best_tier = "scalar";
    let mut simd_best_vert = (f64::INFINITY, f64::INFINITY);
    for (name, _) in simd_modes() {
        if name == "auto" {
            continue;
        }
        let v97 = pick("9/7", "fused", "strip", name).1;
        if v97 < simd_best_vert.0 {
            simd_best_tier = name;
            simd_best_vert = (v97, pick("5/3", "fused", "strip", name).1);
        }
    }
    let simd_strip_speedup_97 = pick("9/7", "fused", "strip", "scalar").1 / simd_best_vert.0;
    let simd_strip_speedup_53 = pick("5/3", "fused", "strip", "scalar").1 / simd_best_vert.1;
    println!(
        "simd strip-vertical speedup over scalar fused (best tier {simd_best_tier}): \
         9/7 {simd_strip_speedup_97:.3}x, 5/3 {simd_strip_speedup_53:.3}x"
    );

    // --- pass split: rows and columns, both directions ---------------------
    let pass_sides = if smoke { [256usize, 128] } else { [2048, 512] };
    let mut passes = Vec::new();
    for side in pass_sides {
        for mode in [auto, scalar] {
            for inverse in [false, true] {
                passes.push(pass_split::<f32>(side, mode, inverse));
                passes.push(pass_split::<i32>(side, mode, inverse));
            }
        }
    }
    // --- per-tier bit-identity on the bench workload ----------------------
    let simd_bit_identity =
        bit_identical::<f32>(side.min(512)) & bit_identical::<i32>(side.min(512));
    // --- steady-state allocation oracle ----------------------------------
    // DWT scratch is sized per worker range per level, never per strip:
    // doubling the plane height (and hence the strip count) must not
    // change the allocation-call count of a sequential transform. This is
    // the runtime check behind the `AUDIT(hot): amortized` annotations
    // `cargo xtask audit` accepts in the DWT closure.
    let (h_short, h_tall, o_levels) = (256usize, 512usize, 3u8);
    let a_short = strip_transform_allocs(256, h_short, o_levels);
    let a_tall = strip_transform_allocs(256, h_tall, o_levels);
    // Strips the taller plane adds, summed over levels (strip height 16).
    let mut extra_strips = 0usize;
    let (mut hs, mut ht) = (h_short, h_tall);
    for _ in 0..o_levels {
        extra_strips += (ht - hs) / 16;
        hs = hs.div_ceil(2);
        ht = ht.div_ceil(2);
    }
    let marginal = (a_tall as f64 - a_short as f64) / extra_strips.max(1) as f64;
    println!(
        "steady-state oracle: strip transform allocs {a_short} (h={h_short}) vs \
         {a_tall} (h={h_tall}) — {marginal:.4} per extra strip"
    );
    if a_tall != a_short {
        eprintln!(
            "FAIL: {} extra strips cost {} extra allocation(s); the contract is zero",
            extra_strips,
            a_tall as i64 - a_short as i64
        );
        std::process::exit(1);
    }

    // --- JSON ---------------------------------------------------------------
    let kernels = rows.iter().map(|r| {
        obj! {
            "wavelet" => r.wavelet,
            "lifting" => r.lifting,
            "vertical" => r.vertical,
            "simd" => r.simd,
            "stride_pad" => r.pad,
            "p" => r.p,
            "secs" => r.secs,
            "vert_secs" => r.vert_secs,
            "mpix_per_sec" => r.mpix_per_sec,
        }
    });
    let tiers: Vec<&str> = simd_modes().iter().map(|&(n, _)| n).collect();
    let doc = obj! {
        "schema" => "pj2k.bench_dwt.v4",
        "smoke" => smoke,
        "image_side" => side,
        "levels" => LEVELS,
        "kernels" => kernels.collect::<Vec<_>>(),
        "fused_strip_speedup_97" => fused_strip_97,
        "fused_strip_speedup_53" => fused_strip_53,
        "naive_vertical_slowdown" => naive_vertical_slowdown,
        "simd_tiers" => tiers,
        "simd_best_tier" => simd_best_tier,
        "simd_strip_speedup_97" => simd_strip_speedup_97,
        "simd_strip_speedup_53" => simd_strip_speedup_53,
        "simd_bit_identity" => simd_bit_identity,
        "passes" => passes,
        "steady_state" => obj! {
            "allocs_short" => a_short,
            "allocs_tall" => a_tall,
            "extra_strips" => extra_strips,
            "allocs_marginal_per_strip" => marginal,
        },
    }
    .pretty();
    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    if !simd_bit_identity {
        eprintln!("SIMD tier produced coefficients differing from scalar");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes)", doc.len());
}
