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
//! `--smoke` shrinks the workload for CI: it validates the harness and the
//! JSON schema, not the performance numbers.

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::time;
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

/// Deterministic natural-ish sample at (x, y) — smooth gradients plus
/// texture, so lifting work is representative (not all-zero highpass).
fn sample(x: usize, y: usize) -> f32 {
    let (xf, yf) = (x as f32, y as f32);
    (xf * 0.37).sin() * 40.0 + (yf * 0.23).cos() * 30.0 + ((x * 31 + y * 17) % 64) as f32 - 32.0
}

fn fill_f32(p: &mut Plane<f32>) {
    for y in 0..p.height() {
        for (x, v) in p.row_mut(y).iter_mut().enumerate() {
            *v = sample(x, y);
        }
    }
}

fn fill_i32(p: &mut Plane<i32>) {
    for y in 0..p.height() {
        for (x, v) in p.row_mut(y).iter_mut().enumerate() {
            *v = sample(x, y) as i32;
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

/// Best-of-trials (total seconds, vertical-pass seconds of that run).
#[allow(clippy::too_many_arguments)]
fn bench_97(
    w: usize,
    h: usize,
    pad: usize,
    levels: u8,
    lifting: LiftingMode,
    vstrat: VerticalStrategy,
    simd: SimdMode,
    p: usize,
) -> (f64, f64) {
    let exec = if p == 1 { Exec::SEQ } else { Exec::threads(p) };
    let mut plane = Plane::<f32>::with_stride(w, h, w + pad);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        fill_f32(&mut plane);
        let ((_, stats), t) =
            time(|| forward_97_with(&mut plane, levels, vstrat, lifting, simd, &exec));
        if t < best.0 {
            best = (t, stats.vertical.as_secs_f64());
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn bench_53(
    w: usize,
    h: usize,
    pad: usize,
    levels: u8,
    lifting: LiftingMode,
    vstrat: VerticalStrategy,
    simd: SimdMode,
    p: usize,
) -> (f64, f64) {
    let exec = if p == 1 { Exec::SEQ } else { Exec::threads(p) };
    let mut plane = Plane::<i32>::with_stride(w, h, w + pad);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        fill_i32(&mut plane);
        let ((_, stats), t) =
            time(|| forward_53_with(&mut plane, levels, vstrat, lifting, simd, &exec));
        if t < best.0 {
            best = (t, stats.vertical.as_secs_f64());
        }
    }
    best
}

/// One pass-split measurement: a whole transform of one direction, with
/// its row and column seconds.
struct PassRow {
    wavelet: &'static str,
    direction: &'static str,
    side: usize,
    simd: &'static str,
    horiz_secs: f64,
    vert_secs: f64,
}

/// Best-of-trials (row seconds, column seconds) of the production 9/7
/// transform of a `side x side` plane: the forward, or the inverse of a
/// forward-transformed plane.
fn passes_97(side: usize, levels: u8, simd: SimdMode, inverse: bool) -> (f64, f64) {
    let mut plane = Plane::<f32>::new(side, side);
    let mut best = DwtStats::default();
    for t in 0..TRIALS {
        fill_f32(&mut plane);
        let (_, mut stats) = forward_97_with(
            &mut plane,
            levels,
            STRIP,
            LiftingMode::Fused,
            simd,
            &Exec::SEQ,
        );
        if inverse {
            stats = inverse_97_with(
                &mut plane,
                levels,
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
    (best.horizontal.as_secs_f64(), best.vertical.as_secs_f64())
}

/// The 5/3 counterpart of [`passes_97`].
fn passes_53(side: usize, levels: u8, simd: SimdMode, inverse: bool) -> (f64, f64) {
    let mut plane = Plane::<i32>::new(side, side);
    let mut best = DwtStats::default();
    for t in 0..TRIALS {
        fill_i32(&mut plane);
        let (_, mut stats) = forward_53_with(
            &mut plane,
            levels,
            STRIP,
            LiftingMode::Fused,
            simd,
            &Exec::SEQ,
        );
        if inverse {
            stats = inverse_53_with(
                &mut plane,
                levels,
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
    (best.horizontal.as_secs_f64(), best.vertical.as_secs_f64())
}

/// Thread-exact allocation count of one sequential fused-strip forward
/// 9/7 transform of a freshly filled `w x h` plane (plane construction
/// and fill excluded from the count).
fn strip_transform_allocs(w: usize, h: usize, levels: u8) -> u64 {
    let mut p = Plane::<f32>::new(w, h);
    fill_f32(&mut p);
    let a0 = alloc_count::thread_allocs();
    forward_97_with(
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
/// scalar coefficients bit for bit (the property tests cover small shapes; this
/// covers the exact planes being timed).
fn check_bit_identity(side: usize, levels: u8) -> bool {
    let mut ok = true;
    let mut scalar = Plane::<f32>::new(side, side);
    fill_f32(&mut scalar);
    forward_97_with(
        &mut scalar,
        levels,
        STRIP,
        LiftingMode::Fused,
        SimdMode::Scalar,
        &Exec::SEQ,
    );
    for (name, mode) in simd_modes() {
        let mut p = Plane::<f32>::new(side, side);
        fill_f32(&mut p);
        forward_97_with(&mut p, levels, STRIP, LiftingMode::Fused, mode, &Exec::SEQ);
        let same = p
            .samples()
            .zip(scalar.samples())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "bit-identity 9/7 fused strip {side}x{side} L={levels} tier={name}: {}",
            if same { "ok" } else { "MISMATCH" }
        );
        ok &= same;
    }
    let mut scalar_i = Plane::<i32>::new(side, side);
    fill_i32(&mut scalar_i);
    forward_53_with(
        &mut scalar_i,
        levels,
        STRIP,
        LiftingMode::Fused,
        SimdMode::Scalar,
        &Exec::SEQ,
    );
    for (name, mode) in simd_modes() {
        let mut p = Plane::<i32>::new(side, side);
        fill_i32(&mut p);
        forward_53_with(&mut p, levels, STRIP, LiftingMode::Fused, mode, &Exec::SEQ);
        let same = p.samples().zip(scalar_i.samples()).all(|(a, b)| a == b);
        println!(
            "bit-identity 5/3 fused strip {side}x{side} L={levels} tier={name}: {}",
            if same { "ok" } else { "MISMATCH" }
        );
        ok &= same;
    }
    ok
}

fn lift_name(l: LiftingMode) -> &'static str {
    match l {
        LiftingMode::PerStep => "per_step",
        LiftingMode::Fused => "fused",
    }
}

fn vert_name(v: VerticalStrategy) -> &'static str {
    match v {
        VerticalStrategy::Naive => "naive",
        VerticalStrategy::Strip { .. } => "strip",
    }
}

fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

/// Keys the emitted document must contain; checked after writing so a
/// refactor cannot silently change the schema consumers parse.
const REQUIRED_KEYS: &[&str] = &[
    "\"schema\"",
    "\"smoke\"",
    "\"kernels\"",
    "\"wavelet\"",
    "\"lifting\"",
    "\"vertical\"",
    "\"mpix_per_sec\"",
    "\"fused_strip_speedup_97\"",
    "\"fused_strip_speedup_53\"",
    "\"naive_vertical_slowdown\"",
    "\"simd\"",
    "\"vert_secs\"",
    "\"simd_tiers\"",
    "\"simd_best_tier\"",
    "\"simd_strip_speedup_97\"",
    "\"simd_strip_speedup_53\"",
    "\"simd_bit_identity\"",
    "\"passes\"",
    "\"direction\"",
    "\"horiz_secs\"",
    "\"steady_state\"",
    "\"allocs_marginal_per_strip\"",
];

fn validate(doc: &str) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !doc.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    if opens == 0 || opens != closes {
        return Err(format!("unbalanced braces: {opens} vs {closes}"));
    }
    if doc.matches('[').count() != doc.matches(']').count() {
        return Err("unbalanced brackets".to_string());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dwt.json".to_string());

    let levels: u8 = 5;
    let side = if smoke { 256usize } else { 2048 };
    let mpix = (side * side) as f64 / 1e6;

    // --- kernel sweep ----------------------------------------------------
    // Untimed warm-up touches every code path once.
    let _ = bench_97(64, 64, 0, 2, LiftingMode::Fused, STRIP, SimdMode::Auto, 1);
    let _ = bench_53(64, 64, 0, 2, LiftingMode::Fused, STRIP, SimdMode::Auto, 1);

    // The scalar matrix (simd = "scalar") keeps the trajectory rows of the
    // paper's walkers comparable release over release; the tier sweep below
    // ablates the SIMD dispatch on top of the fused strip kernels. There is
    // no fused naive row: the naive walker is the same under both modes.
    let mut rows: Vec<KRow> = Vec::new();
    for (lifting, vstrat) in [
        (LiftingMode::PerStep, VerticalStrategy::Naive),
        (LiftingMode::PerStep, STRIP),
        (LiftingMode::Fused, STRIP),
    ] {
        for pad in [0usize, 8] {
            let (secs, vert_secs) = bench_97(
                side,
                side,
                pad,
                levels,
                lifting,
                vstrat,
                SimdMode::Scalar,
                1,
            );
            rows.push(KRow {
                wavelet: "9/7",
                lifting: lift_name(lifting),
                vertical: vert_name(vstrat),
                simd: "scalar",
                pad,
                p: 1,
                secs,
                vert_secs,
                mpix_per_sec: mpix / secs,
            });
            let (secs, vert_secs) = bench_53(
                side,
                side,
                pad,
                levels,
                lifting,
                vstrat,
                SimdMode::Scalar,
                1,
            );
            rows.push(KRow {
                wavelet: "5/3",
                lifting: lift_name(lifting),
                vertical: vert_name(vstrat),
                simd: "scalar",
                pad,
                p: 1,
                secs,
                vert_secs,
                mpix_per_sec: mpix / secs,
            });
        }
    }
    // Per-tier ablation: the production fused strip transform under every
    // runtime-dispatch tier this host supports, both wavelets.
    let fused = LiftingMode::Fused;
    for (simd_name, mode) in simd_modes() {
        let (secs, vert_secs) = bench_97(side, side, 0, levels, fused, STRIP, mode, 1);
        rows.push(KRow {
            wavelet: "9/7",
            lifting: "fused",
            vertical: "strip",
            simd: simd_name,
            pad: 0,
            p: 1,
            secs,
            vert_secs,
            mpix_per_sec: mpix / secs,
        });
        let (secs, vert_secs) = bench_53(side, side, 0, levels, fused, STRIP, mode, 1);
        rows.push(KRow {
            wavelet: "5/3",
            lifting: "fused",
            vertical: "strip",
            simd: simd_name,
            pad: 0,
            p: 1,
            secs,
            vert_secs,
            mpix_per_sec: mpix / secs,
        });
    }
    for p in [2usize, 4, 8] {
        let (secs, vert_secs) = bench_97(side, side, 0, levels, fused, STRIP, SimdMode::Auto, p);
        rows.push(KRow {
            wavelet: "9/7",
            lifting: "fused",
            vertical: "strip",
            simd: "auto",
            pad: 0,
            p,
            secs,
            vert_secs,
            mpix_per_sec: mpix / secs,
        });
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
    let mut passes: Vec<PassRow> = Vec::new();
    for side in pass_sides {
        for (simd_name, mode) in [("auto", SimdMode::Auto), ("scalar", SimdMode::Scalar)] {
            for (direction, inverse) in [("forward", false), ("inverse", true)] {
                let (horiz_secs, vert_secs) = passes_97(side, levels, mode, inverse);
                passes.push(PassRow {
                    wavelet: "9/7",
                    direction,
                    side,
                    simd: simd_name,
                    horiz_secs,
                    vert_secs,
                });
                let (horiz_secs, vert_secs) = passes_53(side, levels, mode, inverse);
                passes.push(PassRow {
                    wavelet: "5/3",
                    direction,
                    side,
                    simd: simd_name,
                    horiz_secs,
                    vert_secs,
                });
            }
        }
    }
    for r in &passes {
        println!(
            "passes {} {} {side}x{side} simd={}: rows {:.2} ms, columns {:.2} ms",
            r.wavelet,
            r.direction,
            r.simd,
            r.horiz_secs * 1e3,
            r.vert_secs * 1e3,
            side = r.side
        );
    }

    // --- per-tier bit-identity on the bench workload ----------------------
    let simd_bit_identity = check_bit_identity(side.min(512), levels);

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

    // --- hand-rolled JSON -------------------------------------------------
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"pj2k.bench_dwt.v4\",\n");
    doc.push_str(&format!("  \"smoke\": {smoke},\n"));
    doc.push_str(&format!("  \"image_side\": {side},\n"));
    doc.push_str(&format!("  \"levels\": {levels},\n"));
    doc.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        doc.push_str(&format!(
            "    {{ \"wavelet\": \"{}\", \"lifting\": \"{}\", \"vertical\": \"{}\", \
             \"simd\": \"{}\", \"stride_pad\": {}, \"p\": {}, \"secs\": {}, \
             \"vert_secs\": {}, \"mpix_per_sec\": {} }}{}\n",
            r.wavelet,
            r.lifting,
            r.vertical,
            r.simd,
            r.pad,
            r.p,
            jf(r.secs),
            jf(r.vert_secs),
            jf(r.mpix_per_sec),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"fused_strip_speedup_97\": {},\n",
        jf(fused_strip_97)
    ));
    doc.push_str(&format!(
        "  \"fused_strip_speedup_53\": {},\n",
        jf(fused_strip_53)
    ));
    doc.push_str(&format!(
        "  \"naive_vertical_slowdown\": {},\n",
        jf(naive_vertical_slowdown)
    ));
    let tier_names: Vec<String> = simd_modes()
        .iter()
        .map(|(n, _)| format!("\"{n}\""))
        .collect();
    doc.push_str(&format!("  \"simd_tiers\": [{}],\n", tier_names.join(", ")));
    doc.push_str(&format!("  \"simd_best_tier\": \"{simd_best_tier}\",\n"));
    doc.push_str(&format!(
        "  \"simd_strip_speedup_97\": {},\n",
        jf(simd_strip_speedup_97)
    ));
    doc.push_str(&format!(
        "  \"simd_strip_speedup_53\": {},\n",
        jf(simd_strip_speedup_53)
    ));
    doc.push_str(&format!("  \"simd_bit_identity\": {simd_bit_identity},\n"));
    doc.push_str("  \"passes\": [\n");
    for (i, r) in passes.iter().enumerate() {
        doc.push_str(&format!(
            "    {{ \"wavelet\": \"{}\", \"direction\": \"{}\", \"side\": {}, \
             \"simd\": \"{}\", \"horiz_secs\": {}, \"vert_secs\": {} }}{}\n",
            r.wavelet,
            r.direction,
            r.side,
            r.simd,
            jf(r.horiz_secs),
            jf(r.vert_secs),
            if i + 1 < passes.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"steady_state\": {{ \"allocs_short\": {a_short}, \"allocs_tall\": {a_tall}, \
         \"extra_strips\": {extra_strips}, \"allocs_marginal_per_strip\": {} }}\n",
        jf(marginal)
    ));
    doc.push_str("}\n");

    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    let written = std::fs::read_to_string(&out_path).expect("re-read benchmark JSON");
    if let Err(e) = validate(&written) {
        eprintln!("BENCH_dwt schema validation failed: {e}");
        std::process::exit(1);
    }
    if !simd_bit_identity {
        eprintln!("SIMD tier produced coefficients differing from scalar");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes, schema OK)", written.len());
}
