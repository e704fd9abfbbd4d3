//! DWT kernel & stage-pipelining trajectory harness.
//!
//! Emits `BENCH_dwt.json` (schema `pj2k.bench_dwt.v2`) with three
//! measurements that track this workspace's wavelet-transform performance
//! over time:
//!
//! 1. **Kernel sweep**: seconds and Mpixel/s for the 5-level forward
//!    transform under every lifting/vertical combination — per-step vs
//!    fused single-pass lifting, naive vs strip-mined columns — on a
//!    power-of-two width and a padded stride, plus a thread sweep at
//!    p ∈ {1, 2, 4, 8} for the strip variants.
//! 2. **Stage-overlap comparison**: wall-clock end-to-end lossless (5/3)
//!    encode time — the configuration in which the pipelined encoder
//!    runs; a rate target takes the barriered path either way —
//!    barriered vs pipelined, at p ∈ {1, 2, 4, 8}, together with *modeled*
//!    makespans replayed from measured per-level DWT times and per-block
//!    Tier-1 costs — so the overlap benefit is visible even when the host
//!    has fewer cores than `p`. Heap-allocation counts per mode come from
//!    a counting global allocator.
//! 3. **Steady-state allocation oracle**: transforms of two plane heights
//!    must show identical allocation-call counts — scratch is sized per
//!    worker range per level, never per strip — the runtime proof behind
//!    the `AUDIT(hot)` justifications `cargo xtask audit-hotpath` accepts
//!    in the DWT closure.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_dwt -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workload for CI: it validates the harness and the
//! JSON schema, not the performance numbers.

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::{filtering_profile, project_filtering, test_image, time};
use pj2k_core::{
    Encoder, EncoderConfig, FilterStrategy, LiftingMode, ParallelMode, RateControl, Schedule,
    StageOverlap, Wavelet,
};
use pj2k_dwt::{
    forward_53_level, forward_53_with, forward_97_with, Decomposition, SimdMode, SimdTier,
    VerticalStrategy,
};
use pj2k_image::Plane;
use pj2k_parutil::Exec;
use pj2k_smpsim::BusParams;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    alloc_count::global_allocs()
}

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
    for (name, tier) in [
        ("portable", SimdTier::Portable),
        ("sse2", SimdTier::Sse2),
        ("avx2", SimdTier::Avx2),
    ] {
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

/// Greedy earliest-available-worker replay of the measured block costs under
/// per-job release times — the runtime behaviour of dynamic self-scheduling
/// consumers draining the pipeline queue in arrival order.
fn simulate(releases: &[f64], costs: &[f64], p: usize) -> f64 {
    assert_eq!(releases.len(), costs.len());
    // Workers claim in arrival order, so replay chronologically (stable:
    // ties keep publish order).
    let mut order: Vec<usize> = (0..releases.len()).collect();
    order.sort_by(|&a, &b| releases[a].total_cmp(&releases[b]));
    let mut free = vec![0.0f64; p.max(1)];
    let mut end = 0.0f64;
    for i in order {
        let (r, d) = (releases[i], costs[i]);
        let w = (0..free.len())
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .unwrap_or(0);
        let start = free[w].max(r);
        free[w] = start + d;
        end = end.max(free[w]);
    }
    end
}

/// Per-job release times for the pipelined producer on a grayscale image:
/// jobs of the subbands finalized by DWT step `l` become available at the
/// cumulative transform time through step `l` (`dwt_secs`, the projected
/// whole-transform time at the modeled worker count, split across steps by
/// the measured serial per-level shares) plus the serial band-extraction
/// share. Job order is the encoder's: `subbands()` order, one precinct
/// (contiguous job range) per band.
fn pipeline_releases(
    deco: &Decomposition,
    level_shares: &[f64],
    dwt_secs: f64,
    extract_secs: f64,
    code_block: (usize, usize),
) -> Vec<f64> {
    let bands = deco.subbands();
    let n_blocks = |w: usize, h: usize| {
        if w == 0 || h == 0 {
            0
        } else {
            w.div_ceil(code_block.0) * h.div_ceil(code_block.1)
        }
    };
    // Cumulative producer time after each step (extraction cost spread
    // uniformly across the steps — a modelling simplification).
    let steps = level_shares.len();
    let mut cum = Vec::with_capacity(steps);
    let mut acc = 0.0;
    for &share in level_shares {
        acc += dwt_secs * share + extract_secs / steps.max(1) as f64;
        cum.push(acc);
    }
    let release_of = |level: u8| {
        if steps == 0 {
            0.0
        } else {
            cum[usize::from(level.max(1)) - 1]
        }
    };
    let mut releases = Vec::new();
    for sb in &bands {
        let r = release_of(sb.level);
        for _ in 0..n_blocks(sb.w, sb.h) {
            releases.push(r);
        }
    }
    releases
}

/// The stage-overlap rows code losslessly: a rate target sends the
/// pipelined encoder down the barriered path (rate-aware Tier-1 needs a
/// sample of every band before any block is coded, DESIGN.md §18), so the
/// reversible configuration is the one where the two sequencings differ.
fn enc_cfg(p: usize, overlap: StageOverlap, levels: u8) -> EncoderConfig {
    EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        levels,
        filter: FilterStrategy::Strip,
        lifting: LiftingMode::Fused,
        overlap,
        parallel: if p == 1 {
            ParallelMode::Sequential
        } else {
            ParallelMode::WorkerPool { workers: p }
        },
        tier1_schedule: Schedule::Dynamic { chunk: 1 },
        ..EncoderConfig::default()
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
    "\"fused_naive_speedup_97\"",
    "\"fused_strip_speedup_53\"",
    "\"simd\"",
    "\"vert_secs\"",
    "\"simd_tiers\"",
    "\"simd_best_tier\"",
    "\"simd_strip_speedup_97\"",
    "\"simd_strip_speedup_53\"",
    "\"simd_bit_identity\"",
    "\"encoder\"",
    "\"encoder_config\"",
    "\"barriered_secs\"",
    "\"pipelined_secs\"",
    "\"modeled_barriered_secs\"",
    "\"modeled_pipelined_secs\"",
    "\"modeled_pipelined_speedup\"",
    "\"allocs\"",
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
    let (side, kpx) = if smoke { (256usize, 64) } else { (2048, 1024) };
    let mpix = (side * side) as f64 / 1e6;

    // --- kernel sweep ----------------------------------------------------
    // Untimed warm-up touches every code path once.
    let _ = bench_97(64, 64, 0, 2, LiftingMode::Fused, STRIP, SimdMode::Auto, 1);
    let _ = bench_53(64, 64, 0, 2, LiftingMode::Fused, STRIP, SimdMode::Auto, 1);

    // The scalar matrix (simd = "scalar") keeps the PR 4 trajectory rows
    // comparable release over release; the tier sweep below ablates the
    // SIMD dispatch on top of the strip kernels.
    let mut rows: Vec<KRow> = Vec::new();
    for (lifting, vstrat) in [
        (LiftingMode::PerStep, VerticalStrategy::Naive),
        (LiftingMode::PerStep, STRIP),
        (LiftingMode::Fused, VerticalStrategy::Naive),
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
    // Per-tier ablation: strip vertical under every runtime-dispatch tier
    // this host supports, both lifting modes, both wavelets.
    for (simd_name, mode) in simd_modes() {
        for lifting in [LiftingMode::PerStep, LiftingMode::Fused] {
            let (secs, vert_secs) = bench_97(side, side, 0, levels, lifting, STRIP, mode, 1);
            rows.push(KRow {
                wavelet: "9/7",
                lifting: lift_name(lifting),
                vertical: "strip",
                simd: simd_name,
                pad: 0,
                p: 1,
                secs,
                vert_secs,
                mpix_per_sec: mpix / secs,
            });
            let (secs, vert_secs) = bench_53(side, side, 0, levels, lifting, STRIP, mode, 1);
            rows.push(KRow {
                wavelet: "5/3",
                lifting: lift_name(lifting),
                vertical: "strip",
                simd: simd_name,
                pad: 0,
                p: 1,
                secs,
                vert_secs,
                mpix_per_sec: mpix / secs,
            });
        }
    }
    for p in [2usize, 4, 8] {
        for lifting in [LiftingMode::PerStep, LiftingMode::Fused] {
            let (secs, vert_secs) =
                bench_97(side, side, 0, levels, lifting, STRIP, SimdMode::Auto, p);
            rows.push(KRow {
                wavelet: "9/7",
                lifting: lift_name(lifting),
                vertical: "strip",
                simd: "auto",
                pad: 0,
                p,
                secs,
                vert_secs,
                mpix_per_sec: mpix / secs,
            });
        }
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
    let fused_naive_97 =
        pick("9/7", "per_step", "naive", "scalar").0 / pick("9/7", "fused", "naive", "scalar").0;
    let fused_strip_53 =
        pick("5/3", "per_step", "strip", "scalar").0 / pick("5/3", "fused", "strip", "scalar").0;
    println!(
        "fused speedup (single thread, pow2 width): 9/7 strip {fused_strip_97:.3}x, \
         9/7 naive {fused_naive_97:.3}x, 5/3 strip {fused_strip_53:.3}x"
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

    // --- per-tier bit-identity on the bench workload ----------------------
    let simd_bit_identity = check_bit_identity(side.min(512), levels);

    // --- steady-state allocation oracle ----------------------------------
    // DWT scratch is sized per worker range per level, never per strip:
    // doubling the plane height (and hence the strip count) must not
    // change the allocation-call count of a sequential transform. This is
    // the runtime check behind the `AUDIT(hot): amortized` annotations
    // audit-hotpath accepts in the DWT closure.
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

    // --- stage overlap: barriered vs pipelined end-to-end ----------------
    let img = test_image(kpx);
    let (iw, ih) = (img.width(), img.height());

    // Model inputs: per-level serial DWT shares (fused strip), the
    // bus-contention filtering profile (how far the memory-bound DWT can
    // scale, same machinery as the Fig. 6/9 projections), and the
    // sequential barriered profile (stage split + per-block Tier-1 costs).
    let deco = Decomposition::new(iw, ih, levels);
    let mut level_secs = vec![f64::INFINITY; usize::from(levels)];
    let mut plane = Plane::<i32>::new(iw, ih);
    for _ in 0..TRIALS {
        fill_i32(&mut plane);
        for l in 0..levels {
            let (_, t) = time(|| {
                forward_53_level(
                    &mut plane,
                    &deco,
                    l,
                    STRIP,
                    LiftingMode::Fused,
                    SimdMode::Auto,
                    &Exec::SEQ,
                )
            });
            let slot = &mut level_secs[usize::from(l)];
            *slot = slot.min(t);
        }
    }
    let level_total: f64 = level_secs.iter().sum();
    let level_shares: Vec<f64> = level_secs
        .iter()
        .map(|&t| {
            if level_total > 0.0 {
                t / level_total
            } else {
                0.0
            }
        })
        .collect();
    let fp = filtering_profile(iw.min(1024), levels);
    let fp_anchor = fp.strip.total().as_secs_f64();

    let profile_enc = Encoder::new(enc_cfg(1, StageOverlap::Barriered, levels)).expect("config");
    let a0 = allocs();
    let (out_barriered, profile) = profile_enc.encode(&img);
    let barriered_allocs = allocs() - a0;
    let costs = &profile.block_times;
    let stage_secs = |name: &str| {
        profile
            .stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    };
    let t_dwt = stage_secs(pj2k_core::report::stage::INTRA_COMPONENT);
    let t_quant = stage_secs(pj2k_core::report::stage::QUANTIZATION);

    let pipe_enc = Encoder::new(enc_cfg(1, StageOverlap::Pipelined, levels)).expect("config");
    let a0 = allocs();
    let (out_pipelined, pipe_profile) = pipe_enc.encode(&img);
    let pipelined_allocs = allocs() - a0;
    assert_eq!(
        out_barriered, out_pipelined,
        "pipelined encode changed the codestream"
    );
    // The pipelined producer's serial band-extraction cost, as measured
    // (its quantization-stage share) — much cheaper than the barriered
    // full-plane quantization pass it replaces.
    let t_extract = pipe_profile
        .stages
        .iter()
        .find(|(n, _)| *n == pj2k_core::report::stage::QUANTIZATION)
        .map_or(0.0, |(_, d)| d.as_secs_f64());

    let zeros = vec![0.0f64; costs.len()];

    let mut enc_rows = Vec::new();
    for p in [1usize, 2, 4, 8] {
        let mut t_bar = f64::INFINITY;
        let mut t_pipe = f64::INFINITY;
        for _ in 0..TRIALS {
            let e = Encoder::new(enc_cfg(p, StageOverlap::Barriered, levels)).expect("config");
            let (_, t) = time(|| e.encode(&img));
            t_bar = t_bar.min(t);
            let e = Encoder::new(enc_cfg(p, StageOverlap::Pipelined, levels)).expect("config");
            let (_, t) = time(|| e.encode(&img));
            t_pipe = t_pipe.min(t);
        }
        // Projected DWT stage time at p workers under FSB contention
        // (memory-bound filtering does not scale linearly), anchored to the
        // measured serial DWT magnitude — the same model as the Fig. 6/9
        // stage projections.
        let dwt_p = if fp_anchor > 0.0 {
            (project_filtering(&fp.strip_items, p, BusParams::PENTIUM2_FSB)
                + project_filtering(&fp.horiz_items, p, BusParams::PENTIUM2_FSB))
                * (t_dwt / fp_anchor)
        } else {
            t_dwt / p as f64
        };
        // Modeled: barriered runs the whole projected DWT, the quantization
        // pass split p ways, then the Tier-1 drain from a common start.
        // Pipelined releases each band's jobs as its level of the projected
        // transform finalizes (extraction serial on the producer), and the
        // compute-bound block coding fills the bus-stall slack the
        // memory-bound filtering leaves on the remaining workers —
        // quantization itself is folded into the consumers' staging.
        let m_bar = dwt_p + t_quant / p as f64 + simulate(&zeros, costs, p);
        let releases = pipeline_releases(&deco, &level_shares, dwt_p, t_extract, (64, 64));
        assert_eq!(
            releases.len(),
            costs.len(),
            "release model disagrees with the encoder's job count"
        );
        let m_pipe = simulate(&releases, costs, p);
        println!(
            "encoder p={p}: barriered {:.1} ms, pipelined {:.1} ms (measured x{:.3}); \
             modeled {:.1} ms vs {:.1} ms (x{:.3})",
            t_bar * 1e3,
            t_pipe * 1e3,
            t_bar / t_pipe,
            m_bar * 1e3,
            m_pipe * 1e3,
            m_bar / m_pipe
        );
        enc_rows.push((p, t_bar, t_pipe, m_bar, m_pipe));
    }
    println!(
        "allocations, sequential encode: barriered {barriered_allocs}, \
         pipelined {pipelined_allocs}"
    );

    // --- hand-rolled JSON -------------------------------------------------
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"pj2k.bench_dwt.v2\",\n");
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
        "  \"fused_naive_speedup_97\": {},\n",
        jf(fused_naive_97)
    ));
    doc.push_str(&format!(
        "  \"fused_strip_speedup_53\": {},\n",
        jf(fused_strip_53)
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
    doc.push_str(&format!("  \"encoder_kpixels\": {kpx},\n"));
    doc.push_str("  \"encoder_config\": \"lossless 5/3\",\n");
    doc.push_str("  \"encoder\": [\n");
    for (i, (p, t_bar, t_pipe, m_bar, m_pipe)) in enc_rows.iter().enumerate() {
        doc.push_str(&format!(
            "    {{ \"p\": {p}, \"barriered_secs\": {}, \"pipelined_secs\": {}, \
             \"measured_speedup\": {}, \"modeled_barriered_secs\": {}, \
             \"modeled_pipelined_secs\": {}, \"modeled_pipelined_speedup\": {} }}{}\n",
            jf(*t_bar),
            jf(*t_pipe),
            jf(t_bar / t_pipe),
            jf(*m_bar),
            jf(*m_pipe),
            jf(m_bar / m_pipe),
            if i + 1 < enc_rows.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"allocs\": {{ \"barriered\": {barriered_allocs}, \"pipelined\": {pipelined_allocs} }},\n"
    ));
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
