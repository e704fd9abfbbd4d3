//! Batch service throughput/latency harness.
//!
//! Emits `BENCH_serve.json` (schema `pj2k.bench_serve.v1`) tracking the
//! `pj2k-serve` batch scheduler (DESIGN.md §16) against serial whole-pool
//! encoding — one image at a time, every worker on that image:
//!
//! 1. **Bit-identity cross-check**: every job of a `j=2 × k=2` batch must
//!    reproduce the standalone single-image encode byte for byte —
//!    enforced in-run before any number is reported.
//! 2. **Measured sweep** at budget p ∈ {1, 2, 4, 8} over a mixed-size
//!    workload: batch wall seconds, images/sec, and p50/p99
//!    admission-to-emission latency, against the serial whole-pool
//!    baseline at the same budget.
//! 3. **Modeled sweep**: the same contrast through [`pj2k_smpsim`]'s
//!    batch model driven by this run's measured per-size stage splits, so
//!    a shape floor survives single-core CI hosts where real-thread
//!    speedups are meaningless. `mixed_p4_batch_speedup` (modeled, floor
//!    1.1) is the key CI asserts; `measured_p4_batch_over_serial` (floor
//!    1.5, full runs) carries the throughput acceptance claim.
//! 4. **Flat-memory oracle**: under 2× offered load the batch's peak heap
//!    growth must stay within 25% of the 1× run and under the admission
//!    ceiling — `(capacity + 2j + 1)` units of one job's measured
//!    footprint — proving peak memory is O(j · image), not O(inputs).
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_serve -- [--smoke] [--out PATH]
//! ```

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::{paper_config, time};
use pj2k_core::report::stage;
use pj2k_core::{Encoder, EncoderConfig, ParallelMode};
use pj2k_image::Image;
use pj2k_serve::{encode_stream, BatchOptions, BatchPlan};
use pj2k_smpsim::{batch_speedup, choose_split, makespan, ImageCost, Schedule};
use pj2k_testkit::synth;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One image size class of the mixed workload, with its measured
/// sequential cost split driving the model.
struct SizeClass {
    side: usize,
    blocks: usize,
    cost: ImageCost,
}

/// Measure a sequential encode of a `side × side` image, repeated `reps`
/// times (sub-millisecond stage timings are noisy; the rep with the
/// smallest total carries the least scheduler interference), and split it
/// into the model's serial / parallel / granule components. The
/// parallelizable share is the paper's low-effort stage set (DWT +
/// quantization + Tier-1); the granule is calibrated at the headline
/// budget `k = 4` as the parallel-phase floor the whole-pool encoder
/// actually achieves there — the Tier-1 makespan under the default
/// staggered-round-robin stride (the same projection `project_encode`
/// uses) plus the DWT/quantization split. For `k > 4` the floor is
/// conservative (the stride can only balance better with more workers).
fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let mut samples: Vec<f64> = samples.collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn profile_size(cfg: &EncoderConfig, side: usize, seed: u64, reps: usize) -> SizeClass {
    let img = synth::natural_gray(side, side, seed);
    let enc = Encoder::new(EncoderConfig {
        parallel: ParallelMode::Sequential,
        ..cfg.clone()
    })
    .expect("valid config");
    let reports: Vec<_> = (0..reps.max(1)).map(|_| enc.encode(&img).1).collect();
    // Element-wise medians across reps: each stage and each code block is
    // the same work every rep, so the median strips scheduler noise
    // without mixing components from different reps' noise profiles.
    let med_stage = |name: &str| median(reports.iter().map(|r| r.stages.get(name).as_secs_f64()));
    let total = median(
        reports
            .iter()
            .map(|r| r.stages.iter().map(|(_, d)| d.as_secs_f64()).sum()),
    );
    let dwt = med_stage(stage::INTRA_COMPONENT);
    let quant = med_stage(stage::QUANTIZATION);
    let tier1 = med_stage(stage::TIER1);
    let n_blocks = reports[0].block_times.len();
    let block_times: Vec<f64> = (0..n_blocks)
        .map(|b| median(reports.iter().map(|r| r.block_times[b])))
        .collect();
    let parallel = (dwt + quant + tier1).min(total);
    let granule = (dwt + quant) / 4.0 + makespan(&block_times, 4, Schedule::StaggeredRoundRobin);
    SizeClass {
        side,
        blocks: reports[0].num_blocks,
        cost: ImageCost::new(total - parallel, parallel, granule),
    }
}

/// Nearest-rank percentile of an unsorted latency sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct MeasuredRow {
    p: usize,
    jobs: usize,
    threads_per_job: usize,
    batch_secs: f64,
    p50: f64,
    p99: f64,
    serial_secs: f64,
}

struct ModeledRow {
    p: usize,
    jobs: usize,
    threads_per_job: usize,
    batch_speedup: f64,
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
    "\"bit_identity\"",
    "\"workload\"",
    "\"images\"",
    "\"classes\"",
    "\"serial_secs\"",
    "\"parallel_secs\"",
    "\"granule_secs\"",
    "\"measured\"",
    "\"batch_secs\"",
    "\"images_per_sec\"",
    "\"p50_latency_secs\"",
    "\"p99_latency_secs\"",
    "\"serial_pool_secs\"",
    "\"serial_images_per_sec\"",
    "\"batch_over_serial\"",
    "\"modeled\"",
    "\"batch_speedup\"",
    "\"memory\"",
    "\"per_job_bytes\"",
    "\"peak_1x_bytes\"",
    "\"peak_2x_bytes\"",
    "\"flatness_ratio\"",
    "\"ceiling_bytes\"",
    "\"measured_p4_batch_over_serial\"",
    "\"mixed_p4_batch_speedup\"",
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

/// Run the whole mixed workload as one batch under a total budget `p`,
/// returning (wall seconds, sorted per-job latencies, executed plan).
fn run_batch(cfg: &EncoderConfig, images: &[Image], p: usize) -> (f64, Vec<f64>, BatchPlan) {
    let plan = BatchPlan::for_workload(
        images.len(),
        &BatchOptions {
            budget: Some(p),
            ..Default::default()
        },
    );
    let latencies = Mutex::new(Vec::with_capacity(images.len()));
    let (r, secs) = time(|| {
        encode_stream(
            cfg,
            plan,
            images.len(),
            |i| Ok(images[i].clone()),
            |_i, result, lat| {
                result.expect("workload job must succeed");
                latencies.lock().unwrap().push(lat);
            },
        )
    });
    r.expect("valid config");
    let mut lats = latencies.into_inner().unwrap();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    (secs, lats, plan)
}

/// The serial whole-pool baseline: one image at a time, the entire budget
/// as that image's intra-image pool.
fn run_serial_pool(cfg: &EncoderConfig, images: &[Image], p: usize) -> f64 {
    let enc = Encoder::new(EncoderConfig {
        parallel: if p <= 1 {
            ParallelMode::Sequential
        } else {
            ParallelMode::WorkerPool { workers: p }
        },
        ..cfg.clone()
    })
    .expect("valid config");
    let (_, secs) = time(|| {
        for im in images {
            let (bytes, _) = enc.encode(im);
            std::hint::black_box(bytes.len());
        }
    });
    secs
}

/// Peak heap growth of one batch run whose images are synthesized at
/// admission time — the supply-side shape `encode_files` has, so the
/// bounded queue is the only thing standing between offered load and
/// resident images.
fn oversub_peak(cfg: &EncoderConfig, plan: BatchPlan, side: usize, n: usize) -> u64 {
    let live0 = alloc_count::live_bytes();
    alloc_count::reset_peak_bytes();
    encode_stream(
        cfg,
        plan,
        n,
        |i| Ok(synth::natural_gray(side, side, 0xFEED + i as u64)),
        |_i, result, _lat| {
            std::hint::black_box(result.expect("oversub job must succeed").bytes.len());
        },
    )
    .expect("valid config");
    alloc_count::peak_bytes().saturating_sub(live0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Mixed-size workload: the thumbnail/tile sizes a batch service
    // actually sees (a 4x pixel-count spread). Small images are where the
    // j/k split matters — their Tier-1 stride schedule leaves the
    // whole-pool encoder granule-bound, which the batch turns into
    // inter-image overlap. `rounds` repeats the mix so list scheduling
    // has real interleaving to exploit.
    // `mix` is the per-round class multiset (indices into `sides`),
    // weighted toward the small end the way a thumbnail service is.
    let (sides, mix, rounds, reps): (&[usize], &[usize], usize, usize) = if smoke {
        (&[32, 48, 64], &[0, 1, 2], 2, 3)
    } else {
        (&[32, 40, 48, 64], &[0, 0, 1, 1, 2, 3], 6, 5)
    };
    let cfg = paper_config();

    // --- per-size cost profiles ------------------------------------------
    let classes: Vec<SizeClass> = sides
        .iter()
        .enumerate()
        .map(|(i, &s)| profile_size(&cfg, s, 0xC0DE + i as u64, reps))
        .collect();
    for c in &classes {
        println!(
            "class {}x{}: {} blocks — serial {:.2} ms, parallel {:.2} ms, granule {:.3} ms",
            c.side,
            c.side,
            c.blocks,
            c.cost.serial * 1e3,
            c.cost.parallel * 1e3,
            c.cost.granule * 1e3
        );
    }

    // --- workload ---------------------------------------------------------
    // Rotate the class order each round so arrival order does not alias one
    // size class onto one batch slot (the inter-image twin of the stride
    // aliasing bench_decode's skewed workload pins down).
    let mut images = Vec::new();
    let mut costs = Vec::new();
    for r in 0..rounds {
        for i in 0..mix.len() {
            let c = &classes[mix[(r + i) % mix.len()]];
            images.push(synth::natural_gray(
                c.side,
                c.side,
                0xBA7C + (r * mix.len() + i) as u64,
            ));
            costs.push(c.cost);
        }
    }
    println!(
        "workload: {} images over {} size classes",
        images.len(),
        classes.len()
    );

    // --- in-run bit-identity cross-check ---------------------------------
    {
        let plan = BatchPlan {
            jobs: 2,
            threads_per_job: 2,
            budget: 4,
            queue_capacity: 2,
        };
        let seq = Encoder::new(cfg.clone()).expect("valid config");
        let ok = Mutex::new(0usize);
        encode_stream(
            &cfg,
            plan,
            images.len(),
            |i| Ok(images[i].clone()),
            |i, result, _lat| {
                let got = result.expect("identity job must succeed").bytes;
                let (want, _) = seq.encode(&images[i]);
                if got != want {
                    eprintln!("FAIL: batch job {i} diverged from the single-image encode");
                    std::process::exit(1);
                }
                *ok.lock().unwrap() += 1;
            },
        )
        .expect("valid config");
        assert_eq!(ok.into_inner().unwrap(), images.len());
        println!(
            "bit-identity: all {} batch jobs match single encodes",
            images.len()
        );
    }

    // --- measured + modeled sweeps ---------------------------------------
    let budgets = [1usize, 2, 4, 8];
    let mut measured = Vec::new();
    let mut modeled = Vec::new();
    let mut mixed_p4 = 0.0f64;
    for &p in &budgets {
        let (batch_secs, lats, plan) = run_batch(&cfg, &images, p);
        let serial_secs = run_serial_pool(&cfg, &images, p);
        measured.push(MeasuredRow {
            p,
            jobs: plan.jobs,
            threads_per_job: plan.threads_per_job,
            batch_secs,
            p50: percentile(&lats, 0.50),
            p99: percentile(&lats, 0.99),
            serial_secs,
        });
        let (mj, mk) = choose_split(&costs, p);
        let speedup = batch_speedup(&costs, p);
        if p == 4 {
            mixed_p4 = speedup;
        }
        modeled.push(ModeledRow {
            p,
            jobs: mj,
            threads_per_job: mk,
            batch_speedup: speedup,
        });
        println!(
            "  p={p}: measured batch {:.1} ms (j={} k={}, p50 {:.1} ms, p99 {:.1} ms), \
             serial pool {:.1} ms; modeled batch/serial x{:.3} (j={mj} k={mk})",
            batch_secs * 1e3,
            plan.jobs,
            plan.threads_per_job,
            percentile(&lats, 0.50) * 1e3,
            percentile(&lats, 0.99) * 1e3,
            serial_secs * 1e3,
            speedup
        );
    }

    // Self-validation, two floors with different jobs. The *modeled*
    // speedup (measured per-size cost splits through the deterministic
    // batch model) carries the flake-proof shape claim CI asserts: it
    // cannot be washed out by a single-core host, but it also credits the
    // whole-pool baseline with free stage dispatch, so it sits near the
    // structural 1.5 and is floored at 1.1. The *measured* images/sec
    // ratio carries the full-run throughput claim (≥ 1.5): it includes
    // the real per-stage fork/join overhead the whole-pool encoder pays
    // on every image, which only widens the batch's margin.
    if mixed_p4 < 1.1 {
        eprintln!("FAIL: modeled mixed p=4 batch speedup {mixed_p4:.3} under floor 1.1");
        std::process::exit(1);
    }
    let measured_p4 = measured
        .iter()
        .find(|r| r.p == 4)
        .map(|r| r.serial_secs / r.batch_secs)
        .unwrap_or(0.0);
    if !smoke && measured_p4 < 1.5 {
        eprintln!("FAIL: measured p=4 batch/serial images/sec {measured_p4:.3} under floor 1.5");
        std::process::exit(1);
    }

    // --- flat-memory oracle ----------------------------------------------
    // One job's peak footprint (image + encoder scratch + codestream),
    // measured standalone on the oversubscription image size...
    let mem_side = sides[sides.len() / 2];
    let per_job_bytes = {
        let enc = Encoder::new(cfg.clone()).expect("valid config");
        let live0 = alloc_count::live_bytes();
        alloc_count::reset_peak_bytes();
        let im = synth::natural_gray(mem_side, mem_side, 0xF007);
        let (bytes, _) = enc.encode(&im);
        std::hint::black_box(bytes.len());
        alloc_count::peak_bytes().saturating_sub(live0)
    };
    // ...then the batch is offered 1× and 2× load with images synthesized
    // at admission time. Flat memory means the 2× peak stays put: the
    // bounded queue parks the producer instead of buffering the backlog.
    let mem_plan = BatchPlan {
        jobs: 2,
        threads_per_job: 1,
        budget: 2,
        queue_capacity: 2,
    };
    // Admission ceiling in job-footprint units: `capacity` queued images,
    // one per worker, the one send() is parked on, and up to `jobs − 1`
    // results parked in the reorder buffer.
    let ceiling_jobs = mem_plan.queue_capacity + 2 * mem_plan.jobs + 1;
    // Both runs must offer several times the in-flight ceiling, or the
    // pipeline never saturates and the "2×" run is just a longer ramp-up.
    let n1 = 4 * ceiling_jobs;
    let peak_1x = oversub_peak(&cfg, mem_plan, mem_side, n1);
    let peak_2x = oversub_peak(&cfg, mem_plan, mem_side, 2 * n1);
    let flatness = peak_2x as f64 / peak_1x.max(1) as f64;
    let ceiling_bytes = ceiling_jobs as u64 * per_job_bytes;
    println!(
        "memory: per-job {per_job_bytes} B, peak 1x {peak_1x} B, peak 2x {peak_2x} B \
         (flatness x{flatness:.3}, ceiling {ceiling_bytes} B)"
    );
    if flatness > 1.25 {
        eprintln!("FAIL: doubling offered load grew peak memory x{flatness:.3} (> 1.25)");
        std::process::exit(1);
    }
    if peak_2x > ceiling_bytes {
        eprintln!(
            "FAIL: 2x-oversubscribed peak {peak_2x} B exceeds admission ceiling {ceiling_bytes} B"
        );
        std::process::exit(1);
    }

    // --- hand-rolled JSON -------------------------------------------------
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"pj2k.bench_serve.v1\",\n");
    doc.push_str(&format!("  \"smoke\": {smoke},\n"));
    doc.push_str("  \"bit_identity\": \"ok\",\n");
    doc.push_str("  \"workload\": {\n");
    doc.push_str(&format!("    \"images\": {},\n", images.len()));
    doc.push_str("    \"classes\": [\n");
    for (i, c) in classes.iter().enumerate() {
        doc.push_str(&format!(
            "      {{ \"side\": {}, \"blocks\": {}, \"serial_secs\": {}, \
             \"parallel_secs\": {}, \"granule_secs\": {} }}{}\n",
            c.side,
            c.blocks,
            jf(c.cost.serial),
            jf(c.cost.parallel),
            jf(c.cost.granule),
            if i + 1 < classes.len() { "," } else { "" }
        ));
    }
    doc.push_str("    ]\n  },\n");
    doc.push_str("  \"measured\": [\n");
    let n_images = images.len() as f64;
    for (i, r) in measured.iter().enumerate() {
        doc.push_str(&format!(
            "    {{ \"p\": {}, \"jobs\": {}, \"threads_per_job\": {}, \"batch_secs\": {}, \
             \"images_per_sec\": {}, \"p50_latency_secs\": {}, \"p99_latency_secs\": {}, \
             \"serial_pool_secs\": {}, \"serial_images_per_sec\": {}, \
             \"batch_over_serial\": {} }}{}\n",
            r.p,
            r.jobs,
            r.threads_per_job,
            jf(r.batch_secs),
            jf(n_images / r.batch_secs),
            jf(r.p50),
            jf(r.p99),
            jf(r.serial_secs),
            jf(n_images / r.serial_secs),
            jf(r.serial_secs / r.batch_secs),
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str("  \"modeled\": [\n");
    for (i, r) in modeled.iter().enumerate() {
        doc.push_str(&format!(
            "    {{ \"p\": {}, \"jobs\": {}, \"threads_per_job\": {}, \"batch_speedup\": {} }}{}\n",
            r.p,
            r.jobs,
            r.threads_per_job,
            jf(r.batch_speedup),
            if i + 1 < modeled.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"memory\": {{ \"per_job_bytes\": {per_job_bytes}, \"peak_1x_bytes\": {peak_1x}, \
         \"peak_2x_bytes\": {peak_2x}, \"flatness_ratio\": {}, \"ceiling_jobs\": {ceiling_jobs}, \
         \"ceiling_bytes\": {ceiling_bytes} }},\n",
        jf(flatness)
    ));
    doc.push_str(&format!(
        "  \"measured_p4_batch_over_serial\": {},\n",
        jf(measured_p4)
    ));
    doc.push_str(&format!(
        "  \"mixed_p4_batch_speedup\": {}\n}}\n",
        jf(mixed_p4)
    ));

    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    let written = std::fs::read_to_string(&out_path).expect("re-read benchmark JSON");
    if let Err(e) = validate(&written) {
        eprintln!("BENCH_serve schema validation failed: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes, schema OK)", written.len());
}
