//! Batch service contract harness.
//!
//! Emits `BENCH_serve.json` (schema `pj2k.bench_serve.v2`) checking two
//! contracts of the `pj2k-serve` batch scheduler (DESIGN.md §16):
//!
//! 1. **Bit-identity cross-check**: every job of a `j=2 × k=2` batch over a
//!    mixed-size workload must reproduce the standalone single-image
//!    encode byte for byte — enforced in-run before any number is
//!    reported.
//! 2. **Flat-memory oracle**: under 2× offered load the batch's peak heap
//!    growth must stay within 25% of the 1× run and under the admission
//!    ceiling — `(capacity + 2j + 1)` units of one job's measured
//!    footprint — proving peak memory is O(j · image), not O(inputs).
//!
//! Batch throughput is the end-to-end benchmark's `batch-mixed` workload
//! (`benchmark/`), measured there with alternation and quartiles.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_serve -- [--smoke] [--out PATH]
//! ```

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::{harness_args, obj, paper_config};
use pj2k_core::{Encoder, EncoderConfig};
use pj2k_serve::{encode_stream, BatchPlan};
use pj2k_testkit::synth;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak heap growth while `f` runs.
fn heap_peak(f: impl FnOnce()) -> u64 {
    let live0 = alloc_count::live_bytes();
    alloc_count::reset_peak_bytes();
    f();
    alloc_count::peak_bytes().saturating_sub(live0)
}

/// Peak heap growth of one batch run whose images are synthesized at
/// admission time — the supply-side shape `encode_files` has, so the
/// bounded queue is the only thing standing between offered load and
/// resident images.
fn oversub_peak(cfg: &EncoderConfig, plan: BatchPlan, side: usize, n: usize) -> u64 {
    heap_peak(|| {
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
    })
}

fn main() {
    let (smoke, out_path) = harness_args();
    let out_path = out_path.unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Mixed-size workload: the thumbnail/tile sizes a batch service
    // actually sees (a 4x pixel-count spread). `mix` is the per-round
    // class multiset (indices into `sides`), weighted toward the small
    // end; `rounds` repeats it, rotated each round so arrival order does
    // not alias one size onto one batch slot.
    let (sides, mix, rounds): (&[usize], &[usize], usize) = if smoke {
        (&[32, 48, 64], &[0, 1, 2], 2)
    } else {
        (&[32, 40, 48, 64], &[0, 0, 1, 1, 2, 3], 6)
    };
    let cfg = paper_config();
    let images: Vec<_> = (0..rounds * mix.len())
        .map(|n| {
            let (r, i) = (n / mix.len(), n % mix.len());
            let side = sides[mix[(r + i) % mix.len()]];
            synth::natural_gray(side, side, 0xBA7C + n as u64)
        })
        .collect();

    // --- in-run bit-identity cross-check ---------------------------------
    let identity_plan = BatchPlan {
        jobs: 2,
        threads_per_job: 2,
        budget: 4,
        queue_capacity: 2,
    };
    {
        let seq = Encoder::new(cfg.clone()).expect("valid config");
        let ok = Mutex::new(0usize);
        encode_stream(
            &cfg,
            identity_plan,
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

    // --- flat-memory oracle ----------------------------------------------
    // One job's peak footprint (image + encoder scratch + codestream),
    // measured standalone on the oversubscription image size...
    let mem_side = sides[sides.len() / 2];
    let enc = Encoder::new(cfg.clone()).expect("valid config");
    let per_job_bytes = heap_peak(|| {
        let im = synth::natural_gray(mem_side, mem_side, 0xF007);
        std::hint::black_box(enc.encode(&im).0.len());
    });
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

    // --- JSON ---------------------------------------------------------------
    let doc = obj! {
        "schema" => "pj2k.bench_serve.v2",
        "smoke" => smoke,
        "bit_identity" => obj! {
            "images" => images.len(),
            "jobs" => identity_plan.jobs,
            "threads_per_job" => identity_plan.threads_per_job,
            "status" => "ok",
        },
        "memory" => obj! {
            "per_job_bytes" => per_job_bytes,
            "peak_1x_bytes" => peak_1x,
            "peak_2x_bytes" => peak_2x,
            "flatness_ratio" => flatness,
            "ceiling_jobs" => ceiling_jobs,
            "ceiling_bytes" => ceiling_bytes,
        },
    }
    .pretty();
    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    println!("wrote {out_path} ({} bytes)", doc.len());
}
