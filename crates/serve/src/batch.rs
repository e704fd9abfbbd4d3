//! The batch scheduler: `j` concurrent images × `k` intra-image threads
//! under one budget, with bounded-memory admission and ordered emission.
//!
//! Shape (the `bounded_parralel_map` pattern, SNIPPETS.md Snippet 3):
//! the *producer* (the calling thread) loads images one at a time and
//! admits them into a [`BoundedQueue`](pj2k_parutil::BoundedQueue); `j`
//! batch workers each own a `k`-thread [`Encoder`] and drain jobs; results
//! come back through the reorder buffer in input order, so output files
//! are written in the order the inputs were given no matter which job
//! finished first. When the producer outruns the workers it blocks on the
//! queue — peak decoded-image memory is `capacity + j` images plus the one
//! being loaded, never O(inputs).
//!
//! Job isolation: a job failure is a *value*, not a panic. Unreadable or
//! over-budget inputs fail at the allocation-budgeted PNM parse (the
//! hardening paths from PR 3) before touching the encoder; a panic inside
//! one job's encode is caught at the job boundary ([`encode_job`]) and
//! reported as that job's error while the rest of the batch proceeds.

use pj2k_core::config::ConfigError;
use pj2k_core::{Encoder, EncoderConfig, ParallelMode};
use pj2k_image::{pnm, Image};
use pj2k_parutil::{bounded_ordered_serve, resolve_thread_budget};
use std::fmt;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Caller-tunable knobs of a batch run; `None` means "let the planner
/// decide" (see [`BatchPlan::for_workload`]).
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Number of concurrent images (`j`), clamped to the budget. Planner
    /// default: one job per file up to the budget, `min(files, B)`.
    pub jobs: Option<usize>,
    /// Total worker budget (`B`). Default: [`resolve_thread_budget`]
    /// (`PJ2K_THREADS`, else host parallelism).
    pub budget: Option<usize>,
    /// Admission-queue capacity. Default: `2 × j` — enough lookahead to
    /// keep `j` workers from starving on load jitter, still O(j · image).
    pub queue_capacity: Option<usize>,
}

/// The resolved execution shape of a batch run: `jobs × threads_per_job ≤
/// budget`, plus the admission-queue capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    /// Concurrent images (`j ≥ 1`).
    pub jobs: usize,
    /// Intra-image worker threads per job (`k ≥ 1`).
    pub threads_per_job: usize,
    /// Total worker budget the split was planned against.
    pub budget: usize,
    /// Bounded admission-queue capacity (≥ 1).
    pub queue_capacity: usize,
}

impl BatchPlan {
    /// Plan the `j/k` split for a batch of `files` images under `opts`: an
    /// explicit `jobs` override wins (clamped to `[1, B]`); otherwise
    /// `j = min(files, B)`, at least 1. Either way `k = B / j`.
    ///
    /// Whole images share nothing, so the widest `j` gives the most
    /// throughput (the period end of the period/latency trade, DESIGN.md
    /// §16); `k` only gets the threads left over when there are fewer
    /// files than budget.
    pub fn for_workload(files: usize, opts: &BatchOptions) -> BatchPlan {
        let budget = opts.budget.unwrap_or_else(resolve_thread_budget).max(1);
        let jobs = opts.jobs.unwrap_or(files).clamp(1, budget);
        let threads_per_job = budget / jobs;
        let queue_capacity = opts.queue_capacity.unwrap_or(jobs * 2).max(1);
        BatchPlan {
            jobs,
            threads_per_job,
            budget,
            queue_capacity,
        }
    }

    /// The encoder's parallel mode for one job of this plan.
    fn parallel_mode(&self) -> ParallelMode {
        if self.threads_per_job <= 1 {
            ParallelMode::Sequential
        } else {
            ParallelMode::WorkerPool {
                workers: self.threads_per_job,
            }
        }
    }
}

/// Why one job of a batch failed. The batch itself keeps going.
#[derive(Debug)]
pub enum JobError {
    /// The input could not be read or parsed (includes the allocation-
    /// budget rejections of the hardened PNM reader).
    Read(String),
    /// The job's encode panicked; the panic was contained at the job
    /// boundary.
    Panicked(String),
    /// The output could not be written.
    Write(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Read(e) => write!(f, "read: {e}"),
            JobError::Panicked(e) => write!(f, "encode panicked: {e}"),
            JobError::Write(e) => write!(f, "write: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A successfully encoded job, before any output IO.
#[derive(Debug)]
pub struct EncodedJob {
    /// The codestream bytes — identical to what a single-image
    /// `Encoder::encode` with the same config produces.
    pub bytes: Vec<u8>,
    /// Code blocks coded.
    pub blocks: usize,
    /// Coding passes performed.
    pub passes: usize,
}

/// Per-job success summary in a [`BatchReport`].
#[derive(Debug)]
pub struct JobStats {
    /// Output codestream size.
    pub bytes: usize,
    /// Code blocks coded.
    pub blocks: usize,
    /// Coding passes performed.
    pub passes: usize,
    /// Admission-to-emission latency (queue wait + encode + ordered
    /// hand-off), seconds.
    pub seconds: f64,
}

/// One job's result in a [`BatchReport`], in input order.
#[derive(Debug)]
pub struct JobOutcome {
    /// The input path.
    pub input: PathBuf,
    /// The output path.
    pub output: PathBuf,
    /// Success summary or the per-job failure.
    pub result: Result<JobStats, JobError>,
}

/// What a batch run did: per-job outcomes in input order plus the plan it
/// executed.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, one per input pair, in input order.
    pub outcomes: Vec<JobOutcome>,
    /// The executed plan.
    pub plan: BatchPlan,
}

impl BatchReport {
    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// True when every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }
}

/// Render a caught panic payload for a per-job error report.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Encode one admitted image on this batch worker's encoder, containing a
/// panicking encode at the job boundary so one poisoned job cannot sink
/// the batch (the executor's worker stays alive for the next job).
// AUDIT(hot): per-job dispatch — the catch_unwind frame and report field
// copies are once per image; the coding loops live inside
// `Encoder::encode`.
pub fn encode_job(encoder: &Encoder, img: &Image) -> Result<EncodedJob, JobError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (bytes, report) = encoder.encode(img);
        EncodedJob {
            bytes,
            blocks: report.num_blocks,
            passes: report.total_passes,
        }
    }))
    .map_err(|p| JobError::Panicked(panic_msg(p)))
}

/// Run a batch of `n` in-memory jobs through the bounded-admission
/// scheduler.
///
/// `supply(i)` runs on the calling thread, in index order, *at admission
/// time* — its memory footprint is what the bounded queue is bounding, so
/// load the image here, not ahead of time. A `supply` error is carried
/// through as that job's [`JobError`] without touching an encoder.
///
/// `on_result(i, result, latency_secs)` is called exactly once per job in
/// strictly increasing index order (the ordered-emission contract of
/// [`bounded_ordered_serve`]); `latency_secs` spans admission to emission.
///
/// Errors only on an invalid encoder configuration — per-job failures are
/// reported through `on_result`.
// AUDIT(hot): batch dispatch — plan resolution, config validation, and
// queue setup run once per batch; per-image work is in `encode_job`.
pub fn encode_stream<Sup, Out>(
    cfg: &EncoderConfig,
    plan: BatchPlan,
    n: usize,
    mut supply: Sup,
    on_result: Out,
) -> Result<(), ConfigError>
where
    Sup: FnMut(usize) -> Result<Image, JobError>,
    Out: Fn(usize, Result<EncodedJob, JobError>, f64) + Sync,
{
    let job_cfg = EncoderConfig {
        parallel: plan.parallel_mode(),
        ..cfg.clone()
    };
    // Validate once up front so per-worker construction cannot fail.
    Encoder::new(job_cfg.clone())?;
    bounded_ordered_serve(
        plan.jobs,
        plan.queue_capacity,
        |_w| Encoder::new(job_cfg.clone()).expect("config validated above"),
        |encoder, _i, (payload, t0): (Result<Image, JobError>, Instant)| {
            let result = payload.and_then(|img| encode_job(encoder, &img));
            (result, t0)
        },
        |i, (result, t0)| on_result(i, result, t0.elapsed().as_secs_f64()),
        |queue| {
            for i in 0..n {
                // Loading inside the producer loop is what keeps peak
                // memory bounded: at most `capacity` loaded images queue
                // up before this send blocks.
                let payload = supply(i);
                if queue.send(i, (payload, Instant::now())).is_err() {
                    break; // queue failed (worker died); stop admitting
                }
            }
        },
    );
    Ok(())
}

/// Encode `(input, output)` file pairs as one batch: plan the `j/k` split
/// from the number of inputs, stream the files through the
/// bounded-admission scheduler, and write each output in input order as
/// its job emerges.
///
/// Returns the per-job outcomes; IO and parse failures are per-job errors
/// in the report, not batch failures. Errors only on an invalid encoder
/// configuration.
pub fn encode_files(
    pairs: &[(PathBuf, PathBuf)],
    cfg: &EncoderConfig,
    opts: &BatchOptions,
) -> Result<BatchReport, ConfigError> {
    let plan = BatchPlan::for_workload(pairs.len(), opts);
    let outcomes = Mutex::new(Vec::with_capacity(pairs.len()));
    encode_stream(
        cfg,
        plan,
        pairs.len(),
        |i| {
            let input = &pairs[i].0;
            let file = std::fs::File::open(input)
                .map_err(|e| JobError::Read(format!("{}: {e}", input.display())))?;
            pnm::read(&mut BufReader::new(file))
                .map_err(|e| JobError::Read(format!("{}: {e}", input.display())))
        },
        |i, result, seconds| {
            let (input, output) = &pairs[i];
            let result = result.and_then(|enc| {
                std::fs::write(output, &enc.bytes)
                    .map_err(|e| JobError::Write(format!("{}: {e}", output.display())))?;
                Ok(JobStats {
                    bytes: enc.bytes.len(),
                    blocks: enc.blocks,
                    passes: enc.passes,
                    seconds,
                })
            });
            outcomes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(JobOutcome {
                    input: input.clone(),
                    output: output.clone(),
                    result,
                });
        },
    )?;
    Ok(BatchReport {
        outcomes: outcomes.into_inner().unwrap_or_else(|e| e.into_inner()),
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pj2k_core::RateControl;
    use pj2k_testkit::synth;

    fn test_cfg() -> EncoderConfig {
        EncoderConfig {
            rate: RateControl::TargetBpp(vec![1.0]),
            levels: 3,
            ..EncoderConfig::default()
        }
    }

    fn img(side: usize, seed: u64) -> Image {
        synth::natural_gray(side, side, seed)
    }

    #[test]
    fn plan_respects_budget_and_overrides() {
        let opts = |budget, jobs, queue_capacity| BatchOptions {
            jobs,
            budget: Some(budget),
            queue_capacity,
        };
        // (files, options) -> (j, k, queue capacity).
        let table = [
            (24, opts(1, None, None), (1, 1, 2)),
            (24, opts(2, None, None), (2, 1, 4)),
            (24, opts(8, None, None), (8, 1, 16)),
            (1, opts(8, None, None), (1, 8, 2)),
            (3, opts(8, None, None), (3, 2, 6)),
            (0, opts(4, None, None), (1, 4, 2)),
            (8, opts(4, Some(16), Some(3)), (4, 1, 3)),
            (8, opts(4, Some(0), None), (1, 4, 2)),
        ];
        for (files, o, want) in table {
            let plan = BatchPlan::for_workload(files, &o);
            let got = (plan.jobs, plan.threads_per_job, plan.queue_capacity);
            assert_eq!(got, want, "{files} files, {o:?}");
            assert_eq!(Some(plan.budget), o.budget);
        }
    }

    #[test]
    fn batch_output_is_bit_identical_to_single_image_encodes() {
        // The acceptance-criteria identity: each job's bytes must equal a
        // standalone encode of the same image with the same per-job
        // parallel mode AND the sequential reference (the codec is
        // bit-identical across executors, proven in core's tests).
        let cfg = test_cfg();
        let images: Vec<Image> = (0..6).map(|i| img(40 + 8 * i, 7 + i as u64)).collect();
        let plan = BatchPlan {
            jobs: 2,
            threads_per_job: 2,
            budget: 4,
            queue_capacity: 2,
        };
        let got = Mutex::new(Vec::new());
        encode_stream(
            &cfg,
            plan,
            images.len(),
            |i| Ok(images[i].clone()),
            |i, result, _lat| {
                got.lock().unwrap().push((i, result.expect("job ok").bytes));
            },
        )
        .expect("valid config");
        let got = got.into_inner().unwrap();
        let seq = Encoder::new(cfg).expect("config");
        for (k, (i, bytes)) in got.iter().enumerate() {
            assert_eq!(k, *i, "ordered emission");
            let (want, _) = seq.encode(&images[*i]);
            assert_eq!(bytes, &want, "image {i} differs from single encode");
        }
    }

    #[test]
    fn poisoned_job_fails_alone() {
        // Job 2's supply fails; every other job must still encode.
        let cfg = test_cfg();
        let plan = BatchPlan {
            jobs: 2,
            threads_per_job: 1,
            budget: 2,
            queue_capacity: 2,
        };
        let results = Mutex::new(Vec::new());
        encode_stream(
            &cfg,
            plan,
            5,
            |i| {
                if i == 2 {
                    Err(JobError::Read("synthetic poison".into()))
                } else {
                    Ok(img(32, i as u64))
                }
            },
            |i, result, _lat| results.lock().unwrap().push((i, result.is_ok())),
        )
        .expect("valid config");
        let results = results.into_inner().unwrap();
        assert_eq!(
            results,
            vec![(0, true), (1, true), (2, false), (3, true), (4, true)]
        );
    }

    #[test]
    fn encode_files_reports_per_job_errors_and_keeps_going() {
        let dir = std::env::temp_dir().join(format!("pj2k-serve-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let good = dir.join("good.pgm");
        {
            let im = img(24, 3);
            let mut f = std::fs::File::create(&good).expect("create");
            pnm::write(&mut f, &im).expect("write pnm");
        }
        let bad = dir.join("bad.pgm");
        std::fs::write(&bad, b"not a pnm file").expect("write garbage");
        let missing = dir.join("missing.pgm");
        let pairs: Vec<(PathBuf, PathBuf)> = [&good, &bad, &missing, &good]
            .iter()
            .enumerate()
            .map(|(i, p)| ((*p).clone(), dir.join(format!("out{i}.pj2k"))))
            .collect();
        let report = encode_files(
            &pairs,
            &test_cfg(),
            &BatchOptions {
                budget: Some(2),
                ..Default::default()
            },
        )
        .expect("valid config");
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.failed(), 2);
        assert!(!report.all_ok());
        assert!(report.outcomes[0].result.is_ok());
        assert!(matches!(report.outcomes[1].result, Err(JobError::Read(_))));
        assert!(matches!(report.outcomes[2].result, Err(JobError::Read(_))));
        assert!(report.outcomes[3].result.is_ok());
        // Successful outputs really landed, identical for identical input.
        let o0 = std::fs::read(&report.outcomes[0].output).expect("out0");
        let o3 = std::fs::read(&report.outcomes[3].output).expect("out3");
        assert!(!o0.is_empty());
        assert_eq!(o0, o3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_config_is_a_batch_error() {
        let cfg = EncoderConfig {
            levels: 0,
            code_block: (3, 3), // invalid: not a power of two in range
            ..EncoderConfig::default()
        };
        let plan = BatchPlan {
            jobs: 1,
            threads_per_job: 1,
            budget: 1,
            queue_capacity: 1,
        };
        let r = encode_stream(&cfg, plan, 0, |_| unreachable!("no jobs"), |_, _, _| {});
        assert!(r.is_err(), "invalid config must fail the batch up front");
    }
}
