//! Multi-image batch service: inter-image parallelism on top of the
//! intra-image executors.
//!
//! The paper (and every crate below this one) parallelizes *one* image.
//! Production traffic is a stream of them, and simply looping
//! `Encoder::encode` with the whole thread pool leaves the pool idle
//! during each image's serial stages (image IO, rate allocation, Tier-2,
//! bitstream IO) and burns the granularity losses of wide intra-image
//! splits once per image. This crate stacks the second level of
//! parallelism (DESIGN.md §16):
//!
//! * [`discovery`] expands CLI inputs (files or directories) into an
//!   ordered job list;
//! * [`batch`] runs `j` concurrent images, each encoded by its own
//!   `k`-thread intra-image executor, with `j × k ≤ B` under one global
//!   thread budget (`PJ2K_THREADS`, [`pj2k_parutil::thread_budget`]). The
//!   split is `j = min(files, B)`, `k = B / j`
//!   ([`BatchPlan::for_workload`]): one whole image per worker while there
//!   are images to go round, the throughput end of arXiv 0801.1772's
//!   period/latency trade;
//! * admission is a bounded queue ([`pj2k_parutil::bounded_ordered_serve`]):
//!   the producer blocks when `queue_capacity` decoded images are waiting,
//!   so peak payload memory stays O(j · image) no matter how long the
//!   input list is, and results are emitted in input order;
//! * each job's input passes through the Result-based, allocation-budgeted
//!   parse paths from the hardening work (PR 3): a poisoned input fails
//!   *its* job with a per-job error while the rest of the batch proceeds.
//!
//! The `pj2k` CLI binary lives here (it needs the batch layer, which needs
//! `pj2k-core` — the CLI moved up from `pj2k-core` to break the cycle).

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unused_must_use)]

pub mod batch;
pub mod discovery;

pub use batch::{
    encode_files, encode_stream, BatchOptions, BatchPlan, BatchReport, EncodedJob, JobError,
    JobOutcome, JobStats,
};
pub use discovery::{discover, DiscoveryError};
