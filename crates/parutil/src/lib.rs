//! Shared-memory parallel execution utilities for the pj2k workspace.
//!
//! The paper (Meerwald, Norcen, Uhl — IPPS 2002) parallelizes two JPEG2000
//! reference implementations with two mechanisms:
//!
//! * **JJ2000 / Java threads**: an explicit pool of worker threads; the
//!   independent code-blocks of the Tier-1 coding stage are handed to the
//!   workers in a *staggered round-robin* order to balance the load, and the
//!   wavelet transform splits its row/column ranges statically among threads
//!   with a barrier between the vertical and horizontal filtering of each
//!   decomposition level.
//! * **Jasper / OpenMP**: `#pragma omp parallel for` static loop splitting,
//!   which is the same contiguous-range split on scoped threads
//!   ([`Exec::run_ranges`] over [`chunk_ranges`]).
//!
//! This crate provides the pieces shared by both: work schedules
//! ([`Schedule`], [`assign`]), a scoped fork-join executor over those
//! schedules ([`pool_map`], [`pool_run`]), and the per-stage wall-clock
//! instrumentation ([`StageTimes`]) used to regenerate the paper's runtime
//! breakdown charts (Figs. 3, 6, 9).
//!
//! The synchronization primitives the executors rely on are imported through
//! the private `sync` facade, so the workspace-excluded `loom/` crate can
//! build this source with `RUSTFLAGS="--cfg loom"`, which swaps in
//! [loom](https://docs.rs/loom)'s model-checked versions, and the
//! models in `loom/tests/loom.rs` exhaustively explore thread interleavings of
//! the production claim/hand-off code (see DESIGN.md §12).

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unused_must_use)]

pub mod bounded;
pub mod budget;
pub mod disjoint;
pub mod exec;
pub mod pipeline;
pub mod pool;
pub mod schedule;
mod sync;
pub mod timing;

pub use bounded::{bounded_ordered_serve, BoundedQueue, SendError};
pub use budget::{clamp_workers, parse_thread_budget_token, resolve_thread_budget, thread_budget};
pub use disjoint::{DisjointClaim, DisjointWriter};
pub use exec::{Exec, SendPtr};
pub use pipeline::{pipeline_overlap_with_state, PipelineQueue};
pub use pool::{pool_map, pool_map_with_state, pool_run};
pub use schedule::{assign, chunk_ranges, DynamicCursor, Schedule};
pub use timing::{StageClock, StageTimes};
