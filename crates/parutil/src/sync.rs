//! Synchronization-primitive facade: `std::sync` or [loom].
//!
//! Every synchronization primitive the executor core relies on for
//! *correctness* — the claim-table mutex in [`crate::disjoint`], the
//! queue mutex/condvar in [`crate::pipeline`] and the dynamic-schedule
//! claim cursor in [`crate::schedule`] — is imported through this module
//! instead of `std::sync` directly. A normal build re-exports `std`; the
//! workspace-excluded `loom/` crate compiles this same source with
//! `RUSTFLAGS="--cfg loom"` and loom on its dependency list (this crate
//! has no external dependency), which swaps in [loom]'s model-checked
//! versions, so the loom tests in `loom/tests/loom.rs` exhaustively
//! explore thread interleavings of the *production* claim/hand-off code,
//! not a copy.
//!
//! Deliberately **not** routed through the facade: thread creation
//! (`std::thread::scope`) and the scoped executors built on it. loom has no
//! scoped threads (its `thread::spawn` requires `'static`), so the models
//! drive the extracted cores — `DynamicCursor`, `PipelineQueue`,
//! `DisjointWriter` — from loom threads directly; the executors still
//! compile under `cfg(loom)` but are only exercised by the std/TSan/Miri
//! gates.
//!
//! [loom]: https://docs.rs/loom

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
// `Arc` backs only the debug-build claim table in `disjoint`.
#[cfg(not(loom))]
#[cfg_attr(not(debug_assertions), allow(unused_imports))]
pub(crate) use std::sync::{Arc, Condvar, Mutex};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
#[cfg_attr(not(debug_assertions), allow(unused_imports))]
pub(crate) use loom::sync::{Arc, Condvar, Mutex};
