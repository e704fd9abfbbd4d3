//! Deterministic SMP execution model.
//!
//! The paper reports speedups on a 4-CPU Intel SMP and a 16-CPU SGI Power
//! Challenge. This reproduction cannot assume such hardware (the reference
//! host has 2 cores), so in addition to real threaded execution the
//! harness projects parallel runtimes through this model:
//!
//! * per-work-item costs are **measured** on the host (per code-block
//!   Tier-1 times from `pj2k-core`'s `EncodeReport`, per-direction DWT
//!   times, cache miss traffic from [`pj2k_cachesim`]),
//! * [`makespan()`] computes the completion time of those items on `p`
//!   virtual CPUs under the paper's schedules (static block split,
//!   round-robin, staggered round-robin — the same [`Schedule`] type the
//!   real executors use),
//! * [`bus`] adds the shared-memory-bus contention that the paper blames
//!   for the poor scalability of naive vertical filtering ("the congestion
//!   of the bus caused by the high number of cache misses"),
//! * [`amdahl`] provides the §3.4 theoretical-speedup bounds.
//!
//! The model's claims are *shape* claims (who wins, where scaling
//! saturates), matching how EXPERIMENTS.md compares against the paper.

pub mod amdahl;
pub mod bus;
pub mod makespan;

pub use amdahl::{amdahl_speedup, serial_fraction};
pub use bus::{bus_makespan, BusParams, WorkItem};
pub use makespan::{makespan, speedup_curve};
pub use pj2k_parutil::Schedule;
