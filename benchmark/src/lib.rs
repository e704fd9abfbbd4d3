//! Shared parts of the pj2k benchmark (see `../README.md`): the input
//! generator, the CLI rig with child accounting and output checks, and
//! small statistics and JSON helpers. Std-only, and independent of every
//! `pj2k-*` crate so the end-to-end driver cannot link program code.

pub mod child;
pub mod gen;
pub mod json;
pub mod pnm;
pub mod report;
pub mod rig;
pub mod stats;
pub mod workload;
