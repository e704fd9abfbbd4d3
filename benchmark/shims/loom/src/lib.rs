//! Offline stand-in for `loom` 0.7. `pj2k-parutil` depends on loom only
//! under `cfg(loom)`, which the benchmark never sets, so this crate is
//! resolved but never compiled into anything and is empty.
