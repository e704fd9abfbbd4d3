//! Offline stand-in for `crossbeam-utils` 0.8. `pj2k-parutil` declares the
//! dependency and uses nothing from it, so this crate is empty.
