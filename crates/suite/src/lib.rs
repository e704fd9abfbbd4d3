//! Umbrella crate: owns the repository-level `examples/` and `tests/`
//! targets and re-exports the whole pj2k workspace under one roof so the
//! examples can `use pj2k_suite::prelude::*`. Their synthetic imagery is
//! `pj2k_testkit::synth`, a dev-dependency.

pub use pj2k_cachesim as cachesim;
pub use pj2k_core as core;
pub use pj2k_dwt as dwt;
pub use pj2k_ebcot as ebcot;
pub use pj2k_image as image;
pub use pj2k_jpegbase as jpegbase;
pub use pj2k_mq as mq;
pub use pj2k_parutil as parutil;
pub use pj2k_smpsim as smpsim;
pub use pj2k_spiht as spiht;
pub use pj2k_tier2 as tier2;

/// Everything an application typically needs.
pub mod prelude {
    pub use pj2k_core::{
        Decoder, Encoder, EncoderConfig, FilterStrategy, ParallelMode, RateControl, Wavelet,
    };
    pub use pj2k_image::metrics::{mse, psnr};
    pub use pj2k_image::{Image, Plane};
}

/// Write `img` as a binary PNM named `name` under `target/examples-out/`
/// (relative to the current directory, created on demand) and return the
/// path — the examples' output images never land in the source tree.
///
/// # Panics
/// Panics if the directory or file cannot be written.
pub fn save_example_image(name: &str, img: &pj2k_image::Image) -> std::path::PathBuf {
    let dir = std::path::Path::new("target/examples-out");
    std::fs::create_dir_all(dir).expect("create target/examples-out");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create example output");
    pj2k_image::pnm::write(&mut f, img).expect("write example output");
    path
}
