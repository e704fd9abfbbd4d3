//! # pj2k — a parallel JPEG2000 codec
//!
//! From-scratch Rust reproduction of the system studied in *Parallel
//! JPEG2000 Image Coding on Multiprocessors* (Meerwald, Norcen, Uhl — IPPS
//! 2002): a complete JPEG2000-style encoder/decoder whose two hot stages —
//! the wavelet transform and Tier-1 code-block coding — can be executed on
//! shared-memory multiprocessors, with the paper's cache-aware "improved
//! vertical filtering" available as a [`FilterStrategy`].
//!
//! ## Pipeline
//!
//! ```text
//! image I/O -> pipeline setup -> inter-component transform ->
//! intra-component transform (DWT) -> quantization -> tier-1 coding ->
//! R/D allocation (PCRD) -> tier-2 coding -> bitstream I/O
//! ```
//!
//! Stage wall-clock is recorded under exactly these names
//! ([`report::stage`]) so the harness can regenerate the paper's runtime
//! breakdowns (Figs. 3, 6, 9).
//!
//! ## Quick example
//!
//! ```
//! use pj2k_core::{Encoder, Decoder, EncoderConfig, RateControl};
//! use pj2k_testkit::synth;
//!
//! let img = synth::natural_gray(128, 128, 42);
//! let cfg = EncoderConfig {
//!     rate: RateControl::TargetBpp(vec![1.0]),
//!     ..EncoderConfig::default()
//! };
//! let (bytes, report) = Encoder::new(cfg).unwrap().encode(&img);
//! assert!(bytes.len() < 128 * 128); // ~1 bpp on an 8 bpp image
//! let (out, _) = Decoder::default().decode(&bytes).unwrap();
//! assert_eq!(out.width(), 128);
//! let psnr = pj2k_image::metrics::psnr(&img, &out);
//! assert!(psnr > 25.0, "psnr {psnr}");
//! # let _ = report;
//! ```

pub mod blocks;
pub mod config;
pub mod decode;
pub mod encode;
pub mod quant;
pub mod report;
pub mod roi;

pub use config::{
    ConfigError, EncoderConfig, FilterStrategy, ParallelMode, RateControl, Roi, StageOverlap,
};
pub use decode::{read_header, CodecError, DecodeReport, Decoder, StreamHeader};
pub use encode::{EncodeReport, Encoder, RoundKind, Tier1Round};
pub use pj2k_dwt::{DwtStats, Wavelet};
