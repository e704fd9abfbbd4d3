//! EBCOT Tier-1: embedded block coding of quantized wavelet coefficients
//! (ISO/IEC 15444-1 Annex D; Taubman, *High performance scalable image
//! compression with EBCOT*, IEEE TIP 2000).
//!
//! Each code-block (paper default 64x64) is coded independently — this
//! independence is exactly what the reproduced paper exploits: *"In the
//! encoding stage ... no synchronisation is necessary due to the processing
//! of independent code-blocks"*. The block's sign-magnitude coefficients are
//! coded bit-plane by bit-plane in three passes per plane (significance
//! propagation, magnitude refinement, cleanup) against 19 adaptive MQ
//! contexts.
//!
//! Termination: every coding pass ends with an MQ flush (the standard's
//! per-pass termination mode), so any pass boundary is an exactly decodable
//! truncation point. Each pass also records its exact distortion reduction,
//! giving Tier-2's PCRD optimizer true rate/distortion points.

pub mod bitplane;
pub mod context;
pub mod decoder;
pub mod encoder;
#[cfg(feature = "oracle")]
pub mod oracle;
pub(crate) mod packed;
#[cfg(feature = "oracle")]
mod reference;
#[cfg(feature = "oracle")]
pub(crate) mod state;

pub use bitplane::Tier1Engine;
pub use context::BandCtx;
pub use decoder::{decode_block, decode_block_with, BlockDecoderScratch, DecodeError};
pub use encoder::{
    encode_block, BlockCoder, EncodedBlock, PassInfo, PassKind, Tier1Options, Tier1Profile,
};

/// Code-block scan geometry: stripes of 4 rows, columns left-to-right,
/// 4 coefficients top-to-bottom per column.
pub const STRIPE_HEIGHT: usize = 4;

/// Maximum coded magnitude bit-planes (`u32` magnitudes minus sign handling
/// headroom).
pub const MAX_PLANES: u8 = 31;
