//! Tier-2 coding and rate allocation for pj2k.
//!
//! Tier-2 is everything above the per-block entropy coder: deciding *which*
//! coding passes of *which* code-blocks enter the codestream (rate
//! allocation, [`pcrd`]), and writing the packet headers that describe those
//! decisions compactly (tag-tree coded inclusion and zero-bit-plane
//! information, pass counts and segment lengths — [`packet`], [`tagtree`],
//! [`bitio`]), plus the marker-segment container ([`codestream`]).
//!
//! The paper treats this stage ("R/D allocation", "tier-2 coding",
//! "bitstream I/O") as inherently sequential and low-cost; this crate keeps
//! it single-threaded by design so the pipeline's serial fraction matches
//! the paper's Fig. 3 structure.
//!
//! The decode half of this crate sits on the untrusted-input boundary; see
//! DESIGN.md §9 for the threat model and the `panic` check of `cargo xtask
//! audit` that keeps it panic-free.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

pub mod bitio;
pub mod codestream;
pub mod packet;
pub mod pcrd;
pub mod tagtree;

pub use bitio::{HeaderBitReader, HeaderBitWriter};
pub use codestream::ParseError;
pub use packet::{decode_packet, encode_packet, BlockDecodeResult, PacketError, PrecinctState};
pub use pcrd::{allocate_layers, BlockRd};
pub use tagtree::TagTree;
