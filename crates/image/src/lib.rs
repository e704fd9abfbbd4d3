//! Image substrate for the pj2k workspace.
//!
//! Provides the containers and utilities every codec in this reproduction
//! shares: a strided 2-D sample plane ([`Plane`]), a multi-component
//! [`Image`], PGM/PPM I/O ([`pnm`]), quality metrics ([`metrics`]), the
//! JPEG2000 component transforms ([`transform`]) and tiling ([`tile`]).
//! The synthetic test imagery that stands in for the paper's photographs
//! is `pj2k_testkit::synth` (DESIGN.md §2): test code, not codec code.
//!
//! The [`Plane`] type carries an explicit row stride so the paper's
//! "pad the image width off a power of two" cache fix (§3.2) can be
//! expressed without copying: samples stay at their logical coordinates
//! while rows are laid out `stride` elements apart.

pub mod image;
pub mod metrics;
pub mod plane;
pub mod pnm;
pub mod tile;
pub mod transform;

pub use image::Image;
pub use plane::Plane;
