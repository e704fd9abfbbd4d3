//! Heap peak of a sequential lossless RGB encode.
//!
//! The encoder's pipeline setup turns the cropped tile into the transform
//! planes in place: the DC shift runs on the tile, and on the reversible
//! path its components become the 5/3 planes. So one i32 copy of the
//! image is live during the transform, not three (tile, a shifted work
//! copy and the planes cloned from it).
//!
//! The byte gauge behind [`alloc_count::peak_bytes`] is process-wide, so
//! this file holds one test and nothing else allocates beside it.

#![cfg(feature = "alloc-count")]

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_core::{Encoder, EncoderConfig, RateControl, Wavelet};
use pj2k_testkit::synth;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn lossless_rgb_encode_keeps_one_copy_of_the_image() {
    let (w, h) = (256usize, 256usize);
    let img = synth::natural_rgb(w, h, 0x4EA9);
    let enc = Encoder::new(EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        ..EncoderConfig::default()
    })
    .expect("valid config");
    let live0 = alloc_count::live_bytes();
    alloc_count::reset_peak_bytes();
    let (bytes, _) = enc.encode(&img);
    let peak = alloc_count::peak_bytes().saturating_sub(live0);
    // One i32 copy of the image, its three components.
    let copy = (3 * w * h * std::mem::size_of::<i32>()) as u64;
    println!(
        "heap peak {peak} B = {:.2} image copies ({} B codestream)",
        peak as f64 / copy as f64,
        bytes.len()
    );
    // The transform planes plus the coded blocks, packet state and the
    // codestream fit in two copies; three live i32 copies do not.
    assert!(
        peak < 2 * copy,
        "heap peak {peak} B is {:.2} copies of the {copy} B image (bound 2)",
        peak as f64 / copy as f64
    );
}
