//! Quickstart: encode an image to a 1 bpp JPEG2000-style codestream,
//! decode it back, and report size/quality — the three calls every user of
//! the library starts from.
//!
//! ```sh
//! cargo run --release -p pj2k-suite --example quickstart [input.pgm]
//! ```
//!
//! Without an argument a deterministic synthetic photograph is used.

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;
use std::io::BufReader;

fn main() {
    // 1. Obtain an image: a PGM/PPM from disk, or the synthetic stand-in.
    let img = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path).expect("cannot open input");
            pj2k_suite::image::pnm::read(&mut BufReader::new(file)).expect("not a PGM/PPM")
        }
        None => synth::natural_gray(512, 512, 2026),
    };
    println!(
        "input: {}x{} px, {} component(s)",
        img.width(),
        img.height(),
        img.num_components()
    );

    // 2. Encode at 1.0 bpp with the paper's defaults (5-level 9/7, 64x64
    //    code-blocks) plus its improved vertical filtering.
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![1.0]),
        filter: FilterStrategy::Strip,
        ..EncoderConfig::default()
    };
    let encoder = Encoder::new(cfg).expect("valid config");
    let (bytes, report) = encoder.encode(&img);
    let bpp = bytes.len() as f64 * 8.0 / img.pixels() as f64;
    println!("encoded: {} bytes ({bpp:.3} bpp)", bytes.len());
    for (stage, t) in report.stages.iter() {
        println!("  {stage:<28} {:>9.3} ms", t.as_secs_f64() * 1e3);
    }

    // 3. Decode and measure quality.
    let (decoded, _) = Decoder::default()
        .decode(&bytes)
        .expect("own stream decodes");
    println!("PSNR: {:.2} dB", psnr(&img, &decoded));

    // Bonus: write the reconstruction for inspection.
    if decoded.num_components() == 1 {
        let out_path = pj2k_suite::save_example_image("quickstart_decoded.pgm", &decoded);
        println!("wrote {}", out_path.display());
    }
}
