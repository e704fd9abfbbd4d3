//! Region-of-interest scenario: a surveillance / medical-imaging use case
//! (the application domains the paper's introduction motivates) where one
//! region must survive aggressive compression.
//!
//! Encodes the same frame at a low bit rate with and without a MAXSHIFT
//! ROI, reports the quality split between region and background, and writes
//! the reconstructions as PGM under `target/examples-out/` for inspection.
//!
//! ```sh
//! cargo run --release -p pj2k-suite --example roi_priority
//! ```

use pj2k_suite::core::Roi;
use pj2k_suite::prelude::*;
use pj2k_testkit::synth;

fn main() {
    let side = 512;
    let img = synth::natural_gray(side, side, 314);
    let roi = Roi {
        x0: 192,
        y0: 192,
        w: 128,
        h: 128,
    };
    let bpp = 0.2;
    println!(
        "frame: {side}x{side}, budget {bpp} bpp, ROI {}x{} at ({}, {})\n",
        roi.w, roi.h, roi.x0, roi.y0
    );

    let encode = |with_roi: bool| {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![bpp]),
            filter: FilterStrategy::Strip,
            roi: with_roi.then_some(roi),
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).expect("valid config").encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).expect("decodes");
        (bytes.len(), out)
    };

    let region = |i: &Image| i.crop(roi.x0 + 8, roi.y0 + 8, roi.w - 16, roi.h - 16);
    let background = |i: &Image| i.crop(0, 0, side / 3, side / 3);

    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "configuration", "bytes", "ROI PSNR (dB)", "backgd PSNR (dB)"
    );
    for (label, with_roi, file) in [
        ("uniform coding", false, "roi_off.pgm"),
        ("MAXSHIFT ROI", true, "roi_on.pgm"),
    ] {
        let (bytes, out) = encode(with_roi);
        println!(
            "{:<22} {:>10} {:>14.2} {:>16.2}",
            label,
            bytes,
            psnr(&region(&img), &region(&out)),
            psnr(&background(&img), &background(&out))
        );
        pj2k_suite::save_example_image(file, &out);
    }
    println!(
        "\nwrote target/examples-out/roi_{{off,on}}.pgm — with the ROI enabled, the region\n\
         stays sharp while the background absorbs the rate cut. No mask is\n\
         transmitted: the decoder separates ROI coefficients by magnitude\n\
         (MAXSHIFT), so any pj2k decoder renders the stream correctly."
    );
}
