//! Tiling-quality demo: why the paper rejects tile-based parallelization.
//!
//! Encodes the same image at a low bit rate (0.125 bpp, the paper's Fig. 4
//! setting) without tiling and with progressively smaller tiles (the tile
//! sizes the paper maps to 4/16/64/256 virtual CPUs in Fig. 5), plus the
//! baseline JPEG comparator, and reports the PSNR cost of each choice.
//! Center crops are written as PGM files under `target/examples-out/` so
//! the blocking artifacts can be inspected visually, mirroring Fig. 4.
//!
//! ```sh
//! cargo run --release -p pj2k-suite --example tiling_quality
//! ```

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;

fn main() {
    let side = 512;
    let img = synth::natural_gray(side, side, 1234);
    let bpp = 0.125;
    println!("image: {side}x{side}, target {bpp} bpp\n");
    println!("{:<28} {:>12} {:>10}", "configuration", "bytes", "PSNR dB");

    let mut crops: Vec<(String, Image)> = Vec::new();

    // JPEG comparator at (roughly) the same rate: search the quality knob.
    let target_bytes = (bpp * (side * side) as f64 / 8.0) as usize;
    let mut q = 1u8;
    let mut jpeg_bytes = Vec::new();
    for quality in 1..=60 {
        let bytes = pj2k_suite::jpegbase::encode(&img, quality).expect("jpeg encodes");
        if bytes.len() > target_bytes && quality > 1 {
            break;
        }
        q = quality;
        jpeg_bytes = bytes;
    }
    let jpeg_out = pj2k_suite::jpegbase::decode(&jpeg_bytes).expect("jpeg decodes");
    println!(
        "{:<28} {:>12} {:>10.2}",
        format!("JPEG (q={q})"),
        jpeg_bytes.len(),
        psnr(&img, &jpeg_out)
    );
    crops.push(("fig4_jpeg.pgm".into(), jpeg_out));

    // JPEG2000, whole-image transform and with tiles.
    for tiles in [None, Some(256), Some(128), Some(64), Some(32)] {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![bpp]),
            tiles: tiles.map(|t| (t, t)),
            filter: FilterStrategy::Strip,
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).expect("valid config").encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).expect("decodes");
        let label = match tiles {
            None => "JPEG2000 (no tiling)".to_string(),
            Some(t) => format!("JPEG2000 ({t}x{t} tiles)"),
        };
        println!(
            "{:<28} {:>12} {:>10.2}",
            label,
            bytes.len(),
            psnr(&img, &out)
        );
        match tiles {
            None => crops.push(("fig4_jpeg2000.pgm".into(), out)),
            Some(128) => crops.push(("fig4_jpeg2000_tiled.pgm".into(), out)),
            _ => {}
        }
    }

    // Write Fig.4-style center crops.
    let written: Vec<String> = crops
        .iter()
        .map(|(name, out)| {
            let crop = out.crop(side / 4, side / 4, side / 2, side / 2);
            pj2k_suite::save_example_image(name, &crop)
                .display()
                .to_string()
        })
        .collect();
    println!("\nwrote center crops: {}", written.join(", "));
    println!(
        "(Smaller tiles = more independent wavelet transforms = the rate-\n\
         distortion loss and blocking artifacts of the paper's Figs. 4–5.)"
    );
}
