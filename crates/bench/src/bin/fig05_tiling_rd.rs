//! Fig. 5 — The impact of tile-based parallelization on image quality:
//! PSNR vs bitrate for the tile sizes the paper maps to CPU counts
//! (512 = 1 CPU, 256x256 = 4 CPUs, ... 32x32 = 256 CPUs).
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin fig05_tiling_rd
//! ```

use pj2k_core::{Decoder, Encoder, EncoderConfig, RateControl};
use pj2k_image::metrics::psnr;
use pj2k_testkit::synth;

fn main() {
    let side = 512;
    let img = synth::natural_gray(side, side, 1234);
    let bitrates = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625];
    let tiles: [(usize, &str); 5] = [
        (512, "1 CPU (512x512)"),
        (256, "4 CPUs (256x256)"),
        (128, "16 CPUs (128x128)"),
        (64, "64 CPUs (64x64)"),
        (32, "256 CPUs (32x32)"),
    ];
    println!("Fig. 5 — PSNR (dB) vs bitrate for tile-based parallelization\n");
    print!("{:<20}", "bitrate (bpp)");
    for (_, label) in &tiles {
        print!(" {label:>18}");
    }
    println!();
    for &bpp in &bitrates {
        print!("{bpp:<20}");
        for &(tile, _) in &tiles {
            let cfg = EncoderConfig {
                rate: RateControl::TargetBpp(vec![bpp]),
                tiles: if tile == side {
                    None
                } else {
                    Some((tile, tile))
                },
                ..EncoderConfig::default()
            };
            let (bytes, _) = Encoder::new(cfg).expect("config").encode(&img);
            let (out, _) = Decoder::default().decode(&bytes).expect("decode");
            print!(" {:>18.2}", psnr(&img, &out));
        }
        println!();
    }
    println!(
        "\nExpected shape (paper): quality degrades monotonically as tiles\n\
         shrink, and the gap widens toward low bitrates (blocking artifacts)."
    );
}
