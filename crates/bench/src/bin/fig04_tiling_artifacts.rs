//! Fig. 4 — The center of the test image coded at 0.125 bpp with JPEG,
//! JPEG2000 without tiling, and JPEG2000 with 128x128 tiles. Emits PGM
//! crops for visual inspection and prints the PSNR of each variant.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin fig04_tiling_artifacts [outdir]
//! ```

use pj2k_core::{Decoder, Encoder, EncoderConfig, RateControl};
use pj2k_image::metrics::psnr;
use pj2k_image::pnm;
use pj2k_testkit::synth;

fn main() {
    let outdir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let side = 512;
    let img = synth::natural_gray(side, side, 1234);
    let bpp = 0.125;
    println!("Fig. 4 — coding artifacts at {bpp} bpp ({side}x{side} input)\n");

    // (a) JPEG at the same rate (quality searched).
    let target = (bpp * (side * side) as f64 / 8.0) as usize;
    let mut jpeg_bytes = pj2k_jpegbase::encode(&img, 1).expect("jpeg");
    for q in 2..=60 {
        let bytes = pj2k_jpegbase::encode(&img, q).expect("jpeg");
        if bytes.len() > target {
            break;
        }
        jpeg_bytes = bytes;
    }
    let jpeg_out = pj2k_jpegbase::decode(&jpeg_bytes).expect("jpeg decode");

    // (b) JPEG2000 without tiling; (c) with 128x128 tiles.
    let mut variants = vec![(
        "fig4a_jpeg.pgm",
        format!("JPEG ({} B)", jpeg_bytes.len()),
        jpeg_out,
    )];
    for (tiles, file, label) in [
        (None, "fig4b_jpeg2000.pgm", "JPEG2000 no tiling"),
        (
            Some((128, 128)),
            "fig4c_jpeg2000_tiled.pgm",
            "JPEG2000 128x128 tiles",
        ),
    ] {
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![bpp]),
            tiles,
            ..EncoderConfig::default()
        };
        let (bytes, _) = Encoder::new(cfg).expect("config").encode(&img);
        let (out, _) = Decoder::default().decode(&bytes).expect("decode");
        variants.push((file, format!("{label} ({} B)", bytes.len()), out));
    }

    for (file, label, out) in &variants {
        let q = psnr(&img, out);
        let crop = out.crop(side / 4, side / 4, side / 2, side / 2);
        let path = format!("{outdir}/{file}");
        let mut f = std::fs::File::create(&path).expect("create crop");
        pnm::write(&mut f, &crop).expect("write crop");
        println!("{label:<42} PSNR {q:>6.2} dB -> {path}");
    }
    println!(
        "\nExpected shape (paper): JPEG shows strong 8x8 blocking, untiled\n\
         JPEG2000 is smooth, tiled JPEG2000 reintroduces visible tile seams."
    );
}
