//! Fig. 2 — Compression timings: encode time vs image size for JPEG,
//! SPIHT, and the JPEG2000 codec under both of the paper's parallelization
//! backends (JJ2000-style worker pool / Jasper-style loop splitting), run
//! sequentially here as the paper's Fig. 2 is a serial comparison.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin fig02_codec_comparison
//! PJ2K_FULL=1 cargo run ... # the paper's full 256..16384 Kpixel sweep
//! cargo run --release -p pj2k-bench --bin fig02_codec_comparison -- \
//!     [--smoke] --out PATH
//! ```
//!
//! With `--out`, the binary skips the table and writes the figure's
//! ordering as JSON: JPEG, SPIHT and a JPEG2000 coder built like the
//! paper's (naive per-step column filtering, every pass coded before rate
//! allocation) encode one image at 1 bpp, best of [`ROUNDS`] alternated
//! rounds each. `j2k_over_jpeg` and `j2k_over_spiht` are the JPEG2000 time
//! over the other two; `cargo xtask bench-smoke` floors both (JPEG fastest,
//! SPIHT no slower than 1.2x JPEG2000). `--smoke` encodes a 512x512 image,
//! the full run 1024x1024.

use pj2k_bench::figures::Scale;
use pj2k_bench::report::{host_cores, Json};
use pj2k_bench::{harness_args, ms, obj, paper_config, row, test_image, time};
use pj2k_core::{Encoder, EncoderConfig, RateControl};
use pj2k_image::Image;

/// Alternated rounds per codec in the `--out` measurement.
const ROUNDS: usize = 5;

fn main() {
    match harness_args() {
        (smoke, Some(path)) => ordering(smoke, &path),
        (_, None) => table(),
    }
}

fn table() {
    println!("Fig. 2 — compression timings (encode wall-clock, ms)\n");
    let cols = ["JPEG", "SPIHT", "pj2k (j2k)"].map(String::from);
    println!("{}", row("image size (Kpixel)", &cols));
    for kpx in Scale::from_env().sizes_kpx {
        let img = test_image(kpx);
        let (_, t_jpeg) = time(|| pj2k_jpegbase::encode(&img, 75).expect("jpeg"));
        let levels = 5u8;
        let (_, t_spiht) = time(|| pj2k_spiht::encode(&img, levels, 1.0).expect("spiht"));
        let cfg = EncoderConfig {
            rate: RateControl::TargetBpp(vec![1.0]),
            ..EncoderConfig::default()
        };
        let encoder = Encoder::new(cfg).expect("config");
        let (_, t_j2k) = time(|| encoder.encode(&img));
        println!(
            "{}",
            row(&format!("{kpx}"), &[ms(t_jpeg), ms(t_spiht), ms(t_j2k)])
        );
    }
    println!(
        "\nExpected shape (paper): JPEG fastest by a wide margin, JPEG2000\n\
         slowest, SPIHT in between; all grow ~linearly with pixel count."
    );
}

/// Time the three coders on one image and write the ordering to `path`.
fn ordering(smoke: bool, path: &str) {
    let side = if smoke { 512 } else { 1024 };
    let img: Image = pj2k_testkit::synth::natural_gray(side, side, 606);
    let j2k = Encoder::new(paper_config())
        .expect("config")
        .with_full_coding();
    let mut best = [f64::INFINITY; 3];
    for _ in 0..ROUNDS {
        let times = [
            time(|| pj2k_jpegbase::encode(&img, 75).expect("jpeg")).1,
            time(|| pj2k_spiht::encode(&img, 5, 1.0).expect("spiht")).1,
            time(|| j2k.encode(&img)).1,
        ];
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
    }
    let [jpeg, spiht, j2k] = best;
    let doc = obj! {
        "schema" => "pj2k.fig02.v1",
        "smoke" => smoke,
        "host_cores" => host_cores(),
        "image_side" => side,
        "rounds" => ROUNDS,
        "jpeg_secs" => jpeg,
        "spiht_secs" => spiht,
        "j2k_secs" => j2k,
        "j2k_over_jpeg" => Json::Num(j2k / jpeg, 3),
        "j2k_over_spiht" => Json::Num(j2k / spiht, 3),
    }
    .pretty();
    print!("{doc}");
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}
