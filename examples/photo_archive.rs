//! Photo archive scenario: the motivating JPEG2000 use case — one embedded
//! codestream serving several quality tiers.
//!
//! A digital archive (the paper's intro motivates medical imaging and
//! consumer photo services) stores a single lossy-compressed master per
//! photograph and serves thumbnails/previews/full-quality from prefixes of
//! the same stream. This example encodes a photo with three quality layers
//! (0.25 / 1.0 / 3.0 bpp), then decodes each tier and reports the
//! rate/quality staircase, plus a lossless 5/3 master for comparison.
//!
//! ```sh
//! cargo run --release -p pj2k-suite --example photo_archive
//! ```

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;

fn main() {
    let img = synth::natural_rgb(512, 512, 7);
    println!(
        "archiving a {}x{} RGB photo ({} raw bytes)",
        img.width(),
        img.height(),
        img.pixels() * 3
    );

    // One embedded master with three quality layers.
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![0.25, 1.0, 3.0]),
        filter: FilterStrategy::Strip,
        parallel: ParallelMode::WorkerPool { workers: 4 },
        ..EncoderConfig::default()
    };
    let (master, report) = Encoder::new(cfg).expect("valid config").encode(&img);
    println!(
        "master codestream: {} bytes ({:.3} bpp), {} code-blocks, {} passes",
        master.len(),
        master.len() as f64 * 8.0 / img.pixels() as f64,
        report.num_blocks,
        report.total_passes
    );

    for (layers, label) in [(1, "thumbnail tier"), (2, "preview tier"), (3, "full tier")] {
        let dec = Decoder {
            max_layers: Some(layers),
            ..Decoder::default()
        };
        let (out, _) = dec.decode(&master).expect("master decodes");
        println!(
            "  {label:<15} ({layers} layer{}) -> PSNR {:.2} dB",
            if layers > 1 { "s" } else { "" },
            psnr(&img, &out)
        );
    }

    // Archival master: reversible 5/3, bit-exact.
    let lossless_cfg = EncoderConfig {
        wavelet: Wavelet::Reversible53,
        rate: RateControl::Lossless,
        filter: FilterStrategy::Strip,
        ..EncoderConfig::default()
    };
    let (lossless, _) = Encoder::new(lossless_cfg)
        .expect("valid config")
        .encode(&img);
    let (restored, _) = Decoder::default().decode(&lossless).expect("decodes");
    let exact = pj2k_suite::image::metrics::max_abs_error(&img, &restored) == 0;
    println!(
        "lossless master: {} bytes ({:.3}x raw), bit-exact: {exact}",
        lossless.len(),
        lossless.len() as f64 / (img.pixels() * 3) as f64
    );
    assert!(exact, "reversible path must reconstruct exactly");
}
