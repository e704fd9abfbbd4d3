//! Parallel scaling demo: the paper's experiment on your machine.
//!
//! Encodes the same image under every combination of parallel mode
//! (sequential / scoped worker threads) and vertical-filtering strategy
//! (the paper's naive baseline / strip), printing wall-clock, the
//! vertical-vs-horizontal DWT split, and the speedup over the
//! sequential-naive baseline. On a multi-core host this reproduces the
//! paper's Figs. 7–9 live; on one core the scheduling model in
//! `pj2k-smpsim` (see the fig* harness binaries) takes over.
//!
//! ```sh
//! cargo run --release -p pj2k-suite --example parallel_scaling [side]
//! ```

use pj2k_suite::prelude::*;
use pj2k_testkit::synth;
use std::time::Instant;

fn main() {
    let side: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let img = synth::natural_gray(side, side, 42);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "image: {side}x{side} ({} Kpixel), host CPUs: {host_cpus}",
        side * side / 1024
    );

    let modes: Vec<(&str, ParallelMode)> = vec![
        ("sequential", ParallelMode::Sequential),
        (
            "worker-pool",
            ParallelMode::WorkerPool { workers: host_cpus },
        ),
    ];
    let filters = [
        ("naive", FilterStrategy::Naive),
        ("strip", FilterStrategy::Strip),
    ];

    println!(
        "{:<12} {:<8} {:>10} {:>12} {:>12} {:>9}",
        "mode", "filter", "total ms", "DWT vert ms", "DWT horz ms", "speedup"
    );
    let mut baseline = None;
    for (mode_name, mode) in &modes {
        for (filter_name, filter) in &filters {
            let cfg = EncoderConfig {
                rate: RateControl::TargetBpp(vec![1.0]),
                parallel: *mode,
                filter: *filter,
                ..EncoderConfig::default()
            };
            let encoder = Encoder::new(cfg).expect("valid config");
            let t0 = Instant::now();
            let (_, report) = encoder.encode(&img);
            let total = t0.elapsed().as_secs_f64();
            let base = *baseline.get_or_insert(total);
            println!(
                "{:<12} {:<8} {:>10.1} {:>12.1} {:>12.1} {:>8.2}x",
                mode_name,
                filter_name,
                total * 1e3,
                report.dwt.vertical.as_secs_f64() * 1e3,
                report.dwt.horizontal.as_secs_f64() * 1e3,
                base / total
            );
        }
    }
    println!(
        "\n(The sequential/naive row is the baseline; on a single-core host\n\
         the speedup column stays ~1 except for the filtering gains, which\n\
         are exactly the paper's serial cache effect.)"
    );
}
