//! Fig. 3 — Serial runtime analysis: per-stage encode breakdown across
//! image sizes (the chart that identifies the wavelet transform and tier-1
//! coding as the parallelization targets).
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin fig03_serial_breakdown
//! ```

use pj2k_bench::{paper_config, sizes_kpixel, test_image};
use pj2k_core::report::stage;
use pj2k_core::Encoder;

fn main() {
    println!("Fig. 3 — serial runtime analysis (ms per stage)\n");
    let sizes = sizes_kpixel();
    print!("{:<28}", "stage");
    for kpx in &sizes {
        print!(" {:>10}", format!("{kpx} Kpx"));
    }
    println!();

    let mut tables = Vec::new();
    for kpx in &sizes {
        let img = test_image(*kpx);
        // Every pass coded, as in the coders the paper profiles.
        let encoder = Encoder::new(paper_config())
            .expect("config")
            .with_full_coding();
        // The paper's "image I/O" stage is reading the raw picture; time a
        // PGM store + load of the same material.
        let t0 = std::time::Instant::now();
        let mut pgm = Vec::new();
        pj2k_image::pnm::write(&mut pgm, &img).expect("pgm write");
        let img = pj2k_image::pnm::read(&mut std::io::Cursor::new(pgm)).expect("pgm read");
        let io_time = t0.elapsed();
        let (_, mut report) = encoder.encode(&img);
        report.stages.add(stage::IMAGE_IO, io_time);
        tables.push(report);
    }
    for s in stage::ALL {
        print!("{s:<28}");
        for report in &tables {
            print!(" {:>10.1}", report.stages.get(s).as_secs_f64() * 1e3);
        }
        println!();
    }
    print!("{:<28}", "TOTAL");
    for report in &tables {
        print!(" {:>10.1}", report.stages.total().as_secs_f64() * 1e3);
    }
    println!();
    print!("{:<28}", "parallelizable fraction");
    for report in &tables {
        let par: f64 = stage::PARALLEL
            .iter()
            .map(|s| report.stages.get(s).as_secs_f64())
            .sum();
        print!(
            " {:>9.0}%",
            100.0 * par / report.stages.total().as_secs_f64()
        );
    }
    println!();
    println!(
        "\nExpected shape (paper): the intra-component transform (DWT) is the\n\
         most expensive stage, tier-1 coding second; image/bitstream I/O,\n\
         setup, and R/D allocation are comparatively small and sequential."
    );
}
