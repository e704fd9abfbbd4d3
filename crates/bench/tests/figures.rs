//! The `figures` run at smoke sizes: every table and crop is written under
//! its title, from one measurement of each profile.

use pj2k_bench::figures::{run, Scale, FIG4_CROPS};
use pj2k_core::FilterStrategy;

/// Each table's file and the start of its title line.
const TABLES: [(&str, &str); 15] = [
    (
        "fig03_serial_breakdown.txt",
        "Fig. 3 — serial runtime analysis",
    ),
    ("fig04_tiling_artifacts.txt", "Fig. 4 — coding artifacts"),
    ("fig05_tiling_rd.txt", "Fig. 5 — PSNR (dB) vs bitrate"),
    (
        "fig06_parallel_breakdown.txt",
        "Fig. 6 — parallel runtime analysis",
    ),
    ("fig07_filtering_times.txt", "Fig. 7 — filtering runtimes"),
    (
        "fig08_filtering_speedup.txt",
        "Fig. 8 — speedup of filtering routines",
    ),
    (
        "fig09_parallel_breakdown_improved.txt",
        "Fig. 9 — parallel runtime analysis",
    ),
    (
        "fig10_sgi_filtering.txt",
        "Fig. 10 — SGI filtering runtimes",
    ),
    (
        "fig11_sgi_filter_speedup.txt",
        "Fig. 11 — vertical filtering speedup",
    ),
    (
        "fig12_sgi_total_speedup.txt",
        "Fig. 12 — total speedup vs ORIGINAL",
    ),
    (
        "fig13_sgi_speedup_optimized.txt",
        "Fig. 13 — total speedup vs filtering-OPTIMIZED",
    ),
    ("cache_analysis.txt", "Cache: 16 KiB, 4-way"),
    ("quant_speedup.txt", "§3.3 — quantization stage"),
    ("amdahl_table.txt", "§3.4 — Amdahl bound vs modeled speedup"),
    ("schedule_ablation.txt", "schedule ablation — 16 Kpixel"),
];

#[test]
fn figures_write_every_table_from_one_profile_run() {
    let out = std::env::temp_dir().join(format!("pj2k-figures-{}", std::process::id()));
    let scale = Scale::smoke();
    let summary = run(&scale, &out).expect("figures run");

    // One encode profile per (size, filter), one filtering profile per
    // side: the two encode sizes anchor on their own sides (128, 256),
    // which Figs. 7/8 (256) and 10/11 (128) share.
    let mut want = Vec::new();
    for &kpx in &scale.sizes_kpx {
        want.extend([(kpx, FilterStrategy::Naive), (kpx, FilterStrategy::Strip)]);
    }
    assert_eq!(summary.encode_profiles, want);
    assert_eq!(summary.filtering_profiles, [128, 256]);

    for (file, title) in TABLES {
        let text = std::fs::read_to_string(out.join(file)).expect(file);
        assert!(
            text.starts_with(title),
            "{file} starts {:?}",
            text.lines().next()
        );
        assert!(
            text.contains("Expected"),
            "{file} lost its expected-shape note"
        );
    }
    for crop in FIG4_CROPS {
        let bytes = std::fs::read(out.join(crop)).expect(crop);
        // A 64x64 crop of the 128x128 smoke image.
        assert!(bytes.starts_with(b"P5\n64 64\n255\n"), "{crop}");
        assert_eq!(bytes.len(), b"P5\n64 64\n255\n".len() + 64 * 64);
    }
    std::fs::remove_dir_all(&out).expect("remove the output");
}
