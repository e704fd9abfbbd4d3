//! The paper's tables and figures (DESIGN.md §4) from one profile run.
//!
//! [`run`] measures the serial full-coding encode profile once per
//! (size, filter) and the filtering profile once per side, then prints
//! every table from them: Figs. 3, 6, 9, 12, 13, the §3.4 Amdahl table and
//! the schedule ablation read the encode profiles, Figs. 7, 8, 10 and 11
//! the filtering profiles. Figs. 4 and 5, the §3.2 cache diagnosis and the
//! §3.3 quantization stage run their own small workloads. Each table goes
//! to `<out>/<name>.txt` under its title line; Fig. 4 also writes its
//! three crops as PGM.

use crate::report::host_cores;
use crate::{
    encode_profile, filtering_profile, ms, paper_config, project_encode, project_filtering, row,
    test_image, time, x, EncodeProfile, FilteringProfile,
};
use pj2k_cachesim::{vertical_naive_trace, vertical_strip_trace, CacheConfig, FilterTraceParams};
use pj2k_core::quant::quantize_plane;
use pj2k_core::report::stage;
use pj2k_core::{Decoder, Encoder, EncoderConfig, FilterStrategy, ParallelMode, RateControl};
use pj2k_image::metrics::psnr;
use pj2k_image::{pnm, Image, Plane};
use pj2k_parutil::{Exec, StageTimes};
use pj2k_smpsim::{amdahl_speedup, makespan, BusParams, Schedule, WorkItem};
use pj2k_testkit::synth;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Decomposition levels of every profile.
const LEVELS: u8 = 5;
/// The largest side an encode profile's DWT is anchored on: the filtering
/// profile of a bigger image is measured at this side and scaled.
const ANCHOR_SIDE: usize = 1024;
/// CPU counts of the paper's Intel SMP (Figs. 7, 8).
const INTEL_CPUS: [usize; 4] = [1, 2, 3, 4];
/// CPU counts of the simulated SGI Power Challenge (Figs. 10–13).
const SGI_CPUS: [usize; 9] = [1, 2, 4, 6, 8, 10, 12, 14, 16];
/// Fig. 4's crops: JPEG, JPEG2000 untiled, JPEG2000 tiled.
pub const FIG4_CROPS: [&str; 3] = [
    "fig4a_jpeg.pgm",
    "fig4b_jpeg2000.pgm",
    "fig4c_jpeg2000_tiled.pgm",
];

/// The workload sizes of one run.
pub struct Scale {
    /// Encode-profile image sizes (Figs. 3, 6, 9, §3.4), Kpixel.
    pub sizes_kpx: Vec<usize>,
    /// The size, one of `sizes_kpx`, of Figs. 12 and 13.
    pub sgi_kpx: usize,
    /// The size, one of `sizes_kpx`, of the schedule ablation.
    pub ablation_kpx: usize,
    /// Filtering-profile side of Figs. 7 and 8.
    pub filter_side: usize,
    /// Filtering-profile side of Figs. 10 and 11.
    pub sgi_side: usize,
    /// Image side of Figs. 4 and 5; Fig. 5's tile sides are it over 1, 2,
    /// 4, 8 and 16.
    pub tiling_side: usize,
    /// Coefficient-plane side of the §3.3 quantization stage.
    pub quant_side: usize,
}

impl Scale {
    /// The laptop-sized defaults, or with `PJ2K_FULL=1` the paper's full
    /// sweep (256..16384 Kpixel; the 16-Mpixel points take minutes per
    /// codec on one core).
    pub fn from_env() -> Scale {
        let full = std::env::var("PJ2K_FULL").is_ok_and(|v| v == "1");
        Scale {
            sizes_kpx: match full {
                true => synth::PAPER_SIZES_KPIXEL.to_vec(),
                false => vec![256, 1024, 4096],
            },
            sgi_kpx: if full { 16384 } else { 4096 },
            ablation_kpx: 1024,
            filter_side: 2048,
            sgi_side: if full { 4096 } else { 2048 },
            tiling_side: 512,
            quant_side: 2048,
        }
    }

    /// Sizes small enough for a debug-build test.
    pub fn smoke() -> Scale {
        Scale {
            sizes_kpx: vec![16, 64],
            sgi_kpx: 64,
            ablation_kpx: 16,
            filter_side: 256,
            sgi_side: 128,
            tiling_side: 128,
            quant_side: 128,
        }
    }
}

/// The DWT anchor side of an encode profile of `kpx` Kpixel.
fn anchor_side(kpx: usize) -> usize {
    synth::side_for_kpixels(kpx).min(ANCHOR_SIDE)
}

/// The two encode profiles of one image size.
struct SizeProfile<'a> {
    kpx: usize,
    /// Time to write and read the image as PGM (Fig. 3's image I/O).
    io: Duration,
    naive: EncodeProfile<'a>,
    strip: EncodeProfile<'a>,
}

/// What one run measured.
pub struct Summary {
    /// The (Kpixel, filter) of each encode profile, in measurement order.
    pub encode_profiles: Vec<(usize, FilterStrategy)>,
    /// The side of each filtering profile, in measurement order.
    pub filtering_profiles: Vec<usize>,
}

/// Measure the profiles at `scale` and write every table and crop into
/// `out`, echoing each table to stdout.
pub fn run(scale: &Scale, out: &Path) -> io::Result<Summary> {
    std::fs::create_dir_all(out)?;
    let mut sides: Vec<usize> = scale.sizes_kpx.iter().map(|&k| anchor_side(k)).collect();
    sides.extend([scale.filter_side, scale.sgi_side]);
    sides.sort_unstable();
    sides.dedup();
    let fps: BTreeMap<usize, FilteringProfile> = sides
        .iter()
        .map(|&s| (s, filtering_profile(s, LEVELS)))
        .collect();
    let mut summary = Summary {
        encode_profiles: Vec::new(),
        filtering_profiles: sides,
    };
    let mut sizes = Vec::new();
    for &kpx in &scale.sizes_kpx {
        let img = test_image(kpx);
        let fp = &fps[&anchor_side(kpx)];
        let mut pgm = Vec::new();
        let (_, io) = time(|| {
            pnm::write(&mut pgm, &img).expect("pgm write");
            pnm::read(&mut io::Cursor::new(&pgm)).expect("pgm read")
        });
        let [naive, strip] = [FilterStrategy::Naive, FilterStrategy::Strip].map(|filter| {
            summary.encode_profiles.push((kpx, filter));
            encode_profile(&img, filter, LEVELS, fp)
        });
        let io = Duration::from_secs_f64(io);
        sizes.push(SizeProfile {
            kpx,
            io,
            naive,
            strip,
        });
    }
    let at = |kpx| {
        sizes
            .iter()
            .find(|s| s.kpx == kpx)
            .expect("a profiled size")
    };
    let (filter_fp, sgi_fp) = (&fps[&scale.filter_side], &fps[&scale.sgi_side]);
    let tables = [
        ("fig03_serial_breakdown", fig03(&sizes)),
        ("fig04_tiling_artifacts", fig04(scale.tiling_side, out)?),
        ("fig05_tiling_rd", fig05(scale.tiling_side)),
        ("fig06_parallel_breakdown", fig06_09(&sizes, false)),
        ("fig07_filtering_times", fig07(filter_fp)),
        ("fig08_filtering_speedup", fig08(filter_fp)),
        ("fig09_parallel_breakdown_improved", fig06_09(&sizes, true)),
        ("fig10_sgi_filtering", fig10(sgi_fp)),
        ("fig11_sgi_filter_speedup", fig11(sgi_fp)),
        ("fig12_sgi_total_speedup", fig12(at(scale.sgi_kpx))),
        ("fig13_sgi_speedup_optimized", fig13(at(scale.sgi_kpx))),
        ("cache_analysis", cache_analysis()),
        ("quant_speedup", quant_speedup(scale.quant_side)),
        ("amdahl_table", amdahl_table(&sizes)),
        (
            "schedule_ablation",
            schedule_ablation(at(scale.ablation_kpx)),
        ),
    ];
    for (name, text) in tables {
        let path = out.join(format!("{name}.txt"));
        std::fs::write(&path, format!("{text}\n"))?;
        println!("{text}\n== wrote {}\n", path.display());
    }
    Ok(summary)
}

/// A table in the [`row`] layout: `head` (the title and any preamble), the
/// column header, one row per CPU count, then the expected shape.
fn cpu_table(
    head: String,
    cols: &[&str],
    cpus: &[usize],
    cells: impl Fn(usize) -> Vec<String>,
    expected: &str,
) -> String {
    let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    let mut s = head + &row("#CPUs", &cols);
    for &p in cpus {
        s += &format!("\n{}", row(&p.to_string(), &cells(p)));
    }
    s + "\n\n" + expected
}

/// Fig. 3 — serial runtime analysis: the naive profile's stages plus the
/// PGM read/write time, across image sizes.
fn fig03(sizes: &[SizeProfile]) -> String {
    let mut s = String::from("Fig. 3 — serial runtime analysis (ms per stage)\n\n");
    let tables: Vec<StageTimes> = sizes
        .iter()
        .map(|sp| {
            let mut stages = sp.naive.stages.clone();
            stages.add(stage::IMAGE_IO, sp.io);
            stages
        })
        .collect();
    s += &format!("{:<28}", "stage");
    for sp in sizes {
        s += &format!(" {:>10}", format!("{} Kpx", sp.kpx));
    }
    let ms_of = |d: Duration| format!(" {:>10.1}", d.as_secs_f64() * 1e3);
    for name in stage::ALL {
        s += &format!("\n{name:<28}");
        s.extend(tables.iter().map(|t| ms_of(t.get(name))));
    }
    s += &format!("\n{:<28}", "TOTAL");
    s.extend(tables.iter().map(|t| ms_of(t.total())));
    s += &format!("\n{:<28}", "parallelizable fraction");
    for t in &tables {
        let par: f64 = stage::PARALLEL.iter().map(|n| t.fraction(n)).sum();
        s += &format!(" {:>9.0}%", 100.0 * par);
    }
    s + "\n\nExpected shape (paper): the intra-component transform (DWT) is the\n\
         most expensive stage, tier-1 coding second; image/bitstream I/O,\n\
         setup, and R/D allocation are comparatively small and sequential."
}

/// Encode `img` at `bpp` with `tiles` and decode it: (bytes, decoded).
fn j2k_roundtrip(img: &Image, bpp: f64, tiles: Option<(usize, usize)>) -> (usize, Image) {
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![bpp]),
        tiles,
        ..EncoderConfig::default()
    };
    let (bytes, _) = Encoder::new(cfg).expect("config").encode(img);
    let (decoded, _) = Decoder::default().decode(&bytes).expect("decode");
    (bytes.len(), decoded)
}

/// Fig. 4 — the centre of the test image coded at 0.125 bpp with JPEG,
/// JPEG2000 without tiling, and JPEG2000 with tiles a quarter of the side:
/// PSNR of each, centre crops written as PGM into `out`.
fn fig04(side: usize, out: &Path) -> io::Result<String> {
    let img = synth::natural_gray(side, side, 1234);
    let bpp = 0.125;
    let mut s = format!("Fig. 4 — coding artifacts at {bpp} bpp ({side}x{side} input)\n\n");
    // JPEG at the same rate: the highest quality under the byte budget.
    let target = (bpp * (side * side) as f64 / 8.0) as usize;
    let mut jpeg = pj2k_jpegbase::encode(&img, 1).expect("jpeg");
    for q in 2..=60 {
        let bytes = pj2k_jpegbase::encode(&img, q).expect("jpeg");
        if bytes.len() > target {
            break;
        }
        jpeg = bytes;
    }
    let t = side / 4;
    let untiled = j2k_roundtrip(&img, bpp, None);
    let tiled = j2k_roundtrip(&img, bpp, Some((t, t)));
    let variants = [
        (
            format!("JPEG ({} B)", jpeg.len()),
            pj2k_jpegbase::decode(&jpeg).expect("jpeg decode"),
        ),
        (format!("JPEG2000 no tiling ({} B)", untiled.0), untiled.1),
        (format!("JPEG2000 {t}x{t} tiles ({} B)", tiled.0), tiled.1),
    ];
    for (file, (label, decoded)) in FIG4_CROPS.iter().zip(&variants) {
        let path = out.join(file);
        let crop = decoded.crop(t, t, side / 2, side / 2);
        pnm::write(&mut std::fs::File::create(&path)?, &crop)?;
        let q = psnr(&img, decoded);
        s += &format!("{label:<42} PSNR {q:>6.2} dB -> {}\n", path.display());
    }
    Ok(
        s + "\nExpected shape (paper): JPEG shows strong 8x8 blocking, untiled\n\
             JPEG2000 is smooth, tiled JPEG2000 reintroduces visible tile seams.",
    )
}

/// Fig. 5 — PSNR vs bitrate for the tile sizes the paper maps to CPU
/// counts (the whole image = 1 CPU, half its side = 4 CPUs, ...).
fn fig05(side: usize) -> String {
    let img = synth::natural_gray(side, side, 1234);
    let mut s = String::from("Fig. 5 — PSNR (dB) vs bitrate for tile-based parallelization\n\n");
    s += &format!("{:<20}", "bitrate (bpp)");
    for i in 0..5 {
        let (t, cpus) = (side >> i, 1usize << (2 * i));
        let label = format!("{cpus} CPU{} ({t}x{t})", if cpus == 1 { "" } else { "s" });
        s += &format!(" {label:>18}");
    }
    for bpp in [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625] {
        s += &format!("\n{bpp:<20}");
        for t in (0..5).map(|i| side >> i) {
            let (_, out) = j2k_roundtrip(&img, bpp, (t != side).then_some((t, t)));
            s += &format!(" {:>18.2}", psnr(&img, &out));
        }
    }
    s + "\n\nExpected shape (paper): quality degrades monotonically as tiles\n\
         shrink, and the gap widens toward low bitrates (blocking artifacts)."
}

/// §3.2 — how many cache sets an image column touches, and the miss rates
/// of the three filtering strategies on the paper's Pentium II L1 geometry.
fn cache_analysis() -> String {
    let cfg = CacheConfig::PENTIUM2_L1D;
    let (kib, ways, line) = (cfg.size_bytes / 1024, cfg.ways, cfg.line_bytes);
    let mut s = format!(
        "Cache: {kib} KiB, {ways}-way, {line}-byte lines ({} sets)\n\n\
         column -> cache-set spread (f32 samples, 256 rows):\n\
         {:<26} {:>14}\n",
        cfg.sets(),
        "row pitch",
        "distinct sets"
    );
    for (label, stride) in [
        ("1024 (power of two)", 1024usize),
        ("2048 (power of two)", 2048),
        ("4096 (power of two)", 4096),
        ("4096 + 8 pad", 4104),
        ("4100 (odd width)", 4100),
    ] {
        s += &format!("{label:<26} {:>14}\n", cfg.column_sets(stride * 4, 256));
    }
    s += &format!(
        "\nmiss rates of vertical filtering over 64 columns x 1024 rows:\n\
         {:<26} {:>12} {:>14} {:>12}\n",
        "row pitch", "naive", "naive+pad", "strip(16)"
    );
    for width in [1024usize, 2048, 4096] {
        let p = FilterTraceParams::f32_97(64, 1024, width);
        let padded = FilterTraceParams {
            stride: width + 8,
            ..p
        };
        s += &format!(
            "{:<26} {:>11.1}% {:>13.1}% {:>11.1}%\n",
            width,
            100.0 * vertical_naive_trace(&p, cfg).miss_rate(),
            100.0 * vertical_naive_trace(&padded, cfg).miss_rate(),
            100.0 * vertical_strip_trace(&p, 16, cfg).miss_rate(),
        );
    }
    s + "\nExpected shape (paper §3.2): power-of-two pitches collapse each\n\
         column onto one set (miss rate ~100% for the naive walker); both\n\
         fixes — padding the pitch and strip filtering — cut misses by an\n\
         order of magnitude, strip being the stronger of the two."
}

/// Fig. 7 — original vs improved filtering runtimes on 1..4 CPUs: serial
/// times measured, multi-CPU points projected through the bus model and
/// anchored to the measured serial magnitudes.
fn fig07(fp: &FilteringProfile) -> String {
    let bus = BusParams::PENTIUM2_FSB;
    let passes = [
        (&fp.naive_items, fp.naive.vertical.as_secs_f64()),
        (&fp.strip_items, fp.strip.vertical.as_secs_f64()),
        (&fp.horiz_items, fp.naive.horizontal.as_secs_f64()),
    ];
    let [naive, strip, horiz] = passes.map(|(_, t)| ms(t));
    let head = format!(
        "Fig. 7 — filtering runtimes (ms), {s}x{s}, {LEVELS} levels\n\n\
         host-measured serial:   vertical naive {naive} ms | vertical strip {strip} ms | \
         horizontal {horiz} ms\n\nprojected on P virtual CPUs (bus model):\n",
        s = fp.side
    );
    let anchored = |items: &[WorkItem], measured: f64, p: usize| {
        let model_serial = project_filtering(items, 1, bus);
        let k = if model_serial > 0.0 {
            measured / model_serial
        } else {
            1.0
        };
        ms(project_filtering(items, p, bus) * k)
    };
    cpu_table(
        head,
        &["vertical", "vert. improved", "horizontal"],
        &INTEL_CPUS,
        |p| passes.map(|(items, t)| anchored(items, t, p)).to_vec(),
        "Expected shape (paper Fig. 7): serial vertical filtering is several\n\
         times slower than horizontal; the improved (strip) version closes\n\
         the gap (~2.4x serial gain) and keeps shrinking with CPUs, while the\n\
         naive version barely improves beyond 2 CPUs (bus congestion).",
    )
}

/// Fig. 8 — speedup of each filtering routine over its own 1-CPU time.
fn fig08(fp: &FilteringProfile) -> String {
    let bus = BusParams::PENTIUM2_FSB;
    let passes = [&fp.naive_items, &fp.strip_items, &fp.horiz_items];
    cpu_table(
        format!(
            "Fig. 8 — speedup of filtering routines ({s}x{s})\n\n",
            s = fp.side
        ),
        &["linear", "vertical", "vert. improved", "horizontal"],
        &INTEL_CPUS,
        |p| {
            let speedup =
                |i: &[WorkItem]| project_filtering(i, 1, bus) / project_filtering(i, p, bus);
            let mut cells = vec![x(p as f64)];
            cells.extend(passes.map(|items| x(speedup(items))));
            cells
        },
        "Expected shape (paper Fig. 8): horizontal and improved vertical\n\
         filtering track the linear ideal closely; original vertical\n\
         saturates well below it (its cache misses congest the shared bus).",
    )
}

/// Fig. 10 — filtering runtimes on the simulated SGI Power Challenge,
/// 1..16 CPUs, original vs modified vertical filtering.
fn fig10(fp: &FilteringProfile) -> String {
    let bus = BusParams::SGI_POWER_CHALLENGE;
    let passes = [&fp.naive_items, &fp.strip_items, &fp.horiz_items];
    cpu_table(
        format!(
            "Fig. 10 — SGI filtering runtimes (ms), {s}x{s} image\n\n",
            s = fp.side
        ),
        &["orig vertical", "mod vertical", "orig horizontal"],
        &SGI_CPUS,
        |p| {
            passes
                .map(|items| ms(project_filtering(items, p, bus)))
                .to_vec()
        },
        "Expected shape (paper Fig. 10): a big gap between original vertical\n\
         and horizontal filtering; the modified vertical filtering closes it\n\
         and keeps dropping with CPU count while the original flattens early.",
    )
}

/// Fig. 11 — vertical-filtering speedup on the simulated SGI over the
/// *original* serial filtering (cache fix and CPUs compound).
fn fig11(fp: &FilteringProfile) -> String {
    let bus = BusParams::SGI_POWER_CHALLENGE;
    let base = project_filtering(&fp.naive_items, 1, bus);
    let passes = [&fp.naive_items, &fp.strip_items];
    cpu_table(
        format!(
            "Fig. 11 — vertical filtering speedup vs ORIGINAL serial filtering\n\
             ({s}x{s} image)\n\n",
            s = fp.side
        ),
        &["orig vertical", "mod vertical"],
        &SGI_CPUS,
        |p| {
            passes
                .map(|items| x(base / project_filtering(items, p, bus)))
                .to_vec()
        },
        "Expected shape (paper Fig. 11): the modified filtering's speedup\n\
         over the original serial routine compounds the serial cache gain\n\
         with parallel scaling, reaching tens of x at 16 CPUs (the paper\n\
         reports ~80x on its 20-CPU SGI); the original one flattens early.",
    )
}

/// Figs. 6 and 9 — per-stage breakdown projected on 4 virtual CPUs with
/// naive (Fig. 6) or strip (Fig. 9) filtering, next to a real threaded
/// encode when the host has two cores or more.
fn fig06_09(sizes: &[SizeProfile], strip: bool) -> String {
    let p = 4;
    let (fig, desc, filter) = match strip {
        false => ("Fig. 6", "naive (original)", FilterStrategy::Naive),
        true => ("Fig. 9", "improved (strip)", FilterStrategy::Strip),
    };
    let mut s =
        format!("{fig} — parallel runtime analysis, {p} virtual CPUs, {desc} filtering\n\n");
    let host = host_cores();
    for sp in sizes {
        let profile = if strip { &sp.strip } else { &sp.naive };
        let (serial, _) = project_encode(profile, 1, strip, BusParams::PENTIUM2_FSB);
        let (par, stages) = project_encode(profile, p, strip, BusParams::PENTIUM2_FSB);
        s += &format!("--- {} Kpixel ---\n", sp.kpx);
        for (name, secs) in &stages {
            s += &format!("  {name:<28} {:>9.1} ms\n", secs * 1e3);
        }
        s += &format!(
            "  {:<28} {:>9.1} ms   (serial {:.1} ms, modeled speedup {:.2}x)\n",
            "TOTAL",
            par * 1e3,
            serial * 1e3,
            serial / par
        );
        // Honest wall-clock with real threads (speedup bounded by the
        // host's core count).
        if host >= 2 {
            let cfg = EncoderConfig {
                filter,
                parallel: ParallelMode::WorkerPool {
                    workers: p.min(host),
                },
                ..paper_config()
            };
            let encoder = Encoder::new(cfg).expect("config").with_full_coding();
            let img = test_image(sp.kpx);
            let (_, t) = time(|| encoder.encode(&img));
            let total = "measured threaded total";
            s += &format!("  {total:<29} {:>9.1} ms ({host} host cores)\n", t * 1e3);
        }
        s.push('\n');
    }
    s + if strip {
        "\nExpected shape (paper Fig. 9): the DWT bar shrinks strongly (the\n\
         cache fix removes the bus bottleneck), pushing the overall speedup\n\
         over the original serial code past the naive-filtering ceiling;\n\
         sequential stages (R/D allocation, I/O) now dominate the residue."
    } else {
        "\nExpected shape (paper Fig. 6): with naive filtering the DWT stage\n\
         shrinks only modestly (cache/bus bound) while tier-1 scales well;\n\
         overall speedup lands near 1.75x on 4 CPUs."
    }
}

/// Fig. 12 — total speedup on the simulated SGI over the *original* serial
/// coder, without and with the modified filtering.
fn fig12(sp: &SizeProfile) -> String {
    let bus = BusParams::SGI_POWER_CHALLENGE;
    let speedup = |p, strip| {
        let (orig_serial, _) = project_encode(&sp.naive, 1, false, bus);
        x(orig_serial / project_encode(&sp.naive, p, strip, bus).0)
    };
    cpu_table(
        format!(
            "Fig. 12 — total speedup vs ORIGINAL serial coder ({} Kpixel)\n\n",
            sp.kpx
        ),
        &["OpenMP", "OpenMP + mod. filtering"],
        &SGI_CPUS,
        |p| vec![speedup(p, false), speedup(p, true)],
        "Expected shape (paper Fig. 12): the naive curve saturates around\n\
         2-3x; adding the modified filtering lifts the curve past 5x around\n\
         10 CPUs (superlinear vs the unoptimized baseline), then flattens as\n\
         the sequential stages dominate.",
    )
}

/// Fig. 13 — the classical speedup: total coding time against the fastest
/// sequential code (the serial coder with the improved filtering).
fn fig13(sp: &SizeProfile) -> String {
    let bus = BusParams::SGI_POWER_CHALLENGE;
    let (opt_serial, _) = project_encode(&sp.strip, 1, true, bus);
    cpu_table(
        format!(
            "Fig. 13 — total speedup vs filtering-OPTIMIZED serial coder\n({} Kpixel)\n\n",
            sp.kpx
        ),
        &["OpenMP + mod. filtering"],
        &SGI_CPUS,
        |p| vec![x(opt_serial / project_encode(&sp.strip, p, true, bus).0)],
        "Expected shape (paper Fig. 13): the curve climbs to ~2.2x and then\n\
         flattens — the inherently sequential stages (R/D allocation, tier-2,\n\
         I/O) bound the classical speedup per Amdahl (see amdahl_table).",
    )
}

/// §3.3 — the quantization stage measured stand-alone, sequentially and
/// threaded, and projected onto 2, 4 and 8 virtual CPUs.
fn quant_speedup(side: usize) -> String {
    let src = Plane::from_fn(side, side, |x, y| ((x * 13 + y * 7) % 509) as f32 - 254.0);
    let mut dst = Plane::<i32>::new(side, side);
    let mut quantize = |exec: &Exec| {
        let region = (0, 0, side, side);
        time(|| quantize_plane(&src, &mut dst, region, 0.125, exec)).1
    };
    // Untimed: fault the output plane in, or the first timed run pays
    // for it and the threaded one reads faster than its thread count.
    quantize(&Exec::SEQ);
    let t_seq = quantize(&Exec::SEQ);
    let mut s = format!("§3.3 — quantization stage, {side}x{side} coefficients\n\n");
    s += &format!("sequential: {:.2} ms\n", t_seq * 1e3);
    // Model: one work item per row, uniform cost.
    let items = vec![t_seq / side as f64; side];
    for p in [2usize, 4, 8] {
        let t = makespan(&items, p, Schedule::StaticBlock);
        s += &format!(
            "modeled {p} CPUs: {:.2} ms (speedup {:.2}x)\n",
            t * 1e3,
            t_seq / t
        );
    }
    let host = host_cores();
    if host >= 2 {
        let p = host.min(4);
        let t = quantize(&Exec::threads(p));
        s += &format!(
            "measured {p} threads: {:.2} ms (speedup {:.2}x)\n",
            t * 1e3,
            t_seq / t
        );
    } else {
        s += "(single-core host: skipping the real-thread measurement)\n";
    }
    s + "\nExpected shape (paper §3.3): the stage parallelizes near-linearly\n\
         (paper: ~3.2x on 4 CPUs) but contributes too little total time to\n\
         move the whole-coder speedup."
}

/// §3.4 — Amdahl bounds from the measured serial stage fractions next to
/// the modeled 4-CPU speedup, per size and filtering.
fn amdahl_table(sizes: &[SizeProfile]) -> String {
    let mut s = format!(
        "§3.4 — Amdahl bound vs modeled speedup (4 CPUs)\n\n\
         {:<12} {:<10} {:>10} {:>14} {:>16}\n",
        "size (Kpx)", "filtering", "serial %", "Amdahl bound", "modeled speedup"
    );
    let bus = BusParams::PENTIUM2_FSB;
    for sp in sizes {
        for (label, profile, strip) in [("naive", &sp.naive, false), ("improved", &sp.strip, true)]
        {
            let stages = &profile.stages;
            let total = stages.total().as_secs_f64();
            let par: f64 = stage::PARALLEL
                .iter()
                .map(|n| stages.get(n).as_secs_f64())
                .sum();
            let (t1, _) = project_encode(profile, 1, strip, bus);
            let (t4, _) = project_encode(profile, 4, strip, bus);
            s += &format!(
                "{:<12} {:<10} {:>9.1}% {:>13.2}x {:>15.2}x\n",
                sp.kpx,
                label,
                100.0 * (total - par) / total,
                amdahl_speedup(total - par, par, 4),
                t1 / t4
            );
        }
    }
    s + "\nExpected shape (paper §3.4): the modeled speedup sits below the\n\
         Amdahl bound (the bound assumes perfectly parallel stages; the bus\n\
         and schedule do not). With improved filtering the parallel fraction\n\
         shrinks, so the bound itself drops — exactly the paper's point\n\
         about Fig. 13's restricted speedups."
}

/// Ablation — the paper's staggered round-robin code-block schedule
/// against a static split, plain round-robin and dynamic
/// self-scheduling, on the naive profile's measured per-block Tier-1
/// times.
fn schedule_ablation(sp: &SizeProfile) -> String {
    let costs = &sp.naive.block_times;
    let total: f64 = costs.iter().sum();
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = costs.iter().copied().fold(0.0, f64::max);
    let line = |c: [String; 7]| {
        let [p, st, rr, sg, d1, d8, ideal] = c;
        format!("{p:<8} {st:>14} {rr:>14} {sg:>18} {d1:>14} {d8:>14} {ideal:>10}\n")
    };
    let mut s = format!(
        "schedule ablation — {} Kpixel, {} code-blocks, tier-1 total {:.1} ms\n\
         block cost spread: min {:.3} ms / mean {:.3} ms / max {:.3} ms\n\n",
        sp.kpx,
        costs.len(),
        total * 1e3,
        min * 1e3,
        total / costs.len() as f64 * 1e3,
        max * 1e3
    );
    s += &line(
        [
            "#CPUs",
            "static",
            "round-robin",
            "staggered RR",
            "dynamic(1)",
            "dynamic(8)",
            "ideal",
        ]
        .map(String::from),
    );
    for p in [2usize, 4, 8, 16] {
        let speedup = |schedule| x(total / makespan(costs, p, schedule));
        s += &line([
            p.to_string(),
            speedup(Schedule::StaticBlock),
            speedup(Schedule::RoundRobin),
            speedup(Schedule::StaggeredRoundRobin),
            speedup(Schedule::Dynamic { chunk: 1 }),
            speedup(Schedule::Dynamic { chunk: 8 }),
            x(p as f64),
        ]);
    }
    s + "\nExpected: the code-block list is ordered coarse resolution first,\n\
         so a static split hands one worker the expensive blocks; the\n\
         round-robin family interleaves them, and the stagger additionally\n\
         rotates the lane that receives each round's most expensive block.\n\
         Dynamic self-scheduling assigns chunks to whichever CPU drains its\n\
         work first, matching or beating every static split at chunk 1 and\n\
         trading balance for lower claim traffic as the chunk grows."
}
