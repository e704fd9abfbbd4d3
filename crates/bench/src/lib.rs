//! Shared harness for the `figures` and `bench_*` binaries.
//!
//! The paper's tables and figures come from one `figures` run
//! ([`figures`], DESIGN.md §4) over the profiles measured here: workload
//! construction, host measurement, and the measured-costs → SMP-model
//! projection that stands in for the paper's 4-CPU Intel / 16-CPU SGI
//! machines (DESIGN.md §2). The harnesses write their JSON through
//! [`report`].

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod figures;
pub mod report;

use pj2k_cachesim::{
    horizontal_filter_trace, vertical_naive_trace, vertical_strip_trace, CacheConfig,
    FilterTraceParams,
};
use pj2k_core::{Encoder, EncoderConfig, FilterStrategy, ParallelMode, RateControl};
use pj2k_dwt::{forward_97_with, DwtStats, LiftingMode, SimdMode, VerticalStrategy};
use pj2k_image::{Image, Plane};
use pj2k_parutil::{Exec, StageTimes};
use pj2k_smpsim::{bus_makespan, BusParams, Schedule, WorkItem};
use pj2k_testkit::synth;
use std::time::Instant;

/// The deterministic test image for a Kpixel count.
pub fn test_image(kpx: usize) -> Image {
    let s = synth::side_for_kpixels(kpx);
    synth::natural_gray(s, s, 0xA5A5 + kpx as u64)
}

/// The paper's baseline encoder configuration at 1 bpp: its naive column
/// filtering, one strided walk per lifting step (the production default is
/// strip filtering with fused lifting).
pub fn paper_config() -> EncoderConfig {
    EncoderConfig {
        rate: RateControl::TargetBpp(vec![1.0]),
        filter: FilterStrategy::Naive,
        ..EncoderConfig::default()
    }
}

/// A harness's command line, `[--smoke] [--out PATH]`: whether this is a
/// smoke run, and the `--out` path if one was given.
pub fn harness_args() -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args.iter().position(|a| a == "--out");
    let out = out.and_then(|i| args.get(i + 1)).cloned();
    (args.iter().any(|a| a == "--smoke"), out)
}

/// Wall-clock one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A table row: a left-aligned label, then right-aligned columns.
pub fn row(label: &str, cols: &[String]) -> String {
    let cols: String = cols.iter().map(|c| format!(" {c:>12}")).collect();
    format!("{label:<34}{cols}")
}

/// Format seconds as milliseconds.
pub fn ms(t: f64) -> String {
    format!("{:.1}", t * 1e3)
}

/// Format a speedup factor.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Measured serial filtering times plus modeled per-column work items for
/// one multi-level 9/7 transform of a `side x side` plane.
pub struct FilteringProfile {
    /// Side of the square plane.
    pub side: usize,
    /// Host-measured serial vertical/horizontal times, naive strategy.
    pub naive: DwtStats,
    /// Host-measured serial vertical/horizontal times, strip strategy.
    pub strip: DwtStats,
    /// Per-column work items (vertical pass, naive): compute + miss bytes.
    pub naive_items: Vec<WorkItem>,
    /// Per-column work items (vertical pass, strip).
    pub strip_items: Vec<WorkItem>,
    /// Per-row work items (horizontal pass).
    pub horiz_items: Vec<WorkItem>,
    /// Simulated L1D miss traffic of the naive vertical pass, bytes.
    pub m_naive: f64,
    /// Simulated L1D miss traffic of the strip vertical pass, bytes.
    pub m_strip: f64,
}

/// Build a [`FilteringProfile`] for a `side x side` 9/7 transform with
/// `levels` levels.
///
/// Both strategies run the paper's scalar per-step walkers (reference rows,
/// per-step naive or strip columns), whatever the production default is.
/// Both are *measured* serially on the host, the cache simulator supplies
/// their miss traffic, and [`split_filtering`] turns the two into work
/// items.
pub fn filtering_profile(side: usize, levels: u8) -> FilteringProfile {
    let mk = || {
        let mut p = Plane::<f32>::new(side, side);
        for y in 0..side {
            for (xx, v) in p.row_mut(y).iter_mut().enumerate() {
                *v = ((xx * 31 + y * 17) % 251) as f32 - 125.0;
            }
        }
        p
    };
    let paper = |strategy| {
        let mut p = mk();
        let (_, stats) = forward_97_with(
            &mut p,
            levels,
            strategy,
            LiftingMode::PerStep,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        stats
    };
    let naive = paper(VerticalStrategy::Naive);
    let strip = paper(VerticalStrategy::DEFAULT_STRIP);

    // Cache-simulated traffic, summed over levels (region halves each
    // level). Simulating every column of a 4096^2 image is slow, so the
    // trace samples a window of columns and scales: conflict-miss
    // behaviour is homogeneous across columns.
    let cfg = CacheConfig::PENTIUM2_L1D;
    let mut m_naive = 0f64;
    let mut m_strip = 0f64;
    let mut m_horiz = 0f64;
    let mut w = side;
    let mut h = side;
    for _ in 0..levels {
        let sample_cols = w.min(64);
        let params = FilterTraceParams::f32_97(sample_cols, h, side);
        let scale = w as f64 / sample_cols as f64;
        m_naive += vertical_naive_trace(&params, cfg).miss_bytes(&cfg) as f64 * scale;
        m_strip += vertical_strip_trace(&params, 16, cfg).miss_bytes(&cfg) as f64 * scale;
        let sample_rows = h.min(64);
        let hparams = FilterTraceParams::f32_97(w, sample_rows, side);
        m_horiz += horizontal_filter_trace(&hparams, cfg).miss_bytes(&cfg) as f64
            * (h as f64 / sample_rows as f64);
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }

    let (naive_items, strip_items, horiz_items) = split_filtering(
        naive.vertical.as_secs_f64(),
        strip.vertical.as_secs_f64(),
        naive.horizontal.as_secs_f64(),
        m_naive,
        m_strip,
        m_horiz,
        side,
    );
    FilteringProfile {
        side,
        naive_items,
        strip_items,
        horiz_items,
        m_naive,
        m_strip,
        naive,
        strip,
    }
}

/// Split serial filtering times into per-column (vertical) and per-row
/// (horizontal) work items, `side` per pass, for the bus model.
///
/// `t_naive`, `t_strip` and `t_horiz` are the serial seconds of the naive
/// and strip vertical passes and of the horizontal pass; `m_naive`,
/// `m_strip` and `m_horiz` are their simulated miss traffic in bytes. The
/// traffic gap prices a per-byte stall cost
/// (`kappa = (t_naive - t_strip) / (m_naive - m_strip)`, 0 unless naive is
/// both slower and heavier). The strip and horizontal items carry
/// `stall = kappa * traffic` (capped at half the time, since the host's
/// prefetchers make streaming traffic cheaper than the trace's byte count
/// suggests) and `compute = t - stall`. The naive items share the strip's
/// arithmetic and stall for the rest. Returns the naive, strip and
/// horizontal items; each vector sums to its time.
pub fn split_filtering(
    t_naive: f64,
    t_strip: f64,
    t_horiz: f64,
    m_naive: f64,
    m_strip: f64,
    m_horiz: f64,
    side: usize,
) -> (Vec<WorkItem>, Vec<WorkItem>, Vec<WorkItem>) {
    let kappa = if m_naive > m_strip && t_naive > t_strip {
        (t_naive - t_strip) / (m_naive - m_strip)
    } else {
        0.0
    };
    let split = |t: f64, traffic: f64| -> (f64, f64) {
        let stall = (kappa * traffic).min(0.5 * t);
        (t - stall, stall)
    };
    let (c_strip, s_strip) = split(t_strip, m_strip);
    // Naive shares the strip's arithmetic; everything beyond it is stall.
    // A naive pass timed below the strip's arithmetic (a quiet run, where
    // `kappa` is 0) is all arithmetic, so the items still add up to it.
    let c_naive = c_strip.min(t_naive);
    let s_naive = t_naive - c_naive;
    let (c_horiz, s_horiz) = split(t_horiz, m_horiz);

    let n_items = side.max(1);
    let per = |c: f64, st: f64| -> Vec<WorkItem> {
        (0..n_items)
            .map(|_| WorkItem {
                compute: c / n_items as f64,
                stall: st / n_items as f64,
            })
            .collect()
    };
    (
        per(c_naive, s_naive),
        per(c_strip, s_strip),
        per(c_horiz, s_horiz),
    )
}

/// Projected wall time of a filtering pass on `p` virtual CPUs.
pub fn project_filtering(items: &[WorkItem], p: usize, bus: BusParams) -> f64 {
    bus_makespan(items, p, Schedule::StaticBlock, bus)
}

/// Measured serial stage times plus the ingredients to project them onto
/// `p` virtual CPUs.
pub struct EncodeProfile<'a> {
    /// Serial per-stage times, in the order the encoder recorded them.
    pub stages: StageTimes,
    /// Per-code-block Tier-1 seconds.
    pub block_times: Vec<f64>,
    /// Vertical/horizontal DWT split.
    pub dwt: DwtStats,
    /// Filtering projection items for the DWT stage.
    pub filtering: &'a FilteringProfile,
    /// The strategy the profile was measured with (anchors the model
    /// scale).
    pub filter: FilterStrategy,
}

/// Measure a sequential encode of `img` under `filter`, coding every pass
/// of every block as the JJ2000/Jasper coders the paper profiles do (the
/// production encoder stops above the planes PCRD discards, DESIGN.md
/// §18): the stage shares of Figs. 3/6/9/12/13 are the paper's coder's.
/// `filtering` is the measured filtering profile that
/// [`project_encode`] scales to this encode's DWT time.
pub fn encode_profile<'a>(
    img: &Image,
    filter: FilterStrategy,
    levels: u8,
    filtering: &'a FilteringProfile,
) -> EncodeProfile<'a> {
    let cfg = EncoderConfig {
        filter,
        levels,
        parallel: ParallelMode::Sequential,
        ..paper_config()
    };
    let encoder = Encoder::new(cfg).expect("valid config").with_full_coding();
    let (_, report) = encoder.encode(img);
    EncodeProfile {
        stages: report.stages,
        block_times: report.block_times,
        dwt: report.dwt,
        filtering,
        filter,
    }
}

/// Project the total encode time of a measured profile onto `p` virtual
/// CPUs: DWT through the bus model (scaled to the measured magnitude),
/// Tier-1 through the staggered-round-robin makespan, quantization through
/// a static split, everything else sequential. Returns (total, per-stage).
pub fn project_encode(
    profile: &EncodeProfile,
    p: usize,
    strip_filtering: bool,
    bus: BusParams,
) -> (f64, Vec<(String, f64)>) {
    use pj2k_core::report::stage;
    let fp = profile.filtering;
    // Scale factor from the (possibly smaller) filtering-profile plane to
    // the measured DWT magnitude — anchored on the strategy the profile
    // was *measured* with, so projecting the other strategy preserves the
    // model's cache gain instead of cancelling it.
    let measured_dwt = profile.dwt.total().as_secs_f64();
    let anchor_serial = match profile.filter {
        FilterStrategy::Strip => fp.strip.total().as_secs_f64(),
        _ => fp.naive.total().as_secs_f64(),
    };
    let v_items = if strip_filtering {
        &fp.strip_items
    } else {
        &fp.naive_items
    };
    let scale = if anchor_serial > 0.0 {
        measured_dwt / anchor_serial
    } else {
        1.0
    };
    let dwt_p =
        (project_filtering(v_items, p, bus) + project_filtering(&fp.horiz_items, p, bus)) * scale;

    let tier1_p = pj2k_smpsim::makespan(&profile.block_times, p, Schedule::StaggeredRoundRobin);
    let mut total = 0.0;
    let mut stages = Vec::new();
    for (name, d) in profile.stages.iter() {
        let t = match name {
            stage::INTRA_COMPONENT => dwt_p,
            stage::TIER1 => tier1_p,
            stage::QUANTIZATION => d.as_secs_f64() / p as f64,
            _ => d.as_secs_f64(),
        };
        stages.push((name.to_string(), t));
        total += t;
    }
    (total, stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_profile_shows_cache_gap() {
        // Power-of-two side: the naive columns must miss far more in the
        // simulated cache. Simulated traffic, not the timed stall split: on
        // a quiet host the timed naive pass can be no slower than the strip
        // one, which zeroes both stalls (bench_dwt's
        // `naive_vertical_slowdown` carries the wall-clock half).
        let fp = filtering_profile(512, 3);
        assert!(
            fp.m_naive > 2.0 * fp.m_strip,
            "naive {} vs strip {} miss bytes",
            fp.m_naive,
            fp.m_strip
        );
        // Items reproduce the measured serial times.
        let naive_total: f64 = fp.naive_items.iter().map(|i| i.compute + i.stall).sum();
        // AUDIT(timing): an accounting identity, not a race: the items are
        // split from this measured time, so they sum back to it up to float
        // rounding whatever the clock read.
        assert!((naive_total - fp.naive.vertical.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn projection_shows_paper_shape() {
        // Constructed serial times, no clock: the strip items must scale
        // no worse than the naive ones whether the naive pass timed slower
        // (it stalls for the extra traffic), the same, or faster (the
        // quiet run where `kappa` is 0 and both are all arithmetic).
        let bus = BusParams::PENTIUM2_FSB;
        let speedup = |items: &[WorkItem]| {
            project_filtering(items, 1, bus) / project_filtering(items, 4, bus)
        };
        let (m_naive, m_strip, m_horiz) = (24e6, 3e6, 2e6);
        for (t_naive, t_strip) in [(0.012, 0.004), (0.004, 0.004), (0.003, 0.004)] {
            let (naive, strip, horiz) =
                split_filtering(t_naive, t_strip, 0.002, m_naive, m_strip, m_horiz, 512);
            let total = |items: &[WorkItem]| items.iter().map(|i| i.compute + i.stall).sum();
            for (items, t) in [(&naive, t_naive), (&strip, t_strip), (&horiz, 0.002)] {
                let sum: f64 = total(items);
                assert!((sum - t).abs() < 1e-12, "items sum to {sum}, not {t}");
            }
            let (s_naive, s_strip) = (speedup(&naive), speedup(&strip));
            assert!(
                s_strip >= s_naive - 1e-9,
                "naive {t_naive} s, strip {t_strip} s: strip scales {s_strip}, naive {s_naive}"
            );
            if t_naive > t_strip {
                assert!(s_strip > s_naive, "{s_strip} vs {s_naive}");
            }
        }
    }

    #[test]
    fn encode_projection_is_consistent() {
        let img = test_image(64); // 256x256
        let fp = filtering_profile(256, 4);
        let profile = encode_profile(&img, FilterStrategy::Naive, 4, &fp);
        let (t1, _) = project_encode(&profile, 1, false, BusParams::PENTIUM2_FSB);
        let (t4, stages4) = project_encode(&profile, 4, false, BusParams::PENTIUM2_FSB);
        assert!(t4 <= t1 * 1.05, "more CPUs cannot be slower: {t1} -> {t4}");
        assert_eq!(stages4.len(), profile.stages.iter().count());
        // Serial stages unchanged.
        for ((n1, s1), (n4, s4)) in profile.stages.iter().zip(&stages4) {
            assert_eq!(n1, n4);
            if n1 == pj2k_core::report::stage::RD_ALLOCATION {
                // AUDIT(timing): an identity, not a race: a serial stage is
                // projected as the time it measured.
                assert!((s1.as_secs_f64() - s4).abs() < 1e-12);
            }
        }
    }
}
