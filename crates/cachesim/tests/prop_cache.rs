//! Property tests for the cache simulator.

use pj2k_cachesim::{Cache, CacheConfig, FilterTraceParams};
use pj2k_testkit::{cases, Rng};

fn arb_config(rng: &mut Rng) -> CacheConfig {
    let line = 1usize << rng.range(3u32..7);
    let sets = 1usize << rng.range(0u32..4);
    let ways = rng.range(1usize..5);
    CacheConfig {
        size_bytes: line * sets * ways,
        line_bytes: line,
        ways,
    }
}

const CASES: u32 = 96;

/// Immediately repeated accesses always hit.
#[test]
fn repeat_access_hits() {
    cases(CASES, |rng| {
        let cfg = arb_config(rng);
        let len = rng.range(1..200);
        let addrs = rng.vec(len, |r| r.range(0u64..100_000));
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a);
            assert!(c.access(a), "repeat of {:#x} must hit", a);
        }
    });
}

/// A working set no larger than the cache, accessed cyclically, stops
/// missing after the first sweep (LRU, fully resident).
#[test]
fn resident_set_stops_missing() {
    cases(CASES, |rng| {
        let cfg = arb_config(rng);
        let sweeps = rng.range(2usize..6);
        // distinct lines, at most one per way slot
        let lines = cfg.sets() * cfg.ways;
        let mut c = Cache::new(cfg);
        for _ in 0..sweeps {
            for i in 0..lines {
                c.access((i * cfg.line_bytes) as u64);
            }
        }
        let stats = c.stats();
        assert_eq!(
            stats.misses, lines as u64,
            "only compulsory misses: {:?}",
            stats
        );
    });
}

/// Hits + misses always equals accesses; miss_rate within [0,1].
#[test]
fn counters_consistent() {
    cases(CASES, |rng| {
        let cfg = arb_config(rng);
        let len = rng.range(0..300);
        let addrs = rng.vec(len, |r| r.range::<u32, _>(..));
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(u64::from(a));
        }
        let s = c.stats();
        assert_eq!(s.accesses(), addrs.len() as u64);
        assert!((0.0..=1.0).contains(&s.miss_rate()));
    });
}

/// A larger (more ways) cache never misses more on the same trace
/// (LRU is a stack algorithm — inclusion property).
#[test]
fn more_ways_never_hurt() {
    cases(CASES, |rng| {
        let len = rng.range(1..300);
        let addrs = rng.vec(len, |r| r.range(0u64..4096));
        let small = CacheConfig {
            size_bytes: 512,
            line_bytes: 32,
            ways: 1,
        };
        let big = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 2,
        };
        let mut cs = Cache::new(small);
        let mut cb = Cache::new(big);
        for &a in &addrs {
            cs.access(a);
            cb.access(a);
        }
        assert!(
            cb.stats().misses <= cs.stats().misses,
            "{:?} vs {:?}",
            cb.stats(),
            cs.stats()
        );
    });
}

/// Trace generators: padding the stride never increases the
/// naive-vertical miss count on power-of-two pitches.
#[test]
fn padding_never_hurts() {
    cases(CASES, |rng| {
        let wpow = rng.range(8usize..12);
        let h = rng.range(64usize..256);
        let width = 1usize << wpow;
        let cfg = CacheConfig::PENTIUM2_L1D;
        let base = FilterTraceParams::f32_97(16, h, width);
        let padded = FilterTraceParams {
            stride: width + 8,
            ..base
        };
        let m0 = pj2k_cachesim::vertical_naive_trace(&base, cfg).misses;
        let m1 = pj2k_cachesim::vertical_naive_trace(&padded, cfg).misses;
        assert!(m1 <= m0, "padding increased misses: {} -> {}", m0, m1);
    });
}
