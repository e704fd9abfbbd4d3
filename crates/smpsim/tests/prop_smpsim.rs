//! Property tests for the SMP execution model.

use pj2k_smpsim::{amdahl_speedup, bus_makespan, makespan, BusParams, Schedule, WorkItem};
use pj2k_testkit::{cases, Rng};

const SCHEDULES: [Schedule; 3] = [
    Schedule::StaticBlock,
    Schedule::RoundRobin,
    Schedule::StaggeredRoundRobin,
];

fn schedules(rng: &mut Rng) -> Schedule {
    SCHEDULES[rng.range(0..SCHEDULES.len())]
}

const CASES: u32 = 128;

/// Makespan bounds: total/p <= makespan <= total, and the single-CPU
/// makespan is exactly the total.
#[test]
fn makespan_bounds() {
    cases(CASES, |rng| {
        let len = rng.range(1..200);
        let costs = rng.vec(len, |r| r.range_f64(0.0f64..10.0));
        let p = rng.range(1usize..17);
        let s = schedules(rng);
        let total: f64 = costs.iter().sum();
        let m = makespan(&costs, p, s);
        assert!(m <= total + 1e-9);
        assert!(m >= total / p as f64 - 1e-9);
        assert!(
            m >= costs.iter().cloned().fold(0.0, f64::max) - 1e-9,
            "makespan below the largest item"
        );
        let m1 = makespan(&costs, 1, s);
        assert!((m1 - total).abs() < 1e-9);
    });
}

/// Parallel execution never exceeds serial execution (note: makespans
/// of *fixed* assignments are not strictly monotone in the CPU count —
/// adding a CPU reshuffles round-robin lanes and can lengthen the
/// worst one — so only the serial bound is a law).
#[test]
fn never_worse_than_serial() {
    cases(CASES, |rng| {
        let len = rng.range(1..100);
        let costs = rng.vec(len, |r| r.range_f64(0.0f64..5.0));
        check_never_worse_than_serial(&costs, schedules(rng));
    });
}

fn check_never_worse_than_serial(costs: &[f64], s: Schedule) {
    let serial = makespan(costs, 1, s);
    for p in 2..=16 {
        let m = makespan(costs, p, s);
        assert!(m <= serial + 1e-9, "p={}: {} > serial {}", p, m, serial);
    }
}

/// Recorded failure of the former "monotone in the CPU count" property:
/// two heavy items at the ends of an otherwise free list.
#[test]
fn never_worse_than_serial_regression_heavy_ends() {
    let costs = [4.907461072353406, 0.0, 0.0, 0.0, 0.0, 3.6205335113775745];
    for s in SCHEDULES {
        check_never_worse_than_serial(&costs, s);
    }
}

/// Bus model: the single-CPU time is contention-free; multi-CPU time is
/// bounded below by both the critical path and the bus floor.
#[test]
fn bus_model_bounds() {
    cases(CASES, |rng| {
        let len = rng.range(1..100);
        let items_raw = rng.vec(len, |r| {
            (r.range_f64(0.0f64..5.0), r.range_f64(0.0f64..5.0))
        });
        let p = rng.range(2usize..17);
        let overlap = rng.range_f64(1.0f64..8.0);
        let items: Vec<WorkItem> = items_raw
            .iter()
            .map(|&(compute, stall)| WorkItem { compute, stall })
            .collect();
        let bus = BusParams { overlap };
        let serial: f64 = items.iter().map(|i| i.compute + i.stall).sum();
        let t1 = bus_makespan(&items, 1, Schedule::StaticBlock, bus);
        assert!((t1 - serial).abs() < 1e-9);
        let tp = bus_makespan(&items, p, Schedule::StaticBlock, bus);
        let stall_total: f64 = items.iter().map(|i| i.stall).sum();
        assert!(tp + 1e-9 >= stall_total / overlap, "below bus floor");
        assert!(tp <= t1 + 1e-9, "parallel worse than serial");
    });
}

/// Amdahl: bounded by n and by total/serial, exact at the extremes.
#[test]
fn amdahl_bounds() {
    cases(CASES, |rng| {
        let s = rng.range_f64(0.0f64..100.0);
        let par = rng.range_f64(0.0f64..100.0);
        let n = rng.range(1usize..64);
        let sp = amdahl_speedup(s, par, n);
        assert!(sp >= 1.0 - 1e-12);
        assert!(sp <= n as f64 + 1e-9);
        if s > 0.0 {
            assert!(sp <= (s + par) / s + 1e-9);
        }
    });
}
