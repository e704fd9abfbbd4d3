//! The contract of the one fork every executor runs on, checked through
//! each executor: panics reach the caller with their payload from either
//! side of the fork, small runs stay on the calling thread, no worker
//! starts for an empty share, and per-worker state is built once per
//! worker.

// Not a loom test: drives the std executors (loom primitives would panic
// outside `loom::model`); loom/tests/loom.rs model-checks the cores instead.
#![cfg(not(loom))]

use pj2k_parutil::{pool_map_with_state, pool_run, Exec, Schedule};
use std::collections::HashSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

/// `run(n, p, item, init)`: one executor on the fork running `item(i)`
/// for every `i in 0..n` on `p` workers; `init(w)` is called by the
/// ones that build per-worker state.
type Run = fn(usize, usize, &(dyn Fn(usize) + Sync), &(dyn Fn(usize) + Sync));

/// Every executor written on `fork`, and whether it builds state.
const EXECUTORS: [(&str, bool, Run); 5] = [
    ("pool_map_with_state static", true, |n, p, item, init| {
        pool_map_with_state(n, p, Schedule::RoundRobin, init, |_, i| item(i));
    }),
    ("pool_map_with_state dynamic", true, |n, p, item, init| {
        let schedule = Schedule::Dynamic { chunk: 1 };
        pool_map_with_state(n, p, schedule, init, |_, i| item(i));
    }),
    ("pool_run static", false, |n, p, item, _| {
        pool_run(n, p, Schedule::StaticBlock, item)
    }),
    ("pool_run dynamic", false, |n, p, item, _| {
        pool_run(n, p, Schedule::Dynamic { chunk: 1 }, item)
    }),
    ("Exec::run_ranges", false, |n, p, item, _| {
        Exec::threads(p).run_ranges(n, |r| r.for_each(item))
    }),
];

/// Run `f` on a fresh thread; fail if it does not finish in 20 s.
fn within_deadline<T: Send + 'static>(what: String, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what}: hung or failed"))
}

#[test]
fn fork_contract_holds_for_every_executor() {
    for (name, stateful, run) in EXECUTORS {
        // A panic on either side of the fork reaches the caller with
        // its payload once everything has joined.
        for p in [2, 3] {
            for (share, on_caller) in [("caller share", true), ("worker share", false)] {
                let payload = within_deadline(format!("{name} p={p} {share}"), move || {
                    let caller = thread::current().id();
                    let item = move |_i: usize| {
                        thread::sleep(Duration::from_millis(1));
                        if (thread::current().id() == caller) == on_caller {
                            panic_any(share);
                        }
                    };
                    let caught = catch_unwind(AssertUnwindSafe(|| run(12, p, &item, &|_| ())));
                    caught.err().and_then(|e| e.downcast_ref::<&str>().copied())
                });
                assert_eq!(payload, Some(share), "{name} p={p}");
            }
        }
        // Who runs what, and how many states are built.
        for (n, p) in [(5, 1), (1, 3), (0, 2), (2, 3), (3, 16), (9, 2)] {
            let (caller, threads, mut inits) =
                within_deadline(format!("{name} n={n} p={p}"), move || {
                    let threads = Mutex::new(Vec::new());
                    let inits = Mutex::new(Vec::new());
                    run(
                        n,
                        p,
                        &|_| threads.lock().unwrap().push(thread::current().id()),
                        &|w| inits.lock().unwrap().push(w),
                    );
                    let caller = thread::current().id();
                    (
                        caller,
                        threads.into_inner().unwrap(),
                        inits.into_inner().unwrap(),
                    )
                });
            assert_eq!(threads.len(), n, "{name} n={n} p={p}: items run");
            let distinct: HashSet<_> = threads.iter().collect();
            if p == 1 || n <= 1 {
                assert!(
                    threads.iter().all(|&t| t == caller),
                    "{name} n={n} p={p}: inline"
                );
            }
            assert!(
                distinct.len() <= n.min(p),
                "{name} n={n} p={p}: {} threads",
                distinct.len()
            );
            if stateful {
                inits.sort_unstable();
                let workers: Vec<usize> = (0..p.min(n).max(1)).collect();
                assert_eq!(inits, workers, "{name} n={n} p={p}: one init per worker");
            }
        }
    }
}
