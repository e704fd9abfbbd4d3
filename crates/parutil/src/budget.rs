//! Process-wide worker-thread budget (`PJ2K_THREADS`).
//!
//! The executors ([`pool_map`](crate::pool_map),
//! [`pool_run`](crate::pool_run), [`Exec::run_ranges`](crate::Exec::run_ranges),
//! the serve loop [`bounded_ordered_serve`](crate::bounded_ordered_serve))
//! each take a worker count from their caller — and before this module nothing
//! stopped *nested* parallelism from oversubscribing the machine: a batch
//! layer running `j` concurrent images whose encoder each asked for "all
//! cores" would spawn `j × cores` runnable threads. The budget closes that
//! hole with one process-wide cap that every executor honours at its entry
//! point:
//!
//! * `PJ2K_THREADS=<n>` caps every parallel region at `n` workers. The
//!   batch scheduler in `pj2k-serve` additionally uses it as the total
//!   budget for its `j × k ≤ budget` split.
//! * Unset (or `auto`/empty) means "no cap": callers get exactly the
//!   worker count they asked for, preserving ablation fidelity — a
//!   `p = 8` sweep on a 4-core host must still spawn 8 OS threads, or the
//!   measured curves would silently flatline at the host width.
//! * An unrecognized value warns on stderr instead of silently falling
//!   back (mirrors `PJ2K_TIER1` / `PJ2K_SIMD`), so a typo cannot
//!   masquerade as an unbounded run.
//!
//! The cap is read once per process and cached; tests exercise the parse
//! function directly rather than mutating the process environment.

use std::sync::OnceLock;

/// Parsed value of a `PJ2K_THREADS` token: `Some(cap)`, with `Some(None)`
/// meaning "no cap", or `None` for a token that is not recognized.
///
/// Accepted: a positive integer (the cap), or `auto` / empty (explicitly
/// uncapped). Zero and garbage are rejected (the caller warns).
pub fn parse_thread_budget_token(tok: &str) -> Option<Option<usize>> {
    let tok = tok.trim();
    if tok.is_empty() || tok.eq_ignore_ascii_case("auto") {
        return Some(None);
    }
    match tok.parse::<usize>() {
        Ok(n) if n > 0 => Some(Some(n)),
        _ => None,
    }
}

/// The cached `PJ2K_THREADS` cap, read once per process. A set but
/// unrecognized value warns on stderr instead of silently running
/// uncapped.
pub fn thread_budget() -> Option<usize> {
    static BUDGET: OnceLock<Option<usize>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let v = std::env::var("PJ2K_THREADS").ok()?;
        match parse_thread_budget_token(&v) {
            Some(cap) => cap,
            None => {
                // AUDIT(hot): the OnceLock body runs at most once per
                // process, and this eprintln! only on an unrecognized
                // override — cold.
                eprintln!(
                    "pj2k: ignoring unrecognized PJ2K_THREADS={v:?} \
                     (expected a positive worker count, auto, or empty)"
                );
                None
            }
        }
    })
}

/// The total worker budget for schedulers that *plan* thread usage (the
/// batch layer's `j × k` split): the `PJ2K_THREADS` cap when set,
/// otherwise the host's available parallelism.
pub fn resolve_thread_budget() -> usize {
    thread_budget()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Clamp a requested per-region worker count to the process budget.
///
/// With no `PJ2K_THREADS` set this is the identity (never *raises* a
/// request), so sequential baselines and explicit ablation sweeps are
/// unaffected.
#[inline]
pub fn clamp_workers(requested: usize) -> usize {
    clamp_to(requested, thread_budget())
}

/// Pure core of [`clamp_workers`], separated so the policy is unit-testable
/// without touching the process environment.
#[inline]
pub(crate) fn clamp_to(requested: usize, budget: Option<usize>) -> usize {
    match budget {
        Some(cap) => requested.min(cap).max(1),
        None => requested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_parse() {
        assert_eq!(parse_thread_budget_token("4"), Some(Some(4)));
        assert_eq!(parse_thread_budget_token(" 16 "), Some(Some(16)));
        assert_eq!(parse_thread_budget_token("1"), Some(Some(1)));
        assert_eq!(parse_thread_budget_token(""), Some(None));
        assert_eq!(parse_thread_budget_token("auto"), Some(None));
        assert_eq!(parse_thread_budget_token("AUTO"), Some(None));
        assert_eq!(
            parse_thread_budget_token("0"),
            None,
            "zero workers is nonsense"
        );
        assert_eq!(parse_thread_budget_token("-2"), None);
        assert_eq!(parse_thread_budget_token("four"), None);
        assert_eq!(parse_thread_budget_token("4.0"), None);
    }

    #[test]
    fn clamp_policy() {
        // No budget: identity, including zero (callers validate p > 0
        // themselves, with their own messages).
        assert_eq!(clamp_to(8, None), 8);
        assert_eq!(clamp_to(0, None), 0);
        // Budget caps but never raises, and never returns zero.
        assert_eq!(clamp_to(8, Some(4)), 4);
        assert_eq!(clamp_to(2, Some(4)), 2);
        assert_eq!(clamp_to(0, Some(4)), 1);
        assert_eq!(clamp_to(100, Some(1)), 1);
    }

    #[test]
    fn resolve_is_positive() {
        assert!(resolve_thread_budget() >= 1);
    }
}
