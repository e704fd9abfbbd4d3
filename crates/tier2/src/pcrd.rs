//! Post-compression rate-distortion optimization (PCRD-opt).
//!
//! Every code-block arrives with cumulative (rate, distortion-reduction)
//! points at each coding-pass boundary. PCRD selects per-block truncation
//! points that minimize total distortion under a byte budget — the
//! "sophisticated optimization strategy for optimal rate/distortion
//! performance" the paper attributes to EBCOT. The classic two steps:
//!
//! 1. per block, prune the pass boundaries to their convex hull in
//!    (rate, distortion) space, yielding strictly decreasing R-D slopes;
//! 2. globally, include hull increments in decreasing slope order until the
//!    budget is exhausted (the greedy equivalent of the λ-threshold rule).
//!
//! Layers are allocated incrementally: each layer continues the greedy scan
//! from the previous layer's state, so per-block inclusion is monotone
//! across layers by construction, as Tier-2 requires.
//!
//! This module is encoder-only: PCRD consumes the encoder's own tier-1
//! rate/distortion statistics and is never reachable from untrusted
//! decoder input, so its panics are programming-error tripwires
//! (DESIGN.md §9).

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

/// Cumulative rate/distortion trajectory of one code-block.
///
/// Index `n` describes the state after `n + 1` coding passes; the implicit
/// origin (0 passes, 0 bytes, 0 reduction) is not stored. Rates must be
/// strictly increasing (every terminated pass emits at least one byte) and
/// distortion reductions non-decreasing.
#[derive(Debug, Clone, Default)]
pub struct BlockRd {
    /// Cumulative compressed bytes after each pass.
    pub rates: Vec<usize>,
    /// Cumulative distortion reduction after each pass, in any consistent
    /// unit — pj2k uses pixel-domain MSE contribution.
    pub dists: Vec<f64>,
}

impl BlockRd {
    /// Pass counts (1-based) forming the upper convex hull of the
    /// trajectory, in increasing order. Only hull vertices are eligible
    /// truncation points; slopes between consecutive vertices strictly
    /// decrease.
    ///
    /// # Panics
    /// Panics if `rates` and `dists` differ in length or rates are not
    /// strictly increasing.
    // AUDIT(panic): encoder-only; the asserts pin the caller contract on
    // trusted tier-1 statistics, and every index derives from hull entries
    // `1..=rates.len()` or validated window pairs.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn hull(&self) -> Vec<usize> {
        assert_eq!(
            self.rates.len(),
            self.dists.len(),
            "rate/dist length mismatch"
        );
        for w in self.rates.windows(2) {
            assert!(w[0] < w[1], "pass rates must strictly increase");
        }
        let point = |n: usize| -> (f64, f64) {
            if n == 0 {
                (0.0, 0.0)
            } else {
                (self.rates[n - 1] as f64, self.dists[n - 1])
            }
        };
        let mut hull: Vec<usize> = Vec::new();
        for i in 1..=self.rates.len() {
            let (ri, di) = point(i);
            while let Some(&last) = hull.last() {
                let (rl, dl) = point(last);
                let prev = if hull.len() >= 2 {
                    hull[hull.len() - 2]
                } else {
                    0
                };
                let (rp, dp) = point(prev);
                let s_in = (dl - dp) / (rl - rp);
                let s_out = (di - dl) / (ri - rl);
                if s_out >= s_in {
                    hull.pop();
                } else {
                    break;
                }
            }
            let (rl, dl) = point(hull.last().copied().unwrap_or(0));
            if di > dl && ri > rl {
                hull.push(i);
            }
        }
        hull
    }
}

/// One includable hull increment for the global greedy selection.
#[derive(Debug, Clone, Copy)]
struct Increment {
    block: usize,
    /// The hull point before this one (0 for the block's first increment):
    /// the increment is includable only from exactly there.
    from: usize,
    /// Cumulative pass count this increment reaches.
    upto: usize,
    /// Additional bytes over the previous hull point.
    dr: usize,
    slope: f64,
}

/// Allocate coding passes to quality layers.
///
/// `layer_budgets` are cumulative byte budgets (non-decreasing) for the
/// block *bodies* (packet-header overhead is the caller's concern). Returns
/// `result[layer][block]` = cumulative pass count included once that layer
/// is received.
///
/// # Panics
/// Panics if budgets decrease or any block's rates are malformed.
pub fn allocate_layers(blocks: &[BlockRd], layer_budgets: &[usize]) -> Vec<Vec<usize>> {
    allocate_layers_truncated(blocks, layer_budgets, &[]).layers
}

/// What [`allocate_layers_truncated`] decided, and how sure it is.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// `layers[layer][block]`, exactly as [`allocate_layers`] returns it.
    pub layers: Vec<Vec<usize>>,
    /// Slope of the first hull increment the final layer's budget refused
    /// — the λ of the threshold rule. `0.0` when nothing was refused
    /// (every pass offered fit the budget).
    pub threshold: f64,
    /// Blocks (ascending) whose missing passes might have changed the
    /// result: had they been coded, the scan cannot rule out that one of
    /// them would have been selected. Empty means `layers` is what full
    /// trajectories would have given, provided each `uncoded_below` bound
    /// holds.
    pub suspect: Vec<usize>,
}

/// [`allocate_layers`] over trajectories that may stop early.
///
/// `uncoded_below[b]` describes what block `b` left out: `0.0` when its
/// trajectory is complete, otherwise a slope strictly above that of every
/// hull increment the block would gain if its remaining passes were coded.
/// (An empty slice means every block is complete.) The selection itself is
/// the greedy scan of [`allocate_layers`] on the passes given; on top of it
/// the scan checks, per layer, the two ways a missing pass could matter:
///
/// - a truncated block had an increment flatter than its bound selected
///   (the missing passes might have reshaped that part of its hull);
/// - when the scan passed below a block's bound, the budget still had more
///   bytes free than the block had coded beyond its selected prefix — an
///   uncoded increment, which costs at least those bytes plus one, might
///   have fit. Free bytes only shrink as the scan descends, so the check
///   at the bound covers every flatter position.
///
/// Everything steeper than a block's bound is common to the truncated and
/// the complete increment lists, so a block that passes both checks in
/// every layer cannot have changed the scan; the rest are reported in
/// [`Allocation::suspect`] for the caller to code deeper.
///
/// # Panics
/// Panics if budgets decrease, any block's rates are malformed, or
/// `uncoded_below` is neither empty nor one entry per block.
// AUDIT(panic): encoder-only; hull pass counts index `rates`/`dists` of the
// same block (hull entries are `<= rates.len()` by construction), block
// indices come from `enumerate`, `uncoded_below` is length-checked on
// entry, and rate deltas are hull-monotone.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn allocate_layers_truncated(
    blocks: &[BlockRd],
    layer_budgets: &[usize],
    uncoded_below: &[f64],
) -> Allocation {
    for w in layer_budgets.windows(2) {
        assert!(w[0] <= w[1], "layer budgets must be non-decreasing");
    }
    assert!(
        uncoded_below.is_empty() || uncoded_below.len() == blocks.len(),
        "one uncoded-slope bound per block"
    );
    let mut incs: Vec<Increment> = Vec::new();
    for (b, blk) in blocks.iter().enumerate() {
        let mut prev_n = 0usize;
        let mut prev_r = 0usize;
        let mut prev_d = 0f64;
        // Each block's hull is computed exactly once, here; the selection
        // loop below only needs every increment's hull predecessor.
        for &n in &blk.hull() {
            let r = blk.rates[n - 1];
            let d = blk.dists[n - 1];
            incs.push(Increment {
                block: b,
                from: prev_n,
                upto: n,
                dr: r - prev_r,
                slope: (d - prev_d) / (r - prev_r) as f64,
            });
            prev_n = n;
            prev_r = r;
            prev_d = d;
        }
    }
    // Decreasing slope; deterministic tie-break. Within one block slopes
    // strictly decrease, so each block's increments stay in prefix order.
    incs.sort_by(|a, b| {
        b.slope
            .partial_cmp(&a.slope)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.block.cmp(&b.block))
            .then(a.upto.cmp(&b.upto))
    });
    // Truncated blocks in the order the scan passes below their bounds.
    let bound = |b: usize| uncoded_below.get(b).copied().unwrap_or(0.0);
    let mut cut: Vec<usize> = (0..uncoded_below.len())
        .filter(|&b| bound(b) > 0.0)
        .collect();
    cut.sort_by(|&a, &b| bound(b).total_cmp(&bound(a)).then(a.cmp(&b)));
    let mut suspect = vec![false; blocks.len()];

    let mut upto = vec![0usize; blocks.len()];
    // Prefix rule: once a block's increment is skipped, its later (flatter)
    // increments may not be taken within the same layer; a later layer with
    // more budget reconsiders from where the block stopped.
    let mut spent = 0usize;
    let mut threshold = 0.0;
    let mut layers = Vec::with_capacity(layer_budgets.len());
    for &budget in layer_budgets {
        let mut closed = vec![false; blocks.len()];
        // Bytes block `b` coded beyond its selected prefix, against the
        // bytes this layer still has free.
        let could_fit_more = |b: usize, upto: &[usize], spent: usize| {
            let coded = blocks[b].rates.last().copied().unwrap_or(0);
            let kept = upto[b].checked_sub(1).map_or(0, |n| blocks[b].rates[n]);
            coded - kept < budget.saturating_sub(spent)
        };
        let mut passed = 0usize; // cut[..passed]: bounds the scan is below
        let mut first_refused = None;
        for inc in &incs {
            while let Some(&b) = cut.get(passed).filter(|&&b| bound(b) > inc.slope) {
                suspect[b] |= could_fit_more(b, &upto, spent);
                passed += 1;
            }
            if closed[inc.block] || inc.upto <= upto[inc.block] {
                continue;
            }
            // This is the next pending increment of the block (in-order by
            // the sort); check contiguity then budget.
            if inc.from != upto[inc.block] {
                closed[inc.block] = true;
                continue;
            }
            if spent.saturating_add(inc.dr) <= budget {
                upto[inc.block] = inc.upto;
                spent += inc.dr;
                suspect[inc.block] |= inc.slope < bound(inc.block);
            } else {
                closed[inc.block] = true;
                first_refused.get_or_insert(inc.slope);
            }
        }
        for &b in cut.get(passed..).unwrap_or(&[]) {
            suspect[b] |= could_fit_more(b, &upto, spent);
        }
        threshold = first_refused.unwrap_or(0.0);
        layers.push(upto.clone());
    }
    Allocation {
        layers,
        threshold,
        suspect: (0..blocks.len()).filter(|&b| suspect[b]).collect(),
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn blk(points: &[(usize, f64)]) -> BlockRd {
        BlockRd {
            rates: points.iter().map(|p| p.0).collect(),
            dists: points.iter().map(|p| p.1).collect(),
        }
    }

    #[test]
    fn hull_of_concave_trajectory_keeps_everything() {
        let b = blk(&[(10, 100.0), (20, 150.0), (30, 170.0)]);
        assert_eq!(b.hull(), vec![1, 2, 3]);
    }

    #[test]
    fn hull_drops_dominated_points() {
        // Pass 2 is a poor deal (the slope rises afterwards): hull skips it.
        let b = blk(&[(10, 100.0), (20, 101.0), (30, 200.0)]);
        let h = b.hull();
        assert!(!h.contains(&2), "{h:?}");
        assert!(h.contains(&3));
    }

    #[test]
    fn hull_slopes_strictly_decrease() {
        let b = blk(&[
            (5, 50.0),
            (9, 80.0),
            (15, 95.0),
            (16, 95.5),
            (30, 99.0),
            (31, 99.01),
        ]);
        let h = b.hull();
        let mut prev_slope = f64::INFINITY;
        let mut pr = 0.0;
        let mut pd = 0.0;
        for &n in &h {
            let r = b.rates[n - 1] as f64;
            let d = b.dists[n - 1];
            let s = (d - pd) / (r - pr);
            assert!(s < prev_slope, "slope {s} >= {prev_slope} at pass {n}");
            prev_slope = s;
            pr = r;
            pd = d;
        }
    }

    #[test]
    fn hull_handles_zero_progress_passes() {
        // Passes that add bytes but no distortion reduction never appear.
        let b = blk(&[(10, 0.0), (20, 80.0), (25, 80.0), (30, 90.0)]);
        let h = b.hull();
        assert!(!h.contains(&1), "{h:?}");
        assert!(!h.contains(&3), "{h:?}");
        assert!(h.contains(&2));
    }

    #[test]
    fn hull_of_all_zero_distortion_is_empty() {
        let b = blk(&[(3, 0.0), (6, 0.0)]);
        assert!(b.hull().is_empty());
    }

    #[test]
    fn empty_block_has_empty_hull() {
        assert!(blk(&[]).hull().is_empty());
    }

    #[test]
    fn allocation_respects_budget() {
        let blocks = vec![
            blk(&[(10, 100.0), (20, 150.0), (30, 170.0)]),
            blk(&[(8, 90.0), (16, 120.0), (24, 130.0)]),
        ];
        for budget in [0usize, 10, 18, 26, 60, 1000] {
            let alloc = allocate_layers(&blocks, &[budget]);
            let total: usize = alloc[0]
                .iter()
                .enumerate()
                .map(|(b, &n)| if n == 0 { 0 } else { blocks[b].rates[n - 1] })
                .sum();
            assert!(total <= budget, "budget {budget}: spent {total}");
        }
    }

    #[test]
    fn allocation_prefers_steeper_slopes() {
        // Block 0's first increment: slope 10; block 1's: slope 11.25.
        let blocks = vec![blk(&[(10, 100.0)]), blk(&[(8, 90.0)])];
        let alloc = allocate_layers(&blocks, &[9]);
        assert_eq!(
            alloc[0],
            vec![0, 1],
            "should pick the steeper, cheaper block"
        );
    }

    #[test]
    fn unlimited_budget_takes_all_hull_points() {
        let blocks = vec![
            blk(&[(10, 100.0), (20, 150.0)]),
            blk(&[(5, 10.0), (9, 12.0)]),
        ];
        let alloc = allocate_layers(&blocks, &[usize::MAX]);
        assert_eq!(alloc[0], vec![2, 2]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn layers_are_monotone_and_final_layer_complete() {
        let blocks = vec![
            blk(&[(10, 100.0), (20, 150.0), (30, 170.0)]),
            blk(&[(8, 90.0), (16, 120.0), (24, 130.0)]),
            blk(&[(4, 5.0), (8, 6.0)]),
        ];
        let alloc = allocate_layers(&blocks, &[12, 30, 70, usize::MAX]);
        for l in 1..alloc.len() {
            for b in 0..blocks.len() {
                assert!(alloc[l][b] >= alloc[l - 1][b], "layer {l} block {b}");
            }
        }
        assert_eq!(alloc[3], vec![3, 3, 2]);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        // Two blocks, budget 26: exhaustive search over truncation pairs.
        let blocks = vec![
            blk(&[(10, 100.0), (20, 150.0), (30, 170.0)]),
            blk(&[(8, 90.0), (16, 120.0), (24, 130.0)]),
        ];
        let budget = 26;
        let alloc = &allocate_layers(&blocks, &[budget])[0];
        let value = |sel: &[usize]| -> (usize, f64) {
            let mut r = 0;
            let mut d = 0.0;
            for (b, &n) in sel.iter().enumerate() {
                if n > 0 {
                    r += blocks[b].rates[n - 1];
                    d += blocks[b].dists[n - 1];
                }
            }
            (r, d)
        };
        let (gr, gd) = value(alloc);
        assert!(gr <= budget);
        let mut best = 0.0f64;
        for a in 0..=3 {
            for b in 0..=3 {
                let (r, d) = value(&[a, b]);
                if r <= budget {
                    best = best.max(d);
                }
            }
        }
        // Greedy on hull increments is optimal up to one fractional item;
        // on this instance it should match the exhaustive optimum.
        assert!(
            gd >= best - 1e-9,
            "greedy {gd} vs exhaustive {best} (alloc {alloc:?})"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_budgets_panic() {
        let _ = allocate_layers(&[], &[10, 5]);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_increasing_rates_panic() {
        let _ = blk(&[(10, 1.0), (10, 2.0)]).hull();
    }
}
