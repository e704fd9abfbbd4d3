//! Property tests: tag trees, packet headers and PCRD under arbitrary
//! inputs.

use pj2k_testkit::cases;
use pj2k_tier2::bitio::{HeaderBitReader, HeaderBitWriter};
use pj2k_tier2::pcrd::{allocate_layers_truncated, BlockRd};
use pj2k_tier2::{allocate_layers, decode_packet, encode_packet, PrecinctState, TagTree};

const CASES: u32 = 64;

/// Header bit I/O round-trips arbitrary bit sequences through the
/// stuffing rule.
#[test]
fn bitio_roundtrip() {
    cases(CASES, |rng| {
        let len = rng.range(0..500);
        let bits = rng.vec(len, |r| r.range(0u8..2));
        let mut w = HeaderBitWriter::new();
        for &b in &bits {
            w.put_bit(b);
        }
        let bytes = w.finish();
        // stuffing invariant
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                assert!(pair[1] < 0x80);
            }
        }
        let mut r = HeaderBitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.get_bit(), b);
        }
    });
}

/// Tag trees reveal every leaf value exactly, for arbitrary grids.
#[test]
fn tagtree_roundtrip() {
    cases(CASES, |rng| {
        let w = rng.range(1usize..9);
        let h = rng.range(1usize..9);
        let max_v = rng.range(1u32..12);
        let values = rng.vec(w * h, |r| r.range(0..max_v));
        let mut enc = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc.set_value(x, y, values[y * w + x]);
            }
        }
        enc.finalize();
        let mut writer = HeaderBitWriter::new();
        for y in 0..h {
            for x in 0..w {
                for t in 1..=values[y * w + x] + 1 {
                    enc.encode(x, y, t, &mut writer);
                }
            }
        }
        let bytes = writer.finish();
        let mut dec = TagTree::new(w, h);
        let mut reader = HeaderBitReader::new(&bytes);
        for y in 0..h {
            for x in 0..w {
                let mut t = 1;
                while !dec.decode(x, y, t, &mut reader) {
                    t += 1;
                    assert!(t <= max_v + 2);
                }
                assert_eq!(dec.leaf_value(x, y), values[y * w + x]);
            }
        }
    });
}

/// PCRD hulls have strictly decreasing slopes and allocations respect
/// budgets, for arbitrary monotone trajectories.
#[test]
fn pcrd_invariants() {
    cases(CASES, |rng| {
        let len = rng.range(1..6);
        let blocks_raw = rng.vec(len, |r| {
            let steps = r.range(0..8);
            r.vec(steps, |r| (r.range(1usize..60), r.range_f64(0.0f64..100.0)))
        });
        let budget = rng.range(0usize..600);
        let blocks: Vec<BlockRd> = blocks_raw
            .iter()
            .map(|steps| {
                let mut r = 0usize;
                let mut d = 0f64;
                let mut rates = Vec::new();
                let mut dists = Vec::new();
                for &(dr, dd) in steps {
                    r += dr;
                    d += dd;
                    rates.push(r);
                    dists.push(d);
                }
                BlockRd { rates, dists }
            })
            .collect();
        // Hull slopes strictly decrease.
        for b in &blocks {
            let hull = b.hull();
            let mut prev_slope = f64::INFINITY;
            let (mut pr, mut pd) = (0.0, 0.0);
            for &n in &hull {
                let (r, d) = (b.rates[n - 1] as f64, b.dists[n - 1]);
                let s = (d - pd) / (r - pr);
                assert!(s < prev_slope + 1e-12, "slope {} after {}", s, prev_slope);
                assert!(s > 0.0);
                prev_slope = s;
                pr = r;
                pd = d;
            }
        }
        // Allocation respects the budget and only uses hull points.
        let alloc = &allocate_layers(&blocks, &[budget])[0];
        let mut spent = 0;
        for (b, &n) in alloc.iter().enumerate() {
            if n > 0 {
                assert!(blocks[b].hull().contains(&n), "non-hull point {}", n);
                spent += blocks[b].rates[n - 1];
            }
        }
        assert!(spent <= budget, "spent {} > {}", spent, budget);
    });
}

/// Slopes of a trajectory's hull increments, paired with the pass count
/// each reaches.
fn hull_slopes(b: &BlockRd) -> Vec<(usize, f64)> {
    let (mut pr, mut pd) = (0.0, 0.0);
    b.hull()
        .into_iter()
        .map(|n| {
            let (r, d) = (b.rates[n - 1] as f64, b.dists[n - 1]);
            let s = (d - pd) / (r - pr);
            (pr, pd) = (r, d);
            (n, s)
        })
        .collect()
}

/// The certificate of `allocate_layers_truncated`: cut arbitrary
/// trajectories short, give each cut block an honest bound (just above the
/// slope of every hull increment it lost), and whenever no block is
/// suspect the allocation must be the one the full trajectories get.
/// Trajectories range from a few bytes a pass (where a lost pass can slip
/// into the budget's last free bytes) to hundreds.
#[test]
fn truncated_allocation_is_certified_or_suspect() {
    let (certified, suspect) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u32));
    cases(400, |rng| {
        let n_blocks = rng.range(1usize..9);
        let big = rng.bool();
        let full: Vec<BlockRd> = (0..n_blocks)
            .map(|_| {
                let (mut r, mut d, mut gain) = (0usize, 0f64, rng.range_f64(10.0..5000.0));
                let mut blk = BlockRd::default();
                for _ in 0..rng.range(0usize..14) {
                    r += rng.range(1usize..if big { 300 } else { 6 });
                    d += gain * rng.range_f64(0.0..1.0);
                    gain *= rng.range_f64(0.2..1.1);
                    blk.rates.push(r);
                    blk.dists.push(d);
                }
                blk
            })
            .collect();
        let mut cut = full.clone();
        let mut bounds = vec![0.0; n_blocks];
        for b in 0..n_blocks {
            if rng.range(0u32..3) == 0 {
                continue; // left complete
            }
            // Mostly shallow cuts (the useful case); sometimes anything.
            let len = full[b].rates.len();
            let keep = if rng.bool() {
                len.saturating_sub(rng.range(0usize..4))
            } else {
                rng.range(0..=len)
            };
            cut[b].rates.truncate(keep);
            cut[b].dists.truncate(keep);
            let lost = hull_slopes(&full[b])
                .into_iter()
                .filter(|&(n, _)| n > keep)
                .map(|(_, s)| s)
                .fold(0.0, f64::max);
            // Honest, and sometimes far looser than needed.
            bounds[b] = lost * rng.range_f64(1.0001..3.0) + f64::MIN_POSITIVE;
        }
        let total: usize = full.iter().filter_map(|b| b.rates.last()).sum();
        let most = if rng.bool() { total / 2 } else { total + 10 };
        let top = rng.range(0..=most);
        let budgets = match rng.range(1u32..4) {
            1 => vec![top],
            2 => vec![top / 3, top],
            _ => vec![top / 7, top / 2, top],
        };
        let want = allocate_layers(&full, &budgets);
        let got = allocate_layers_truncated(&cut, &budgets, &bounds);
        assert!(
            got.suspect.iter().all(|&b| bounds[b] > 0.0),
            "complete block suspected"
        );
        if got.suspect.is_empty() {
            assert_eq!(got.layers, want, "certified but different");
            certified.set(certified.get() + u32::from(bounds.iter().any(|&b| b > 0.0)));
        } else {
            suspect.set(suspect.get() + 1);
        }
    });
    // Both outcomes must occur often, or the property above is vacuous.
    assert!(certified.get() > 50, "certified {}", certified.get());
    assert!(suspect.get() > 50, "suspect {}", suspect.get());
}

/// What the scan reports about itself: the threshold is the slope of the
/// first refused increment of the last layer, and each of the two ways a
/// missing pass can matter marks its block.
#[test]
fn truncated_allocation_reports_threshold_and_suspects() {
    let blk = |points: &[(usize, f64)]| BlockRd {
        rates: points.iter().map(|p| p.0).collect(),
        dists: points.iter().map(|p| p.1).collect(),
    };
    // Slopes: a = 10, 5, 2; b = 8, 1.
    let a = blk(&[(10, 100.0), (20, 150.0), (30, 170.0)]);
    let b = blk(&[(10, 80.0), (20, 90.0)]);
    let both = [a.clone(), b.clone()];
    // Budget 35: takes 10, 8, 5 (30 bytes), refuses 2, then 1.
    let out = allocate_layers_truncated(&both, &[35], &[]);
    assert_eq!(out.layers, vec![vec![2, 1]]);
    assert_eq!(out.threshold, 2.0);
    assert!(out.suspect.is_empty());
    // Everything fits: no threshold.
    assert_eq!(
        allocate_layers_truncated(&both, &[1000], &[]).threshold,
        0.0
    );
    // Block b stops after its first pass, all of which is kept. When the
    // scan passes below its bound 5 budget bytes are still free, so a lost
    // pass might have fit.
    let cut = [a.clone(), blk(&[(10, 80.0)])];
    let out = allocate_layers_truncated(&cut, &[35], &[0.0, 1.5]);
    assert_eq!(out.layers, vec![vec![2, 1]]);
    assert_eq!(out.suspect, vec![1]);
    // With the budget used to the last byte nothing more can fit.
    let out = allocate_layers_truncated(&cut, &[30], &[0.0, 1.5]);
    assert!(out.suspect.is_empty(), "{:?}", out.suspect);
    // A bound above an increment that was selected: the lost passes might
    // have reshaped that part of the hull.
    let out = allocate_layers_truncated(&cut, &[30], &[0.0, 9.0]);
    assert_eq!(out.suspect, vec![1]);
}

/// Multi-layer packet headers round-trip arbitrary (monotone)
/// allocations.
#[test]
fn packet_roundtrip() {
    cases(CASES, |rng| {
        let gw = rng.range(1usize..4);
        let gh = rng.range(1usize..4);
        let n_layers = rng.range(1usize..4);
        let n = gw * gh;
        // Per block: total passes and their segment lengths.
        let pass_lens: Vec<Vec<usize>> = rng.vec(n, |r| {
            let total = r.range(0..12);
            r.vec(total, |r| r.range(1..=300))
        });
        // Monotone cumulative allocation per layer.
        let mut alloc = vec![vec![0usize; n]; n_layers];
        for b in 0..n {
            let mut cur = 0;
            for layer in alloc.iter_mut() {
                cur = (cur + rng.range(0..4)).min(pass_lens[b].len());
                layer[b] = cur;
            }
        }
        let zbp = rng.vec(n, |r| r.range(0u32..10));
        check_packet_roundtrip(gw, gh, &pass_lens, &alloc, &zbp);
    });
}

fn check_packet_roundtrip(
    gw: usize,
    gh: usize,
    pass_lens: &[Vec<usize>],
    alloc: &[Vec<usize>],
    zbp: &[u32],
) {
    let n_layers = alloc.len();
    let first_layer: Vec<u32> = (0..gw * gh)
        .map(|b| {
            alloc
                .iter()
                .position(|l| l[b] > 0)
                .map_or(n_layers as u32, |p| p as u32)
        })
        .collect();
    let mut enc = PrecinctState::for_encoder(gw, gh, &first_layer, zbp);
    let mut dec = PrecinctState::for_decoder(gw, gh);
    for (l, upto) in alloc.iter().enumerate() {
        let hdr = encode_packet(&mut enc, l, upto, pass_lens);
        let (results, _) = decode_packet(&mut dec, l, &hdr).unwrap();
        for (b, res) in results.iter().enumerate() {
            let prev = if l == 0 { 0 } else { alloc[l - 1][b] };
            assert_eq!(res.prev_passes, prev, "layer {} block {}", l, b);
            assert_eq!(res.new_passes, upto[b] - prev, "layer {} block {}", l, b);
            assert_eq!(
                &res.seg_lens[..],
                &pass_lens[b][prev..upto[b]],
                "layer {} block {}",
                l,
                b
            );
            if upto[b] > 0 {
                assert_eq!(res.zero_bitplanes, zbp[b]);
            }
        }
    }
}

/// Input once recorded as failing the round-trip, kept as an explicit
/// case: two blocks whose passes all land in layer 0, so layer 1's packet
/// is empty.
#[test]
fn packet_roundtrip_regression_empty_second_layer() {
    let pass_lens = [vec![227, 30], vec![74, 292, 286]];
    let alloc = [vec![2, 3], vec![2, 3]];
    check_packet_roundtrip(1, 2, &pass_lens, &alloc, &[0, 9]);
}
