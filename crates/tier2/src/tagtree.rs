//! Tag trees (ISO/IEC 15444-1 B.10.2).
//!
//! A tag tree codes a 2-D array of non-negative integers (one per
//! code-block of a precinct) by quad-tree minima, revealing values
//! incrementally as the coder asks "is leaf (x, y) < threshold?". Packet
//! headers use two: one for first-inclusion layers and one for
//! zero-bit-plane counts.
//!
//! Untrusted-input note (DESIGN.md §9): header bits only ever influence
//! node *values* and lower bounds, never node *indices* — the tree shape
//! and every parent pointer are fixed at construction from caller-supplied
//! grid dimensions, and the decode climb is bounded by the caller's
//! threshold. That invariant is what the `AUDIT(panic)` annotations below
//! rely on.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::bitio::{HeaderBitReader, HeaderBitWriter};

#[derive(Debug, Clone)]
struct Node {
    /// Coded value (encoder: the true value; decoder: discovered value).
    value: u32,
    /// Lower bound communicated so far.
    low: u32,
    /// Whether `value` has been fully communicated.
    known: bool,
    /// Parent index (self for the root).
    parent: usize,
}

/// A tag tree over a `w x h` leaf grid.
#[derive(Debug, Clone)]
pub struct TagTree {
    w: usize,
    h: usize,
    nodes: Vec<Node>,
    /// Index of the first leaf (leaves occupy `leaf_base..leaf_base+w*h`).
    leaf_base: usize,
}

impl TagTree {
    /// Build a tree for a `w x h` grid; values start at "unknown/infinite"
    /// on the decoder side and must be assigned with [`TagTree::set_value`]
    /// on the encoder side.
    ///
    /// # Panics
    /// Panics if `w * h == 0`.
    // AUDIT(panic): construction-time geometry only. The level dims shrink by
    // div_ceil(2) per level down to (1, 1), every parent index was pushed
    // in an earlier (already materialized) level, and the caller caps
    // `w * h` before building per-precinct state from untrusted
    // dimensions; the non-empty assert is the caller's contract, checked
    // in `core::decode` before any tree is built.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    // AUDIT(hot): tree construction runs once per precinct and band —
    // setup-time, sized by the capped block grid.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "empty tag tree");
        // Build levels from root (1x1) down to leaves; nodes stored
        // root-first so parents precede children.
        let mut dims = vec![(w, h)];
        while dims.last() != Some(&(1, 1)) {
            // AUDIT(panic): `dims` is seeded with one entry
            // and only ever grows, so `last()` is always `Some`.
            let &(lw, lh) = dims.last().unwrap();
            dims.push((lw.div_ceil(2), lh.div_ceil(2)));
        }
        dims.reverse(); // root first
        let mut nodes = Vec::new();
        let mut level_base = vec![0usize; dims.len()];
        for (li, &(lw, lh)) in dims.iter().enumerate() {
            level_base[li] = nodes.len();
            for y in 0..lh {
                for x in 0..lw {
                    let parent = if li == 0 {
                        nodes.len() // root points at itself
                    } else {
                        let (pw, _) = dims[li - 1];
                        level_base[li - 1] + (y / 2) * pw + x / 2
                    };
                    nodes.push(Node {
                        value: u32::MAX,
                        low: 0,
                        known: false,
                        parent,
                    });
                }
            }
        }
        let leaf_base = level_base[dims.len() - 1];
        Self {
            w,
            h,
            nodes,
            leaf_base,
        }
    }

    /// Leaf grid width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Leaf grid height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Assign leaf `(x, y)`'s value (encoder side). Must be called for every
    /// leaf before encoding; internal minima are recomputed lazily by
    /// [`TagTree::finalize`].
    // AUDIT(panic): `leaf_index` bounds-checks (x, y), so the node index is
    // in range by construction.
    #[allow(clippy::indexing_slicing)]
    pub fn set_value(&mut self, x: usize, y: usize, v: u32) {
        let i = self.leaf_index(x, y);
        self.nodes[i].value = v;
    }

    /// Propagate leaf values up as minima (encoder side, after all
    /// `set_value` calls).
    // AUDIT(panic): iterates the node vec by its own indices; parent pointers
    // were created pointing at already-pushed nodes, so `p < i < len`.
    #[allow(clippy::indexing_slicing)]
    pub fn finalize(&mut self) {
        // Children are stored after parents; iterate in reverse so leaves
        // update their parents first.
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            if self.nodes[i].value < self.nodes[p].value {
                self.nodes[p].value = self.nodes[i].value;
            }
        }
    }

    /// Reset the incremental coding state (keeps values).
    pub fn reset_state(&mut self) {
        for n in &mut self.nodes {
            n.low = 0;
            n.known = false;
        }
    }

    // AUDIT(panic): the assert is a caller-contract tripwire — packet coding
    // iterates x < w, y < h of its own grid, so untrusted bytes cannot
    // select an out-of-range leaf; the sum then stays within the node vec
    // whose final level holds exactly w * h leaves.
    #[allow(clippy::arithmetic_side_effects)]
    fn leaf_index(&self, x: usize, y: usize) -> usize {
        assert!(x < self.w && y < self.h, "leaf out of range");
        self.leaf_base + y * self.w + x
    }

    // AUDIT(panic): walks fixed parent pointers (each `< len` and strictly
    // decreasing until the self-parenting root), so the walk is in-bounds
    // and terminates regardless of input bits.
    #[allow(clippy::indexing_slicing)]
    // AUDIT(hot): depth-bounded scratch (≤ log2 of the grid, ~8 entries)
    // per header query — header-size work, not per-sample.
    fn path_to(&self, leaf: usize) -> Vec<usize> {
        let mut path = vec![leaf];
        let mut i = leaf;
        while self.nodes[i].parent != i {
            i = self.nodes[i].parent;
            path.push(i);
        }
        path.reverse();
        path
    }

    /// Encode knowledge about leaf `(x, y)` up to `threshold`: after this
    /// call the decoder can answer "value < threshold?" (and knows the exact
    /// value if it is `< threshold`).
    // AUDIT(panic): encoder side; node indices come from `path_to` (in-bounds
    // by construction) and `low` increments strictly below `threshold`.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn encode(&mut self, x: usize, y: usize, threshold: u32, out: &mut HeaderBitWriter) {
        let leaf = self.leaf_index(x, y);
        let mut low = 0;
        for i in self.path_to(leaf) {
            if low > self.nodes[i].low {
                self.nodes[i].low = low;
            } else {
                low = self.nodes[i].low;
            }
            while low < threshold {
                if low >= self.nodes[i].value {
                    if !self.nodes[i].known {
                        out.put_bit(1);
                        self.nodes[i].known = true;
                    }
                    break;
                }
                out.put_bit(0);
                low += 1;
            }
            self.nodes[i].low = low;
        }
    }

    /// Decode knowledge about leaf `(x, y)` up to `threshold`; returns
    /// `true` when the leaf's value is known to be `< threshold` (and then
    /// [`TagTree::leaf_value`] returns it).
    ///
    /// Input bits only set node values/known flags; they cannot steer an
    /// index or unbound the climb (`low` stays `< threshold`), so malformed
    /// bits can at worst mis-decode a value — never panic.
    // AUDIT(panic): node indices come from `path_to` (fixed parent pointers,
    // in-bounds by construction); `low += 1` is guarded by
    // `low < threshold`, and the caller bounds the threshold (layer index
    // or the zero-bit-plane cap).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn decode(
        &mut self,
        x: usize,
        y: usize,
        threshold: u32,
        input: &mut HeaderBitReader,
    ) -> bool {
        let leaf = self.leaf_index(x, y);
        let mut low = 0;
        for i in self.path_to(leaf) {
            if low > self.nodes[i].low {
                self.nodes[i].low = low;
            } else {
                low = self.nodes[i].low;
            }
            while low < threshold {
                if self.nodes[i].known {
                    break;
                }
                if input.get_bit() == 1 {
                    self.nodes[i].value = low;
                    self.nodes[i].known = true;
                } else {
                    low += 1;
                }
            }
            self.nodes[i].low = low;
        }
        let n = &self.nodes[leaf];
        n.known && n.value < threshold
    }

    /// Decoded (or assigned) value of leaf `(x, y)`.
    // AUDIT(panic): `leaf_index` bounds-checks (x, y) against the leaf grid.
    #[allow(clippy::indexing_slicing)]
    pub fn leaf_value(&self, x: usize, y: usize) -> u32 {
        self.nodes[self.leaf_index(x, y)].value
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn roundtrip(w: usize, h: usize, values: &[u32]) {
        let mut enc = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc.set_value(x, y, values[y * w + x]);
            }
        }
        enc.finalize();
        let max = *values.iter().max().unwrap();
        let mut writer = HeaderBitWriter::new();
        // Reveal every leaf fully: raise thresholds until known.
        for y in 0..h {
            for x in 0..w {
                let mut t = 1;
                loop {
                    enc.encode(x, y, t, &mut writer);
                    if t > values[y * w + x] {
                        break;
                    }
                    t += 1;
                }
            }
        }
        let bytes = writer.finish();
        let mut dec = TagTree::new(w, h);
        let mut reader = HeaderBitReader::new(&bytes);
        for y in 0..h {
            for x in 0..w {
                let mut t = 1;
                loop {
                    let known = dec.decode(x, y, t, &mut reader);
                    if known {
                        break;
                    }
                    t += 1;
                    assert!(t <= max + 2, "runaway threshold at ({x},{y})");
                }
                assert_eq!(dec.leaf_value(x, y), values[y * w + x], "({x},{y})");
            }
        }
    }

    #[test]
    fn single_leaf() {
        roundtrip(1, 1, &[0]);
        roundtrip(1, 1, &[7]);
    }

    #[test]
    fn small_grids() {
        roundtrip(2, 2, &[0, 1, 2, 3]);
        roundtrip(3, 2, &[5, 0, 3, 1, 4, 2]);
        roundtrip(4, 4, &(0..16).map(|i| (i * 7) % 5).collect::<Vec<_>>());
    }

    #[test]
    fn non_power_of_two_grid() {
        let values: Vec<u32> = (0..35).map(|i| (i * 13) % 9).collect();
        roundtrip(7, 5, &values);
    }

    #[test]
    fn all_equal_values_are_cheap() {
        let w = 8;
        let h = 8;
        let mut enc = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc.set_value(x, y, 3);
            }
        }
        enc.finalize();
        let mut writer = HeaderBitWriter::new();
        for y in 0..h {
            for x in 0..w {
                enc.encode(x, y, 4, &mut writer);
            }
        }
        // Root codes the shared prefix once; leaves add little.
        let bits = writer.bit_len();
        assert!(
            bits < 8 * 8 * 4,
            "tag tree should share prefixes: {bits} bits"
        );
    }

    #[test]
    fn partial_thresholds_reveal_partially() {
        let mut enc = TagTree::new(2, 1);
        enc.set_value(0, 0, 5);
        enc.set_value(1, 0, 1);
        enc.finalize();
        let mut w = HeaderBitWriter::new();
        enc.encode(0, 0, 3, &mut w); // not enough to know value 5
        enc.encode(1, 0, 3, &mut w); // enough to know value 1
        let bytes = w.finish();
        let mut dec = TagTree::new(2, 1);
        let mut r = HeaderBitReader::new(&bytes);
        assert!(!dec.decode(0, 0, 3, &mut r));
        assert!(dec.decode(1, 0, 3, &mut r));
        assert_eq!(dec.leaf_value(1, 0), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn incremental_then_full() {
        // First reveal at low threshold, later at higher: decoder converges.
        let mut enc = TagTree::new(2, 2);
        for (i, v) in [2u32, 0, 1, 3].iter().enumerate() {
            enc.set_value(i % 2, i / 2, *v);
        }
        enc.finalize();
        let mut w = HeaderBitWriter::new();
        for t in 1..=4 {
            for y in 0..2 {
                for x in 0..2 {
                    enc.encode(x, y, t, &mut w);
                }
            }
        }
        let bytes = w.finish();
        let mut dec = TagTree::new(2, 2);
        let mut r = HeaderBitReader::new(&bytes);
        let mut known = [[false; 2]; 2];
        for t in 1..=4u32 {
            for y in 0..2 {
                for x in 0..2 {
                    known[y][x] = dec.decode(x, y, t, &mut r);
                }
            }
        }
        assert!(known.iter().flatten().all(|&k| k));
        assert_eq!(dec.leaf_value(0, 0), 2);
        assert_eq!(dec.leaf_value(1, 1), 3);
    }

    #[test]
    #[should_panic(expected = "empty tag tree")]
    fn empty_tree_panics() {
        let _ = TagTree::new(0, 3);
    }
}
