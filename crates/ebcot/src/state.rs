//! Per-coefficient coding state of the two test oracles: the reference
//! block encoder ([`crate::reference`]) and decoder ([`crate::oracle`]).
//! Compiled only under the `oracle` cargo feature.

/// Flag bits stored per coefficient.
pub(crate) const SIG: u8 = 1; // significant
pub(crate) const VISITED: u8 = 2; // coded in the current plane's SPP
pub(crate) const REFINED: u8 = 4; // has had its first refinement
pub(crate) const NEWSIG: u8 = 8; // became significant in the current plane's SPP
pub(crate) const NEG: u8 = 16; // sign bit (set = negative)

/// Padded flag grid: a one-cell border of permanently-insignificant
/// neighbors removes all bounds checks from context formation.
#[derive(Default)]
pub(crate) struct FlagGrid {
    pub w: usize,
    pub h: usize,
    stride: usize,
    flags: Vec<u8>,
}

impl FlagGrid {
    #[cfg(test)]
    pub fn new(w: usize, h: usize) -> Self {
        let mut g = Self::default();
        g.reset(w, h);
        g
    }

    /// Re-dimension the grid for a new block and zero every flag, keeping
    /// the previously allocated storage when it is large enough.
    // AUDIT(hot): amortized — clear + resize reuses the prior block's
    // capacity; steady state allocates nothing.
    pub fn reset(&mut self, w: usize, h: usize) {
        self.w = w;
        self.h = h;
        self.stride = w + 2;
        self.flags.clear();
        self.flags.resize((w + 2) * (h + 2), 0);
    }

    /// Padded index of coefficient `(x, y)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        (y + 1) * self.stride + (x + 1)
    }

    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        self.flags[i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, bits: u8) {
        self.flags[i] |= bits;
    }

    /// Clear VISITED and NEWSIG everywhere (start of a new bit-plane).
    pub fn clear_plane_flags(&mut self) {
        for f in &mut self.flags {
            *f &= !(VISITED | NEWSIG);
        }
    }

    #[inline]
    fn sig(&self, i: usize) -> u32 {
        u32::from(self.flags[i] & SIG != 0)
    }

    /// Horizontal significant-neighbor count (0..=2).
    #[inline]
    pub fn h_count(&self, i: usize) -> u32 {
        self.sig(i - 1) + self.sig(i + 1)
    }

    /// Vertical significant-neighbor count (0..=2).
    #[inline]
    pub fn v_count(&self, i: usize) -> u32 {
        self.sig(i - self.stride) + self.sig(i + self.stride)
    }

    /// Diagonal significant-neighbor count (0..=4).
    #[inline]
    pub fn d_count(&self, i: usize) -> u32 {
        self.sig(i - self.stride - 1)
            + self.sig(i - self.stride + 1)
            + self.sig(i + self.stride - 1)
            + self.sig(i + self.stride + 1)
    }

    /// True if any of the 8 neighbors is significant.
    #[inline]
    pub fn any_sig_neighbor(&self, i: usize) -> bool {
        self.h_count(i) + self.v_count(i) + self.d_count(i) > 0
    }

    #[inline]
    fn sign_contrib(&self, i: usize) -> i32 {
        if self.flags[i] & SIG == 0 {
            0
        } else if self.flags[i] & NEG != 0 {
            -1
        } else {
            1
        }
    }

    /// Clamped horizontal sign contribution (-1..=1).
    #[inline]
    pub fn hc(&self, i: usize) -> i32 {
        (self.sign_contrib(i - 1) + self.sign_contrib(i + 1)).clamp(-1, 1)
    }

    /// Clamped vertical sign contribution (-1..=1).
    #[inline]
    pub fn vc(&self, i: usize) -> i32 {
        (self.sign_contrib(i - self.stride) + self.sign_contrib(i + self.stride)).clamp(-1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn border_is_insignificant() {
        let mut g = FlagGrid::new(3, 3);
        // corner coefficient: all out-of-block neighbors count as zero
        let i = g.idx(0, 0);
        assert_eq!(g.h_count(i), 0);
        assert_eq!(g.v_count(i), 0);
        assert_eq!(g.d_count(i), 0);
        g.set(g.idx(1, 0), SIG);
        assert_eq!(g.h_count(i), 1);
    }

    #[test]
    fn neighbor_counts() {
        let mut g = FlagGrid::new(3, 3);
        for (x, y) in [(0, 1), (2, 1), (1, 0), (1, 2), (0, 0), (2, 2)] {
            g.set(g.idx(x, y), SIG);
        }
        let c = g.idx(1, 1);
        assert_eq!(g.h_count(c), 2);
        assert_eq!(g.v_count(c), 2);
        assert_eq!(g.d_count(c), 2);
        assert!(g.any_sig_neighbor(c));
    }

    #[test]
    fn sign_contributions_clamp() {
        let mut g = FlagGrid::new(3, 1);
        g.set(g.idx(0, 0), SIG | NEG);
        g.set(g.idx(2, 0), SIG | NEG);
        let c = g.idx(1, 0);
        assert_eq!(g.hc(c), -1);
        let mut g2 = FlagGrid::new(3, 1);
        g2.set(g2.idx(0, 0), SIG);
        g2.set(g2.idx(2, 0), SIG | NEG);
        assert_eq!(g2.hc(g2.idx(1, 0)), 0);
        let mut g3 = FlagGrid::new(1, 2);
        g3.set(g3.idx(0, 1), SIG);
        assert_eq!(g3.vc(g3.idx(0, 0)), 1);
    }

    #[test]
    fn clear_plane_flags_preserves_sig() {
        let mut g = FlagGrid::new(2, 2);
        let i = g.idx(0, 0);
        g.set(i, SIG | VISITED | NEWSIG | REFINED | NEG);
        g.clear_plane_flags();
        assert_eq!(g.get(i), SIG | REFINED | NEG);
    }
}
