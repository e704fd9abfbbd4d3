//! Tier-1 block encoder.

use crate::bitplane::Tier1Engine;
use crate::context::BandCtx;
use crate::MAX_PLANES;
use pj2k_mq::{CtxState, MqEncoder, RawEncoder};

/// The optional Tier-1 coding style (an ISO 15444-1 COD flag).
///
/// Off by default, the configuration the paper times. Bypass changes the
/// produced bitstream, so `pj2k-core` signals it in the codestream header.
/// ISO 15444-1's stripe-causal and per-pass context-reset styles serve
/// hardware decoders and error resilience; no decoder outside this codec
/// reads its streams and neither makes coding faster, so they are not
/// implemented (DESIGN.md §5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tier1Options {
    /// Selective arithmetic bypass ("lazy" coding): from the fifth
    /// most-significant bit-plane on, significance-propagation and
    /// refinement passes emit raw bits instead of MQ decisions — faster,
    /// slightly larger. Cleanup passes stay MQ-coded.
    pub bypass: bool,
}

/// Whether `plane` of a block with `msb_planes` coded planes is in the
/// bypass region (fifth most-significant plane and below).
#[inline]
pub(crate) fn in_bypass_region(plane: u8, msb_planes: u8) -> bool {
    plane + 5 <= msb_planes
}

/// The per-pass entropy sink: MQ codeword or raw segment.
pub(crate) enum Sink {
    Mq(MqEncoder),
    Raw(RawEncoder),
}

impl Sink {
    #[inline]
    pub(crate) fn decision(&mut self, ctx: &mut CtxState, bit: u8) {
        match self {
            Sink::Mq(m) => m.encode(ctx, bit),
            Sink::Raw(r) => r.put(bit),
        }
    }

    /// Code the same decision `n` times in this context — bit-identical to
    /// `n` [`Sink::decision`] calls, but the MQ side batches renorm-free
    /// MPS stretches into O(1) register updates per renormalization.
    #[inline]
    pub(crate) fn run(&mut self, ctx: &mut CtxState, bit: u8, n: usize) {
        match self {
            Sink::Mq(m) => m.encode_run(ctx, bit, n),
            Sink::Raw(r) => {
                for _ in 0..n {
                    r.put(bit);
                }
            }
        }
    }

    /// Sign coding: MQ uses the context/XOR scheme, raw emits the sign bit.
    #[inline]
    pub(crate) fn sign(&mut self, ctx: &mut CtxState, xor: u8, neg: u8) {
        match self {
            Sink::Mq(m) => m.encode(ctx, neg ^ xor),
            Sink::Raw(r) => r.put(neg),
        }
    }

    /// Decisions (MQ) or raw bits coded into the current segment.
    #[inline]
    pub(crate) fn decisions(&self) -> u64 {
        match self {
            Sink::Mq(m) => m.decisions(),
            Sink::Raw(r) => r.decisions(),
        }
    }

    pub(crate) fn flush(self) -> Vec<u8> {
        match self {
            Sink::Mq(m) => m.flush(),
            Sink::Raw(r) => r.flush(),
        }
    }
}

/// Per-pass-kind time and decision-count breakdown of Tier-1 coding,
/// accumulated across every block fed through a profiled entry point
/// ([`BlockCoder::encode_scratch_profiled_into`]).
///
/// Seconds measure the pass body only (context formation + entropy
/// coding); decision counts are exact — MQ decisions or raw bits emitted
/// into that pass's segment. `bench_tier1` uses this for the per-pass and
/// per-component rows of its report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tier1Profile {
    /// Wall-clock seconds spent in significance-propagation passes.
    pub sig_prop_secs: f64,
    /// Wall-clock seconds spent in magnitude-refinement passes.
    pub mag_ref_secs: f64,
    /// Wall-clock seconds spent in cleanup passes.
    pub cleanup_secs: f64,
    /// Decisions/bits coded by significance-propagation passes.
    pub sig_prop_decisions: u64,
    /// Decisions/bits coded by magnitude-refinement passes.
    pub mag_ref_decisions: u64,
    /// Decisions/bits coded by cleanup passes.
    pub cleanup_decisions: u64,
}

impl Tier1Profile {
    /// Total profiled coding time.
    pub fn total_secs(&self) -> f64 {
        self.sig_prop_secs + self.mag_ref_secs + self.cleanup_secs
    }

    /// Total decisions/bits coded.
    pub fn total_decisions(&self) -> u64 {
        self.sig_prop_decisions
            .saturating_add(self.mag_ref_decisions)
            .saturating_add(self.cleanup_decisions)
    }
}

/// Which of the three coding passes produced a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Significance propagation (predicts new significance near existing).
    SigProp,
    /// Magnitude refinement (next bit of already-significant coefficients).
    MagRef,
    /// Cleanup (everything the other passes skipped; run-length coded).
    Cleanup,
}

/// Rate/distortion record of one coding pass.
#[derive(Debug, Clone, Copy)]
pub struct PassInfo {
    /// Pass type.
    pub kind: PassKind,
    /// Bit-plane index this pass coded (0 = LSB).
    pub plane: u8,
    /// Length in bytes of this pass's terminated MQ segment.
    pub len: usize,
    /// Squared-error reduction contributed by this pass, in units of the
    /// block's integer coefficient domain (scale by the subband's
    /// `(step * gain)^2` for pixel-domain MSE).
    pub delta_distortion: f64,
}

/// A fully coded code-block: per-pass terminated segments plus the
/// rate/distortion bookkeeping PCRD needs.
///
/// `Default` is the empty 0×0 block; it exists so callers can keep a pool
/// of `EncodedBlock`s and refill them through
/// [`BlockCoder::encode_scratch_into`] without per-block allocations.
#[derive(Debug, Clone, Default)]
pub struct EncodedBlock {
    /// Block width in coefficients.
    pub width: usize,
    /// Block height in coefficients.
    pub height: usize,
    /// Number of coded magnitude bit-planes (0 = all-zero block).
    pub msb_planes: u8,
    /// Per-pass metadata, in coding order.
    pub passes: Vec<PassInfo>,
    /// Concatenated pass segments (pass `i` occupies `passes[..i]`'s summed
    /// lengths onward).
    pub data: Vec<u8>,
    /// Squared error of the all-zero reconstruction (sum of squared
    /// magnitudes), same units as `delta_distortion`.
    pub initial_distortion: f64,
}

impl EncodedBlock {
    /// Cumulative byte count after including the first `n` passes.
    pub fn rate_after(&self, n: usize) -> usize {
        self.passes[..n].iter().map(|p| p.len).sum()
    }

    /// Remaining squared error after including the first `n` passes.
    pub fn distortion_after(&self, n: usize) -> f64 {
        self.initial_distortion
            - self.passes[..n]
                .iter()
                .map(|p| p.delta_distortion)
                .sum::<f64>()
    }

    /// The terminated segment of pass `pass` (a slice of `data`).
    pub fn segment(&self, pass: usize) -> &[u8] {
        let start = self.rate_after(pass);
        let end = start + self.passes[pass].len;
        &self.data[start..end]
    }
}

/// Distortion reduction when a coefficient of magnitude `m` becomes
/// significant at `plane`: error drops from `m^2` to `(m - r)^2` with the
/// midpoint reconstruction `r = base + 2^plane / 2`.
#[inline]
pub(crate) fn sig_distortion_gain(m: u32, plane: u8) -> f64 {
    let base = (m >> plane) << plane;
    let r = f64::from(base) + half_step(plane);
    let e0 = f64::from(m) * f64::from(m);
    let e1 = (f64::from(m) - r) * (f64::from(m) - r);
    e0 - e1
}

/// Distortion reduction when a significant coefficient is refined at
/// `plane`.
#[inline]
pub(crate) fn ref_distortion_gain(m: u32, plane: u8) -> f64 {
    let base0 = (m >> (plane + 1)) << (plane + 1);
    let r0 = f64::from(base0) + half_step(plane + 1);
    let base1 = (m >> plane) << plane;
    let r1 = f64::from(base1) + half_step(plane);
    let e0 = (f64::from(m) - r0) * (f64::from(m) - r0);
    let e1 = (f64::from(m) - r1) * (f64::from(m) - r1);
    e0 - e1
}

/// Decoder-side midpoint offset for magnitudes known down to `plane`.
#[inline]
pub(crate) fn half_step(plane: u8) -> f64 {
    if plane == 0 {
        0.0
    } else {
        f64::from(1u32 << (plane - 1))
    }
}

/// Encode one code-block of signed quantized coefficients (row-major,
/// `w * h` entries) from subband class `band` under the given coding
/// style, through a fresh [`BlockCoder`]. Workers coding many blocks keep
/// one coder instead and stage each block in
/// [`BlockCoder::coeff_scratch`].
///
/// # Panics
/// Panics if `coeffs.len() != w * h`, the block is empty, or a magnitude
/// needs more than [`MAX_PLANES`] bit-planes.
// AUDIT(hot): one-shot convenience — a cold coder per call; the codec's
// workers stage blocks into a warm coder instead.
pub fn encode_block(
    coeffs: &[i32],
    w: usize,
    h: usize,
    band: BandCtx,
    opts: Tier1Options,
) -> EncodedBlock {
    let mut coder = BlockCoder::new();
    coder.coeff_scratch().extend_from_slice(coeffs);
    coder.encode_scratch(w, h, band, opts)
}

/// Reusable Tier-1 block-coding scratch arena.
///
/// One `BlockCoder` owns every buffer the block-coding loop needs — the
/// coefficient staging buffer, the magnitude plane, the packed word arrays
/// of the bitplane engine, and the MQ/raw byte buffer that is recycled from
/// each terminated pass into the next. Coding a block through a warm coder
/// with [`BlockCoder::encode_scratch_into`] into a recycled
/// [`EncodedBlock`] allocates nothing at steady state; the value-returning
/// entry point costs only the returned block's own two buffers.
///
/// Workers in a parallel Tier-1 stage keep one coder each and feed it
/// every block they claim; the produced bitstream is bit-identical to the
/// single-use path.
pub struct BlockCoder {
    mag: Vec<u32>,
    bp: crate::packed::BitplaneScratch,
    coeffs: Vec<i32>,
    seg_buf: Vec<u8>,
    /// The reference engine's flag grid, present when the coder is pinned
    /// to [`Tier1Engine::Reference`].
    #[cfg(feature = "oracle")]
    reference: Option<crate::state::FlagGrid>,
}

impl Default for BlockCoder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCoder {
    /// Fresh coder with empty scratch buffers.
    pub fn new() -> Self {
        Self::with_engine(Tier1Engine::default())
    }

    /// Fresh coder running `engine`.
    // AUDIT(hot): setup-time — empty vectors; per-block work recycles
    // them via clear/resize.
    pub fn with_engine(engine: Tier1Engine) -> Self {
        // The product build has one engine.
        #[cfg(not(feature = "oracle"))]
        let Tier1Engine::Bitplane = engine;
        Self {
            mag: Vec::new(),
            bp: crate::packed::BitplaneScratch::new(),
            coeffs: Vec::new(),
            seg_buf: Vec::new(),
            #[cfg(feature = "oracle")]
            reference: (engine == Tier1Engine::Reference).then(crate::state::FlagGrid::default),
        }
    }

    /// Cleared coefficient staging buffer, for callers that assemble the
    /// block's coefficients themselves (e.g. strided extraction from a
    /// subband plane) before handing them to [`BlockCoder::encode_scratch`].
    pub fn coeff_scratch(&mut self) -> &mut Vec<i32> {
        self.coeffs.clear();
        &mut self.coeffs
    }

    /// Encode the block currently staged in [`BlockCoder::coeff_scratch`]:
    /// `w * h` signed quantized coefficients (row-major) from subband class
    /// `band` under the given coding style.
    ///
    /// # Panics
    /// Panics if the staged buffer does not hold `w * h` coefficients, the
    /// block is empty, or a magnitude needs more than [`MAX_PLANES`]
    /// bit-planes.
    pub fn encode_scratch(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        opts: Tier1Options,
    ) -> EncodedBlock {
        let mut out = EncodedBlock::default();
        self.encode_scratch_into(w, h, band, opts, 0, &mut out);
        out
    }

    /// As [`BlockCoder::encode_scratch`], refilling `out` (any previous
    /// contents are discarded, capacity kept) and stopping above bit-plane
    /// `floor`: only planes `floor..msb_planes` are coded (none when
    /// `floor >= msb_planes`; `floor == 0` codes every plane). Every pass is
    /// its own terminated segment, so the result is byte for byte the
    /// prefix of the full encode that ends with the cleanup pass of plane
    /// `floor` — same `msb_planes`, `initial_distortion`, pass lengths and
    /// distortion gains. A rate-targeted encoder uses it to skip the planes
    /// PCRD is certain to discard.
    ///
    /// # Panics
    /// As [`BlockCoder::encode_scratch`].
    pub fn encode_scratch_into(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        opts: Tier1Options,
        floor: u8,
        out: &mut EncodedBlock,
    ) {
        self.encode_inner(w, h, band, opts, floor, None, out);
    }

    /// As [`BlockCoder::encode_scratch_into`] with floor 0, additionally
    /// accumulating a per-pass time/decision breakdown into `profile`.
    pub fn encode_scratch_profiled_into(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        opts: Tier1Options,
        profile: &mut Tier1Profile,
        out: &mut EncodedBlock,
    ) {
        self.encode_inner(w, h, band, opts, 0, Some(profile), out);
    }

    /// Shared setup (magnitudes, plane count, distortion baseline) of the
    /// staged block, then the engine's pass loop.
    #[allow(clippy::too_many_arguments)]
    fn encode_inner(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        opts: Tier1Options,
        floor: u8,
        profile: Option<&mut Tier1Profile>,
        out: &mut EncodedBlock,
    ) {
        let coeffs = &self.coeffs;
        assert!(w > 0 && h > 0, "empty code-block"); // AUDIT(hot): per-block precondition, O(1) at entry.
        assert_eq!(coeffs.len(), w * h, "coefficient count mismatch"); // AUDIT(hot): per-block precondition.
        self.mag.clear();
        self.mag.resize(w * h, 0); // AUDIT(hot): amortized — recycled magnitude plane.
        let mut max_mag = 0u32;
        let mut initial_distortion = 0.0f64;
        for (k, &c) in coeffs.iter().enumerate() {
            let m = c.unsigned_abs();
            self.mag[k] = m;
            max_mag = max_mag.max(m);
            initial_distortion += f64::from(m) * f64::from(m);
        }
        let msb_planes = (32 - max_mag.leading_zeros()) as u8;
        assert!(msb_planes <= MAX_PLANES, "coefficient magnitude too large"); // AUDIT(hot): per-block contract check.
        out.width = w;
        out.height = h;
        out.msb_planes = msb_planes;
        out.initial_distortion = initial_distortion;
        out.passes.clear();
        out.data.clear();
        if floor >= msb_planes {
            return; // all-zero block, or every plane is below the floor
        }
        #[cfg(feature = "oracle")]
        if let Some(grid) = &mut self.reference {
            return crate::reference::encode_block_into(
                grid,
                &self.mag,
                coeffs,
                w,
                h,
                band,
                opts,
                msb_planes,
                floor,
                &mut self.seg_buf,
                profile,
                out,
            );
        }
        crate::bitplane::encode_block_into(
            &mut self.bp,
            &self.mag,
            coeffs,
            w,
            h,
            band,
            opts,
            msb_planes,
            floor,
            &mut self.seg_buf,
            profile,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_block_codes_to_nothing() {
        let blk = encode_block(&[0; 16], 4, 4, BandCtx::LlLh, Tier1Options::default());
        assert_eq!(blk.msb_planes, 0);
        assert!(blk.passes.is_empty());
        assert!(blk.data.is_empty());
        assert_eq!(blk.initial_distortion, 0.0);
    }

    #[test]
    fn pass_structure_matches_planes() {
        // Max magnitude 5 -> 3 planes -> 1 + 3*2 = 7 passes.
        let mut coeffs = vec![0i32; 64];
        coeffs[10] = 5;
        coeffs[30] = -3;
        let blk = encode_block(&coeffs, 8, 8, BandCtx::Hh, Tier1Options::default());
        assert_eq!(blk.msb_planes, 3);
        assert_eq!(blk.passes.len(), 7);
        assert_eq!(blk.passes[0].kind, PassKind::Cleanup);
        assert_eq!(blk.passes[0].plane, 2);
        assert_eq!(blk.passes[1].kind, PassKind::SigProp);
        assert_eq!(blk.passes[2].kind, PassKind::MagRef);
        assert_eq!(blk.passes[3].kind, PassKind::Cleanup);
        assert_eq!(blk.passes[6].plane, 0);
    }

    #[test]
    fn rates_are_cumulative_and_match_data() {
        let coeffs: Vec<i32> = (0..256).map(|i| ((i * 17) % 64) - 32).collect();
        let blk = encode_block(&coeffs, 16, 16, BandCtx::LlLh, Tier1Options::default());
        let total: usize = blk.passes.iter().map(|p| p.len).sum();
        assert_eq!(total, blk.data.len());
        assert_eq!(blk.rate_after(blk.passes.len()), blk.data.len());
        assert_eq!(blk.rate_after(0), 0);
    }

    #[test]
    fn distortion_decreases_monotonically_to_zero() {
        let coeffs: Vec<i32> = (0..64).map(|i| (i - 32) * 3).collect();
        let blk = encode_block(&coeffs, 8, 8, BandCtx::Hl, Tier1Options::default());
        let mut prev = blk.initial_distortion;
        for n in 1..=blk.passes.len() {
            let d = blk.distortion_after(n);
            assert!(d <= prev + 1e-9, "pass {n}: {d} > {prev}");
            prev = d;
        }
        // All passes included => full precision => zero residual error.
        assert!(prev.abs() < 1e-6, "final distortion {prev}");
    }

    #[test]
    fn distortion_gain_helpers() {
        // m=5, plane 2: base=4, r=4+2=6, e0=25, e1=1 -> gain 24.
        assert!((sig_distortion_gain(5, 2) - 24.0).abs() < 1e-12);
        // m=5 refined at plane 0: r0=4+1=5? base0=(5>>1)<<1=4, half(1)=1 -> r0=5, e0=0
        // r1=5+0=5, e1=0 -> gain 0.
        assert!((ref_distortion_gain(5, 0) - 0.0).abs() < 1e-12);
        // m=7 refined at plane 1: base0=4,r0=4+2=6,e0=1; base1=6,r1=6+1=7,e1=0 -> 1.
        assert!((ref_distortion_gain(7, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_coefficient_block() {
        let blk = encode_block(&[-9], 1, 1, BandCtx::LlLh, Tier1Options::default());
        assert_eq!(blk.msb_planes, 4);
        assert_eq!(blk.passes.len(), 10);
        assert!(blk.initial_distortion == 81.0);
    }

    /// One coder reused across blocks of different sizes, bands, and
    /// coding styles must reproduce the single-use encoder bit for bit —
    /// the scratch arenas are an optimization, never a semantic change.
    #[test]
    fn reused_coder_matches_fresh_encoder() {
        let blocks: Vec<(Vec<i32>, usize, usize, BandCtx)> = vec![
            (
                (0..64).map(|i| ((i * 29) % 41) - 20).collect(),
                8,
                8,
                BandCtx::LlLh,
            ),
            (vec![0; 12], 4, 3, BandCtx::Hh), // all-zero block between real ones
            (
                (0..256).map(|i| ((i * 7919) % 513) - 256).collect(),
                16,
                16,
                BandCtx::Hl,
            ),
            (vec![-9], 1, 1, BandCtx::LlLh),
            (
                (0..60)
                    .map(|i| if i % 5 == 0 { 1000 - i } else { 0 })
                    .collect(),
                12,
                5,
                BandCtx::Hh,
            ),
        ];
        let styles = [Tier1Options::default(), Tier1Options { bypass: true }];
        let mut coder = BlockCoder::new();
        let mut reused = EncodedBlock::default();
        for opts in styles {
            for (coeffs, w, h, band) in &blocks {
                let fresh = encode_block(coeffs, *w, *h, *band, opts);
                coder.coeff_scratch().extend_from_slice(coeffs);
                coder.encode_scratch_into(*w, *h, *band, opts, 0, &mut reused);
                assert_eq!(reused.data, fresh.data, "{opts:?} {w}x{h}");
                assert_eq!(reused.msb_planes, fresh.msb_planes);
                assert_eq!(reused.passes.len(), fresh.passes.len());
                for (a, b) in reused.passes.iter().zip(&fresh.passes) {
                    assert_eq!(a.kind, b.kind);
                    assert_eq!(a.plane, b.plane);
                    assert_eq!(a.len, b.len);
                    assert!((a.delta_distortion - b.delta_distortion).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn segments_are_individually_addressable() {
        let coeffs: Vec<i32> = (0..64).map(|i| if i % 7 == 0 { 12 } else { 0 }).collect();
        let blk = encode_block(&coeffs, 8, 8, BandCtx::Hh, Tier1Options::default());
        let mut reassembled = Vec::new();
        for p in 0..blk.passes.len() {
            reassembled.extend_from_slice(blk.segment(p));
        }
        assert_eq!(reassembled, blk.data);
    }
}
