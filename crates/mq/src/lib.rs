//! MQ arithmetic coder (ISO/IEC 15444-1 Annex C).
//!
//! The MQ coder is the binary adaptive arithmetic coder at the bottom of
//! JPEG2000's Tier-1 entropy coding stage. Decisions are coded against one
//! of a set of adaptive contexts; each context tracks an index into the
//! 47-row probability state machine ([`QE_TABLE`]) and the current
//! most-probable-symbol (MPS) sense.
//!
//! The implementation follows the Annex C software conventions (also used
//! by the reference implementations the paper parallelizes): 16-bit `A`
//! interval register, 28-bit `C` code register, byte stuffing after `0xFF`,
//! and the optional-trailing-`0xFF` discarding flush.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unused_must_use)]
#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

mod raw;
mod table;

pub use raw::{RawDecoder, RawEncoder};
pub use table::{QeEntry, QE_TABLE};

/// Adaptive state of one coding context: probability-table index plus the
/// current most-probable-symbol sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxState {
    index: u8,
    mps: u8,
}

impl CtxState {
    /// Context starting at table row `index` with MPS = 0.
    ///
    /// # Panics
    /// Panics if `index >= 47`.
    pub fn new(index: u8) -> Self {
        // AUDIT(panic): `index` is a compile-time context-initialization constant
        // chosen by the Tier-1 coder (rows 0, 3 and 46 in practice), never
        // a value read from the codestream.
        assert!(
            (index as usize) < QE_TABLE.len(),
            "invalid Qe index {index}"
        );
        Self { index, mps: 0 }
    }

    /// Current table row.
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Current most probable symbol (0 or 1).
    pub fn mps(&self) -> u8 {
        self.mps
    }
}

impl Default for CtxState {
    /// Fresh context: row 0, MPS 0 (the standard's default initialization
    /// for most Tier-1 contexts).
    fn default() -> Self {
        Self { index: 0, mps: 0 }
    }
}

/// MQ encoder producing one terminated codeword segment.
///
/// Typical use: [`MqEncoder::encode`] decisions, then [`MqEncoder::flush`]
/// to obtain the segment bytes. `pj2k` Tier-1 terminates the coder at every
/// coding pass, so pass boundaries are exact truncation points (see
/// DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct MqEncoder {
    c: u32,
    a: u32,
    ct: i32,
    /// `buf[0]` is a sentinel standing for the byte "before" the stream;
    /// `bp` indexes the current byte `B`.
    buf: Vec<u8>,
    bp: usize,
    /// Decisions coded into this segment (profiling; see
    /// [`MqEncoder::decisions`]).
    decisions: u64,
}

impl Default for MqEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MqEncoder {
    /// Fresh encoder (INITENC).
    // AUDIT(hot): setup-time — one tiny buffer per fresh coder; hot
    // loops use `from_recycled` and never hit this.
    pub fn new() -> Self {
        Self::from_recycled(Vec::with_capacity(1))
    }

    /// Fresh encoder (INITENC) writing into `buf`, whose contents are
    /// discarded but whose capacity is kept. Coding loops that terminate
    /// the coder once per pass (Tier-1 codes thousands of passes per image)
    /// hand the [`MqEncoder::flush`]ed segment back here instead of paying
    /// a heap allocation per pass.
    // AUDIT(hot): amortized — the sentinel push reuses the recycled
    // buffer's capacity (cleared, never shrunk).
    pub fn from_recycled(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.push(0);
        Self {
            c: 0,
            a: 0x8000,
            ct: 12, // sentinel byte is 0x00, not 0xFF
            buf,
            bp: 0,
            decisions: 0,
        }
    }

    /// Encode binary `decision` (0 or 1) in context `ctx`.
    ///
    /// The branch structure puts the overwhelmingly common case — an MPS
    /// coding whose interval stays normalized, a two-register update with
    /// no table transition — first, with a unified select-friendly
    /// conditional-exchange tail covering both the MPS-renormalize and LPS
    /// cases.
    // AUDIT(panic): encoder side — consumes decisions this process generated,
    // never untrusted bytes; `ctx.index` is always a valid table row
    // (CtxState::new asserts it, and every transition assigns an
    // nmps/nlps value from the table, all < 47).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    pub fn encode(&mut self, ctx: &mut CtxState, decision: u8) {
        debug_assert!(decision <= 1);
        self.decisions += 1;
        let row = QE_TABLE[ctx.index as usize];
        let qe = u32::from(row.qe);
        let a = self.a - qe;
        if decision == ctx.mps && a & 0x8000 != 0 {
            // Fast path: MPS, interval stays normalized.
            self.a = a;
            self.c += qe;
            return;
        }
        // Unified conditional-exchange tail, written select-friendly so the
        // compiler can avoid a data-dependent branch (near-random decision
        // streams — refinement bits — mispredict a branchy tail half the
        // time): an MPS keeps the subtracted interval unless it became the
        // smaller one, an LPS takes exactly the opposite choice, so one
        // flag flip covers both Annex C exchange cases.
        let is_lps = decision != ctx.mps;
        let ex = (a < qe) != is_lps;
        self.a = if ex { qe } else { a };
        self.c += if ex { 0 } else { qe };
        ctx.index = if is_lps { row.nlps } else { row.nmps };
        ctx.mps ^= u8::from(is_lps && row.switch);
        self.renorm();
    }

    /// Encode `n` identical `decision`s in context `ctx`. Bit-identical to
    /// `n` [`MqEncoder::encode`] calls, but every renormalization-free MPS
    /// span is applied as one pair of register updates: `k` consecutive
    /// MPS codings that do not renormalize are exactly
    /// `a -= k*qe; c += k*qe` with no table transition, so a run costs
    /// O(renormalizations) instead of O(n). Tier-1's cleanup pass uses
    /// this for the run-length context over stretches of all-quiet stripe
    /// columns.
    // AUDIT(panic): encoder side; table-row invariant as in `encode`. The
    // batched subtraction keeps `a >= 0x8000` by construction of `k`, and
    // `k * qe <= a - 0x8000 < 0x8000` cannot overflow.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn encode_run(&mut self, ctx: &mut CtxState, decision: u8, mut n: usize) {
        debug_assert!(decision <= 1);
        while n > 0 {
            if decision == ctx.mps {
                let qe = u32::from(QE_TABLE[ctx.index as usize].qe);
                // Largest k with a - k*qe still normalized (bit 15 set).
                let k = (((self.a - 0x8000) / qe) as usize).min(n);
                if k > 0 {
                    let kqe = (k as u32) * qe;
                    self.a -= kqe;
                    self.c += kqe;
                    self.decisions += k as u64;
                    n -= k;
                    continue;
                }
            }
            // LPS, or an MPS that renormalizes: one slow decision.
            self.encode(ctx, decision);
            n -= 1;
        }
    }

    /// Number of decisions coded into this segment so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    // AUDIT(panic): encoder side; Annex C register discipline (A < 0x8000 on
    // entry, CT in 1..=12) bounds every shift and decrement.
    #[allow(clippy::arithmetic_side_effects)]
    #[inline]
    fn renorm(&mut self) {
        // Common case: the whole shortfall fits before the next byte
        // boundary — one batched shift, no byte_out, no loop-carried
        // branch. Falls back to the bit-at-a-time Annex C loop exactly
        // when a byte_out would fire mid-shift, so output timing (and the
        // bytes) are unchanged.
        let n = (self.a.leading_zeros() as i32) - 16;
        if n < self.ct {
            self.a <<= n;
            self.c <<= n;
            self.ct -= n;
            return;
        }
        loop {
            self.a <<= 1;
            self.c <<= 1;
            self.ct -= 1;
            if self.ct == 0 {
                self.byte_out();
            }
            if self.a & 0x8000 != 0 {
                break;
            }
        }
    }

    // AUDIT(panic): encoder side; `bp` always indexes a pushed byte (the
    // sentinel guarantees `buf` is never empty).
    // AUDIT(hot): amortized — all pushes append to the recycled segment
    // buffer; steady state reuses capacity (oracle: 0 allocs/block).
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    fn byte_out(&mut self) {
        if self.buf[self.bp] == 0xFF {
            // Stuffing: only 7 bits follow a 0xFF byte.
            self.push((self.c >> 20) as u8);
            self.c &= 0xF_FFFF;
            self.ct = 7;
        } else if self.c < 0x800_0000 {
            self.push((self.c >> 19) as u8);
            self.c &= 0x7_FFFF;
            self.ct = 8;
        } else {
            // Carry into the previous byte.
            self.buf[self.bp] += 1;
            if self.buf[self.bp] == 0xFF {
                self.c &= 0x7FF_FFFF;
                self.push((self.c >> 20) as u8);
                self.c &= 0xF_FFFF;
                self.ct = 7;
            } else {
                self.push((self.c >> 19) as u8);
                self.c &= 0x7_FFFF;
                self.ct = 8;
            }
        }
    }

    // AUDIT(panic): encoder side; `bp` tracks `buf.len() - 1`.
    // AUDIT(hot): amortized — append into recycled segment buffer.
    #[allow(clippy::arithmetic_side_effects)]
    #[inline]
    fn push(&mut self, b: u8) {
        self.buf.push(b);
        self.bp += 1;
    }

    /// Number of bytes the segment would occupy if flushed now (an upper
    /// bound used for conservative rate estimates before termination).
    // AUDIT(panic): encoder side; `bp` is a small in-memory byte count.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn bytes_upper_bound(&self) -> usize {
        // bp bytes committed (minus sentinel) + flush emits at most 2 more.
        self.bp + 2
    }

    /// Terminate the codeword (FLUSH) and return the segment bytes.
    // AUDIT(panic): encoder side; register discipline as in `renorm`, and the
    // sentinel keeps `buf[bp]` in bounds.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn flush(mut self) -> Vec<u8> {
        // SETBITS: maximize C within the final interval.
        let temp = self.c + self.a;
        self.c |= 0xFFFF;
        if self.c >= temp {
            self.c -= 0x8000;
        }
        self.c <<= self.ct;
        self.byte_out();
        self.c <<= self.ct;
        self.byte_out();
        if self.buf[self.bp] != 0xFF {
            self.bp += 1;
        }
        // Bytes 1..bp (exclusive of sentinel; a trailing 0xFF is dropped).
        let end = self.bp.min(self.buf.len());
        self.buf.truncate(end);
        self.buf.remove(0);
        self.buf
    }
}

/// MQ decoder over one terminated codeword segment.
///
/// Reading past the end of the segment feeds `1` bits, per the standard, so
/// truncated-but-terminated segments decode cleanly.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    data: &'a [u8],
    bp: usize,
    c: u32,
    a: u32,
    ct: i32,
}

impl<'a> MqDecoder<'a> {
    /// Initialize over `data` (INITDEC).
    // AUDIT(panic): decoder-reachable. Register fills are shifts of freshly
    // read bytes into an empty 28-bit C; `ct -= 7` runs right after
    // `byte_in` set `ct` to 7 or 8. Untrusted bytes land in register
    // *values* only — `bp` advances by 1 per read and every access goes
    // through the bounds-checked `byte_at`.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn new(data: &'a [u8]) -> Self {
        let mut d = Self {
            data,
            bp: 0,
            c: 0,
            a: 0,
            ct: 0,
        };
        let b0 = d.byte_at(0);
        d.c = u32::from(b0) << 16;
        d.byte_in();
        d.c <<= 7;
        d.ct -= 7;
        d.a = 0x8000;
        d
    }

    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    // AUDIT(panic): decoder-reachable. Every data access is either guarded by
    // `bp < data.len()` on the same branch or goes through the
    // bounds-checked `byte_at` (which feeds 0xFF past the end, per the
    // standard); `bp + 1` cannot overflow because `bp <= data.len()`.
    // C-register additions stay within 28 bits by the Annex C invariants.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    fn byte_in(&mut self) {
        if self.bp < self.data.len() && self.data[self.bp] == 0xFF {
            if self.byte_at(self.bp + 1) > 0x8F {
                // Marker (or end of data): feed 1-bits from now on.
                self.c += 0xFF00;
                self.ct = 8;
            } else {
                self.bp += 1;
                self.c += u32::from(self.byte_at(self.bp)) << 9;
                self.ct = 7;
            }
        } else if self.bp < self.data.len() {
            self.bp += 1;
            self.c += u32::from(self.byte_at(self.bp)) << 8;
            self.ct = 8;
        } else {
            self.c += 0xFF00;
            self.ct = 8;
        }
    }

    /// Decode one binary decision in context `ctx`.
    // AUDIT(panic): decoder-reachable. `ctx.index` is always a valid table
    // row: CtxState construction asserts it and every transition assigns
    // an nmps/nlps entry from the table, all < 47 — untrusted bits select
    // *which* transition fires, never the index value itself. The
    // `a -= qe` / `c -= qe << 16` subtractions are guarded by the Annex C
    // exchange comparisons, and `1 - ctx.mps` has mps ∈ {0, 1}.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    pub fn decode(&mut self, ctx: &mut CtxState) -> u8 {
        let row = &QE_TABLE[ctx.index as usize];
        let qe = u32::from(row.qe);
        self.a -= qe;
        let d;
        if (self.c >> 16) < qe {
            // LPS exchange path.
            if self.a < qe {
                self.a = qe;
                d = ctx.mps;
                ctx.index = row.nmps;
            } else {
                self.a = qe;
                d = 1 - ctx.mps;
                if row.switch {
                    ctx.mps ^= 1;
                }
                ctx.index = row.nlps;
            }
            self.renorm();
        } else {
            self.c -= qe << 16;
            if self.a & 0x8000 == 0 {
                // MPS exchange path.
                if self.a < qe {
                    d = 1 - ctx.mps;
                    if row.switch {
                        ctx.mps ^= 1;
                    }
                    ctx.index = row.nlps;
                } else {
                    d = ctx.mps;
                    ctx.index = row.nmps;
                }
                self.renorm();
            } else {
                d = ctx.mps;
            }
        }
        d
    }

    // AUDIT(panic): decoder-reachable. On entry `0 < a < 0x8000` (a is either
    // a table Qe, all non-zero, or `a - qe` with `a >= 0x8000 > qe`), so the
    // shortfall `n` is in 1..=15. `byte_in` leaves `ct` at 7 or 8, so each
    // round shifts `k = min(n, ct) >= 1` bits and `ct - k`, `n - k` cannot
    // wrap. The refill fires exactly where the Annex C bit-at-a-time loop
    // fires it — before the first shift that finds `ct == 0` — so the C
    // register and `bp` see the same bytes at the same shift positions
    // (overflow of high garbage bits is masked off by the exchange
    // comparisons). Untrusted bytes reach register *values* only.
    #[allow(clippy::arithmetic_side_effects)]
    #[inline]
    fn renorm(&mut self) {
        let mut n = self.a.leading_zeros() as i32 - 16;
        loop {
            if self.ct == 0 {
                self.byte_in();
            }
            let k = n.min(self.ct);
            self.a <<= k;
            self.c <<= k;
            self.ct -= k;
            n -= k;
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn roundtrip(decisions: &[(usize, u8)], n_ctx: usize) {
        let mut enc_ctx = vec![CtxState::default(); n_ctx];
        let mut enc = MqEncoder::new();
        for &(ctx, d) in decisions {
            enc.encode(&mut enc_ctx[ctx], d);
        }
        let bytes = enc.flush();
        let mut dec_ctx = vec![CtxState::default(); n_ctx];
        let mut dec = MqDecoder::new(&bytes);
        for (i, &(ctx, d)) in decisions.iter().enumerate() {
            let got = dec.decode(&mut dec_ctx[ctx]);
            assert_eq!(got, d, "decision {i} (ctx {ctx}) of {}", decisions.len());
        }
    }

    #[test]
    fn empty_stream_flushes() {
        let enc = MqEncoder::new();
        let bytes = enc.flush();
        // Flushing an empty codeword yields a tiny, valid segment.
        assert!(bytes.len() <= 3, "{bytes:?}");
    }

    #[test]
    fn all_zeros_roundtrip() {
        let decisions: Vec<(usize, u8)> = (0..1000).map(|_| (0, 0)).collect();
        roundtrip(&decisions, 1);
    }

    #[test]
    fn all_ones_roundtrip() {
        let decisions: Vec<(usize, u8)> = (0..1000).map(|_| (0, 1)).collect();
        roundtrip(&decisions, 1);
    }

    #[test]
    fn alternating_roundtrip() {
        let decisions: Vec<(usize, u8)> = (0..2000).map(|i| (0, (i % 2) as u8)).collect();
        roundtrip(&decisions, 1);
    }

    #[test]
    fn multi_context_roundtrip() {
        let decisions: Vec<(usize, u8)> = (0..5000)
            .map(|i| ((i * 7) % 19, ((i * i + i / 3) % 2) as u8))
            .collect();
        roundtrip(&decisions, 19);
    }

    #[test]
    fn pseudorandom_streams_roundtrip() {
        // Deterministic pseudo-random decision streams with biased
        // distributions (the adaptive states must track).
        let mut rng = pj2k_testkit::Rng::new(0x1234_5678);
        for bias in [1u64, 3, 7, 15, 63] {
            let decisions = rng.vec(3000, |r| (r.range(0..5), u8::from(r.range(0..=bias) == 0)));
            roundtrip(&decisions, 5);
        }
    }

    #[test]
    fn encode_run_is_bit_identical_to_repeated_encode() {
        // encode_run must be a pure speedup: same bytes, same ctx state,
        // same decision count — across run lengths, both polarities, and
        // contexts in every adaptation state a warmup can reach.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            // Random warmup, then a run, then a random tail.
            let warmup: Vec<u8> = (0..(next() % 64)).map(|_| (next() % 2) as u8).collect();
            let run_bit = (next() % 2) as u8;
            let run_len = (next() % 300) as usize;
            let tail: Vec<u8> = (0..(next() % 32)).map(|_| (next() % 2) as u8).collect();

            let mut ctx_a = CtxState::default();
            let mut enc_a = MqEncoder::new();
            let mut ctx_b = CtxState::default();
            let mut enc_b = MqEncoder::new();
            for &d in &warmup {
                enc_a.encode(&mut ctx_a, d);
                enc_b.encode(&mut ctx_b, d);
            }
            for _ in 0..run_len {
                enc_a.encode(&mut ctx_a, run_bit);
            }
            enc_b.encode_run(&mut ctx_b, run_bit, run_len);
            for &d in &tail {
                enc_a.encode(&mut ctx_a, d);
                enc_b.encode(&mut ctx_b, d);
            }
            assert_eq!(ctx_a, ctx_b, "trial {trial}: ctx state diverged");
            assert_eq!(
                enc_a.decisions(),
                enc_b.decisions(),
                "trial {trial}: decision count diverged"
            );
            assert_eq!(
                enc_a.flush(),
                enc_b.flush(),
                "trial {trial}: bytes diverged (run_bit={run_bit} run_len={run_len})"
            );
        }
    }

    #[test]
    fn encode_run_zero_length_is_noop() {
        let mut ctx = CtxState::default();
        let mut enc = MqEncoder::new();
        enc.encode_run(&mut ctx, 0, 0);
        enc.encode_run(&mut ctx, 1, 0);
        assert_eq!(enc.decisions(), 0);
        let baseline = MqEncoder::new().flush();
        assert_eq!(enc.flush(), baseline);
    }

    #[test]
    fn compresses_biased_stream() {
        // 10k heavily biased decisions should code far below 10k bits.
        let mut enc = MqEncoder::new();
        let mut ctx = CtxState::default();
        for i in 0..10_000 {
            enc.encode(&mut ctx, u8::from(i % 100 == 0));
        }
        let bytes = enc.flush();
        assert!(
            bytes.len() < 300,
            "biased stream should compress, got {}",
            bytes.len()
        );
    }

    #[test]
    fn random_stream_does_not_compress_much() {
        let mut rng = pj2k_testkit::Rng::new(0x9E37_79B9);
        let mut enc = MqEncoder::new();
        let mut ctx = CtxState::default();
        let n = 8000;
        for _ in 0..n {
            enc.encode(&mut ctx, u8::from(rng.bool()));
        }
        let bytes = enc.flush();
        assert!(
            bytes.len() * 8 > n * 9 / 10,
            "random stream: {} bytes for {n} bits",
            bytes.len()
        );
    }

    #[test]
    fn bytes_upper_bound_is_an_upper_bound() {
        let mut enc = MqEncoder::new();
        let mut ctx = CtxState::default();
        for i in 0..777 {
            enc.encode(&mut ctx, (i % 3 == 0) as u8);
        }
        let bound = enc.bytes_upper_bound();
        let actual = enc.flush().len();
        assert!(actual <= bound, "{actual} > {bound}");
    }

    #[test]
    fn stuffing_never_produces_ff_above_8f() {
        // After any 0xFF, the next byte must be <= 0x8F inside a segment
        // (marker range is reserved).
        let mut state = 7u64;
        let mut enc = MqEncoder::new();
        let mut ctxs = [CtxState::default(); 3];
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let c = (state >> 60) as usize % 3;
            enc.encode(&mut ctxs[c], ((state >> 31) & 1) as u8);
        }
        let bytes = enc.flush();
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                assert!(pair[1] <= 0x8F, "marker emitted inside segment: {pair:?}");
            }
        }
    }

    #[test]
    fn segment_decoding_is_independent_of_trailing_garbage() {
        // Termination must protect the decoded prefix even if extra bytes
        // follow (packets concatenate segments).
        let decisions: Vec<(usize, u8)> = (0..500).map(|i| (0, (i % 5 == 0) as u8)).collect();
        let mut ctx = [CtxState::default()];
        let mut enc = MqEncoder::new();
        for &(c, d) in &decisions {
            enc.encode(&mut ctx[c], d);
        }
        let bytes = enc.flush();
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        let mut d1 = MqDecoder::new(&bytes);
        let mut d2 = MqDecoder::new(&extended[..bytes.len()]);
        let mut c1 = [CtxState::default()];
        let mut c2 = [CtxState::default()];
        for &(c, d) in &decisions {
            assert_eq!(d1.decode(&mut c1[c]), d);
            assert_eq!(d2.decode(&mut c2[c]), d);
        }
    }

    /// The Annex C decoder exactly as it stood before `renorm` was batched:
    /// same DECODE / exchange logic, RENORMD one bit at a time.
    fn decode_bit_at_a_time(d: &mut MqDecoder<'_>, ctx: &mut CtxState) -> u8 {
        let row = &QE_TABLE[ctx.index as usize];
        let qe = u32::from(row.qe);
        d.a -= qe;
        let lps = |ctx: &mut CtxState| {
            let bit = 1 - ctx.mps;
            if row.switch {
                ctx.mps ^= 1;
            }
            ctx.index = row.nlps;
            bit
        };
        let mps = |ctx: &mut CtxState| {
            ctx.index = row.nmps;
            ctx.mps
        };
        let bit = if (d.c >> 16) < qe {
            let bit = if d.a < qe { mps(ctx) } else { lps(ctx) };
            d.a = qe;
            bit
        } else {
            d.c -= qe << 16;
            if d.a & 0x8000 != 0 {
                return ctx.mps;
            }
            if d.a < qe {
                lps(ctx)
            } else {
                mps(ctx)
            }
        };
        loop {
            if d.ct == 0 {
                d.byte_in();
            }
            d.a <<= 1;
            d.c <<= 1;
            d.ct -= 1;
            if d.a & 0x8000 != 0 {
                break;
            }
        }
        bit
    }

    /// Decode `n` decisions from `bytes` through both renormalizations in
    /// lockstep: same decision, same registers, same bytes consumed after
    /// every single step.
    fn assert_renorm_lockstep(bytes: &[u8], n: usize, n_ctx: usize, what: &str) {
        let mut fast = MqDecoder::new(bytes);
        let mut slow = MqDecoder::new(bytes);
        let mut fast_ctx = vec![CtxState::default(); n_ctx];
        let mut slow_ctx = vec![CtxState::default(); n_ctx];
        for i in 0..n {
            let c = (i * 7) % n_ctx;
            let got = fast.decode(&mut fast_ctx[c]);
            let want = decode_bit_at_a_time(&mut slow, &mut slow_ctx[c]);
            assert_eq!(got, want, "{what}: decision {i}");
            assert_eq!(
                (fast.a, fast.c, fast.ct, fast.bp),
                (slow.a, slow.c, slow.ct, slow.bp),
                "{what}: registers / bytes consumed after decision {i}"
            );
            assert_eq!(
                fast_ctx[c], slow_ctx[c],
                "{what}: context after decision {i}"
            );
        }
    }

    #[test]
    fn batched_renorm_matches_bit_at_a_time_loop() {
        // The seeded streams of the roundtrip tests above, encoded once.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut streams: Vec<Vec<(usize, u8)>> = vec![(0..5000)
            .map(|i| ((i * 7) % 19, ((i * i + i / 3) % 2) as u8))
            .collect()];
        for bias in [1u64, 3, 7, 15, 63] {
            streams.push(
                (0..3000)
                    .map(|_| {
                        let r = next();
                        ((r % 5) as usize, u8::from(r % (bias + 1) == 0))
                    })
                    .collect(),
            );
        }
        for (si, stream) in streams.iter().enumerate() {
            let mut ctx = [CtxState::default(); 19];
            let mut enc = MqEncoder::new();
            for &(c, d) in stream {
                enc.encode(&mut ctx[c], d);
            }
            let bytes = enc.flush();
            // Past the coded decisions the decoder runs on fed 1-bits.
            assert_renorm_lockstep(&bytes, stream.len() + 200, 19, &format!("stream {si}"));
            // Mid-byte truncation, and tails that end in a bare 0xFF or in
            // a marker-range pair: the refill must switch to 1-bit feeding
            // at the same shift position either way.
            for cut in [0, 1, 2, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
                let head = &bytes[..cut.min(bytes.len())];
                assert_renorm_lockstep(head, 600, 19, &format!("stream {si} cut {cut}"));
                for tail in [
                    &[0xFFu8][..],
                    &[0xFF, 0x90],
                    &[0xFF, 0x8F, 0x12],
                    &[0xFF, 0xFF],
                ] {
                    let mut seg = head.to_vec();
                    seg.extend_from_slice(tail);
                    assert_renorm_lockstep(
                        &seg,
                        600,
                        19,
                        &format!("stream {si} cut {cut} tail {tail:02X?}"),
                    );
                }
            }
        }
        // Pure garbage, including runs of stuffed and marker bytes.
        for seed in 0..40u64 {
            let bytes: Vec<u8> =
                pj2k_testkit::Rng::new(seed).vec(seed as usize % 50, |r| match r.range(0..5) {
                    0 => 0xFF,
                    1 => 0x8F,
                    _ => r.range(..),
                });
            assert_renorm_lockstep(&bytes, 800, 5, &format!("garbage {seed}"));
        }
    }

    #[test]
    fn context_state_accessors() {
        let ctx = CtxState::new(46);
        assert_eq!(ctx.index(), 46);
        assert_eq!(ctx.mps(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid Qe index")]
    fn invalid_index_panics() {
        let _ = CtxState::new(47);
    }
}
