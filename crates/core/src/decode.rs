//! The decoding pipeline (mirror of [`crate::encode`]).
//!
//! Everything in this module runs against untrusted bytes (DESIGN.md §9):
//! parse failures carry marker/offset context through the structured
//! [`CodecError`] hierarchy, every allocation derived from header fields is
//! budget-capped *before* it happens, and all body reads are bounds-checked
//! `get`s — a malformed or truncated stream must yield `Err`, never a
//! panic or an out-of-memory abort.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::blocks::{band_ctx, blocks_of, grid_dims, indexed_resolutions};
use crate::config::{DecodeStagePolicy, ParallelMode, StageOverlap};
use crate::quant::{band_step, dequantize_plane, dequantize_value};
use crate::report::stage;
use pj2k_dwt::{
    inverse_53_level, inverse_53_with, inverse_97_level, inverse_97_with, Decomposition, DwtStats,
    LiftingMode, SimdMode, Subband, VerticalStrategy, Wavelet,
};
use pj2k_ebcot::{BlockDecoderScratch, Tier1Options};
use pj2k_image::tile::TileGrid;
use pj2k_image::transform::{dc_level_shift_inverse, ict_inverse, rct_inverse};
use pj2k_image::{Image, Plane};
use pj2k_parutil::{
    pipeline_overlap_with_state, pool_map_with_state, Exec, PipelineQueue, Schedule, SendPtr,
    StageTimes,
};
use pj2k_tier2::codestream::{self, MarkerReader, ParseError, PayloadReader};
use pj2k_tier2::{decode_packet, PacketError, PrecinctState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Largest number of code-blocks a single tile may instantiate decoder
/// state for. Per-block state (tag trees, Lblock counters, segment lists)
/// costs on the order of 100 bytes, so this bounds adversarial headers —
/// tiny streams claiming huge dimensions with minimal code-blocks — to a
/// modest worst-case allocation instead of multiple GiB.
const MAX_BLOCKS_PER_TILE: usize = 1 << 20;

/// Decoder-side failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Malformed marker-segment container; carries the failing marker code
    /// and byte offset.
    Codestream(ParseError),
    /// Malformed packet header inside a tile body.
    Packet(PacketError),
    /// Inconsistent tier-1 block parameters.
    Tier1(pj2k_ebcot::DecodeError),
    /// Malformed tile body outside the marker layer.
    Parse(String),
    /// Structurally valid but semantically impossible stream.
    Invalid(String),
    /// Failed to acquire process resources (e.g. thread-pool
    /// construction) — a property of the host environment and the
    /// caller's configuration, never of the input bytes.
    Resource(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Codestream(e) => write!(f, "codestream error: {e}"),
            CodecError::Packet(e) => write!(f, "packet error: {e}"),
            CodecError::Tier1(e) => write!(f, "tier-1 error: {e}"),
            CodecError::Parse(m) => write!(f, "parse error: {m}"),
            CodecError::Invalid(m) => write!(f, "invalid codestream: {m}"),
            CodecError::Resource(m) => write!(f, "resource error: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ParseError> for CodecError {
    fn from(e: ParseError) -> Self {
        CodecError::Codestream(e)
    }
}

impl From<PacketError> for CodecError {
    fn from(e: PacketError) -> Self {
        CodecError::Packet(e)
    }
}

impl From<pj2k_ebcot::DecodeError> for CodecError {
    fn from(e: pj2k_ebcot::DecodeError) -> Self {
        CodecError::Tier1(e)
    }
}

/// Decode-side run report.
#[derive(Debug, Clone, Default)]
pub struct DecodeReport {
    /// Wall-clock per pipeline stage.
    pub stages: StageTimes,
    /// Inverse-DWT filtering breakdown.
    pub dwt: DwtStats,
    /// Number of code-blocks with coded data.
    pub num_blocks: usize,
}

/// pj2k codestream decoder.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// Parallel execution of the inverse DWT and Tier-1 decoding.
    pub parallel: ParallelMode,
    /// Decode only the first `n` quality layers (progressive decoding);
    /// `None` decodes everything present.
    pub max_layers: Option<usize>,
    /// How [`ParallelMode::WorkerPool`] hands code-blocks to its workers
    /// during Tier-1 decoding — mirror of the encoder's knob. The decoded
    /// image is identical under every schedule; only the load balance
    /// changes. The pipelined decoder drains its block queue in arrival
    /// order (the work-stealing equivalent of `Schedule::Dynamic` with
    /// chunk 1); the knob then only shapes the barriered fallback.
    pub tier1_schedule: Schedule,
    /// SIMD tier for the inverse lifting kernels (bit-identical output
    /// across tiers; see [`SimdMode`]).
    pub simd: SimdMode,
    /// Stage overlap, mirroring the encoder's knob: `Barriered` finishes
    /// all Tier-1 block decoding before the inverse DWT starts;
    /// `Pipelined` streams decoded-block jobs out of the Tier-2 parser as
    /// soon as each precinct's segment lengths are known and starts each
    /// inverse-DWT level once all of its bands are reassembled. Output is
    /// bit-identical either way. Streams carrying an ROI shift fall back
    /// to the barriered path.
    pub overlap: StageOverlap,
    /// How workers are split between Tier-1 draining and the inverse DWT
    /// at each level boundary of the pipelined decoder (see
    /// [`DecodeStagePolicy`]); also lets the cost model sharpen a coarse
    /// `Schedule::Dynamic` chunk on the barriered path. Never affects
    /// decoded pixels.
    pub stage_policy: DecodeStagePolicy,
}

impl Default for Decoder {
    fn default() -> Self {
        Self {
            parallel: ParallelMode::Sequential,
            max_layers: None,
            tier1_schedule: Schedule::StaggeredRoundRobin,
            simd: SimdMode::Auto,
            overlap: StageOverlap::Barriered,
            stage_policy: DecodeStagePolicy::Auto,
        }
    }
}

/// Stream-level parameters parsed from the main header.
struct MainHeader {
    ncomp: usize,
    bit_depth: u8,
    signed: bool,
    tiles: Option<(usize, usize)>,
    wavelet: Wavelet,
    levels: u8,
    code_block: (usize, usize),
    n_layers: usize,
    base_step: f64,
    tier1: Tier1Options,
}

/// Geometry and packet-parsing context of one tile, shared by the
/// barriered and pipelined decode paths.
struct TileCtx<'a> {
    body: &'a [u8],
    /// First body byte after the Kmax table and ROI header.
    cursor: usize,
    kmax: &'a [u8],
    roi: (u8, u8),
    decode_layers: usize,
    w: usize,
    h: usize,
}

/// One decoded-block work item: everything Tier-1 needs, owned, so the
/// Tier-2 parser can hand it to a worker the moment the block's segments
/// are final (its precinct's last decoded layer has been parsed).
struct BlockJob {
    comp: usize,
    /// Subband index in `Decomposition::subbands()` order.
    band_idx: usize,
    geom: crate::blocks::BlockGeom,
    ctx: pj2k_ebcot::BandCtx,
    msb: u8,
    /// Coded segments gathered across the decoded layers.
    segs: Vec<Vec<u8>>,
    /// Tier-2 cost estimate; see [`job_cost`].
    cost: u64,
}

/// Per-subband geometry the pipelined decoder scatters decoded blocks
/// into.
struct BandMeta {
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    level: u8,
    /// Dequantization step (lossy path only).
    step: f64,
}

/// Tier-1 work-cost estimate for one code-block, from data the Tier-2
/// headers alone provide: coded bytes scale the MQ-decode work, the pass
/// count scales the per-pass scan overhead. Only relative magnitudes
/// matter — the estimate drives load-balancing heuristics, never output.
fn job_cost(seg_bytes: usize, passes: usize) -> u64 {
    (seg_bytes.max(1) as u64).saturating_mul(passes.max(1) as u64)
}

/// Workers to hand the inverse DWT at a level boundary of the pipelined
/// decoder, given how much Tier-1 cost is still queued or in flight.
///
/// `Static` keeps the DWT on the driving thread until Tier-1 has fully
/// drained; `CostWeighted` (and a resolved `Auto`) gives Tier-1 a share
/// of the `p` workers proportional to its remaining cost fraction and
/// the DWT the rest, at least one each. Purely a scheduling choice — the
/// synthesized samples are identical for any lane count.
fn dwt_lanes(policy: DecodeStagePolicy, p: usize, remaining_cost: u64, total_cost: u64) -> usize {
    let p = p.max(1);
    match policy {
        DecodeStagePolicy::Static => {
            if remaining_cost > 0 {
                1
            } else {
                p
            }
        }
        DecodeStagePolicy::Auto | DecodeStagePolicy::CostWeighted => {
            if remaining_cost == 0 || total_cost == 0 {
                return p;
            }
            let tier1 = (u128::from(remaining_cost).saturating_mul(p as u128))
                .div_ceil(u128::from(total_cost.max(remaining_cost)))
                as usize;
            p.saturating_sub(tier1).max(1)
        }
    }
}

/// Sharpen a coarse dynamic chunk on the barriered path when the Tier-2
/// cost estimates reveal a skewed block population: one huge block stuck
/// at the end of a chunk serializes the tail, so fall back to chunk 1.
/// The decoded image is schedule-invariant, so this only moves work.
fn effective_schedule(policy: DecodeStagePolicy, schedule: Schedule, costs: &[u64]) -> Schedule {
    if policy != DecodeStagePolicy::CostWeighted && policy != DecodeStagePolicy::Auto {
        return schedule;
    }
    let Schedule::Dynamic { chunk } = schedule else {
        return schedule;
    };
    if chunk <= 1 || costs.is_empty() {
        return schedule;
    }
    let max = costs.iter().copied().max().unwrap_or(0);
    let sum: u64 = costs.iter().fold(0u64, |a, &c| a.saturating_add(c));
    // AUDIT: unreachable-from-input — the `costs.is_empty()` early return
    // above makes the divisor nonzero regardless of stream contents.
    #[allow(clippy::arithmetic_side_effects)]
    let mean = (sum / costs.len() as u64).max(1);
    if max > mean.saturating_mul(4) {
        Schedule::Dynamic { chunk: 1 }
    } else {
        schedule
    }
}

/// Where [`parse_tile_blocks`] delivers finalized block jobs.
trait JobSink {
    /// A block whose segments are final.
    fn push(&mut self, job: BlockJob);
    /// Every block of one precinct (one `(comp, band)` pair) has been
    /// pushed; `level` is the band's decomposition level.
    fn precinct_done(&mut self, _comp: usize, _level: u8) {}
}

/// Collects jobs in precinct order — the barriered path's sink.
#[derive(Default)]
struct CollectSink {
    jobs: Vec<BlockJob>,
}

impl JobSink for CollectSink {
    // AUDIT(hot): one amortized Vec push per finalized block — O(blocks),
    // not per-sample work.
    fn push(&mut self, job: BlockJob) {
        self.jobs.push(job);
    }
}

/// Completion tracking for the pipelined decoder: one slot per
/// `(component, decomposition level)` pair. Workers count finished blocks
/// into `done`; the parser publishes `expected` per slot as soon as every
/// precinct feeding it has been finalized; the driving thread waits for
/// `done == expected` before synthesizing that level. Any stage parks its
/// first error here, which wakes every waiter into a drain-and-bail mode
/// — malformed input must surface as `Err`, never as a hung worker.
struct Gate {
    m: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    done: Vec<usize>,
    expected: Vec<Option<usize>>,
    error: Option<CodecError>,
    /// The Tier-2 parser has run to completion (successfully or not) —
    /// trailing-layer parse errors must fail the decode even after every
    /// decoded layer's blocks are in.
    parse_done: bool,
}

impl Gate {
    // AUDIT(hot): one Mutex/Condvar and two slot Vecs per tile —
    // setup-time, sized by (components x levels), not by samples.
    fn new(slots: usize) -> Self {
        Self {
            m: Mutex::new(GateState {
                done: vec![0; slots],
                expected: vec![None; slots],
                error: None,
                parse_done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Poison-tolerant lock: a panicking worker must not turn every other
    /// waiter's `unwrap` into a second panic while the first unwinds.
    // AUDIT(hot): one short critical section per block/precinct event —
    // O(blocks) lock traffic in total, never inside the sample loops.
    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the first error and wake all waiters.
    // AUDIT(hot): cold error path — runs at most once per decode.
    fn fail(&self, e: CodecError) {
        let mut st = self.lock();
        if st.error.is_none() {
            st.error = Some(e);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// One more block of `slot` is fully scattered.
    // AUDIT(hot): one uncontended-in-the-common-case lock acquisition per
    // *code-block* completion — amortized over the thousands of per-sample
    // operations the block's decode just performed. The condvar is how the
    // driving thread learns a DWT level is ready.
    fn block_done(&self, slot: usize) {
        let mut st = self.lock();
        if let Some(d) = st.done.get_mut(slot) {
            *d = d.saturating_add(1);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Publish the expected block count of `slot`.
    // AUDIT(hot): one lock + notify per finalized precinct slot —
    // O(precincts), not per-sample.
    fn publish(&self, slot: usize, expected: usize) {
        let mut st = self.lock();
        if let Some(e) = st.expected.get_mut(slot) {
            *e = Some(expected);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Parsing finished (with or without error).
    // AUDIT(hot): once per tile, when the Tier-2 parser returns.
    fn finish_parse(&self) {
        let mut st = self.lock();
        st.parse_done = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Block until every expected block of `slot` is done, or any stage
    /// has failed.
    // AUDIT(hot): driver-side blocking wait by design, once per DWT
    // level; the error clone happens only on the cold failure path.
    fn wait_slot(&self, slot: usize) -> Result<(), CodecError> {
        let mut st = self.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            let done = st.done.get(slot).copied().unwrap_or(0);
            if st.expected.get(slot).copied().flatten() == Some(done) {
                return Ok(());
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block until the Tier-2 parser has fully completed, then surface
    /// any parked error.
    // AUDIT(hot): driver-side blocking wait, once per tile; the error
    // clone happens only on the cold failure path.
    fn wait_parse_done(&self) -> Result<(), CodecError> {
        let mut st = self.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.parse_done {
                return Ok(());
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Streams jobs into the pipelined decoder's queue and publishes per-slot
/// expected counts through the [`Gate`] — the pipelined path's sink.
struct QueueSink<'a> {
    queue: &'a PipelineQueue<BlockJob>,
    gate: &'a Gate,
    /// Band level per subband index.
    band_levels: &'a [u8],
    levels: usize,
    /// Precincts not yet finalized, per gate slot.
    open_precincts: Vec<usize>,
    /// Jobs pushed so far, per gate slot.
    staged: Vec<usize>,
    total_cost: &'a AtomicU64,
    remaining_cost: &'a AtomicU64,
    next: usize,
    n_jobs: usize,
}

impl JobSink for QueueSink<'_> {
    fn push(&mut self, job: BlockJob) {
        let level = self.band_levels.get(job.band_idx).copied().unwrap_or(0);
        let slot = job
            .comp
            .saturating_mul(self.levels.saturating_add(1))
            .saturating_add(usize::from(level));
        if let Some(s) = self.staged.get_mut(slot) {
            *s = s.saturating_add(1);
        }
        self.total_cost.fetch_add(job.cost, Ordering::Relaxed);
        self.remaining_cost.fetch_add(job.cost, Ordering::Relaxed);
        self.n_jobs = self.n_jobs.saturating_add(1);
        self.queue.send(self.next, job);
        self.next = self.next.saturating_add(1);
    }

    fn precinct_done(&mut self, comp: usize, level: u8) {
        let slot = comp
            .saturating_mul(self.levels.saturating_add(1))
            .saturating_add(usize::from(level));
        let open = match self.open_precincts.get_mut(slot) {
            Some(o) => {
                *o = o.saturating_sub(1);
                *o
            }
            None => return,
        };
        if open == 0 {
            let expected = self.staged.get(slot).copied().unwrap_or(0);
            self.gate.publish(slot, expected);
        }
    }
}

/// Per-worker scratch of the pipelined Tier-1 stage: the flag-grid /
/// magnitude scratch plus a reusable output buffer, so the steady-state
/// per-block decode allocates nothing.
#[derive(Default)]
struct WorkerState {
    scratch: BlockDecoderScratch,
    out: Vec<i32>,
}

/// Copy every reassembled band of decomposition level `lvl` (component
/// `comp`) from its pipeline buffer into the Mallat-layout plane. Must
/// only be called after the level's gate slot has passed.
#[allow(clippy::too_many_arguments)]
// AUDIT(fn): `comp < ncomp` bounds the plane and buffer indices, band
// geometry comes from the tile's own `Decomposition`, so every row span
// lies inside the `w x h` plane — untrusted bytes reach none of these
// indices.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn copy_bands_level(
    metas: &[BandMeta],
    nbands: usize,
    comp: usize,
    lvl: usize,
    reversible: bool,
    ptrs_i: &[SendPtr<i32>],
    ptrs_f: &[SendPtr<f32>],
    planes_q: &mut [Plane<i32>],
    planes_f: &mut [Plane<f32>],
) {
    for (bi, meta) in metas.iter().enumerate() {
        if usize::from(meta.level) != lvl || meta.w == 0 || meta.h == 0 {
            continue;
        }
        let buf = comp * nbands + bi;
        let n = meta.w * meta.h;
        if reversible {
            // SAFETY: the caller waited on this level's gate slot, so every
            // writer of this buffer has completed and synchronized through
            // the gate mutex; workers never touch a buffer after its last
            // block is done, leaving this thread the sole accessor.
            // AUDIT(alias): read-only view after the gate's happens-before;
            // no live writer aliases this buffer once its slot passed.
            let src = unsafe { std::slice::from_raw_parts(ptrs_i[buf].0, n) };
            let plane = &mut planes_q[comp];
            for dy in 0..meta.h {
                plane.row_mut(meta.y0 + dy)[meta.x0..meta.x0 + meta.w]
                    .copy_from_slice(&src[dy * meta.w..(dy + 1) * meta.w]);
            }
        } else {
            // SAFETY: as above.
            // AUDIT(alias): as above — sole accessor after the gate slot.
            let src = unsafe { std::slice::from_raw_parts(ptrs_f[buf].0, n) };
            let plane = &mut planes_f[comp];
            for dy in 0..meta.h {
                plane.row_mut(meta.y0 + dy)[meta.x0..meta.x0 + meta.w]
                    .copy_from_slice(&src[dy * meta.w..(dy + 1) * meta.w]);
            }
        }
    }
}

/// Parse the packet stream of one tile body and hand every code-block
/// with coded data to `sink`, owned, the moment its segments are final —
/// i.e. while parsing the precinct's packet of the last *decoded* layer
/// (`decode_layers - 1`; zero-bit-plane counts are learned at first
/// inclusion and never change afterwards, so nothing a later layer
/// carries can alter the job). Layers past `decode_layers` are still
/// parsed to validate the stream. Validation and error messages are
/// identical for every sink.
// AUDIT(hot): per-precinct parse state plus one owned segment Vec per
// block, each built exactly once and handed off to the Tier-1 stage;
// the format! sites are cold malformed-input error paths.
fn parse_tile_blocks(
    hdr: &MainHeader,
    ctx: &TileCtx<'_>,
    res: &[Vec<(usize, Subband)>],
    nbands: usize,
    sink: &mut dyn JobSink,
) -> Result<(), CodecError> {
    let body = ctx.body;
    let mut cursor = ctx.cursor;

    // Per-precinct state, mirroring the encoder's ordering.
    struct Prec {
        comp: usize,
        band: pj2k_dwt::Band,
        /// Index of the subband in `Decomposition::subbands()` order
        /// (the Kmax-table key).
        band_idx: usize,
        level: u8,
        blocks: Vec<crate::blocks::BlockGeom>,
        state: PrecinctState,
        /// Per block: segments gathered across layers.
        segs: Vec<Vec<Vec<u8>>>,
        zbp: Vec<u32>,
    }
    let mut precincts: Vec<Prec> = Vec::new();
    for comp in 0..hdr.ncomp {
        for bands in res {
            for (band_idx, sb) in bands {
                let (gw, gh) = grid_dims(sb, hdr.code_block);
                let blocks = blocks_of(sb, hdr.code_block);
                let n = blocks.len();
                if n == 0 {
                    // Empty bands carry no packets; finalize immediately so
                    // the pipelined gate's precinct accounting still closes.
                    sink.precinct_done(comp, sb.level);
                    continue;
                }
                precincts.push(Prec {
                    comp,
                    band: sb.band,
                    band_idx: *band_idx,
                    level: sb.level,
                    blocks,
                    state: PrecinctState::for_decoder(gw.max(1), gh.max(1)),
                    segs: vec![Vec::new(); n],
                    zbp: vec![0; n],
                });
            }
        }
    }

    let finalize_layer = ctx.decode_layers.saturating_sub(1);
    for layer in 0..hdr.n_layers {
        for prec in precincts.iter_mut() {
            let hlen = match body.get(cursor..cursor.saturating_add(2)) {
                Some(&[a, b]) => u16::from_be_bytes([a, b]) as usize,
                _ => return Err(CodecError::Parse("truncated packet length".into())),
            };
            cursor = cursor.saturating_add(2);
            let header = cursor
                .checked_add(hlen)
                .and_then(|end| body.get(cursor..end))
                .ok_or_else(|| CodecError::Parse("truncated packet header".into()))?;
            cursor = cursor.saturating_add(hlen);
            let (results, _) = decode_packet(&mut prec.state, layer, header)?;
            for (b, resu) in results.iter().enumerate() {
                for &len in &resu.seg_lens {
                    // A header may claim any 32-bit length; the segment
                    // must actually be present in the body.
                    let seg = cursor
                        .checked_add(len)
                        .and_then(|end| body.get(cursor..end))
                        .ok_or_else(|| CodecError::Parse("truncated pass segment".into()))?;
                    if layer < ctx.decode_layers {
                        if let Some(slot) = prec.segs.get_mut(b) {
                            slot.push(seg.to_vec());
                        }
                    }
                    cursor = cursor.saturating_add(len);
                }
                if resu.new_passes > 0 {
                    if let Some(slot) = prec.zbp.get_mut(b) {
                        *slot = resu.zero_bitplanes;
                    }
                }
            }
            if layer == finalize_layer {
                let ceiling = ctx
                    .kmax
                    .get(
                        prec.comp
                            .saturating_mul(nbands)
                            .saturating_add(prec.band_idx),
                    )
                    .copied()
                    .unwrap_or(0);
                for (b, geom) in prec.blocks.iter().enumerate() {
                    let segs = prec.segs.get_mut(b).map(std::mem::take).unwrap_or_default();
                    if segs.is_empty() {
                        continue;
                    }
                    let zbp = prec.zbp.get(b).copied().unwrap_or(0);
                    if zbp > u32::from(ceiling) {
                        return Err(CodecError::Invalid(format!(
                            "zero bitplanes {zbp} exceed band ceiling {ceiling}"
                        )));
                    }
                    // AUDIT(block): `zbp <= ceiling <= MAX_PLANES` was just
                    // checked, so the subtraction cannot wrap and `msb >= 1`
                    // holds in the max_passes arm.
                    #[allow(clippy::arithmetic_side_effects)]
                    let msb = ceiling - zbp as u8;
                    let max_passes = if msb == 0 {
                        0
                    } else {
                        // AUDIT(block): `msb >= 1` in this arm; see above.
                        #[allow(clippy::arithmetic_side_effects)]
                        let mp = 1 + 3 * (usize::from(msb) - 1);
                        mp
                    };
                    if segs.len() > max_passes {
                        return Err(CodecError::Invalid(format!(
                            "{} passes exceed the {max_passes} the plane structure admits",
                            segs.len()
                        )));
                    }
                    let bytes: usize = segs.iter().map(Vec::len).sum();
                    sink.push(BlockJob {
                        comp: prec.comp,
                        band_idx: prec.band_idx,
                        geom: *geom,
                        ctx: band_ctx(prec.band),
                        msb,
                        cost: job_cost(bytes, segs.len()),
                        segs,
                    });
                }
                sink.precinct_done(prec.comp, prec.level);
            }
        }
    }
    Ok(())
}

impl Decoder {
    /// Decode a pj2k codestream.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed input.
    // AUDIT(hot): main-header parsing runs once per stream (setup-time);
    // every format! here is a cold malformed-input error path.
    pub fn decode(&self, bytes: &[u8]) -> Result<(Image, DecodeReport), CodecError> {
        let mut report = DecodeReport::default();
        let t0 = Instant::now();
        let mut r = MarkerReader::new(bytes);
        r.expect_marker(codestream::SOC)?;
        let siz = r.expect_segment(codestream::SIZ)?;
        let mut p = PayloadReader::new(siz);
        let width = p.u32()? as usize;
        let height = p.u32()? as usize;
        let ncomp = p.u8()? as usize;
        let bit_depth = p.u8()?;
        let signed = p.u8()? != 0;
        let tw = p.u32()? as usize;
        let th = p.u32()? as usize;
        let cod = r.expect_segment(codestream::COD)?;
        let mut p = PayloadReader::new(cod);
        let wavelet = match p.u8()? {
            0 => Wavelet::Reversible53,
            1 => Wavelet::Irreversible97,
            x => return Err(CodecError::Invalid(format!("unknown wavelet {x}"))),
        };
        let levels = p.u8()?;
        let cbw = p.u16()? as usize;
        let cbh = p.u16()? as usize;
        let n_layers = p.u16()? as usize;
        let t1flags = p.u8()?;
        if t1flags > 7 {
            return Err(CodecError::Invalid(format!(
                "unknown tier-1 flags {t1flags:#x}"
            )));
        }
        let tier1 = Tier1Options {
            stripe_causal: t1flags & 1 != 0,
            reset_contexts: t1flags & 2 != 0,
            bypass: t1flags & 4 != 0,
        };
        let qcd = r.expect_segment(codestream::QCD)?;
        let base_step = PayloadReader::new(qcd).f64()?;
        let hdr = MainHeader {
            ncomp,
            bit_depth,
            signed,
            tiles: if tw == 0 { None } else { Some((tw, th)) },
            wavelet,
            levels,
            code_block: (cbw, cbh),
            n_layers,
            base_step,
            tier1,
        };
        if width == 0 || height == 0 || ncomp == 0 {
            return Err(CodecError::Invalid("empty image".into()));
        }
        // Harden against corrupted headers: bound allocations and reject
        // geometry the encoder can never produce.
        if width.saturating_mul(height).saturating_mul(ncomp) > (1 << 28) {
            return Err(CodecError::Invalid(format!(
                "implausible image size {width}x{height}x{ncomp}"
            )));
        }
        if ncomp > 4 {
            return Err(CodecError::Invalid(format!("{ncomp} components")));
        }
        if !(1..=16).contains(&bit_depth) {
            return Err(CodecError::Invalid(format!("bit depth {bit_depth}")));
        }
        if let Some((tw, th)) = hdr.tiles {
            if tw == 0 || th == 0 {
                return Err(CodecError::Invalid("zero tile dimension".into()));
            }
        }
        if hdr.levels > 12 {
            return Err(CodecError::Invalid(format!("{} levels", hdr.levels)));
        }
        let (cbw2, cbh2) = hdr.code_block;
        if !cbw2.is_power_of_two()
            || !cbh2.is_power_of_two()
            || !(4..=1024).contains(&cbw2)
            || !(4..=1024).contains(&cbh2)
            || cbw2.saturating_mul(cbh2) > 4096
        {
            return Err(CodecError::Invalid(format!("code-block {cbw2}x{cbh2}")));
        }
        if hdr.n_layers == 0 || hdr.n_layers > 4096 {
            return Err(CodecError::Invalid(format!("{} layers", hdr.n_layers)));
        }
        if !(hdr.base_step.is_finite() && hdr.base_step > 0.0) {
            return Err(CodecError::Invalid(format!("base step {}", hdr.base_step)));
        }
        report.stages.add(stage::BITSTREAM_IO, t0.elapsed());

        let grid = match hdr.tiles {
            Some((tw, th)) => TileGrid::new(width, height, tw, th),
            None => TileGrid::single(width, height),
        };
        // No pre-reservation: a corrupt header claiming 1x1 tiles over a
        // maximal image would otherwise reserve hundreds of millions of
        // slots before the first missing SOT segment is even noticed. Grown
        // incrementally, a truncated stream fails after one tile's work.
        let mut tiles = Vec::new();
        for i in 0..grid.len() {
            let t0 = Instant::now();
            let sot = r.expect_segment(codestream::SOT)?;
            let mut p = PayloadReader::new(sot);
            let idx = p.u32()? as usize;
            if idx != i {
                return Err(CodecError::Invalid(format!("tile {idx} out of order")));
            }
            let body_len = p.u32()? as usize;
            r.expect_marker(codestream::SOD)?;
            let body = r.raw(body_len)?;
            report.stages.add(stage::BITSTREAM_IO, t0.elapsed());
            let rect = grid.rect(i);
            tiles.push(self.decode_tile(&hdr, body, rect.w, rect.h, &mut report)?);
        }
        let t0 = Instant::now();
        r.expect_marker(codestream::EOC)?;
        let mut out = pj2k_image::tile::assemble(&tiles, &grid, hdr.bit_depth, hdr.signed);
        out.clamp_to_depth();
        report.stages.add(stage::SETUP, t0.elapsed());
        Ok((out, report))
    }

    // AUDIT(hot): per-tile setup (decomposition geometry, resolution
    // index); format! sites are cold error paths.
    fn decode_tile(
        &self,
        hdr: &MainHeader,
        body: &[u8],
        w: usize,
        h: usize,
        report: &mut DecodeReport,
    ) -> Result<Image, CodecError> {
        let deco = Decomposition::new(w, h, hdr.levels);
        let res = indexed_resolutions(&deco);
        let nbands = deco.subbands().len();

        // Budget the per-block decoder state BEFORE reading the tile body or
        // allocating any of it: grid_dims is pure arithmetic over validated
        // header fields, so a hostile header claiming a huge block count is
        // rejected without touching the allocator.
        let mut total_blocks = 0usize;
        for bands in &res {
            for (_bi, sb) in bands {
                let (gw, gh) = grid_dims(sb, hdr.code_block);
                total_blocks = total_blocks.saturating_add(gw.saturating_mul(gh));
            }
        }
        total_blocks = total_blocks.saturating_mul(hdr.ncomp);
        if total_blocks > MAX_BLOCKS_PER_TILE {
            return Err(CodecError::Invalid(format!(
                "tile requires state for {total_blocks} code-blocks \
                 (cap {MAX_BLOCKS_PER_TILE})"
            )));
        }

        // --- tier-2 prologue: Kmax table and ROI header --------------------
        let t0 = Instant::now();
        // ncomp <= 4 and nbands <= 1 + 3 * levels <= 37, both validated.
        let kmax_len = hdr.ncomp.saturating_mul(nbands);
        let kmax = body
            .get(..kmax_len)
            .ok_or_else(|| CodecError::Parse("truncated Kmax table".into()))?;
        if let Some(&bad) = kmax.iter().find(|&&k| k > pj2k_ebcot::MAX_PLANES) {
            return Err(CodecError::Invalid(format!(
                "Kmax {bad} exceeds the {} coded planes the coder supports",
                pj2k_ebcot::MAX_PLANES
            )));
        }
        let mut cursor = kmax_len;
        let (roi_s, roi_d) = match body.get(cursor..cursor.saturating_add(2)) {
            Some(&[s, d]) => (s, d),
            _ => return Err(CodecError::Parse("truncated ROI header".into())),
        };
        cursor = cursor.saturating_add(2);
        if roi_s > 30 || roi_d > 30 {
            return Err(CodecError::Invalid(format!(
                "implausible ROI shifts ({roi_s}, {roi_d})"
            )));
        }
        report.stages.add(stage::TIER2, t0.elapsed());

        let ctx = TileCtx {
            body,
            cursor,
            kmax,
            roi: (roi_s, roi_d),
            decode_layers: self
                .max_layers
                .map_or(hdr.n_layers, |m| m.min(hdr.n_layers)),
            w,
            h,
        };
        // The pipelined path dequantizes per sample as blocks land in their
        // band buffers, which is only valid while no ROI shift sits between
        // Tier-1 output and dequantization; an ROI stream falls back to the
        // barriered path, which decodes identical pixels.
        let pipelined = self.overlap == StageOverlap::Pipelined && roi_s == 0 && roi_d == 0;
        if pipelined {
            self.decode_tile_pipelined(hdr, &ctx, &deco, &res, report)
        } else {
            self.decode_tile_barriered(hdr, &ctx, &deco, &res, report)
        }
    }

    /// Classic stage-sequential tile decode: all Tier-1 blocks, then ROI
    /// undo, dequantization, and the full inverse DWT.
    // AUDIT(hot): job list and band buffers are built once per tile
    // (setup-time); the per-block decode loop reuses warm per-worker
    // scratch — bench_decode's counting-allocator probe pins the
    // steady state at zero allocations per block.
    fn decode_tile_barriered(
        &self,
        hdr: &MainHeader,
        ctx: &TileCtx<'_>,
        deco: &Decomposition,
        res: &[Vec<(usize, Subband)>],
        report: &mut DecodeReport,
    ) -> Result<Image, CodecError> {
        let exec = self.parallel.exec();
        let reversible = hdr.wavelet == Wavelet::Reversible53;
        let band_list = deco.subbands();
        let nbands = band_list.len();
        let (w, h) = (ctx.w, ctx.h);
        let (roi_s, roi_d) = ctx.roi;

        // --- tier-2: packet headers ----------------------------------------
        let t0 = Instant::now();
        let mut sink = CollectSink::default();
        parse_tile_blocks(hdr, ctx, res, nbands, &mut sink)?;
        let jobs = sink.jobs;
        report.stages.add(stage::TIER2, t0.elapsed());

        // --- tier-1 decoding -----------------------------------------------
        let t0 = Instant::now();
        report.num_blocks = report.num_blocks.saturating_add(jobs.len());
        let decode_one = |scratch: &mut BlockDecoderScratch,
                          out: &mut Vec<i32>,
                          j: &BlockJob|
         -> Result<(), pj2k_ebcot::DecodeError> {
            scratch.decode_into(j.geom.w, j.geom.h, j.ctx, j.msb, &j.segs, hdr.tier1, out)
        };
        let mut planes_q: Vec<Plane<i32>> = (0..hdr.ncomp).map(|_| Plane::new(w, h)).collect();
        // AUDIT(block): job geometry comes from `blocks_of` over the tile's
        // own decomposition, so every row range lies inside the `w x h`
        // plane, each `coeffs` has exactly `geom.w * geom.h` elements with
        // `geom.w > 0` (tier-1 contract: empty blocks are a `DecodeError`
        // before this runs), and `comp < ncomp` by construction. Untrusted
        // bytes cannot reach any of these indices.
        #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
        let mut scatter = |j: &BlockJob, coeffs: &[i32]| {
            let plane = &mut planes_q[j.comp];
            for (dy, row) in coeffs.chunks_exact(j.geom.w).enumerate() {
                plane.row_mut(j.geom.y0 + dy)[j.geom.x0..j.geom.x0 + j.geom.w].copy_from_slice(row);
            }
        };
        // The Kmax/zbp/max_passes validation in the parser makes these block
        // decodes infallible in practice, but the error path is still
        // propagated — the tier-1 decoder is its own line of defense.
        let attempted: Vec<Result<Vec<i32>, pj2k_ebcot::DecodeError>> = match self.parallel {
            ParallelMode::Sequential => {
                // One warm scratch and one reused coefficient buffer: each
                // block's rows land in the plane as soon as it is decoded,
                // so the tile is never staged a second time.
                let mut scratch = BlockDecoderScratch::new();
                let mut out = Vec::new();
                for j in &jobs {
                    decode_one(&mut scratch, &mut out, j)?;
                    scatter(j, &out);
                }
                Vec::new() // nothing left for the scatter loop below
            }
            ParallelMode::WorkerPool { workers } => {
                let costs: Vec<u64> = jobs.iter().map(|j| j.cost).collect();
                let schedule =
                    effective_schedule(self.stage_policy.resolve(), self.tier1_schedule, &costs);
                pool_map_with_state(
                    jobs.len(),
                    workers.max(1),
                    schedule,
                    |_| BlockDecoderScratch::new(),
                    // AUDIT(block): the pool hands out indices `< jobs.len()`.
                    #[allow(clippy::indexing_slicing)]
                    |scratch, i| {
                        let mut out = Vec::new();
                        decode_one(scratch, &mut out, &jobs[i]).map(|()| out)
                    },
                )
            }
        };
        for (j, coeffs) in jobs.iter().zip(attempted) {
            scatter(j, &coeffs?);
        }
        // --- inverse ROI scaling ---------------------------------------------
        crate::roi::undo_roi_shift(&mut planes_q, roi_s, roi_d);
        report.stages.add(stage::TIER1, t0.elapsed());

        // --- dequantization ----------------------------------------------------
        let t0 = Instant::now();
        let mut planes_f: Vec<Plane<f32>> = Vec::new();
        if !reversible {
            for q in &planes_q {
                let mut f = Plane::<f32>::new(w, h);
                for sb in &band_list {
                    if sb.is_empty() {
                        continue;
                    }
                    let step = band_step(hdr.base_step, sb.level.max(1), sb.band);
                    dequantize_plane(q, &mut f, (sb.x0, sb.y0, sb.w, sb.h), step, &exec);
                }
                planes_f.push(f);
            }
        }
        report.stages.add(stage::QUANTIZATION, t0.elapsed());

        // --- inverse DWT ---------------------------------------------------------
        let t0 = Instant::now();
        let vstrat = VerticalStrategy::DEFAULT_STRIP;
        if reversible {
            for q in planes_q.iter_mut() {
                let stats = inverse_53_with(
                    q,
                    hdr.levels,
                    vstrat,
                    LiftingMode::PerStep,
                    self.simd,
                    &exec,
                );
                report.dwt.merge(&stats);
            }
        } else {
            for f in planes_f.iter_mut() {
                let stats = inverse_97_with(
                    f,
                    hdr.levels,
                    vstrat,
                    LiftingMode::PerStep,
                    self.simd,
                    &exec,
                );
                report.dwt.merge(&stats);
            }
        }
        report.stages.add(stage::INTRA_COMPONENT, t0.elapsed());

        Ok(Self::finish_components(
            hdr, reversible, planes_q, planes_f, report,
        ))
    }

    /// Pipelined tile decode: Tier-2 parsing streams owned block jobs into
    /// a [`PipelineQueue`] the moment each precinct's segment lengths are
    /// known; `p` Tier-1 workers drain it with per-worker scratch,
    /// dequantize (lossy path) and scatter each block into its subband
    /// buffer; the driving thread synthesizes each inverse-DWT level as
    /// soon as the [`Gate`] reports all bands of that level reassembled.
    /// Bit-identical to the barriered path by construction: the same
    /// per-block decode, the same per-sample dequantization expression,
    /// and a level order identical to `inverse_*_with`.
    // AUDIT(hot): queue, gate, and band buffers are built once per tile
    // (setup-time); steady-state block decodes run on warm per-worker
    // scratch and the reassembly gate locks O(blocks) times in total —
    // bench_decode's counting-allocator probe pins the warm path at
    // zero allocations per block.
    fn decode_tile_pipelined(
        &self,
        hdr: &MainHeader,
        ctx: &TileCtx<'_>,
        deco: &Decomposition,
        res: &[Vec<(usize, Subband)>],
        report: &mut DecodeReport,
    ) -> Result<Image, CodecError> {
        let reversible = hdr.wavelet == Wavelet::Reversible53;
        let p = self.parallel.workers();
        let policy = self.stage_policy.resolve();
        let band_list = deco.subbands();
        let nbands = band_list.len();
        let (w, h) = (ctx.w, ctx.h);
        let levels = usize::from(hdr.levels);
        let slots = hdr.ncomp.saturating_mul(levels.saturating_add(1));

        let t0 = Instant::now();
        let metas: Vec<BandMeta> = band_list
            .iter()
            .map(|sb| BandMeta {
                x0: sb.x0,
                y0: sb.y0,
                w: sb.w,
                h: sb.h,
                level: sb.level,
                step: band_step(hdr.base_step, sb.level.max(1), sb.band),
            })
            .collect();
        let band_levels: Vec<u8> = band_list.iter().map(|sb| sb.level).collect();
        // Precincts feeding each gate slot (empty bands included — the
        // parser finalizes those immediately).
        let mut open_precincts = vec![0usize; slots];
        for comp in 0..hdr.ncomp {
            for sb in &band_list {
                let slot = comp
                    .saturating_mul(levels.saturating_add(1))
                    .saturating_add(usize::from(sb.level));
                if let Some(o) = open_precincts.get_mut(slot) {
                    *o = o.saturating_add(1);
                }
            }
        }

        // One zeroed reassembly buffer per (component, band). Setup-time
        // allocation, not per-block: workers scatter into these and the
        // driver copies each band into its Mallat position once its level
        // gate passes.
        let nbufs = hdr.ncomp.saturating_mul(nbands);
        let buf_len = |i: usize| {
            metas
                .get(i.checked_rem(nbands.max(1)).unwrap_or(0))
                .map_or(0, |m| m.w.saturating_mul(m.h))
        };
        let (mut bufs_i, mut bufs_f): (Vec<Vec<i32>>, Vec<Vec<f32>>) = if reversible {
            (
                (0..nbufs).map(|i| vec![0i32; buf_len(i)]).collect(),
                Vec::new(),
            )
        } else {
            (
                Vec::new(),
                (0..nbufs).map(|i| vec![0f32; buf_len(i)]).collect(),
            )
        };
        let ptrs_i: Vec<SendPtr<i32>> = bufs_i
            .iter_mut()
            .map(|b| SendPtr::new(b.as_mut_slice()))
            .collect();
        let ptrs_f: Vec<SendPtr<f32>> = bufs_f
            .iter_mut()
            .map(|b| SendPtr::new(b.as_mut_slice()))
            .collect();

        let gate = Gate::new(slots);
        let failed = AtomicBool::new(false);
        let total_cost = AtomicU64::new(0);
        let remaining_cost = AtomicU64::new(0);
        let queue: PipelineQueue<BlockJob> = PipelineQueue::new();
        let tier1_opts = hdr.tier1;

        let mut planes_q: Vec<Plane<i32>> = Vec::new();
        let mut planes_f: Vec<Plane<f32>> = Vec::new();
        if reversible {
            planes_q = (0..hdr.ncomp).map(|_| Plane::new(w, h)).collect();
        } else {
            planes_f = (0..hdr.ncomp).map(|_| Plane::new(w, h)).collect();
        }
        report.stages.add(stage::SETUP, t0.elapsed());

        let mut tier2_time = Duration::ZERO;
        let mut n_jobs = 0usize;

        let consume = |state: &mut WorkerState, _i: usize, job: BlockJob| {
            // Drain-only mode after any failure: the queue must still be
            // emptied so the scope join can complete, but no further work
            // is useful.
            if failed.load(Ordering::Relaxed) {
                return;
            }
            match state.scratch.decode_into(
                job.geom.w,
                job.geom.h,
                job.ctx,
                job.msb,
                &job.segs,
                tier1_opts,
                &mut state.out,
            ) {
                Ok(()) => {
                    // AUDIT(block): `band_idx < nbands` and `comp < ncomp`
                    // by construction in the parser; `geom` comes from
                    // `blocks_of` over this band, so every scattered row
                    // lies inside the band buffer; `out` has exactly
                    // `geom.w * geom.h` samples (tier-1 contract).
                    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
                    {
                        let meta = &metas[job.band_idx];
                        let buf = job.comp * nbands + job.band_idx;
                        for dy in 0..job.geom.h {
                            let off =
                                (job.geom.y0 - meta.y0 + dy) * meta.w + (job.geom.x0 - meta.x0);
                            let src = &state.out[dy * job.geom.w..(dy + 1) * job.geom.w];
                            if reversible {
                                // SAFETY: blocks tile a band disjointly and
                                // each job is delivered to exactly one
                                // worker, so no two writers ever touch the
                                // same span; the driver only reads a buffer
                                // after this worker's `block_done` below has
                                // synchronized with its gate wait
                                // (mutex-established happens-before).
                                let band_ptr: &SendPtr<i32> = &ptrs_i[buf];
                                // SAFETY: see the block comment above the
                                // `band_ptr` binding.
                                // AUDIT(alias): blocks tile the band, so
                                // row spans of distinct jobs are disjoint.
                                let dst = unsafe { band_ptr.slice_mut(off, job.geom.w) };
                                dst.copy_from_slice(src);
                            } else {
                                let band_ptr: &SendPtr<f32> = &ptrs_f[buf];
                                // SAFETY: same disjointness and gate
                                // synchronization as the reversible arm.
                                // AUDIT(alias): disjoint per-job row spans,
                                // as in the reversible arm.
                                let dst = unsafe { band_ptr.slice_mut(off, job.geom.w) };
                                for (d, &q) in dst.iter_mut().zip(src) {
                                    *d = dequantize_value(q, meta.step);
                                }
                            }
                        }
                        remaining_cost.fetch_sub(job.cost, Ordering::Relaxed);
                        gate.block_done(job.comp * (levels + 1) + usize::from(meta.level));
                    }
                }
                Err(e) => {
                    failed.store(true, Ordering::Relaxed);
                    gate.fail(CodecError::Tier1(e));
                }
            }
        };

        let produce = || {
            let t0 = Instant::now();
            let mut sink = QueueSink {
                queue: &queue,
                gate: &gate,
                band_levels: &band_levels,
                levels,
                open_precincts,
                staged: vec![0; slots],
                total_cost: &total_cost,
                remaining_cost: &remaining_cost,
                next: 0,
                n_jobs: 0,
            };
            let parsed = parse_tile_blocks(hdr, ctx, res, nbands, &mut sink);
            n_jobs = sink.n_jobs;
            if let Err(e) = parsed {
                failed.store(true, Ordering::Relaxed);
                gate.fail(e);
            }
            gate.finish_parse();
            tier2_time = t0.elapsed();
        };

        type DriveOut = Result<(DwtStats, Duration, Duration), CodecError>;
        let drive = || -> DriveOut {
            let mut dwt = DwtStats::default();
            let mut copy_time = Duration::ZERO;
            let mut dwt_time = Duration::ZERO;
            let vstrat = VerticalStrategy::DEFAULT_STRIP;
            // AUDIT(block): `comp < ncomp` bounds the plane index and the
            // slot arithmetic mirrors the worker side.
            #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
            for comp in 0..hdr.ncomp {
                // Deepest level first: slot `levels` covers the LL band
                // plus the deepest detail bands, so the first gate admits
                // the first synthesis step — exactly the level order of
                // `inverse_*_with`.
                for lvl in (1..=levels).rev() {
                    gate.wait_slot(comp * (levels + 1) + lvl)?;
                    let t0 = Instant::now();
                    copy_bands_level(
                        &metas,
                        nbands,
                        comp,
                        lvl,
                        reversible,
                        &ptrs_i,
                        &ptrs_f,
                        &mut planes_q,
                        &mut planes_f,
                    );
                    copy_time += t0.elapsed();
                    let t0 = Instant::now();
                    let lanes = dwt_lanes(
                        policy,
                        p,
                        remaining_cost.load(Ordering::Relaxed),
                        total_cost.load(Ordering::Relaxed),
                    );
                    let lane_exec = if lanes <= 1 {
                        Exec::SEQ
                    } else {
                        Exec::threads(lanes)
                    };
                    // AUDIT(block): `lvl >= 1` in this loop.
                    #[allow(clippy::arithmetic_side_effects)]
                    let l = (lvl - 1) as u8;
                    let stats = if reversible {
                        inverse_53_level(
                            &mut planes_q[comp],
                            deco,
                            l,
                            vstrat,
                            LiftingMode::PerStep,
                            self.simd,
                            &lane_exec,
                        )
                    } else {
                        inverse_97_level(
                            &mut planes_f[comp],
                            deco,
                            l,
                            vstrat,
                            LiftingMode::PerStep,
                            self.simd,
                            &lane_exec,
                        )
                    };
                    dwt.merge(&stats);
                    dwt_time += t0.elapsed();
                }
                if levels == 0 {
                    gate.wait_slot(comp)?;
                    let t0 = Instant::now();
                    copy_bands_level(
                        &metas,
                        nbands,
                        comp,
                        0,
                        reversible,
                        &ptrs_i,
                        &ptrs_f,
                        &mut planes_q,
                        &mut planes_f,
                    );
                    copy_time += t0.elapsed();
                }
            }
            gate.wait_parse_done()?;
            Ok((dwt, copy_time, dwt_time))
        };

        let t_pipe = Instant::now();
        let driven = pipeline_overlap_with_state(
            p,
            &queue,
            |_| WorkerState::default(),
            consume,
            || gate.fail(CodecError::Resource("tier-1 decode worker panicked".into())),
            produce,
            drive,
        );
        let pipe_span = t_pipe.elapsed();
        let (dwt, copy_time, dwt_time) = driven?;

        report.num_blocks = report.num_blocks.saturating_add(n_jobs);
        report.dwt.merge(&dwt);
        report.stages.add(stage::TIER2, tier2_time);
        report.stages.add(stage::QUANTIZATION, copy_time);
        report.stages.add(stage::INTRA_COMPONENT, dwt_time);
        // The rest of the pipelined span is Tier-1 work the driver waited
        // on (decode + scatter); stage times stay comparable to the
        // barriered breakdown.
        let tier1_time = pipe_span
            .saturating_sub(tier2_time)
            .saturating_sub(copy_time)
            .saturating_sub(dwt_time);
        report.stages.add(stage::TIER1, tier1_time);

        Ok(Self::finish_components(
            hdr, reversible, planes_q, planes_f, report,
        ))
    }

    /// Shared epilogue of both tile-decode paths: inverse component
    /// transform, lossy rounding, and the DC level shift.
    // AUDIT(hot): once-per-tile epilogue — O(components) plane moves and
    // pushes, not per-sample work.
    fn finish_components(
        hdr: &MainHeader,
        reversible: bool,
        mut planes_q: Vec<Plane<i32>>,
        mut planes_f: Vec<Plane<f32>>,
        report: &mut DecodeReport,
    ) -> Image {
        let t0 = Instant::now();
        let mut planes_out: Vec<Plane<i32>>;
        if reversible {
            if hdr.ncomp == 3 {
                // AUDIT(block): split_at_mut(1) on a 3-element vec.
                #[allow(clippy::indexing_slicing)]
                {
                    let (a, rest) = planes_q.split_at_mut(1);
                    let (b, c) = rest.split_at_mut(1);
                    rct_inverse(&mut a[0], &mut b[0], &mut c[0]);
                }
            }
            planes_out = planes_q;
        } else {
            if hdr.ncomp == 3 {
                // AUDIT(block): split_at_mut(1) on a 3-element vec.
                #[allow(clippy::indexing_slicing)]
                {
                    let (a, rest) = planes_f.split_at_mut(1);
                    let (b, c) = rest.split_at_mut(1);
                    ict_inverse(&mut a[0], &mut b[0], &mut c[0]);
                }
            }
            planes_out = Vec::with_capacity(hdr.ncomp);
            for f in &planes_f {
                planes_out.push(f.map(|v| v.round() as i32));
            }
        }
        report.stages.add(stage::INTER_COMPONENT, t0.elapsed());

        let mut img = Image::new(planes_out, hdr.bit_depth, hdr.signed);
        dc_level_shift_inverse(&mut img);
        img
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::config::{EncoderConfig, FilterStrategy, RateControl};
    use crate::encode::Encoder;
    use pj2k_image::metrics::{max_abs_error, psnr};
    use pj2k_image::synth;

    fn encode(img: &Image, cfg: EncoderConfig) -> Vec<u8> {
        Encoder::new(cfg).unwrap().encode(img).0
    }

    #[test]
    fn lossless_roundtrip_is_exact() {
        let img = synth::natural_gray(96, 64, 4);
        let bytes = encode(
            &img,
            EncoderConfig {
                wavelet: Wavelet::Reversible53,
                rate: RateControl::Lossless,
                levels: 4,
                ..Default::default()
            },
        );
        let (out, report) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(max_abs_error(&img, &out), 0, "lossless must be bit exact");
        assert!(report.num_blocks > 0);
    }

    #[test]
    fn lossless_rgb_roundtrip_is_exact() {
        let img = synth::natural_rgb(48, 48, 8);
        let bytes = encode(
            &img,
            EncoderConfig {
                wavelet: Wavelet::Reversible53,
                rate: RateControl::Lossless,
                levels: 3,
                ..Default::default()
            },
        );
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(max_abs_error(&img, &out), 0);
    }

    #[test]
    fn lossy_roundtrip_reaches_reasonable_psnr() {
        let img = synth::natural_gray(128, 128, 6);
        let bytes = encode(
            &img,
            EncoderConfig {
                rate: RateControl::TargetBpp(vec![2.0]),
                levels: 4,
                ..Default::default()
            },
        );
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        let q = psnr(&img, &out);
        assert!(q > 30.0, "2 bpp PSNR too low: {q}");
    }

    #[test]
    fn more_bpp_means_higher_psnr() {
        let img = synth::natural_gray(128, 128, 2);
        let mut prev = 0.0;
        for bpp in [0.125, 0.5, 2.0] {
            let bytes = encode(
                &img,
                EncoderConfig {
                    rate: RateControl::TargetBpp(vec![bpp]),
                    levels: 4,
                    ..Default::default()
                },
            );
            let (out, _) = Decoder::default().decode(&bytes).unwrap();
            let q = psnr(&img, &out);
            assert!(q > prev, "bpp {bpp}: psnr {q} <= {prev}");
            prev = q;
        }
    }

    #[test]
    fn layered_stream_decodes_progressively() {
        let img = synth::natural_gray(128, 128, 12);
        let bytes = encode(
            &img,
            EncoderConfig {
                rate: RateControl::TargetBpp(vec![0.25, 1.0, 3.0]),
                levels: 4,
                ..Default::default()
            },
        );
        let mut prev = 0.0;
        for layers in 1..=3 {
            let dec = Decoder {
                max_layers: Some(layers),
                ..Default::default()
            };
            let (out, _) = dec.decode(&bytes).unwrap();
            let q = psnr(&img, &out);
            assert!(
                q >= prev - 0.01,
                "layer {layers}: psnr {q} dropped from {prev}"
            );
            prev = q;
        }
        assert!(prev > 30.0, "full-quality psnr {prev}");
    }

    #[test]
    fn tiled_roundtrip_works() {
        let img = synth::natural_gray(100, 80, 5);
        let bytes = encode(
            &img,
            EncoderConfig {
                tiles: Some((64, 64)),
                levels: 3,
                rate: RateControl::TargetBpp(vec![2.0]),
                ..Default::default()
            },
        );
        let (out, _) = Decoder::default().decode(&bytes).unwrap();
        assert_eq!(out.width(), 100);
        assert_eq!(out.height(), 80);
        assert!(psnr(&img, &out) > 28.0);
    }

    #[test]
    fn parallel_decoding_matches_sequential() {
        let img = synth::natural_gray(96, 96, 3);
        let bytes = encode(
            &img,
            EncoderConfig {
                levels: 3,
                ..Default::default()
            },
        );
        let (a, _) = Decoder::default().decode(&bytes).unwrap();
        for parallel in [
            ParallelMode::WorkerPool { workers: 3 },
            ParallelMode::WorkerPool { workers: 2 },
        ] {
            let (b, _) = Decoder {
                parallel,
                ..Default::default()
            }
            .decode(&bytes)
            .unwrap();
            assert_eq!(a, b, "{parallel:?}");
        }
    }

    #[test]
    fn decode_schedules_bit_identical() {
        // The decoder-side tier-1 schedule knob must never change the
        // image, only the work distribution.
        let img = synth::natural_gray(96, 96, 7);
        let bytes = encode(
            &img,
            EncoderConfig {
                levels: 3,
                ..Default::default()
            },
        );
        let (a, _) = Decoder::default().decode(&bytes).unwrap();
        for schedule in [
            Schedule::StaggeredRoundRobin,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 4 },
        ] {
            let dec = Decoder {
                parallel: ParallelMode::WorkerPool { workers: 3 },
                tier1_schedule: schedule,
                ..Default::default()
            };
            let (b, _) = dec.decode(&bytes).unwrap();
            assert_eq!(a, b, "{schedule:?}");
        }
    }

    #[test]
    fn decode_simd_tiers_bit_identical() {
        use crate::config::SimdTier;
        // Decoding an encoder-produced stream must be bit-identical under
        // every SIMD tier, both wavelet paths.
        for (wavelet, rate) in [
            (Wavelet::Reversible53, RateControl::Lossless),
            (Wavelet::Irreversible97, RateControl::TargetBpp(vec![2.0])),
        ] {
            let img = synth::natural_gray(80, 56, 9);
            let bytes = encode(
                &img,
                EncoderConfig {
                    wavelet,
                    rate,
                    levels: 3,
                    ..Default::default()
                },
            );
            let scalar_dec = Decoder {
                simd: SimdMode::Scalar,
                ..Default::default()
            };
            let (a, _) = scalar_dec.decode(&bytes).unwrap();
            let mut modes = vec![SimdMode::Auto];
            for tier in [SimdTier::Portable, SimdTier::Sse2, SimdTier::Avx2] {
                if tier.is_supported() {
                    modes.push(SimdMode::Forced(tier));
                }
            }
            for mode in modes {
                let dec = Decoder {
                    simd: mode,
                    ..Default::default()
                };
                let (b, _) = dec.decode(&bytes).unwrap();
                assert_eq!(a, b, "{wavelet:?} {mode:?}");
            }
        }
    }

    #[test]
    fn whole_codec_scalar_vs_auto_bit_identical() {
        // Forced-scalar and auto-dispatched SIMD encoders must emit the
        // same codestream byte for byte, and the decoded images must
        // match regardless of which side used SIMD.
        let img = synth::natural_gray(96, 64, 11);
        let mk = |simd| {
            encode(
                &img,
                EncoderConfig {
                    levels: 3,
                    filter: FilterStrategy::Strip,
                    simd,
                    ..Default::default()
                },
            )
        };
        let scalar_stream = mk(SimdMode::Scalar);
        let auto_stream = mk(SimdMode::Auto);
        assert_eq!(scalar_stream, auto_stream, "codestreams must be identical");
        let (a, _) = Decoder {
            simd: SimdMode::Scalar,
            ..Default::default()
        }
        .decode(&scalar_stream)
        .unwrap();
        let (b, _) = Decoder::default().decode(&auto_stream).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn whole_codec_reference_vs_bitplane_bit_identical() {
        // The Tier-1 engine knob must never change the codestream: the
        // reference flag-grid coder and the packed bitplane coder have to
        // emit the same bytes, across coding styles and parallel modes.
        use crate::config::{Tier1Engine, Tier1Options};
        let img = synth::natural_gray(96, 64, 21);
        for tier1 in [
            Tier1Options::default(),
            Tier1Options {
                stripe_causal: true,
                reset_contexts: false,
                bypass: true,
            },
        ] {
            let mk = |tier1_engine, parallel| {
                encode(
                    &img,
                    EncoderConfig {
                        levels: 3,
                        tier1,
                        tier1_engine,
                        parallel,
                        ..Default::default()
                    },
                )
            };
            let reference = mk(Tier1Engine::Reference, ParallelMode::Sequential);
            for parallel in [
                ParallelMode::Sequential,
                ParallelMode::WorkerPool { workers: 3 },
            ] {
                let bitplane = mk(Tier1Engine::Bitplane, parallel);
                assert_eq!(
                    reference, bitplane,
                    "engines diverged: {tier1:?} {parallel:?}"
                );
            }
            let (a, _) = Decoder::default().decode(&reference).unwrap();
            let (b, _) = Decoder::default()
                .decode(&mk(Tier1Engine::Bitplane, ParallelMode::Sequential))
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn padded_width_stream_decodes_identically() {
        let img = synth::natural_gray(128, 128, 14);
        let cfg_naive = EncoderConfig {
            levels: 3,
            ..Default::default()
        };
        let cfg_padded = EncoderConfig {
            levels: 3,
            filter: FilterStrategy::PaddedWidth,
            ..Default::default()
        };
        let a = encode(&img, cfg_naive);
        let b = encode(&img, cfg_padded);
        assert_eq!(a, b);
    }

    #[test]
    fn garbage_input_is_rejected_not_panicking() {
        assert!(Decoder::default().decode(&[]).is_err());
        assert!(Decoder::default().decode(&[0x00, 0x11, 0x22]).is_err());
        assert!(Decoder::default().decode(&[0xFF, 0x4F]).is_err());
        // SOC then garbage
        let mut v = vec![0xFF, 0x4F];
        v.extend_from_slice(&[0xFF; 32]);
        assert!(Decoder::default().decode(&v).is_err());
    }

    #[test]
    fn parse_errors_carry_marker_and_offset() {
        // Missing SOC: the error names the marker found and where.
        let err = Decoder::default().decode(&[0x00, 0x11]).unwrap_err();
        match err {
            CodecError::Codestream(pe) => {
                assert_eq!(pe.offset(), 0);
                assert_eq!(pe.marker(), Some(0x0011));
            }
            other => panic!("expected Codestream error, got {other:?}"),
        }
    }

    #[test]
    fn tiny_stream_claiming_huge_tiles_is_rejected_cheaply() {
        // SIZ claims the maximal pixel budget with 1x1 tiles; the stream
        // then ends. The decoder must fail on the missing first SOT without
        // reserving hundreds of millions of tile slots.
        let mut w = pj2k_tier2::codestream::MarkerWriter::new();
        w.marker(codestream::SOC);
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.u32(16384);
        p.u32(16384);
        p.u8(1);
        p.u8(8);
        p.u8(0);
        p.u32(1); // 1x1 tiles => 2^28 of them
        p.u32(1);
        w.segment(codestream::SIZ, &p.finish());
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.u8(0); // 5/3
        p.u8(2);
        p.u16(64);
        p.u16(64);
        p.u16(1);
        p.u8(0);
        w.segment(codestream::COD, &p.finish());
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.f64(0.5);
        w.segment(codestream::QCD, &p.finish());
        let bytes = w.finish();
        assert!(matches!(
            Decoder::default().decode(&bytes),
            Err(CodecError::Codestream(_))
        ));
    }

    #[test]
    fn tiny_stream_claiming_many_blocks_is_rejected_before_allocation() {
        // A maximal image with minimal 4x4 code-blocks wants state for
        // 2^24 blocks; the block budget must reject it as soon as the tile
        // is entered, long before per-block state exists.
        let mut w = pj2k_tier2::codestream::MarkerWriter::new();
        w.marker(codestream::SOC);
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.u32(16384);
        p.u32(16384);
        p.u8(1);
        p.u8(8);
        p.u8(0);
        p.u32(0); // untiled
        p.u32(0);
        w.segment(codestream::SIZ, &p.finish());
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.u8(0);
        p.u8(0); // no decomposition: one LL band
        p.u16(4); // 4x4 blocks
        p.u16(4);
        p.u16(1);
        p.u8(0);
        w.segment(codestream::COD, &p.finish());
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.f64(0.5);
        w.segment(codestream::QCD, &p.finish());
        // One tile-part with an empty body: tile parsing must fail on the
        // block budget, not by allocating gigabytes first.
        let mut p = pj2k_tier2::codestream::PayloadWriter::new();
        p.u32(0);
        p.u32(0);
        w.segment(codestream::SOT, &p.finish());
        w.marker(codestream::SOD);
        w.marker(codestream::EOC);
        let bytes = w.finish();
        match Decoder::default().decode(&bytes) {
            Err(CodecError::Invalid(m)) => {
                assert!(m.contains("code-blocks"), "unexpected message: {m}")
            }
            other => panic!("expected block-budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncating_every_prefix_never_panics() {
        let img = synth::natural_gray(48, 48, 1);
        let bytes = encode(
            &img,
            EncoderConfig {
                levels: 2,
                ..Default::default()
            },
        );
        for cut in (0..bytes.len()).step_by(7) {
            let _ = Decoder::default().decode(&bytes[..cut]);
        }
    }

    #[test]
    fn pipelined_decode_bit_identical_across_modes() {
        // The tentpole contract: overlap x executor x schedule x stage
        // policy never changes a single pixel, both wavelet paths.
        use crate::config::DecodeStagePolicy;
        for (wavelet, rate) in [
            (Wavelet::Reversible53, RateControl::Lossless),
            (Wavelet::Irreversible97, RateControl::TargetBpp(vec![2.0])),
        ] {
            let img = synth::natural_gray(96, 80, 17);
            let bytes = encode(
                &img,
                EncoderConfig {
                    wavelet,
                    rate,
                    levels: 3,
                    ..Default::default()
                },
            );
            let (a, _) = Decoder::default().decode(&bytes).unwrap();
            for parallel in [
                ParallelMode::Sequential,
                ParallelMode::WorkerPool { workers: 2 },
                ParallelMode::WorkerPool { workers: 4 },
            ] {
                for schedule in [
                    Schedule::StaggeredRoundRobin,
                    Schedule::Dynamic { chunk: 4 },
                ] {
                    for policy in [DecodeStagePolicy::Static, DecodeStagePolicy::CostWeighted] {
                        let dec = Decoder {
                            parallel,
                            tier1_schedule: schedule,
                            overlap: StageOverlap::Pipelined,
                            stage_policy: policy,
                            ..Default::default()
                        };
                        let (b, report) = dec.decode(&bytes).unwrap();
                        assert_eq!(a, b, "{wavelet:?} {parallel:?} {schedule:?} {policy:?}");
                        assert!(report.num_blocks > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_decode_honors_layer_truncation() {
        // Progressive decoding finalizes each precinct at the last
        // *decoded* layer; the pipelined path must agree with the
        // barriered one at every truncation depth.
        let img = synth::natural_gray(96, 96, 23);
        let bytes = encode(
            &img,
            EncoderConfig {
                rate: RateControl::TargetBpp(vec![0.25, 1.0, 3.0]),
                levels: 3,
                ..Default::default()
            },
        );
        for layers in 1..=3 {
            let (a, _) = Decoder {
                max_layers: Some(layers),
                ..Default::default()
            }
            .decode(&bytes)
            .unwrap();
            let (b, _) = Decoder {
                max_layers: Some(layers),
                parallel: ParallelMode::WorkerPool { workers: 3 },
                overlap: StageOverlap::Pipelined,
                ..Default::default()
            }
            .decode(&bytes)
            .unwrap();
            assert_eq!(a, b, "layers={layers}");
        }
    }

    #[test]
    fn pipelined_decode_matches_on_tiled_and_no_decomposition_streams() {
        // Tiles exercise one pipeline per tile body; levels=0 exercises
        // the copy-only gate path with no inverse DWT at all.
        for (tiles, levels) in [(Some((64, 64)), 3), (None, 0)] {
            let img = synth::natural_gray(100, 80, 29);
            let bytes = encode(
                &img,
                EncoderConfig {
                    tiles,
                    levels,
                    wavelet: Wavelet::Reversible53,
                    rate: RateControl::Lossless,
                    ..Default::default()
                },
            );
            let (a, _) = Decoder::default().decode(&bytes).unwrap();
            let (b, _) = Decoder {
                parallel: ParallelMode::WorkerPool { workers: 4 },
                overlap: StageOverlap::Pipelined,
                ..Default::default()
            }
            .decode(&bytes)
            .unwrap();
            assert_eq!(a, b, "tiles={tiles:?} levels={levels}");
            assert_eq!(max_abs_error(&img, &b), 0);
        }
    }

    #[test]
    fn pipelined_decode_with_roi_falls_back_and_matches() {
        // ROI-shifted streams are decoded by the barriered fallback; the
        // pipelined knob must still produce identical pixels.
        let img = synth::natural_gray(96, 96, 31);
        let bytes = encode(
            &img,
            EncoderConfig {
                levels: 3,
                roi: Some(crate::config::Roi {
                    x0: 16,
                    y0: 16,
                    w: 32,
                    h: 32,
                }),
                ..Default::default()
            },
        );
        let (a, _) = Decoder::default().decode(&bytes).unwrap();
        let (b, _) = Decoder {
            parallel: ParallelMode::WorkerPool { workers: 3 },
            overlap: StageOverlap::Pipelined,
            ..Default::default()
        }
        .decode(&bytes)
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dwt_lanes_policy_split() {
        use crate::config::DecodeStagePolicy::{Auto, CostWeighted, Static};
        // Static: everything stays on the driver until tier-1 drains.
        assert_eq!(dwt_lanes(Static, 4, 10, 100), 1);
        assert_eq!(dwt_lanes(Static, 4, 0, 100), 4);
        // Cost-weighted: tier-1 keeps a share proportional to remaining
        // cost; the DWT always gets at least one lane.
        assert_eq!(dwt_lanes(CostWeighted, 8, 0, 100), 8);
        assert_eq!(dwt_lanes(CostWeighted, 8, 100, 100), 1);
        assert_eq!(dwt_lanes(CostWeighted, 8, 1, 100), 7);
        assert_eq!(dwt_lanes(CostWeighted, 8, 50, 100), 4);
        // Degenerate inputs never panic and never return zero lanes.
        assert_eq!(dwt_lanes(CostWeighted, 0, 50, 100), 1);
        assert_eq!(dwt_lanes(Auto, 4, 0, 0), 4);
        assert!(dwt_lanes(Auto, 4, u64::MAX, 1) >= 1);
    }

    #[test]
    fn effective_schedule_sharpens_skewed_dynamic_chunks() {
        use crate::config::DecodeStagePolicy::{CostWeighted, Static};
        let skewed = [1u64, 1, 1, 1, 100];
        let flat = [10u64, 12, 9, 11];
        // Skew + coarse dynamic chunk + cost-weighted policy => chunk 1.
        assert_eq!(
            effective_schedule(CostWeighted, Schedule::Dynamic { chunk: 8 }, &skewed),
            Schedule::Dynamic { chunk: 1 }
        );
        // Flat costs keep the configured chunk.
        assert_eq!(
            effective_schedule(CostWeighted, Schedule::Dynamic { chunk: 8 }, &flat),
            Schedule::Dynamic { chunk: 8 }
        );
        // Static policy and non-dynamic schedules pass through untouched.
        assert_eq!(
            effective_schedule(Static, Schedule::Dynamic { chunk: 8 }, &skewed),
            Schedule::Dynamic { chunk: 8 }
        );
        assert_eq!(
            effective_schedule(CostWeighted, Schedule::StaggeredRoundRobin, &skewed),
            Schedule::StaggeredRoundRobin
        );
        assert_eq!(
            effective_schedule(CostWeighted, Schedule::Dynamic { chunk: 8 }, &[]),
            Schedule::Dynamic { chunk: 8 }
        );
    }

    #[test]
    fn job_cost_scales_with_bytes_and_passes() {
        assert_eq!(job_cost(100, 3), 300);
        // Zero-byte or zero-pass degenerate blocks still carry unit cost.
        assert_eq!(job_cost(0, 0), 1);
        assert_eq!(job_cost(7, 0), 7);
        // No overflow on adversarial sizes.
        assert_eq!(job_cost(usize::MAX, usize::MAX), u64::MAX);
    }
}
