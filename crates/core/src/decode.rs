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
use crate::config::{ParallelMode, StageOverlap};
use crate::quant::{band_step, dequantize_value};
use crate::report::stage;
use crate::roi::undo_roi_shift;
use pj2k_dwt::{
    grain_exec, inverse_53_with, inverse_97_with, Decomposition, DwtStats, LiftingMode, SimdMode,
    Subband, VerticalStrategy, Wavelet,
};
use pj2k_ebcot::{BlockDecoderScratch, Tier1Options};
use pj2k_image::tile::{TileGrid, TileRect};
use pj2k_image::transform::{ict_inverse, rct_inverse};
use pj2k_image::{Image, Plane};
use pj2k_parutil::{bounded_ordered_serve, clamp_workers, DisjointWriter, Exec, StageTimes};
use pj2k_tier2::codestream::{self, MarkerReader, ParseError, PayloadReader};
use pj2k_tier2::{decode_packet, PacketError, PrecinctState};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
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
    /// How many workers decode code-blocks and run the inverse DWT. The
    /// decoded image is the same for every count.
    pub parallel: ParallelMode,
    /// Decode only the first `n` quality layers (progressive decoding);
    /// `None` decodes everything present.
    pub max_layers: Option<usize>,
    /// SIMD tier for the inverse lifting kernels (bit-identical output
    /// across tiers; see [`SimdMode`]).
    pub simd: SimdMode,
    /// Inert, kept for `benchmark/`: see [`StageOverlap`]. There is one
    /// tile decoder (DESIGN.md §15) and it ignores this.
    pub overlap: StageOverlap,
}

impl Default for Decoder {
    fn default() -> Self {
        Self {
            parallel: ParallelMode::Sequential,
            max_layers: None,
            simd: SimdMode::Auto,
            overlap: StageOverlap::Barriered,
        }
    }
}

/// Stream-level parameters parsed from the main header.
struct MainHeader {
    width: usize,
    height: usize,
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

/// Geometry and packet-parsing context of one tile.
struct TileCtx<'a> {
    body: &'a [u8],
    /// First body byte after the Kmax table and ROI header.
    cursor: usize,
    kmax: &'a [u8],
    decode_layers: usize,
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
}

/// Per-worker scratch of the Tier-1 stage: the flag-grid / magnitude
/// scratch plus a reusable output buffer, so the steady-state per-block
/// decode allocates nothing.
#[derive(Default)]
struct WorkerState {
    scratch: BlockDecoderScratch,
    out: Vec<i32>,
}

/// Write the `geom.w x geom.h` block `coeffs`, each sample through `map`,
/// to its place in the `stride`-pitched sample plane behind `plane`,
/// through one claim of the block's rectangle.
///
/// # Safety
/// `coeffs` holds `geom.w * geom.h` samples, and no other thread may claim
/// a rectangle of `plane` overlapping the block's (checked in debug
/// builds).
// AUDIT(panic): `geom` comes from `blocks_of` over the tile's own
// decomposition and `stride` from the plane it was computed for, so every
// offset stays inside the plane's buffer (and `claim_rect` checks it);
// `geom.w > 0` (Tier-1 rejects empty blocks before this runs). Untrusted
// bytes reach none of it.
#[allow(clippy::arithmetic_side_effects)]
unsafe fn scatter_block<T>(
    plane: &DisjointWriter<'_, T>,
    stride: usize,
    geom: &crate::blocks::BlockGeom,
    coeffs: &[i32],
    map: impl Fn(i32) -> T,
) {
    let (xs, ys) = (geom.x0..geom.x0 + geom.w, geom.y0..geom.y0 + geom.h);
    let claim = plane.claim_rect(xs, ys, stride);
    for (dy, src) in coeffs.chunks_exact(geom.w).enumerate() {
        // SAFETY: the span is one row of the claimed rectangle, and by the
        // caller's contract no other thread touches that rectangle.
        let dst = unsafe { claim.slice_mut((geom.y0 + dy) * stride + geom.x0, geom.w) };
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = map(q);
        }
    }
}

/// Fault in every page of a freshly allocated (lazily zeroed) plane from
/// the calling thread, by storing the zero it already holds to one sample
/// per 4 KiB.
///
/// Horizontally adjacent code-blocks share every page they touch (a row of
/// a 1024-wide plane *is* one page), and the queue hands neighbours to
/// different workers at the same moment, so without this two workers take
/// their first-touch faults on the same pages concurrently. On the 2-core
/// reference VM that costs far more than the faults themselves: the
/// 1024x1024 `bench_decode` streams decode in 39.6 ms at p = 2 without it
/// (no faster than p = 1) and in 24.6 ms with it; the benchmark's CLI
/// decodes at `--threads 2` move from 0.159 to 0.151 s (`gray2k-lossy`) and
/// from 0.216 to 0.202 s (`gray3k-smooth`). One worker needs none of this:
/// its faults are serial anyway.
fn touch_pages<T: Copy + Default>(plane: &mut Plane<T>) {
    let step = 4096usize
        .checked_div(std::mem::size_of::<T>())
        .unwrap_or(1)
        .max(1);
    for v in plane.raw_mut().iter_mut().step_by(step) {
        // Opaque to the optimizer, which otherwise knows the allocation is
        // zeroed and may drop the store.
        *v = std::hint::black_box(T::default());
    }
}

/// The Tier-1 stage of one tile: where block jobs go once their segments
/// are final.
struct BlockSink<'a> {
    tier1: Tier1Options,
    /// MAXSHIFT `(s, d)` from the tile header; `(0, 0)` when there is no ROI.
    roi: (u8, u8),
    /// Dequantization step per subband index (9/7 path).
    steps: &'a [f64],
}

impl BlockSink<'_> {
    /// Run `parse` on the calling thread, handing it the `emit` callback
    /// that queues a job; `workers` threads (none at 1: parse first, then
    /// decode inline) decode each block on warm scratch, undo the ROI
    /// shift, dequantize when the planes are `f32`, and write the rows into
    /// the component's plane — `planes_q` when it is non-empty (reversible),
    /// else `planes_f`. Returns the number of blocks decoded.
    ///
    /// A parse error wins; otherwise the error of the first failing block
    /// in stream order is returned, whatever the worker count. Either way
    /// the queue is drained and every worker has joined on return.
    // AUDIT(hot): one queue, two writer tables and two small atomics per
    // tile (setup-time); the per-block closure runs on warm scratch.
    fn run(
        &self,
        workers: usize,
        planes_q: &mut [Plane<i32>],
        planes_f: &mut [Plane<f32>],
        parse: impl FnOnce(&mut dyn FnMut(BlockJob)) -> Result<(), CodecError>,
    ) -> Result<usize, CodecError> {
        // The parse never blocks (the queue is unbounded), so one worker
        // gains nothing over decoding inline after it.
        let consumers = if clamp_workers(workers) > 1 {
            workers
        } else {
            0
        };
        if consumers > 0 {
            planes_q.iter_mut().for_each(touch_pages);
            planes_f.iter_mut().for_each(touch_pages);
        }
        let reversible = !planes_q.is_empty();
        let stride = planes_q
            .first()
            .map(Plane::stride)
            .or_else(|| planes_f.first().map(Plane::stride))
            .unwrap_or(0);
        let writers_q: Vec<DisjointWriter<'_, i32>> = planes_q
            .iter_mut()
            .map(|p| DisjointWriter::new(p.raw_mut()))
            .collect();
        let writers_f: Vec<DisjointWriter<'_, f32>> = planes_f
            .iter_mut()
            .map(|p| DisjointWriter::new(p.raw_mut()))
            .collect();
        // Jobs numbered from `stop_at` on are dropped undecoded. A failing
        // block lowers it to just past its own number, so every earlier
        // block is still decoded and `first_failure` ends up holding the
        // lowest-numbered failure; a parse error lowers it to 0.
        let stop_at = AtomicUsize::new(usize::MAX);
        let first_failure: Mutex<Option<(usize, pj2k_ebcot::DecodeError)>> = Mutex::new(None);
        let (roi_s, roi_d) = self.roi;

        let consume = |state: &mut WorkerState, i: usize, job: BlockJob| {
            if i >= stop_at.load(Ordering::Relaxed) {
                return;
            }
            if let Err(e) = state.scratch.decode_into(
                job.geom.w,
                job.geom.h,
                job.ctx,
                job.msb,
                &job.segs,
                self.tier1,
                &mut state.out,
            ) {
                stop_at.fetch_min(i.saturating_add(1), Ordering::Relaxed);
                let mut first = first_failure.lock().unwrap_or_else(PoisonError::into_inner);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, e));
                }
                return;
            }
            if (roi_s, roi_d) != (0, 0) {
                for q in state.out.iter_mut() {
                    *q = undo_roi_shift(*q, roi_s, roi_d);
                }
            }
            // AUDIT(panic): the scatter below indexes with `comp < ncomp`
            // and `band_idx < nbands`, true by construction in the parser.
            #[allow(clippy::indexing_slicing)]
            // SAFETY: `state.out` holds `geom.w * geom.h` samples (Tier-1
            // contract); code-blocks tile each subband and subbands tile the
            // Mallat-layout plane, so the rectangles of distinct jobs are
            // disjoint, and the queue hands each job to exactly one worker.
            unsafe {
                if reversible {
                    // AUDIT(panic): `comp < ncomp` by construction in the parser.
                    scatter_block(&writers_q[job.comp], stride, &job.geom, &state.out, |q| q);
                } else {
                    // AUDIT(panic): `band_idx < nbands` by construction in the parser.
                    let step = self.steps[job.band_idx];
                    // AUDIT(panic): `comp < ncomp` by construction in the parser.
                    scatter_block(&writers_f[job.comp], stride, &job.geom, &state.out, |q| {
                        dequantize_value(q, step)
                    });
                }
            }
        };
        let mut produced = Ok(0);
        bounded_ordered_serve(
            consumers,
            usize::MAX,
            |_| WorkerState::default(),
            consume,
            |_, ()| {},
            |queue| {
                let mut n_jobs = 0usize;
                let parsed = parse(&mut |job| {
                    // A send fails only once a worker has panicked; that
                    // panic reaches the caller at the join.
                    let _ = queue.send(n_jobs, job);
                    n_jobs = n_jobs.saturating_add(1);
                });
                if parsed.is_err() {
                    stop_at.store(0, Ordering::Relaxed);
                }
                produced = parsed.map(|()| n_jobs);
            },
        );
        let n_jobs = produced?;
        match first_failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some((_, e)) => Err(CodecError::Tier1(e)),
            None => Ok(n_jobs),
        }
    }
}

/// Parse the packet stream of one tile body and hand every code-block
/// with coded data to `emit`, owned, the moment its segments are final —
/// i.e. while parsing the precinct's packet of the last *decoded* layer
/// (`decode_layers - 1`; zero-bit-plane counts are learned at first
/// inclusion and never change afterwards, so nothing a later layer
/// carries can alter the job). Layers past `decode_layers` are still
/// parsed to validate the stream.
// AUDIT(hot): per-precinct parse state plus one owned segment Vec per
// block, each built exactly once and handed off to the Tier-1 stage;
// the format! sites are cold malformed-input error paths.
fn parse_tile_blocks(
    hdr: &MainHeader,
    ctx: &TileCtx<'_>,
    res: &[Vec<(usize, Subband)>],
    nbands: usize,
    emit: &mut dyn FnMut(BlockJob),
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
                    // Empty bands carry no packets.
                    continue;
                }
                precincts.push(Prec {
                    comp,
                    band: sb.band,
                    band_idx: *band_idx,
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
                    // AUDIT(panic): `zbp <= ceiling <= MAX_PLANES` was just
                    // checked, so the subtraction cannot wrap and `msb >= 1`
                    // holds in the max_passes arm.
                    #[allow(clippy::arithmetic_side_effects)]
                    let msb = ceiling - zbp as u8;
                    let max_passes = if msb == 0 {
                        0
                    } else {
                        // AUDIT(panic): `msb >= 1` in this arm; see above.
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
                    emit(BlockJob {
                        comp: prec.comp,
                        band_idx: prec.band_idx,
                        geom: *geom,
                        ctx: band_ctx(prec.band),
                        msb,
                        segs,
                    });
                }
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
            width,
            height,
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
        // The output planes. The first tile allocates them once its header
        // and block budget have passed (DESIGN.md §9), and every tile writes
        // its samples straight into its own rectangle of them. Tiles are
        // counted as they arrive, not reserved: a corrupt header claiming
        // 1x1 tiles over a maximal image fails on its first missing SOT
        // segment, after one tile's work.
        let mut out: Vec<Plane<i32>> = Vec::new();
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
            self.decode_tile(&hdr, body, grid.rect(i), &mut out, &mut report)?;
        }
        r.expect_marker(codestream::EOC)?;
        // Every tile has run, so the first one allocated `out`.
        Ok((Image::new(out, hdr.bit_depth, hdr.signed), report))
    }

    /// Decode one tile body (DESIGN.md §15) into its rectangle `rect` of the
    /// output planes `out`, allocating those first when `out` is empty. The
    /// Tier-2 parser streams owned block jobs to the [`BlockSink`] as each
    /// precinct's segments become final; its workers write every decoded
    /// block straight into the component's Mallat-layout plane — the one
    /// the inverse DWT then runs on, with the full pool, once they have
    /// joined. After the inverse component transform, one row-range pass
    /// writes each output sample once.
    // AUDIT(hot): planes and band steps are built once per tile
    // (setup-time); steady-state block decodes run on warm per-worker
    // scratch — bench_decode's counting-allocator probe pins the warm path
    // at zero allocations per block; format! sites are cold error paths.
    fn decode_tile(
        &self,
        hdr: &MainHeader,
        body: &[u8],
        rect: TileRect,
        out: &mut Vec<Plane<i32>>,
        report: &mut DecodeReport,
    ) -> Result<(), CodecError> {
        let (w, h) = (rect.w, rect.h);
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
            decode_layers: self
                .max_layers
                .map_or(hdr.n_layers, |m| m.min(hdr.n_layers)),
        };

        // --- sample planes: Tier-1 output and inverse-DWT input at once ------
        let t0 = Instant::now();
        if out.is_empty() {
            // Lazily zeroed: each page is first touched by the output-pass
            // worker whose row band it holds.
            *out = (0..hdr.ncomp)
                .map(|_| Plane::new(hdr.width, hdr.height))
                .collect();
        }
        let reversible = hdr.wavelet == Wavelet::Reversible53;
        let mut planes_q: Vec<Plane<i32>> = Vec::new();
        let mut planes_f: Vec<Plane<f32>> = Vec::new();
        if reversible {
            planes_q = (0..hdr.ncomp).map(|_| Plane::new(w, h)).collect();
        } else {
            planes_f = (0..hdr.ncomp).map(|_| Plane::new(w, h)).collect();
        }
        let steps: Vec<f64> = deco
            .subbands()
            .iter()
            .map(|sb| band_step(hdr.base_step, sb.level.max(1), sb.band))
            .collect();
        report.stages.add(stage::SETUP, t0.elapsed());

        // --- tier-2 parse feeding tier-1 decode ---------------------------------
        let t0 = Instant::now();
        let mut tier2_time = Duration::ZERO;
        let sink = BlockSink {
            tier1: hdr.tier1,
            roi: (roi_s, roi_d),
            steps: &steps,
        };
        let decoded = sink.run(
            self.parallel.workers(),
            &mut planes_q,
            &mut planes_f,
            |emit| {
                let t0 = Instant::now();
                let parsed = parse_tile_blocks(hdr, &ctx, &res, nbands, emit);
                tier2_time = t0.elapsed();
                parsed
            },
        );
        report.stages.add(stage::TIER2, tier2_time);
        // What the parse did not hide is Tier-1 work (decode, inverse ROI
        // shift, dequantization, scatter).
        report
            .stages
            .add(stage::TIER1, t0.elapsed().saturating_sub(tier2_time));
        report.num_blocks = report.num_blocks.saturating_add(decoded?);

        // --- inverse DWT, in place, on the full pool -----------------------------
        let t0 = Instant::now();
        let exec = self.parallel.exec();
        let vstrat = VerticalStrategy::DEFAULT_STRIP;
        for q in planes_q.iter_mut() {
            let stats =
                inverse_53_with(q, hdr.levels, vstrat, LiftingMode::Fused, self.simd, &exec);
            report.dwt.merge(&stats);
        }
        for f in planes_f.iter_mut() {
            let stats =
                inverse_97_with(f, hdr.levels, vstrat, LiftingMode::Fused, self.simd, &exec);
            report.dwt.merge(&stats);
        }
        report.stages.add(stage::INTRA_COMPONENT, t0.elapsed());

        // --- inverse component transform ---------------------------------------
        let t0 = Instant::now();
        if let [a, b, c] = planes_q.as_mut_slice() {
            rct_inverse(a, b, c);
        }
        if let [a, b, c] = planes_f.as_mut_slice() {
            ict_inverse(a, b, c);
        }
        report.stages.add(stage::INTER_COMPONENT, t0.elapsed());

        // --- output: round, level shift and clamp, once per sample ---------------
        let t0 = Instant::now();
        let exec = grain_exec(&exec, w.saturating_mul(h));
        let range = SampleRange::new(hdr.bit_depth, hdr.signed);
        if reversible {
            write_output(&planes_q, out, rect, range, exec, |v| v);
        } else {
            write_output(&planes_f, out, rect, range, exec, round_half_away);
        }
        report.stages.add(stage::SETUP, t0.elapsed());
        Ok(())
    }
}

/// Round half away from zero, saturating: exactly `v.round() as i32` for
/// every `f32`, NaN and ±∞ included, without the libm `roundf` call that
/// `f32::round` costs per sample on the x86-64 SSE2 baseline.
///
/// `v as i32` truncates toward zero (saturating; NaN gives 0), and below
/// 2^23 — the only range where `v` has a fraction — `v - t` is exact, so
/// the fraction decides the step away from zero. At and above 2^23 the
/// fraction is 0, or (past the saturation point) the step saturates too.
#[inline]
fn round_half_away(v: f32) -> i32 {
    let t = v as i32;
    let f = v - t as f32;
    t.saturating_add(i32::from(f >= 0.5))
        .saturating_sub(i32::from(f <= -0.5))
}

/// The DC level shift and representable range of the output samples.
#[derive(Clone, Copy)]
struct SampleRange {
    shift: i32,
    lo: i32,
    hi: i32,
}

impl SampleRange {
    /// For the header's precision, which the decoder has checked is in
    /// `1..=16`: unsigned samples come back shifted up by `2^(bits-1)` into
    /// `0..2^bits`, signed ones are symmetric and unshifted.
    fn new(bit_depth: u8, signed: bool) -> Self {
        let half = 1i32
            .checked_shl(u32::from(bit_depth.saturating_sub(1)))
            .unwrap_or(0);
        let full = half.saturating_mul(2);
        if signed {
            Self {
                shift: 0,
                lo: half.saturating_neg(),
                hi: half.saturating_sub(1),
            }
        } else {
            Self {
                shift: half,
                lo: 0,
                hi: full.saturating_sub(1),
            }
        }
    }
}

/// The output stage of one tile: write `clamp(to_int(v) + shift, lo, hi)`
/// for every sample of the tile's component planes `src` into the tile's
/// rectangle `rect` of the image planes `out`, with the rows split over
/// `exec`. Each worker claims, and so first-touches, only its own row band
/// of each (lazily zeroed) output plane.
// AUDIT(hot): one writer Vec per tile (setup-time); the per-sample loop
// allocates nothing and calls no libm function.
// AUDIT(panic): `rect` comes from the image's own tile grid, so the tile lies
// inside the `hdr.width x hdr.height` output planes and `src` holds
// `rect.w x rect.h` samples per component; no offset below can overflow.
#[allow(clippy::arithmetic_side_effects)]
fn write_output<T: Copy + Sync>(
    src: &[Plane<T>],
    out: &mut [Plane<i32>],
    rect: TileRect,
    range: SampleRange,
    exec: &Exec,
    to_int: impl Fn(T) -> i32 + Sync,
) {
    debug_assert!(src.len() == out.len());
    let stride = out.first().map_or(0, Plane::stride);
    let dst: Vec<DisjointWriter<'_, i32>> = out
        .iter_mut()
        .map(|p| DisjointWriter::new(p.raw_mut()))
        .collect();
    exec.run_ranges(rect.h, |rows| {
        // Copied out once: read through the captured reference, they would
        // be reloaded after every store, which keeps the loop scalar.
        let SampleRange { shift, lo, hi } = range;
        let band = rect.y0 + rows.start..rect.y0 + rows.end;
        for (plane, dst) in src.iter().zip(&dst) {
            let claim = dst.claim_rect(rect.x0..rect.x0 + rect.w, band.clone(), stride);
            for y in rows.clone() {
                // SAFETY: row `rect.y0 + y`, columns `rect.x0..rect.x0 +
                // rect.w`, lies inside this worker's claimed band.
                let row = unsafe { claim.slice_mut((rect.y0 + y) * stride + rect.x0, rect.w) };
                for (d, &v) in row.iter_mut().zip(plane.row(y)) {
                    *d = to_int(v).saturating_add(shift).clamp(lo, hi);
                }
            }
        }
    });
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
    fn round_half_away_matches_f32_round() {
        let edges = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            0.499_999_97,
            -0.499_999_97,
            1.5,
            -1.5,
            2.5,
            -2.5,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            2_147_483_648.0,
            -2_147_483_648.0,
            2_147_483_520.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for v in edges {
            assert_eq!(round_half_away(v), v.round() as i32, "{v}");
        }
        let mut rng = pj2k_testkit::Rng::new(0x5eed);
        for _ in 0..1_000_000 {
            let v = f32::from_bits(rng.u64() as u32);
            assert_eq!(round_half_away(v), v.round() as i32, "{:#x}", v.to_bits());
        }
    }

    /// Every `f32` bit pattern, about half a minute in a release build.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
    fn round_half_away_matches_f32_round_on_every_f32() {
        for bits in 0..=u32::MAX {
            let v = f32::from_bits(bits);
            assert_eq!(round_half_away(v), v.round() as i32, "{bits:#x}");
        }
    }

    #[test]
    fn output_pass_saturates_and_clamps() {
        // One 4x2 tile at (1, 1) of a 6x4 output, 8-bit unsigned: the
        // level shift would overflow on the extremes; they clamp instead.
        let rect = TileRect {
            index: 0,
            x0: 1,
            y0: 1,
            w: 4,
            h: 2,
        };
        let range = SampleRange::new(8, false);
        let f = Plane::from_vec(
            4,
            2,
            vec![
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                3e9,
                -3e9,
                127.5,
                -128.5,
                -0.5,
            ],
        );
        let q = Plane::from_vec(4, 2, vec![i32::MAX, i32::MIN, 0, 127, 128, -128, -129, -1]);
        for workers in [1, 2] {
            let mut out = vec![Plane::<i32>::new(6, 4)];
            write_output(
                std::slice::from_ref(&f),
                &mut out,
                rect,
                range,
                &Exec::threads(workers),
                round_half_away,
            );
            assert_eq!(out[0].row(0), &[0; 6]);
            assert_eq!(out[0].row(1), &[0, 255, 0, 128, 255, 0]);
            assert_eq!(out[0].row(2), &[0, 0, 255, 0, 127, 0]);
            assert_eq!(out[0].row(3), &[0; 6]);
            write_output(
                std::slice::from_ref(&q),
                &mut out,
                rect,
                range,
                &Exec::threads(workers),
                |v| v,
            );
            assert_eq!(out[0].row(1), &[0, 255, 0, 128, 255, 0]);
            assert_eq!(out[0].row(2), &[0, 255, 0, 0, 127, 0]);
        }
        let signed = SampleRange::new(12, true);
        assert_eq!((signed.shift, signed.lo, signed.hi), (0, -2048, 2047));
        let deep = SampleRange::new(16, false);
        assert_eq!((deep.shift, deep.lo, deep.hi), (32768, 0, 65535));
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
            for tier in [SimdTier::Portable, SimdTier::Avx2] {
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
        let cfg_strip = EncoderConfig {
            levels: 3,
            ..Default::default()
        };
        let cfg_padded = EncoderConfig {
            levels: 3,
            filter: FilterStrategy::PaddedWidth,
            ..Default::default()
        };
        let a = encode(&img, cfg_strip);
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
    fn failing_block_reports_the_first_error_at_any_worker_count() {
        // No byte stream gets a bad block past the parser's plane/pass
        // checks, so hand the Tier-1 stage one directly: 40 zero-plane
        // blocks (valid: they decode to zeros), of which #7 and #23 carry
        // segments a zero-plane block cannot have. Whichever worker trips
        // first, the caller sees block #7's error — and sees it only after
        // the queue is drained and every worker has joined, or this test
        // would not come back.
        let deco = Decomposition::new(64, 40, 0);
        let geoms = blocks_of(&deco.subbands()[0], (8, 8));
        assert_eq!(geoms.len(), 40);
        let sink = BlockSink {
            tier1: Tier1Options::default(),
            roi: (0, 0),
            steps: &[1.0],
        };
        for workers in [1usize, 2, 3, 5] {
            let mut planes_q = vec![Plane::<i32>::new(64, 40)];
            let got = sink.run(workers, &mut planes_q, &mut [], |emit| {
                for (i, geom) in geoms.iter().enumerate() {
                    let bogus_passes = match i {
                        7 => 1,
                        23 => 2,
                        _ => 0,
                    };
                    emit(BlockJob {
                        comp: 0,
                        band_idx: 0,
                        geom: *geom,
                        ctx: band_ctx(pj2k_dwt::Band::LL),
                        msb: 0,
                        segs: vec![vec![0u8; 4]; bogus_passes],
                    });
                }
                Ok(())
            });
            assert_eq!(
                got,
                Err(CodecError::Tier1(
                    pj2k_ebcot::DecodeError::ZeroPlanePasses { passes: 1 }
                )),
                "workers={workers}"
            );
            // A parse error outranks any block failure.
            let got = sink.run(workers, &mut planes_q, &mut [], |emit| {
                emit(BlockJob {
                    comp: 0,
                    band_idx: 0,
                    geom: geoms[0],
                    ctx: band_ctx(pj2k_dwt::Band::LL),
                    msb: 0,
                    segs: vec![vec![0u8; 4]],
                });
                Err(CodecError::Parse("truncated".into()))
            });
            assert_eq!(got, Err(CodecError::Parse("truncated".into())));
        }
    }
}
