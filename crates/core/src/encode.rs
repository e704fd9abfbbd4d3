//! The encoding pipeline.

use crate::blocks::{band_ctx, blocks_of, grid_dims, indexed_resolutions, BlockGeom};
use crate::config::{EncoderConfig, RateControl, Roi};
use crate::decode::COD_BYPASS;
use crate::quant::{band_step, distortion_scale, quantize_plane};
use crate::report::stage;
use pj2k_dwt::LiftingMode::Fused;
use pj2k_dwt::{forward_53_with, forward_97_with, gains, Band, Decomposition, DwtStats};
use pj2k_ebcot::{BlockCoder, EncodedBlock};
use pj2k_image::tile::TileGrid;
use pj2k_image::transform::{dc_level_shift_forward, ict_forward, rct_forward};
use pj2k_image::{Image, Plane};
use pj2k_parutil::{pool_map_with_state, Schedule, StageTimes};
use pj2k_tier2::codestream::{self, MarkerWriter, PayloadWriter};
use pj2k_tier2::pcrd::{allocate_layers, allocate_layers_truncated, BlockRd};
use pj2k_tier2::{encode_packet, PrecinctState};
use std::time::Instant;

/// Everything the harness wants to know about one encode run.
#[derive(Debug, Clone, Default)]
pub struct EncodeReport {
    /// Wall-clock per pipeline stage (paper Fig. 3 breakdown).
    pub stages: StageTimes,
    /// Vertical vs. horizontal filtering time inside the DWT stage.
    pub dwt: DwtStats,
    /// Final codestream size in bytes.
    pub bytes: usize,
    /// Number of non-empty code-blocks coded.
    pub num_blocks: usize,
    /// Nominal coding passes: what coding every bit-plane of every block
    /// yields, `3 * msb_planes - 2` summed over the non-empty blocks. A
    /// rate-targeted encode codes fewer (see `coded_passes`).
    pub total_passes: usize,
    /// Coding passes Tier-1 actually produced, counting a block coded
    /// again to a lower floor plane each time. Equals `total_passes` for
    /// lossless and ROI encodes, which code everything once.
    pub coded_passes: usize,
    /// Coding passes the final quality layer includes.
    pub kept_passes: usize,
    /// Tier-1 rounds of the tile that needed most: 1 when every block is
    /// coded once in full; a rate-targeted encode takes 3 (the pilot's two
    /// stages, then the rest down to their floor planes; a stage without
    /// blocks is skipped) plus one per certification or re-coding round.
    pub tier1_rounds: usize,
    /// Every Tier-1 round of every tile, in the order they ran.
    pub rounds: Vec<Tier1Round>,
    /// The pilot estimate `(λ̂, C)` of every tile coded to a rate target
    /// without an ROI — slope threshold and envelope, DESIGN.md §18 — in
    /// tile order.
    pub pilot_estimates: Vec<(f64, f64)>,
    /// Per-block Tier-1 coding time in seconds, in job order — the
    /// work-item costs consumed by the SMP scheduling model. A block coded
    /// in several rounds reports the sum.
    pub block_times: Vec<f64>,
}

/// What a Tier-1 round coded (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Every block in full, once: lossless, ROI and full-coding encodes.
    Full,
    /// The pilot's first stage: its sub-lattice coded in full.
    Pilot1,
    /// The rest of the pilot, down to a plane below the stage-1 floor.
    Pilot2,
    /// Stage-2 pilot blocks coded deeper until the estimate is certified.
    Certify,
    /// Every non-pilot block, down to its floor plane.
    Main,
    /// Blocks the rate allocation could not clear, coded deeper.
    Verify,
}

impl RoundKind {
    /// Short name, as `pj2k encode --stats` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Pilot1 => "pilot-1",
            Self::Pilot2 => "pilot-2",
            Self::Certify => "certify",
            Self::Main => "main",
            Self::Verify => "verify",
        }
    }
}

/// One Tier-1 round: one `pool_map_with_state` over a subset of blocks.
#[derive(Debug, Clone)]
pub struct Tier1Round {
    /// What the round coded.
    pub kind: RoundKind,
    /// Blocks coded in the round.
    pub blocks: usize,
    /// Coding passes the round produced.
    pub passes: usize,
    /// Wall-clock seconds of the round.
    pub seconds: f64,
}

/// JPEG2000-style encoder configured by [`EncoderConfig`].
#[derive(Debug, Clone)]
pub struct Encoder {
    cfg: EncoderConfig,
    /// Code every pass even under a rate target (`oracle` builds only).
    full_coding: bool,
}

/// Tier-1 output: every job's block with its coding seconds, in job order.
type Coded = Vec<(EncodedBlock, f64)>;

/// One code-block coding job (extraction geometry + band identity).
struct BlockJob {
    comp: usize,
    geom: BlockGeom,
    level: u8,
    band: Band,
    /// Index of the subband in `Decomposition::subbands()` order (the
    /// Kmax-table key).
    band_idx: usize,
    /// `bx + 3·by` on the band's block grid: the block is in the
    /// rate-aware encoder's pilot when it is a multiple of
    /// [`PILOT_PERIOD`], and in its first stage when it is a multiple of
    /// [`STAGE1_PERIOD`] (see [`Encoder::code_to_rate`]).
    lattice: usize,
}

/// Per-(comp, resolution, band) precinct bookkeeping.
struct PrecinctGeom {
    comp: usize,
    grid: (usize, usize),
    /// Index of the precinct's first job in the global job list.
    first_job: usize,
    n_blocks: usize,
    /// Index of the subband in `Decomposition::subbands()` order (the
    /// Kmax-table key).
    band_idx: usize,
}

impl Encoder {
    /// Create an encoder after validating `cfg`.
    ///
    /// # Errors
    /// Returns the first configuration violation.
    pub fn new(cfg: EncoderConfig) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        // Warm the subband-gain table of the *configured* filter bank so
        // its one-time computation does not pollute the first encode's
        // stage timings.
        let gain: fn(u8, Band) -> f64 = match cfg.wavelet {
            pj2k_dwt::Wavelet::Reversible53 => gains::l2_gain_53,
            pj2k_dwt::Wavelet::Irreversible97 => gains::l2_gain_97,
        };
        for l in 1..=cfg.levels.max(1) {
            for band in [Band::HL, Band::LH, Band::HH] {
                let _ = gain(l, band);
            }
        }
        let _ = gain(cfg.levels.max(1), Band::LL);
        Ok(Self {
            cfg,
            full_coding: false,
        })
    }

    /// Code every pass of every block even under a rate target, as the
    /// coders the paper profiles do, instead of stopping above the planes
    /// PCRD discards. The codestream is the same either way; this is the
    /// reference the identity tests and the figure binaries compare with.
    #[cfg(feature = "oracle")]
    #[must_use]
    pub fn with_full_coding(mut self) -> Self {
        self.full_coding = true;
        self
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Encode `img` into a pj2k codestream, reporting per-stage timings.
    pub fn encode(&self, img: &Image) -> (Vec<u8>, EncodeReport) {
        let mut report = EncodeReport::default();
        let grid = match self.cfg.tiles {
            Some((tw, th)) => TileGrid::new(img.width(), img.height(), tw, th),
            None => TileGrid::single(img.width(), img.height()),
        };

        // Tiles are encoded one after another; the paper's tile-based
        // parallelization (which it argues against) is exercised by the
        // harness through `pj2k_image::tile` + independent encoders.
        let mut tile_bodies = Vec::with_capacity(grid.len());
        for rect in grid.iter() {
            let t0 = Instant::now();
            let tile_img = img.crop(rect.x0, rect.y0, rect.w, rect.h);
            report.stages.add(stage::SETUP, t0.elapsed());
            let body = self.encode_tile(tile_img, (rect.x0, rect.y0), &mut report);
            tile_bodies.push(body);
        }

        // Bitstream assembly.
        let t0 = Instant::now();
        let mut out = MarkerWriter::new();
        out.marker(codestream::SOC);
        let mut siz = PayloadWriter::new();
        siz.u32(img.width() as u32);
        siz.u32(img.height() as u32);
        siz.u8(img.num_components() as u8);
        siz.u8(img.bit_depth());
        siz.u8(u8::from(img.signed()));
        let (tw, th) = self.cfg.tiles.unwrap_or((0, 0));
        siz.u32(tw as u32);
        siz.u32(th as u32);
        out.segment(codestream::SIZ, &siz.finish());
        let mut cod = PayloadWriter::new();
        cod.u8(match self.cfg.wavelet {
            pj2k_dwt::Wavelet::Reversible53 => 0,
            pj2k_dwt::Wavelet::Irreversible97 => 1,
        });
        cod.u8(self.cfg.levels);
        cod.u16(self.cfg.code_block.0 as u16);
        cod.u16(self.cfg.code_block.1 as u16);
        cod.u16(self.cfg.num_layers() as u16);
        cod.u8(if self.cfg.tier1.bypass { COD_BYPASS } else { 0 });
        out.segment(codestream::COD, &cod.finish());
        let mut qcd = PayloadWriter::new();
        qcd.f64(self.cfg.base_step);
        out.segment(codestream::QCD, &qcd.finish());
        for (i, body) in tile_bodies.iter().enumerate() {
            let mut sot = PayloadWriter::new();
            sot.u32(i as u32);
            sot.u32(body.len() as u32);
            out.segment(codestream::SOT, &sot.finish());
            out.marker(codestream::SOD);
            out.raw(body);
        }
        out.marker(codestream::EOC);
        let bytes = out.finish();
        report.stages.add(stage::BITSTREAM_IO, t0.elapsed());
        report.bytes = bytes.len();
        (bytes, report)
    }

    /// Encode one tile into its body bytes (Kmax + ROI header + packets).
    /// The tile is consumed: the DC shift runs on it in place, and its
    /// components become the transform planes (the 5/3's as they are, the
    /// 9/7's converted to f32), so no second i32 copy stays live.
    fn encode_tile(
        &self,
        mut tile: Image,
        origin: (usize, usize),
        report: &mut EncodeReport,
    ) -> Vec<u8> {
        let cfg = &self.cfg;
        let exec = cfg.parallel.exec();
        let reversible = cfg.wavelet == pj2k_dwt::Wavelet::Reversible53;
        let ncomp = tile.num_components();
        let (w, h) = (tile.width(), tile.height());

        // --- pipeline setup: DC shift + sample-type conversion -----------
        let t0 = Instant::now();
        dc_level_shift_forward(&mut tile);
        let (mut planes_i, mut planes_f): (Vec<Plane<i32>>, Vec<Plane<f32>>) = if reversible {
            (tile.into_components(), Vec::new())
        } else {
            // Each i32 component is dropped once converted: only the f32
            // planes stay live into the transform.
            let planes = tile.into_components().into_iter();
            (Vec::new(), planes.map(|p| p.map(|v| v as f32)).collect())
        };
        report.stages.add(stage::SETUP, t0.elapsed());

        // --- inter-component transform ------------------------------------
        let t0 = Instant::now();
        if ncomp == 3 {
            if reversible {
                let (a, rest) = planes_i.split_at_mut(1);
                let (b, c) = rest.split_at_mut(1);
                rct_forward(&mut a[0], &mut b[0], &mut c[0]);
            } else {
                let (a, rest) = planes_f.split_at_mut(1);
                let (b, c) = rest.split_at_mut(1);
                ict_forward(&mut a[0], &mut b[0], &mut c[0]);
            }
        }
        report.stages.add(stage::INTER_COMPONENT, t0.elapsed());

        // --- DWT → quantization → Tier-1 ----------------------------------
        let deco = Decomposition::new(w, h, cfg.levels);
        let vstrat = cfg.filter.vertical();
        let band_list = deco.subbands();
        let (jobs, precincts) = self.build_jobs(&deco, ncomp);
        let mut roi_sd = (0u8, 0u8);
        let n_layers = cfg.num_layers();
        // Cumulative byte budgets per layer. Bits per *pixel*, the
        // conventional rate unit (an RGB pixel's budget covers all three
        // components).
        let budgets: Option<Vec<usize>> = match &cfg.rate {
            RateControl::Lossless => None,
            RateControl::TargetBpp(rates) => Some(
                rates
                    .iter()
                    .map(|bpp| (bpp * (w * h) as f64 / 8.0).floor() as usize)
                    .collect(),
            ),
        };

        // --- intra-component transform (DWT) --------------------------
        let t0 = Instant::now();
        for c in 0..ncomp {
            let stats = if reversible {
                forward_53_with(&mut planes_i[c], cfg.levels, vstrat, Fused, cfg.simd, &exec).1
            } else {
                forward_97_with(&mut planes_f[c], cfg.levels, vstrat, Fused, cfg.simd, &exec).1
            };
            report.dwt.merge(&stats);
        }
        report.stages.add(stage::INTRA_COMPONENT, t0.elapsed());

        // --- quantization (lossy path) ---------------------------------
        let t0 = Instant::now();
        if !reversible {
            for pf in planes_f.iter().take(ncomp) {
                let mut q = Plane::<i32>::with_stride(w, h, pf.stride());
                for sb in &band_list {
                    if sb.is_empty() {
                        continue;
                    }
                    let step = band_step(cfg.base_step, sb.level.max(1), sb.band);
                    quantize_plane(pf, &mut q, (sb.x0, sb.y0, sb.w, sb.h), step, &exec);
                }
                planes_i.push(q);
            }
        }
        // --- ROI scaling (MAXSHIFT, paper Fig. 1 pipeline stage) -------
        if let Some(roi) = self.cfg.roi {
            if let Some(local) = intersect_roi(roi, origin, w, h) {
                roi_sd = crate::roi::apply_roi_shift(&mut planes_i, &deco, local);
            }
        }
        report.stages.add(stage::QUANTIZATION, t0.elapsed());

        // --- tier-1 coding (under a rate target: and R/D allocation) ---
        let (coded, alloc): (Coded, Option<Vec<Vec<usize>>>) = match &budgets {
            // Not with an ROI: MAXSHIFT has moved its coefficients to
            // planes the envelope of `code_to_rate` says nothing about.
            Some(budgets) if !self.full_coding && cfg.roi.is_none() => {
                let (coded, alloc) = self.code_to_rate(&jobs, &planes_i, budgets, report);
                (coded, Some(alloc))
            }
            _ => {
                let t0 = Instant::now();
                let coded = self.map_blocks(&jobs, &planes_i, None);
                let elapsed = t0.elapsed();
                report.stages.add(stage::TIER1, elapsed);
                let passes = coded.iter().map(|(b, _)| b.passes.len()).sum::<usize>();
                report.coded_passes += passes;
                report.tier1_rounds = report.tier1_rounds.max(1);
                report.rounds.push(Tier1Round {
                    kind: RoundKind::Full,
                    blocks: coded.len(),
                    passes,
                    seconds: elapsed.as_secs_f64(),
                });
                (coded, None)
            }
        };
        // The paths that code every pass once allocate afterwards.
        let alloc = alloc.unwrap_or_else(|| {
            let t0 = Instant::now();
            let alloc = match &budgets {
                None => vec![coded.iter().map(|(b, _)| b.passes.len()).collect()],
                Some(budgets) => {
                    let scales: Vec<f64> = jobs.iter().map(|j| self.distortion_scale(j)).collect();
                    let rd: Vec<BlockRd> = coded
                        .iter()
                        .zip(&scales)
                        .map(|((blk, _), &scale)| block_rd(blk, scale))
                        .collect();
                    // What the rate-aware pilot's estimate is compared
                    // with: the one from its whole lattice coded in full.
                    #[cfg(feature = "oracle")]
                    if cfg.roi.is_none() {
                        let budget = budgets.last().copied().unwrap_or(0);
                        let est = pilot_estimate(&jobs, PILOT_PERIOD, &coded, &rd, &scales, budget);
                        report.pilot_estimates.push(est);
                    }
                    allocate_layers(&rd, budgets)
                }
            };
            report.stages.add(stage::RD_ALLOCATION, t0.elapsed());
            alloc
        });
        report.num_blocks += coded.len();
        report.total_passes += coded
            .iter()
            .map(|(b, _)| (3 * usize::from(b.msb_planes)).saturating_sub(2))
            .sum::<usize>();
        if let Some(last) = alloc.last() {
            report.kept_passes += last.iter().sum::<usize>();
        }
        report.block_times.extend(coded.iter().map(|(_, t)| *t));

        // --- tier-2 coding -----------------------------------------------------
        let t0 = Instant::now();
        // Kmax per (comp, band index) so zero-bit-plane counts are relative
        // to a decoder-known ceiling.
        let nbands = band_list.len();
        let mut kmax = vec![0u8; ncomp * nbands];
        for (job, (blk, _)) in jobs.iter().zip(&coded) {
            let slot = &mut kmax[job.comp * nbands + job.band_idx];
            *slot = (*slot).max(blk.msb_planes);
        }
        let mut states: Vec<PrecinctState> = precincts
            .iter()
            .map(|pg| {
                let (gw, gh) = pg.grid;
                if pg.n_blocks == 0 {
                    // Empty band (degenerate tile): placeholder state,
                    // never consulted because empty precincts emit no
                    // packets.
                    return PrecinctState::for_encoder(1, 1, &[n_layers as u32], &[0]);
                }
                let first_layer: Vec<u32> = (0..pg.n_blocks)
                    .map(|i| {
                        let j = pg.first_job + i;
                        (0..n_layers)
                            .find(|&l| alloc[l][j] > 0)
                            .map_or(n_layers as u32, |l| l as u32)
                    })
                    .collect();
                let ceiling = kmax[pg.comp * nbands + pg.band_idx];
                let zbp: Vec<u32> = (0..pg.n_blocks)
                    .map(|i| {
                        let j = pg.first_job + i;
                        u32::from(ceiling - coded[j].0.msb_planes)
                    })
                    .collect();
                PrecinctState::for_encoder(gw.max(1), gh.max(1), &first_layer, &zbp)
            })
            .collect();

        let mut body = Vec::new();
        for &k in &kmax {
            body.push(k);
        }
        body.push(roi_sd.0);
        body.push(roi_sd.1);
        for (l, layer_alloc) in alloc.iter().enumerate() {
            for (pi, pg) in precincts.iter().enumerate() {
                if pg.n_blocks == 0 {
                    continue;
                }
                let upto = &layer_alloc[pg.first_job..pg.first_job + pg.n_blocks];
                let pass_lens: Vec<Vec<usize>> = (0..pg.n_blocks)
                    .map(|i| {
                        coded[pg.first_job + i]
                            .0
                            .passes
                            .iter()
                            .map(|p| p.len)
                            .collect()
                    })
                    .collect();
                let prev_included: Vec<usize> = (0..pg.n_blocks)
                    .map(|i| states[pi].included_passes(i))
                    .collect();
                let header = encode_packet(&mut states[pi], l, upto, &pass_lens);
                assert!(header.len() <= u16::MAX as usize, "packet header too long");
                body.extend_from_slice(&(header.len() as u16).to_be_bytes());
                body.extend_from_slice(&header);
                for i in 0..pg.n_blocks {
                    let j = pg.first_job + i;
                    for p in prev_included[i]..upto[i] {
                        body.extend_from_slice(coded[j].0.segment(p));
                    }
                }
            }
        }
        report.stages.add(stage::TIER2, t0.elapsed());
        body
    }

    /// Enumerate code-block jobs and precinct geometry for one tile.
    fn build_jobs(&self, deco: &Decomposition, ncomp: usize) -> (Vec<BlockJob>, Vec<PrecinctGeom>) {
        let mut jobs = Vec::new();
        let mut precincts = Vec::new();
        let res = indexed_resolutions(deco);
        for comp in 0..ncomp {
            for bands in &res {
                for (band_idx, sb) in bands {
                    let grid = grid_dims(sb, self.cfg.code_block);
                    let first_job = jobs.len();
                    let blocks = blocks_of(sb, self.cfg.code_block);
                    for (i, geom) in blocks.iter().enumerate() {
                        // Raster order over the band's block grid.
                        let (bx, by) = (i % grid.0, i / grid.0);
                        jobs.push(BlockJob {
                            comp,
                            geom: *geom,
                            level: sb.level,
                            band: sb.band,
                            band_idx: *band_idx,
                            // The skewed lattice spreads a sample over rows
                            // and columns alike; `i % 8` would pick whole
                            // columns of a power-of-two-wide grid.
                            lattice: bx + 3 * by,
                        });
                    }
                    precincts.push(PrecinctGeom {
                        comp,
                        grid,
                        first_job,
                        n_blocks: blocks.len(),
                        band_idx: *band_idx,
                    });
                }
            }
        }
        (jobs, precincts)
    }

    /// Pixel-domain weight of a job's integer-domain distortion.
    fn distortion_scale(&self, job: &BlockJob) -> f64 {
        if self.cfg.wavelet == pj2k_dwt::Wavelet::Reversible53 {
            let g = gains::l2_gain_53(job.level.max(1), job.band);
            g * g
        } else {
            let step = band_step(self.cfg.base_step, job.level.max(1), job.band);
            distortion_scale(step, job.level.max(1), job.band)
        }
    }

    /// Run Tier-1 over `jobs` — all of them in full, or with `subset =
    /// Some((indices, floors))` only `jobs[i]` for `i` in `indices`, each
    /// down to bit-plane `floors[i]` — under the configured parallel mode,
    /// returning blocks and their coding seconds in job (or `indices`)
    /// order.
    ///
    /// Every execution path feeds its blocks through a per-worker
    /// [`BlockCoder`] scratch arena: the coefficient staging buffer, the
    /// packed engine state and the MQ byte buffers are allocated once per
    /// worker and reused for every block that worker codes.
    fn map_blocks(
        &self,
        jobs: &[BlockJob],
        planes: &[Plane<i32>],
        subset: Option<(&[usize], &[u8])>,
    ) -> Coded {
        let code_one = |coder: &mut BlockCoder, k: usize| -> (EncodedBlock, f64) {
            let t = Instant::now();
            let (i, floor) =
                subset.map_or((k, 0), |(indices, floors)| (indices[k], floors[indices[k]]));
            let j = &jobs[i];
            let p = &planes[j.comp];
            let coeffs = coder.coeff_scratch();
            for y in j.geom.y0..j.geom.y0 + j.geom.h {
                coeffs.extend_from_slice(&p.row(y)[j.geom.x0..j.geom.x0 + j.geom.w]);
            }
            let mut blk = EncodedBlock::default();
            coder.encode_scratch_into(
                j.geom.w,
                j.geom.h,
                band_ctx(j.band),
                self.cfg.tier1,
                floor,
                &mut blk,
            );
            (blk, t.elapsed().as_secs_f64())
        };
        let n = subset.map_or(jobs.len(), |(indices, _)| indices.len());
        let engine = self.cfg.tier1_engine;
        pool_map_with_state(
            n,
            self.cfg.parallel.workers(),
            Schedule::StaggeredRoundRobin,
            |_| BlockCoder::with_engine(engine),
            code_one,
        )
    }

    /// Tier-1 and rate allocation under a rate target, coding only the
    /// bit-planes the allocation can use (DESIGN.md §18). Returns the same
    /// blocks-as-far-as-kept and the same allocation as coding every pass
    /// and running [`allocate_layers`] would — the codestream is
    /// byte-identical — in four steps:
    ///
    /// 1. *Pilot, stage 1.* One block in [`STAGE1_PERIOD`] of every band
    ///    is coded in full. Its hull increments, each weighted by the share
    ///    of its band the sample stands for, predict the slope threshold
    ///    λ̂ the last layer's budget will reach, and their largest slope
    ///    per unit of `scale · 4^plane` is the envelope: the steepest any
    ///    bit-plane codes, relative to its weight in the image.
    /// 2. *Pilot, stage 2.* The rest of the pilot (one block in
    ///    [`PILOT_PERIOD`]) is coded to one plane below the floor stage 1
    ///    predicts, and λ̂ and the envelope are taken again from the whole
    ///    pilot. A stage-2 block whose first uncoded plane could still
    ///    reach λ̂ is coded deeper until none is left (*certify*). Every
    ///    increment steeper than that plane's bound is the same in the
    ///    block's truncated and complete hulls, so λ̂ is the one the pilot
    ///    coded in full gives, and so is the envelope unless a block hides
    ///    below its floor a plane steeper than the envelope says — the
    ///    assumption the main round makes of every block.
    /// 3. *Main.* Every other block is coded down to its floor plane, the
    ///    lowest whose envelope slope still reaches [`FLOOR_MARGIN`] · λ̂.
    /// 4. *Verify.* The real allocation runs over everything coded, told
    ///    for each stopped block the envelope slope of its first uncoded
    ///    plane. Blocks it cannot clear (see
    ///    [`allocate_layers_truncated`]), and blocks whose kept prefix
    ///    reaches into the last plane they coded — the envelope evidently
    ///    underrated them — are coded again to a lower floor and the step
    ///    repeats. Floors only fall, and a block at floor 0 is complete,
    ///    so this ends at full coding at the latest.
    ///
    /// Pilot membership, floors and rounds depend on the tile and the
    /// configuration only, never on workers, schedule or timing.
    fn code_to_rate(
        &self,
        jobs: &[BlockJob],
        planes: &[Plane<i32>],
        budgets: &[usize],
        report: &mut EncodeReport,
    ) -> (Coded, Vec<Vec<usize>>) {
        let n = jobs.len();
        let mut st = ToRate {
            enc: self,
            jobs,
            planes,
            scales: jobs.iter().map(|j| self.distortion_scale(j)).collect(),
            floors: vec![0u8; n],
            coded: (0..n).map(|_| Default::default()).collect(),
            rd: vec![BlockRd::default(); n],
            rounds: 0,
        };
        let budget = budgets.last().copied().unwrap_or(0);
        let (pilot, rest): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| jobs[i].lattice.is_multiple_of(PILOT_PERIOD));
        let (stage1, stage2): (Vec<usize>, Vec<usize>) = pilot
            .into_iter()
            .partition(|&i| jobs[i].lattice.is_multiple_of(STAGE1_PERIOD));

        st.code(RoundKind::Pilot1, &stage1, report);
        let (lambda0, envelope0) = st.estimate(STAGE1_PERIOD, budget, report);
        for &i in &stage2 {
            st.floors[i] =
                floor_plane(FLOOR_MARGIN * lambda0, envelope0, st.scales[i]).saturating_sub(1);
        }
        st.code(RoundKind::Pilot2, &stage2, report);
        let mut step = 1u8;
        let (lambda, envelope) = loop {
            let (lambda, envelope) = st.estimate(PILOT_PERIOD, budget, report);
            // Stage-2 blocks whose first uncoded plane could reach λ̂.
            let open: Vec<usize> = stage2
                .iter()
                .copied()
                .filter(|&i| st.floors[i] > 0 && st.uncoded_bound(i, envelope) >= lambda)
                .collect();
            if open.is_empty() {
                break (lambda, envelope);
            }
            st.deepen(&open, step, lambda, envelope);
            st.code(RoundKind::Certify, &open, report);
            step = step.saturating_mul(2);
        };
        report.pilot_estimates.push((lambda, envelope));
        for &i in &rest {
            st.floors[i] = floor_plane(FLOOR_MARGIN * lambda, envelope, st.scales[i]);
        }
        st.code(RoundKind::Main, &rest, report);

        let mut step = 1u8;
        loop {
            let t0 = Instant::now();
            let uncoded_below: Vec<f64> = (0..n).map(|i| st.uncoded_bound(i, envelope)).collect();
            let alloc = allocate_layers_truncated(&st.rd, budgets, &uncoded_below);
            // Code again: the blocks the allocation could not clear, and
            // the stopped blocks it kept to within one bit-plane (three
            // passes) of where they stopped.
            let mut again = vec![false; n];
            for &i in &alloc.suspect {
                again[i] = true;
            }
            if let Some(kept) = alloc.layers.last() {
                for i in 0..n {
                    again[i] |=
                        st.floors[i] > 0 && kept[i] > 0 && kept[i] + 3 > st.rd[i].rates.len();
                }
            }
            let again: Vec<usize> = (0..n).filter(|&i| again[i]).collect();
            report.stages.add(stage::RD_ALLOCATION, t0.elapsed());
            if again.is_empty() {
                report.tier1_rounds = report.tier1_rounds.max(st.rounds);
                return (st.coded, alloc.layers);
            }
            st.deepen(&again, step, alloc.threshold, envelope);
            st.code(RoundKind::Verify, &again, report);
            step = step.saturating_mul(2);
        }
    }
}

/// What [`Encoder::code_to_rate`] carries from one Tier-1 round to the
/// next, per job: the floor plane, the block as far as it is coded and its
/// rate/distortion trajectory.
struct ToRate<'a> {
    enc: &'a Encoder,
    jobs: &'a [BlockJob],
    planes: &'a [Plane<i32>],
    scales: Vec<f64>,
    floors: Vec<u8>,
    coded: Coded,
    rd: Vec<BlockRd>,
    rounds: usize,
}

impl ToRate<'_> {
    /// One Tier-1 round over `indices`, each block down to its floor; an
    /// empty round is skipped.
    fn code(&mut self, kind: RoundKind, indices: &[usize], report: &mut EncodeReport) {
        if indices.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let out = self
            .enc
            .map_blocks(self.jobs, self.planes, Some((indices, &self.floors)));
        let mut passes = 0;
        for (&i, (blk, secs)) in indices.iter().zip(out) {
            passes += blk.passes.len();
            // A floor at or above the top plane codes nothing; what is
            // left uncoded then starts at the top plane.
            self.floors[i] = self.floors[i].min(blk.msb_planes);
            self.rd[i] = block_rd(&blk, self.scales[i]);
            self.coded[i] = (blk, self.coded[i].1 + secs);
        }
        let elapsed = t0.elapsed();
        report.stages.add(stage::TIER1, elapsed);
        report.coded_passes += passes;
        report.rounds.push(Tier1Round {
            kind,
            blocks: indices.len(),
            passes,
            seconds: elapsed.as_secs_f64(),
        });
        self.rounds += 1;
    }

    /// [`pilot_estimate`] over the blocks coded so far.
    fn estimate(&self, period: usize, budget: usize, report: &mut EncodeReport) -> (f64, f64) {
        let t0 = Instant::now();
        let est = pilot_estimate(
            self.jobs,
            period,
            &self.coded,
            &self.rd,
            &self.scales,
            budget,
        );
        report.stages.add(stage::RD_ALLOCATION, t0.elapsed());
        est
    }

    /// The envelope slope of job `i`'s first uncoded plane, 0 when it is
    /// complete: the bound [`allocate_layers_truncated`] takes.
    fn uncoded_bound(&self, i: usize, envelope: f64) -> f64 {
        match self.floors[i] {
            0 => 0.0,
            q => envelope * plane_weight(self.scales[i], q - 1),
        }
    }

    /// Lower the floors of `again` to where `lambda` puts them, and by at
    /// least `step` planes — the callers double it per round — so that a
    /// block the envelope misjudges reaches floor 0 in a handful of rounds.
    fn deepen(&mut self, again: &[usize], step: u8, lambda: f64, envelope: f64) {
        for &i in again {
            let by_threshold = floor_plane(FLOOR_MARGIN * lambda, envelope, self.scales[i]);
            self.floors[i] = self.floors[i].saturating_sub(step).min(by_threshold);
        }
    }
}

/// The pilot is the blocks with `(bx + 3·by) mod PILOT_PERIOD == 0` on
/// their band's block grid: one in eight, every band's first block among
/// them.
const PILOT_PERIOD: usize = 8;

/// The pilot's first stage, the blocks it codes in full: a multiple of
/// [`PILOT_PERIOD`], so that stage 1 is a sub-lattice of the pilot that
/// still holds every band's first block (lattice position 0). Stage 1 only
/// has to place the stage-2 floors, and those tolerate a poor estimate: a
/// stage-2 block stops one plane (a factor 4 in slope) below a floor that
/// already takes [`FLOOR_MARGIN`] (a factor 2), so its first uncoded plane
/// is bounded by λ̂₀/8, and certification re-codes anything only when the
/// whole pilot's λ̂ lands 8× under stage 1's. Full coding is what stage 1
/// costs, so the period is as coarse as the sample allows: at 32 stage 1
/// is a quarter of the pilot (16 would be half), while the finest bands of
/// a large image (a 16×16 grid) still put six blocks in it.
const STAGE1_PERIOD: usize = 4 * PILOT_PERIOD;

/// Share of the predicted slope threshold a plane's envelope slope must
/// reach for the main round to code it. Below 1 so that a threshold
/// predicted a little high (the pilot is an eighth of the image) does not
/// send a quarter of the blocks into a second round for one more plane;
/// at 1/2 the main round codes half a plane more than the prediction asks.
const FLOOR_MARGIN: f64 = 0.5;

/// Weight of bit-plane `plane` of a block with distortion scale `scale`:
/// squared magnitudes, and with them R-D slopes, grow fourfold per plane.
fn plane_weight(scale: f64, plane: u8) -> f64 {
    scale * 4f64.powi(i32::from(plane))
}

/// The lowest bit-plane whose envelope slope reaches `lambda`: the floor a
/// block of distortion scale `scale` is coded down to.
fn floor_plane(lambda: f64, envelope: f64, scale: f64) -> u8 {
    (0..pj2k_ebcot::MAX_PLANES)
        .find(|&q| envelope * plane_weight(scale, q) >= lambda)
        .unwrap_or(pj2k_ebcot::MAX_PLANES)
}

/// Cumulative rate/distortion trajectory of a coded block, in the
/// pixel-domain units `scale` converts to.
fn block_rd(blk: &EncodedBlock, scale: f64) -> BlockRd {
    let mut rates = Vec::with_capacity(blk.passes.len());
    let mut dists = Vec::with_capacity(blk.passes.len());
    let mut r = 0usize;
    let mut d = 0f64;
    for p in &blk.passes {
        r += p.len;
        d += p.delta_distortion * scale;
        rates.push(r);
        dists.push(d);
    }
    BlockRd { rates, dists }
}

/// What the sample of blocks with `lattice` a multiple of `period`
/// predicts for the whole tile: the slope threshold at which `budget` bytes
/// run out, and the envelope (the largest hull-increment slope per unit of
/// [`plane_weight`]). Each sampled block's bytes count for the share of its
/// band's samples it represents, so bands the sample covers whole (the
/// few-block coarse levels, where a low rate spends most of its bytes) are
/// not counted `period` times over.
fn pilot_estimate(
    jobs: &[BlockJob],
    period: usize,
    coded: &[(EncodedBlock, f64)],
    rd: &[BlockRd],
    scales: &[f64],
    budget: usize,
) -> (f64, f64) {
    let member = |j: &BlockJob| j.lattice.is_multiple_of(period);
    let nbands = jobs.iter().map(|j| j.band_idx + 1).max().unwrap_or(0);
    let band = |j: &BlockJob| j.comp * nbands + j.band_idx;
    let ncomp = jobs.iter().map(|j| j.comp + 1).max().unwrap_or(0);
    let mut samples = vec![(0usize, 0usize); ncomp * nbands]; // (all, sampled)
    for j in jobs {
        let area = j.geom.w * j.geom.h;
        samples[band(j)].0 += area;
        if member(j) {
            samples[band(j)].1 += area;
        }
    }
    let mut envelope = 0f64;
    let mut incs: Vec<(f64, f64)> = Vec::new(); // (slope, bytes it stands for)
    for i in (0..jobs.len()).filter(|&i| member(&jobs[i])) {
        let (all, sampled) = samples[band(&jobs[i])];
        let weight = all as f64 / sampled as f64;
        let (mut prev_r, mut prev_d) = (0usize, 0f64);
        for n in rd[i].hull() {
            let (r, d) = (rd[i].rates[n - 1], rd[i].dists[n - 1]);
            let slope = (d - prev_d) / (r - prev_r) as f64;
            let plane = coded[i].0.passes[n - 1].plane;
            envelope = envelope.max(slope / plane_weight(scales[i], plane));
            incs.push((slope, weight * (r - prev_r) as f64));
            (prev_r, prev_d) = (r, d);
        }
    }
    incs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut spent = 0f64;
    let lambda = incs
        .iter()
        .find(|(_, bytes)| {
            spent += bytes;
            spent > budget as f64
        })
        .map_or(0.0, |&(slope, _)| slope);
    (lambda, envelope)
}

/// Intersect an image-coordinate ROI with a tile at `origin` of size
/// `w x h`, returning the tile-local rectangle (or `None` when disjoint).
fn intersect_roi(roi: Roi, origin: (usize, usize), w: usize, h: usize) -> Option<Roi> {
    let x0 = roi.x0.max(origin.0);
    let y0 = roi.y0.max(origin.1);
    let x1 = (roi.x0 + roi.w).min(origin.0 + w);
    let y1 = (roi.y0 + roi.h).min(origin.1 + h);
    if x0 >= x1 || y0 >= y1 {
        return None;
    }
    Some(Roi {
        x0: x0 - origin.0,
        y0: y0 - origin.1,
        w: x1 - x0,
        h: y1 - y0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterStrategy, ParallelMode, RateControl};
    use pj2k_testkit::synth;

    #[test]
    fn encode_produces_marker_structure() {
        let img = synth::natural_gray(64, 64, 1);
        let enc = Encoder::new(EncoderConfig {
            levels: 3,
            ..Default::default()
        })
        .unwrap();
        let (bytes, report) = enc.encode(&img);
        assert_eq!(&bytes[..2], &[0xFF, 0x4F], "SOC");
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9], "EOC");
        assert!(report.num_blocks > 0);
        assert!(report.total_passes > 0);
        assert_eq!(report.block_times.len(), report.num_blocks);
        assert_eq!(report.bytes, bytes.len());
    }

    #[test]
    fn rate_targets_shrink_output() {
        let img = synth::natural_gray(128, 128, 3);
        let sizes: Vec<usize> = [0.25, 1.0, 4.0]
            .iter()
            .map(|&bpp| {
                let enc = Encoder::new(EncoderConfig {
                    rate: RateControl::TargetBpp(vec![bpp]),
                    levels: 4,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0.len()
            })
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
        // Body budget is respected; headers add a modest overhead.
        let body_budget = (0.25 * (128.0 * 128.0) / 8.0) as usize;
        assert!(
            sizes[0] < body_budget * 2 + 600,
            "0.25 bpp encode is {} bytes (budget {body_budget})",
            sizes[0]
        );
    }

    #[test]
    fn stage_times_cover_paper_stages() {
        let img = synth::natural_gray(64, 64, 9);
        let enc = Encoder::new(EncoderConfig {
            levels: 2,
            ..Default::default()
        })
        .unwrap();
        let (_, report) = enc.encode(&img);
        for s in [
            stage::SETUP,
            stage::INTER_COMPONENT,
            stage::INTRA_COMPONENT,
            stage::QUANTIZATION,
            stage::TIER1,
            stage::RD_ALLOCATION,
            stage::TIER2,
            stage::BITSTREAM_IO,
        ] {
            assert!(
                report.stages.iter().any(|(n, _)| n == s),
                "stage {s} missing"
            );
        }
        assert!(report.dwt.total().as_nanos() > 0);
    }

    #[test]
    fn parallel_modes_produce_identical_streams() {
        // Workers never reorder output: every block has a fixed output
        // slot, so the codestream is the sequential one at every worker
        // count.
        for (wi, hi, seed) in [(96usize, 80usize, 5u64), (65, 127, 12)] {
            let img = synth::natural_gray(wi, hi, seed);
            let mk = |parallel| {
                let enc = Encoder::new(EncoderConfig {
                    levels: 3,
                    parallel,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0
            };
            let seq = mk(ParallelMode::Sequential);
            for workers in [2usize, 3, 5] {
                assert_eq!(
                    seq,
                    mk(ParallelMode::WorkerPool { workers }),
                    "{wi}x{hi} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn tier1_schedules_produce_identical_streams() {
        // The encoder hands Tier-1 blocks out in staggered round-robin, the
        // paper's policy. With small code-blocks over three components
        // each worker gets many blocks from every component and band, and
        // each block still lands in its own slot: lossless or lossy, the
        // codestream is the sequential one at every worker count.
        let img = synth::natural_rgb(72, 56, 9);
        for (wavelet, rate) in [
            (pj2k_dwt::Wavelet::Reversible53, RateControl::Lossless),
            (
                pj2k_dwt::Wavelet::Irreversible97,
                RateControl::TargetBpp(vec![0.5, 2.0]),
            ),
        ] {
            let mk = |parallel| {
                let enc = Encoder::new(EncoderConfig {
                    wavelet,
                    levels: 3,
                    code_block: (16, 16),
                    rate: rate.clone(),
                    parallel,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0
            };
            let seq = mk(ParallelMode::Sequential);
            for workers in [2usize, 3, 5] {
                assert_eq!(
                    seq,
                    mk(ParallelMode::WorkerPool { workers }),
                    "{wavelet:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn filter_strategies_produce_identical_streams() {
        // Strip and naive filtering compute the same transform, to the last
        // 9/7 float bit, so the codestream must be identical. A power-of-two
        // and an odd-sized image, both wavelets.
        for img in [
            synth::natural_gray(128, 64, 7),
            synth::natural_gray(65, 127, 4),
        ] {
            for wavelet in [
                pj2k_dwt::Wavelet::Reversible53,
                pj2k_dwt::Wavelet::Irreversible97,
            ] {
                let mk = |filter| {
                    let enc = Encoder::new(EncoderConfig {
                        levels: 3,
                        wavelet,
                        filter,
                        ..Default::default()
                    })
                    .unwrap();
                    enc.encode(&img).0
                };
                let naive = mk(FilterStrategy::Naive);
                let strip = mk(FilterStrategy::Strip);
                assert!(naive == strip, "{wavelet:?}");
            }
        }
    }

    #[test]
    fn pipelined_matches_barriered_bit_identical() {
        // `overlap` is inert on both sides (kept for `benchmark/` only):
        // either value must give the same codestream from the encoder and
        // the same pixels from the decoder, sequential and pooled, lossy
        // (rate-aware Tier-1), lossless, ROI and tiled RGB alike.
        use crate::config::StageOverlap::{Barriered, Pipelined};
        use crate::Decoder;
        let roi = Roi {
            x0: 8,
            y0: 8,
            w: 16,
            h: 16,
        };
        let lossless = EncoderConfig {
            wavelet: pj2k_dwt::Wavelet::Reversible53,
            rate: RateControl::Lossless,
            levels: 3,
            ..Default::default()
        };
        let lossy = EncoderConfig {
            rate: RateControl::TargetBpp(vec![0.5]),
            code_block: (16, 16),
            levels: 3,
            ..Default::default()
        };
        let cases = [
            (synth::natural_gray(96, 80, 9), lossy.clone()),
            (synth::natural_gray(96, 80, 9), lossless.clone()),
            (
                synth::natural_gray(64, 64, 3),
                EncoderConfig {
                    roi: Some(roi),
                    ..lossy
                },
            ),
            (
                synth::natural_rgb(80, 64, 11),
                EncoderConfig {
                    tiles: Some((48, 48)),
                    ..lossless
                },
            ),
        ];
        for (img, cfg) in cases {
            for parallel in [
                ParallelMode::Sequential,
                ParallelMode::WorkerPool { workers: 3 },
            ] {
                let mk = |overlap| {
                    let enc = Encoder::new(EncoderConfig {
                        overlap,
                        parallel,
                        ..cfg.clone()
                    })
                    .unwrap();
                    enc.encode(&img).0
                };
                let bytes = mk(Barriered);
                assert_eq!(bytes, mk(Pipelined), "{cfg:?} {parallel:?}");
                let decode = |overlap| {
                    let dec = Decoder {
                        overlap,
                        parallel,
                        ..Decoder::default()
                    };
                    dec.decode(&bytes).unwrap().0
                };
                assert_eq!(decode(Barriered), decode(Pipelined), "{cfg:?} {parallel:?}");
            }
        }
    }

    #[test]
    fn rgb_encoding_works() {
        let img = synth::natural_rgb(64, 64, 11);
        let enc = Encoder::new(EncoderConfig {
            levels: 3,
            rate: RateControl::TargetBpp(vec![2.0]),
            ..Default::default()
        })
        .unwrap();
        let (bytes, report) = enc.encode(&img);
        assert!(!bytes.is_empty());
        assert!(report.num_blocks > 0);
    }

    #[test]
    fn tiled_encoding_produces_multiple_tiles() {
        let img = synth::natural_gray(96, 96, 2);
        let enc = Encoder::new(EncoderConfig {
            levels: 2,
            tiles: Some((48, 48)),
            ..Default::default()
        })
        .unwrap();
        let (bytes, _) = enc.encode(&img);
        // 4 SOT markers expected.
        let sot_count = bytes.windows(2).filter(|w| w == &[0xFF, 0x90]).count();
        assert!(sot_count >= 4, "found {sot_count} SOT markers");
    }
}
