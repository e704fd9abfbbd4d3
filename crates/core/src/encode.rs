//! The encoding pipeline.

use crate::blocks::{band_ctx, blocks_of, grid_dims, indexed_resolutions, BlockGeom};
use crate::config::{EncoderConfig, ParallelMode, RateControl, Roi, StageOverlap};
use crate::quant::{band_step, distortion_scale, quantize_plane, quantize_value};
use crate::report::stage;
use pj2k_dwt::{
    forward_53_level, forward_53_with, forward_97_level, forward_97_with, gains, Band,
    Decomposition, DwtStats, Subband, VerticalStrategy,
};
use pj2k_ebcot::{BlockCoder, EncodedBlock};
use pj2k_image::tile::TileGrid;
use pj2k_image::transform::{dc_level_shift_forward, ict_forward, rct_forward};
use pj2k_image::{Image, Plane};
use pj2k_parutil::{pipeline_map_with_state, pool_map_with_state, Exec, PipelineQueue, StageTimes};
use pj2k_tier2::codestream::{self, MarkerWriter, PayloadWriter};
use pj2k_tier2::pcrd::{allocate_layers, BlockRd};
use pj2k_tier2::{encode_packet, PrecinctState};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Total coding passes generated by Tier-1.
    pub total_passes: usize,
    /// Per-block Tier-1 coding time in seconds, in job order — the
    /// work-item costs consumed by the SMP scheduling model.
    pub block_times: Vec<f64>,
}

/// JPEG2000-style encoder configured by [`EncoderConfig`].
#[derive(Debug, Clone)]
pub struct Encoder {
    cfg: EncoderConfig,
}

/// One code-block coding job (extraction geometry + band identity).
struct BlockJob {
    comp: usize,
    geom: BlockGeom,
    level: u8,
    band: Band,
    /// Index of the subband in `Decomposition::subbands()` order (the
    /// Kmax-table key).
    band_idx: usize,
}

/// One finalized subband, extracted into a compact row-major buffer and
/// shared (via `Arc`) by every code-block job inside it.
///
/// Extraction decouples the Tier-1 workers from the DWT plane: the next
/// decomposition level re-borrows the plane mutably while workers read
/// these owned buffers, so there is no aliasing between the stages.
struct BandBuf {
    /// Plane coordinates of the band origin (job geometry is absolute).
    x0: usize,
    y0: usize,
    /// Compact row stride of `data` (the band width).
    w: usize,
    data: BandSamples,
}

/// Subband samples as handed to the Tier-1 workers.
enum BandSamples {
    /// Reversible path: 5/3 integer coefficients, coded directly.
    Int(Vec<i32>),
    /// Irreversible path: raw 9/7 coefficients plus the reciprocal
    /// quantization step. Workers quantize while staging into the coder
    /// scratch — the barrier-free analogue of [`quantize_plane`],
    /// bit-identical because both call [`quantize_value`] per sample.
    Raw { vals: Vec<f32>, inv: f64 },
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
        Ok(Self { cfg })
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
            let body = self.encode_tile(&tile_img, (rect.x0, rect.y0), &mut report);
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
        cod.u8(u8::from(self.cfg.tier1.stripe_causal)
            | (u8::from(self.cfg.tier1.reset_contexts) << 1)
            | (u8::from(self.cfg.tier1.bypass) << 2));
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
    fn encode_tile(
        &self,
        tile: &Image,
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
        let mut work = tile.clone();
        dc_level_shift_forward(&mut work);
        let pad = cfg.filter.stride_pad(w);
        let mut planes_f: Vec<Plane<f32>> = Vec::new();
        let mut planes_i: Vec<Plane<i32>> = Vec::new();
        if reversible {
            for c in 0..ncomp {
                let p = work.component(c);
                planes_i.push(if pad > 0 {
                    p.restride(w + pad)
                } else {
                    p.clone()
                });
            }
        } else {
            for c in 0..ncomp {
                let src = work.component(c);
                let mut p = Plane::<f32>::with_stride(w, h, w + pad);
                for y in 0..h {
                    for (dst, &v) in p.row_mut(y).iter_mut().zip(src.row(y)) {
                        *dst = v as f32;
                    }
                }
                planes_f.push(p);
            }
        }
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
        // Geometry only; job order is identical in both stage sequencings,
        // which is what keeps the Tier-2 `first_job` indices (and hence the
        // codestream) invariant.
        let (jobs, precincts) = self.build_jobs(&deco, ncomp);
        let mut roi_sd = (0u8, 0u8);
        // MAXSHIFT rescales coefficients across subbands after quantization,
        // so an ROI takes the barriered path regardless of `overlap`.
        let use_pipeline = cfg.overlap == StageOverlap::Pipelined && cfg.roi.is_none();

        let coded: Vec<(EncodedBlock, f64)> = if use_pipeline {
            self.run_pipelined(
                &deco,
                &band_list,
                &jobs,
                &precincts,
                &mut planes_i,
                &mut planes_f,
                ncomp,
                reversible,
                vstrat,
                &exec,
                report,
            )
        } else {
            // --- intra-component transform (DWT) --------------------------
            let t0 = Instant::now();
            for c in 0..ncomp {
                let stats = if reversible {
                    forward_53_with(
                        &mut planes_i[c],
                        cfg.levels,
                        vstrat,
                        cfg.lifting,
                        cfg.simd,
                        &exec,
                    )
                    .1
                } else {
                    forward_97_with(
                        &mut planes_f[c],
                        cfg.levels,
                        vstrat,
                        cfg.lifting,
                        cfg.simd,
                        &exec,
                    )
                    .1
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

            // --- tier-1 coding ---------------------------------------------
            let t0 = Instant::now();
            let coded = self.map_blocks(&jobs, &planes_i);
            report.stages.add(stage::TIER1, t0.elapsed());
            coded
        };
        report.num_blocks += coded.len();
        report.total_passes += coded.iter().map(|(b, _)| b.passes.len()).sum::<usize>();
        report.block_times.extend(coded.iter().map(|(_, t)| *t));

        // --- R/D allocation ---------------------------------------------------
        let t0 = Instant::now();
        let rd: Vec<BlockRd> = jobs
            .iter()
            .zip(&coded)
            .map(|(job, (blk, _))| {
                let scale = if reversible {
                    let g = gains::l2_gain_53(job.level.max(1), job.band);
                    g * g
                } else {
                    let step = band_step(cfg.base_step, job.level.max(1), job.band);
                    distortion_scale(step, job.level.max(1), job.band)
                };
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
            })
            .collect();
        let n_layers = cfg.num_layers();
        // Bits per *pixel*, the conventional rate unit (an RGB pixel's
        // budget covers all three components).
        let tile_pixels = (w * h) as f64;
        let alloc: Vec<Vec<usize>> = match &cfg.rate {
            RateControl::Lossless => {
                vec![coded.iter().map(|(b, _)| b.passes.len()).collect()]
            }
            RateControl::TargetBpp(rates) => {
                let budgets: Vec<usize> = rates
                    .iter()
                    .map(|bpp| (bpp * tile_pixels / 8.0).floor() as usize)
                    .collect();
                allocate_layers(&rd, &budgets)
            }
        };
        report.stages.add(stage::RD_ALLOCATION, t0.elapsed());

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
                    for geom in &blocks {
                        jobs.push(BlockJob {
                            comp,
                            geom: *geom,
                            level: sb.level,
                            band: sb.band,
                            band_idx: *band_idx,
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

    /// Run Tier-1 over the job list under the configured parallel mode.
    ///
    /// Every execution path feeds its blocks through a per-worker
    /// [`BlockCoder`] scratch arena: the coefficient staging buffer, flag
    /// grid, and MQ byte buffers are allocated once per worker and reused
    /// for every block that worker codes.
    fn map_blocks(&self, jobs: &[BlockJob], planes: &[Plane<i32>]) -> Vec<(EncodedBlock, f64)> {
        let code_one = |coder: &mut BlockCoder, j: &BlockJob| -> (EncodedBlock, f64) {
            let t = Instant::now();
            let p = &planes[j.comp];
            let coeffs = coder.coeff_scratch();
            for y in j.geom.y0..j.geom.y0 + j.geom.h {
                coeffs.extend_from_slice(&p.row(y)[j.geom.x0..j.geom.x0 + j.geom.w]);
            }
            let blk = coder.encode_scratch(j.geom.w, j.geom.h, band_ctx(j.band), self.cfg.tier1);
            (blk, t.elapsed().as_secs_f64())
        };
        let engine = self.cfg.tier1_engine;
        match self.cfg.parallel {
            ParallelMode::Sequential => {
                let mut coder = BlockCoder::with_engine(engine);
                jobs.iter().map(|j| code_one(&mut coder, j)).collect()
            }
            ParallelMode::WorkerPool { workers } => pool_map_with_state(
                jobs.len(),
                workers.max(1),
                self.cfg.tier1_schedule,
                |_| BlockCoder::with_engine(engine),
                |coder, i| code_one(coder, &jobs[i]),
            ),
        }
    }

    /// Overlapped DWT → quantization → Tier-1: the per-level transform runs
    /// on the calling thread and, as soon as a decomposition level finalizes
    /// its subbands, their code-block jobs are published to the worker pool,
    /// which quantizes (9/7) and block-codes them while the next level
    /// proceeds on the shrinking `LL` region.
    ///
    /// The arithmetic per sample and the job order are exactly those of the
    /// barriered path, so the codestream is bit-identical (asserted in
    /// tests); only the schedule changes. Compared to the barriered lossy
    /// path this also skips the full-plane i32 quantization target per
    /// component: coefficients are quantized straight into each worker's
    /// staging scratch from compact per-band buffers.
    #[allow(clippy::too_many_arguments)]
    fn run_pipelined(
        &self,
        deco: &Decomposition,
        band_list: &[Subband],
        jobs: &[BlockJob],
        precincts: &[PrecinctGeom],
        planes_i: &mut [Plane<i32>],
        planes_f: &mut [Plane<f32>],
        ncomp: usize,
        reversible: bool,
        vstrat: VerticalStrategy,
        exec: &Exec,
        report: &mut EncodeReport,
    ) -> Vec<(EncodedBlock, f64)> {
        let cfg = &self.cfg;
        let nbands = band_list.len();
        // Job range per (comp, band): build_jobs emits exactly one precinct
        // per pair, so this is a total map.
        let mut band_jobs = vec![(0usize, 0usize); ncomp * nbands];
        for pg in precincts {
            band_jobs[pg.comp * nbands + pg.band_idx] = (pg.first_job, pg.n_blocks);
        }

        let workers = cfg.parallel.workers();

        let code_one = |coder: &mut BlockCoder, i: usize, band: Arc<BandBuf>| {
            let t = Instant::now();
            let j = &jobs[i];
            let coeffs = coder.coeff_scratch();
            let bx = j.geom.x0 - band.x0;
            let by = j.geom.y0 - band.y0;
            match &band.data {
                BandSamples::Int(vals) => {
                    for dy in 0..j.geom.h {
                        let off = (by + dy) * band.w + bx;
                        coeffs.extend_from_slice(&vals[off..off + j.geom.w]);
                    }
                }
                BandSamples::Raw { vals, inv } => {
                    for dy in 0..j.geom.h {
                        let off = (by + dy) * band.w + bx;
                        coeffs.extend(
                            vals[off..off + j.geom.w]
                                .iter()
                                .map(|&v| quantize_value(v, *inv)),
                        );
                    }
                }
            }
            let blk = coder.encode_scratch(j.geom.w, j.geom.h, band_ctx(j.band), cfg.tier1);
            (blk, t.elapsed().as_secs_f64())
        };

        let mut dwt_stats = DwtStats::default();
        let mut quant_time = Duration::ZERO;
        let t_total = Instant::now();
        let coded = pipeline_map_with_state(
            jobs.len(),
            workers,
            |_| BlockCoder::with_engine(cfg.tier1_engine),
            code_one,
            |queue| {
                for c in 0..ncomp {
                    if cfg.levels == 0 {
                        // No transform: the single LL band is the plane.
                        let tq = Instant::now();
                        publish_finalized(
                            queue,
                            band_list,
                            &band_jobs,
                            nbands,
                            c,
                            0,
                            cfg.base_step,
                            planes_i.get(c),
                            planes_f.get(c),
                        );
                        quant_time += tq.elapsed();
                        continue;
                    }
                    for l in 0..cfg.levels {
                        let stats = if reversible {
                            forward_53_level(
                                &mut planes_i[c],
                                deco,
                                l,
                                vstrat,
                                cfg.lifting,
                                cfg.simd,
                                exec,
                            )
                        } else {
                            forward_97_level(
                                &mut planes_f[c],
                                deco,
                                l,
                                vstrat,
                                cfg.lifting,
                                cfg.simd,
                                exec,
                            )
                        };
                        dwt_stats.merge(&stats);
                        // Subbands with `level == l + 1` are final after this
                        // step: the detail bands of the level just filtered,
                        // plus — on the last step — the coarsest `LL`.
                        let tq = Instant::now();
                        publish_finalized(
                            queue,
                            band_list,
                            &band_jobs,
                            nbands,
                            c,
                            l + 1,
                            cfg.base_step,
                            planes_i.get(c),
                            planes_f.get(c),
                        );
                        quant_time += tq.elapsed();
                    }
                }
            },
        );
        let total = t_total.elapsed();
        report.dwt.merge(&dwt_stats);
        report.stages.add(stage::INTRA_COMPONENT, dwt_stats.total());
        // Band extraction (and, conceptually, the in-worker quantization) is
        // booked as the quantization stage; the remaining overlapped wall
        // time is Tier-1.
        report.stages.add(stage::QUANTIZATION, quant_time);
        report.stages.add(
            stage::TIER1,
            total.saturating_sub(dwt_stats.total() + quant_time),
        );
        coded
    }
}

/// Copy subband `sb` out of `p` into a compact `sb.w`-stride buffer.
fn extract_band<T: Copy>(p: &Plane<T>, sb: &Subband) -> Vec<T> {
    let mut v = Vec::with_capacity(sb.w * sb.h);
    for y in sb.y0..sb.y0 + sb.h {
        v.extend_from_slice(&p.row(y)[sb.x0..sb.x0 + sb.w]);
    }
    v
}

/// Publish every code-block job of component `c`'s subbands at decomposition
/// `level` (the bands finalized by that DWT step), extracting each band once
/// and sharing it across its jobs. Exactly one of `plane_i` / `plane_f` is
/// populated, matching the wavelet's sample type.
#[allow(clippy::too_many_arguments)]
fn publish_finalized(
    queue: &PipelineQueue<Arc<BandBuf>>,
    band_list: &[Subband],
    band_jobs: &[(usize, usize)],
    nbands: usize,
    c: usize,
    level: u8,
    base_step: f64,
    plane_i: Option<&Plane<i32>>,
    plane_f: Option<&Plane<f32>>,
) {
    for (bi, sb) in band_list.iter().enumerate() {
        if sb.level != level {
            continue;
        }
        let (first, n) = band_jobs[c * nbands + bi];
        if n == 0 {
            continue;
        }
        let data = match (plane_i, plane_f) {
            (Some(p), _) => BandSamples::Int(extract_band(p, sb)),
            (None, Some(p)) => {
                let step = band_step(base_step, sb.level.max(1), sb.band);
                BandSamples::Raw {
                    vals: extract_band(p, sb),
                    inv: 1.0 / step,
                }
            }
            (None, None) => unreachable!("one sample plane per component"),
        };
        let buf = Arc::new(BandBuf {
            x0: sb.x0,
            y0: sb.y0,
            w: sb.w,
            data,
        });
        for k in first..first + n {
            queue.send(k, Arc::clone(&buf));
        }
    }
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
    use crate::config::{FilterStrategy, RateControl};
    use pj2k_image::synth;

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
        for overlap in [StageOverlap::Barriered, StageOverlap::Pipelined] {
            let enc = Encoder::new(EncoderConfig {
                levels: 2,
                overlap,
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
                    "stage {s} missing ({overlap:?})"
                );
            }
            assert!(report.dwt.total().as_nanos() > 0);
        }
    }

    #[test]
    fn tier1_schedules_produce_identical_streams() {
        use crate::config::Schedule;
        // Dynamic self-scheduling races workers for blocks, but the output
        // slots are fixed per job, so the codestream must be bit-identical
        // to the sequential encode for every schedule and worker count.
        for (wi, hi, seed) in [(96usize, 80usize, 5u64), (65, 127, 12)] {
            let img = synth::natural_gray(wi, hi, seed);
            let mk = |parallel, tier1_schedule| {
                let enc = Encoder::new(EncoderConfig {
                    levels: 3,
                    parallel,
                    tier1_schedule,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0
            };
            let seq = mk(ParallelMode::Sequential, Schedule::StaggeredRoundRobin);
            for workers in [2usize, 3, 5] {
                for schedule in [
                    Schedule::StaticBlock,
                    Schedule::StaggeredRoundRobin,
                    Schedule::Dynamic { chunk: 1 },
                    Schedule::Dynamic { chunk: 3 },
                ] {
                    assert_eq!(
                        seq,
                        mk(ParallelMode::WorkerPool { workers }, schedule),
                        "{wi}x{hi} workers={workers} {schedule:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_modes_produce_identical_streams() {
        let img = synth::natural_gray(96, 80, 5);
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
        assert_eq!(seq, mk(ParallelMode::WorkerPool { workers: 3 }));
    }

    #[test]
    fn filter_strategies_produce_identical_streams() {
        // Strip and naive filtering compute the same transform, so the
        // codestream must be bit-identical; padded width changes only the
        // layout, not the samples.
        let img = synth::natural_gray(128, 64, 7);
        let mk = |filter| {
            let enc = Encoder::new(EncoderConfig {
                levels: 3,
                filter,
                ..Default::default()
            })
            .unwrap();
            enc.encode(&img).0
        };
        let naive = mk(FilterStrategy::Naive);
        assert_eq!(naive, mk(FilterStrategy::Strip));
        assert_eq!(naive, mk(FilterStrategy::PaddedWidth));
    }

    #[test]
    fn pipelined_matches_barriered_bit_identical() {
        // The pipelined encoder reorders *when* blocks are coded, never
        // what is coded: identical per-sample arithmetic and job order must
        // give the byte-identical codestream for both wavelets, any worker
        // count, and any schedule knob.
        for (wavelet, rate) in [
            (
                pj2k_dwt::Wavelet::Irreversible97,
                RateControl::TargetBpp(vec![1.0]),
            ),
            (pj2k_dwt::Wavelet::Reversible53, RateControl::Lossless),
        ] {
            let img = synth::natural_gray(96, 80, 9);
            let mk = |overlap, parallel| {
                let enc = Encoder::new(EncoderConfig {
                    levels: 3,
                    wavelet,
                    rate: rate.clone(),
                    overlap,
                    parallel,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0
            };
            let barriered = mk(StageOverlap::Barriered, ParallelMode::Sequential);
            // Sequential pipelined drains the queue inline: same stream.
            assert_eq!(
                barriered,
                mk(StageOverlap::Pipelined, ParallelMode::Sequential),
                "{wavelet:?} sequential"
            );
            for workers in [2usize, 3, 5] {
                assert_eq!(
                    barriered,
                    mk(
                        StageOverlap::Pipelined,
                        ParallelMode::WorkerPool { workers }
                    ),
                    "{wavelet:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn pipelined_rgb_and_tiled_match_barriered() {
        // Three components and partial tiles exercise per-component band
        // publication and degenerate subband geometry.
        let img = synth::natural_rgb(80, 64, 11);
        let mk = |overlap| {
            let enc = Encoder::new(EncoderConfig {
                levels: 3,
                tiles: Some((48, 48)),
                parallel: ParallelMode::WorkerPool { workers: 3 },
                overlap,
                ..Default::default()
            })
            .unwrap();
            enc.encode(&img).0
        };
        assert_eq!(mk(StageOverlap::Barriered), mk(StageOverlap::Pipelined));
    }

    #[test]
    fn fused_lifting_produces_identical_streams() {
        use crate::config::LiftingMode;
        // Fused kernels evaluate the same lifting expressions on the same
        // operands, so even the 9/7 float outputs are bit-identical and the
        // codestream cannot change — under any vertical strategy.
        for wavelet in [
            pj2k_dwt::Wavelet::Reversible53,
            pj2k_dwt::Wavelet::Irreversible97,
        ] {
            let img = synth::natural_gray(65, 127, 4);
            let mk = |lifting, filter| {
                let enc = Encoder::new(EncoderConfig {
                    levels: 3,
                    wavelet,
                    lifting,
                    filter,
                    ..Default::default()
                })
                .unwrap();
                enc.encode(&img).0
            };
            let base = mk(LiftingMode::PerStep, FilterStrategy::Naive);
            assert_eq!(base, mk(LiftingMode::Fused, FilterStrategy::Naive));
            assert_eq!(base, mk(LiftingMode::Fused, FilterStrategy::Strip));
            assert_eq!(base, mk(LiftingMode::Fused, FilterStrategy::PaddedWidth));
        }
    }

    #[test]
    fn pipelined_with_roi_falls_back_and_matches_barriered() {
        // MAXSHIFT needs the cross-band barrier; the pipelined config must
        // transparently take the barriered path, not diverge.
        let img = synth::natural_gray(64, 64, 3);
        let mk = |overlap| {
            let enc = Encoder::new(EncoderConfig {
                levels: 2,
                roi: Some(Roi {
                    x0: 8,
                    y0: 8,
                    w: 16,
                    h: 16,
                }),
                overlap,
                parallel: ParallelMode::WorkerPool { workers: 3 },
                ..Default::default()
            })
            .unwrap();
            enc.encode(&img).0
        };
        assert_eq!(mk(StageOverlap::Barriered), mk(StageOverlap::Pipelined));
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
