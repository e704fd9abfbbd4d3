//! The layer chain: one image taken through every layer's public
//! functions in the order the codec calls them, each call timed on its own.
//!
//! This follows `Encoder::encode` and `Decoder::decode` (barriered,
//! untiled, no ROI — what the CLI runs) step by step; the steps between
//! the layer calls that the codec also performs (DC shift, sample
//! conversion, coefficient staging) are done but not attributed to a
//! layer, which is what `core.*_unattributed_share` then reports. The
//! chain's decoded image must equal `Decoder::decode`'s, so a chain that
//! drifts from the codec shows as a failed check, not as a wrong number.

use crate::trace::Tracer;
use pj2k_core::blocks::{band_ctx, blocks_of, grid_dims, indexed_resolutions, BlockGeom};
use pj2k_core::quant::{band_step, dequantize_plane, distortion_scale, quantize_plane};
use pj2k_core::{EncoderConfig, RateControl, Wavelet};
use pj2k_dwt::{
    forward_53, forward_97, gains, inverse_53, inverse_97, Band, Decomposition, DwtStats,
    VerticalStrategy,
};
use pj2k_ebcot::{BlockCoder, BlockDecoderScratch, EncodedBlock};
use pj2k_image::transform::{
    dc_level_shift_forward, dc_level_shift_inverse, ict_forward, ict_inverse, rct_forward,
    rct_inverse,
};
use pj2k_image::{pnm, Image, Plane};
use pj2k_parutil::Exec;
use pj2k_tier2::pcrd::{allocate_layers, BlockRd};
use pj2k_tier2::{decode_packet, encode_packet, PrecinctState};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::path::Path;

/// Metric sums over the files of a workload.
#[derive(Default)]
pub struct Sums(pub BTreeMap<&'static str, f64>);

impl Sums {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One code-block job, as `Encoder::build_jobs` enumerates them.
struct Job {
    comp: usize,
    geom: BlockGeom,
    level: u8,
    band: Band,
    band_idx: usize,
}

/// One precinct (here: one subband of one component).
struct Precinct {
    comp: usize,
    grid: (usize, usize),
    first_job: usize,
    n_blocks: usize,
    band_idx: usize,
}

fn build_jobs(deco: &Decomposition, ncomp: usize, cb: (usize, usize)) -> (Vec<Job>, Vec<Precinct>) {
    let (mut jobs, mut precincts) = (Vec::new(), Vec::new());
    let res = indexed_resolutions(deco);
    for comp in 0..ncomp {
        for (band_idx, sb) in res.iter().flatten() {
            let blocks = blocks_of(sb, cb);
            precincts.push(Precinct {
                comp,
                grid: grid_dims(sb, cb),
                first_job: jobs.len(),
                n_blocks: blocks.len(),
                band_idx: *band_idx,
            });
            jobs.extend(blocks.into_iter().map(|geom| Job {
                comp,
                geom,
                level: sb.level,
                band: sb.band,
                band_idx: *band_idx,
            }));
        }
    }
    (jobs, precincts)
}

/// Copy a block's coefficients out of its plane, row by row.
fn stage(plane: &Plane<i32>, g: &BlockGeom, out: &mut Vec<i32>) {
    out.clear();
    for y in g.y0..g.y0 + g.h {
        out.extend_from_slice(&plane.row(y)[g.x0..g.x0 + g.w]);
    }
}

fn scatter(plane: &mut Plane<i32>, g: &BlockGeom, coeffs: &[i32]) {
    for dy in 0..g.h {
        plane.row_mut(g.y0 + dy)[g.x0..g.x0 + g.w].copy_from_slice(&coeffs[dy * g.w..][..g.w]);
    }
}

fn three<T>(planes: &mut [Plane<T>]) -> (&mut Plane<T>, &mut Plane<T>, &mut Plane<T>) {
    match planes {
        [a, b, c] => (a, b, c),
        _ => unreachable!("colour transforms run on exactly three components"),
    }
}

/// What the chain produced, for the caller's cross-checks.
pub struct ChainOutput {
    /// The decoded image, ready to compare with `Decoder::decode`'s.
    pub image: Image,
    pub blocks: usize,
    pub passes: usize,
}

/// Take the image at `input` through every layer, write the decoded
/// image to `output`, and add each layer's seconds and counts to `m`.
pub fn run(
    input: &Path,
    output: &Path,
    cfg: &EncoderConfig,
    par: usize,
    tr: &mut Tracer,
    m: &mut Sums,
) -> io::Result<ChainOutput> {
    let reversible = cfg.wavelet == Wavelet::Reversible53;
    let (levels, vstrat) = (cfg.levels, VerticalStrategy::DEFAULT_STRIP);
    let exec_par = Exec::threads(par);

    // --- image I/O, set-up, inter-component transform ---------------------
    let (img, s) = tr.time("image.pnm_read", || {
        pnm::read(&mut BufReader::new(std::fs::File::open(input)?))
    });
    m.add("image.pnm_read_s", s);
    let img = img?;
    let (w, h, ncomp) = (img.width(), img.height(), img.num_components());
    let mut work = img.clone();
    dc_level_shift_forward(&mut work);
    // Exactly one of the two holds the coefficients: integers on the
    // reversible path, floats on the irreversible one.
    let (mut coef_i, mut coef_f): (Vec<Plane<i32>>, Vec<Plane<f32>>) = if reversible {
        (work.into_components(), Vec::new())
    } else {
        let floats = work.components().iter().map(|p| p.map(|v| v as f32));
        (Vec::new(), floats.collect())
    };
    if ncomp == 3 {
        let ((), s) = tr.time("image.color_fwd", || {
            if reversible {
                let (r, g, b) = three(&mut coef_i);
                rct_forward(r, g, b);
            } else {
                let (r, g, b) = three(&mut coef_f);
                ict_forward(r, g, b);
            }
        });
        m.add("image.color_fwd_s", s);
    }

    // --- forward DWT: parallel on a copy, then sequential in place --------
    let forward = |pi: &mut [Plane<i32>], pf: &mut [Plane<f32>], exec: &Exec| {
        let mut stats = DwtStats::default();
        pi.iter_mut()
            .for_each(|p| stats.merge(&forward_53(p, levels, vstrat, exec).1));
        pf.iter_mut()
            .for_each(|p| stats.merge(&forward_97(p, levels, vstrat, exec).1));
        stats
    };
    let (mut copy_i, mut copy_f) = (coef_i.clone(), coef_f.clone());
    let (_, s) = tr.time("dwt.fwd_par", || {
        forward(&mut copy_i, &mut copy_f, &exec_par)
    });
    m.add("dwt.fwd_par_s", s);
    drop((copy_i, copy_f));
    let (stats, s) = tr.time("dwt.fwd_p1", || {
        forward(&mut coef_i, &mut coef_f, &Exec::SEQ)
    });
    m.add("dwt.fwd_p1_s", s);
    m.add("dwt.fwd_vertical_s", stats.vertical.as_secs_f64());
    m.add("dwt.samples", (w * h * ncomp) as f64);

    // --- quantization (irreversible path only) -----------------------------
    let deco = Decomposition::new(w, h, levels);
    let band_list = deco.subbands();
    let steps: Vec<f64> = band_list
        .iter()
        .map(|sb| band_step(cfg.base_step, sb.level.max(1), sb.band))
        .collect();
    let indices: Vec<Plane<i32>> = if reversible {
        coef_i
    } else {
        let (q, s) = tr.time("quant.quantize", || {
            let quantize = |pf: &Plane<f32>| {
                let mut q = Plane::<i32>::with_stride(w, h, pf.stride());
                for (sb, &step) in band_list
                    .iter()
                    .zip(&steps)
                    .filter(|(sb, _)| !sb.is_empty())
                {
                    quantize_plane(pf, &mut q, (sb.x0, sb.y0, sb.w, sb.h), step, &Exec::SEQ);
                }
                q
            };
            coef_f.iter().map(quantize).collect()
        });
        m.add("quant.quantize_s", s);
        q
    };
    drop(coef_f);

    // --- Tier-1 encode: every code-block through one reused coder ----------
    let (jobs, precincts) = build_jobs(&deco, ncomp, cfg.code_block);
    let mut coder = BlockCoder::with_engine(cfg.tier1_engine);
    let all = tr.begin("ebcot.encode");
    let coded: Vec<EncodedBlock> = jobs
        .iter()
        .map(|j| {
            let one = tr.begin("ebcot.encode_block");
            stage(&indices[j.comp], &j.geom, coder.coeff_scratch());
            let blk = coder.encode_scratch(j.geom.w, j.geom.h, band_ctx(j.band), cfg.tier1);
            tr.end(one);
            blk
        })
        .collect();
    m.add("ebcot.encode_s", tr.end(all));
    let passes: usize = coded.iter().map(|b| b.passes.len()).sum();
    m.add("ebcot.blocks", coded.len() as f64);
    m.add("ebcot.passes", passes as f64);
    m.add(
        "ebcot.coded_bytes",
        coded.iter().map(|b| b.data.len()).sum::<usize>() as f64,
    );

    // --- PCRD: which passes the rate keeps ---------------------------------
    let (alloc, s) = tr.time("tier2.pcrd", || -> Vec<Vec<usize>> {
        let rates = match &cfg.rate {
            RateControl::Lossless => return vec![coded.iter().map(|b| b.passes.len()).collect()],
            RateControl::TargetBpp(rates) => rates,
        };
        let rd: Vec<BlockRd> = jobs
            .iter()
            .zip(&coded)
            .map(|(job, blk)| {
                let level = job.level.max(1);
                let scale = if reversible {
                    gains::l2_gain_53(level, job.band).powi(2)
                } else {
                    distortion_scale(band_step(cfg.base_step, level, job.band), level, job.band)
                };
                let (mut r, mut d) = (0usize, 0f64);
                let (mut rates, mut dists) = (Vec::new(), Vec::new());
                for p in &blk.passes {
                    r += p.len;
                    d += p.delta_distortion * scale;
                    rates.push(r);
                    dists.push(d);
                }
                BlockRd { rates, dists }
            })
            .collect();
        let budgets: Vec<usize> = rates
            .iter()
            .map(|bpp| (bpp * (w * h) as f64 / 8.0).floor() as usize)
            .collect();
        allocate_layers(&rd, &budgets)
    });
    m.add("tier2.pcrd_s", s);
    let n_layers = alloc.len();
    let kept: usize = alloc[n_layers - 1].iter().sum();
    m.add("ebcot.kept_passes", kept as f64);

    // --- Tier-2 encode: packet headers + kept segments ---------------------
    let nbands = band_list.len();
    let mut kmax = vec![0u8; ncomp * nbands];
    for (job, blk) in jobs.iter().zip(&coded) {
        let slot = &mut kmax[job.comp * nbands + job.band_idx];
        *slot = (*slot).max(blk.msb_planes);
    }
    let (body, s) = tr.time("tier2.packet_encode", || {
        let mut states: Vec<Option<PrecinctState>> = precincts
            .iter()
            .map(|pg| {
                let block_jobs = pg.first_job..pg.first_job + pg.n_blocks;
                let first_layer: Vec<u32> = block_jobs
                    .clone()
                    .map(|j| (0..n_layers).find(|&l| alloc[l][j] > 0).unwrap_or(n_layers) as u32)
                    .collect();
                let ceiling = kmax[pg.comp * nbands + pg.band_idx];
                let zbp: Vec<u32> = block_jobs
                    .map(|j| u32::from(ceiling - coded[j].msb_planes))
                    .collect();
                (pg.n_blocks > 0)
                    .then(|| PrecinctState::for_encoder(pg.grid.0, pg.grid.1, &first_layer, &zbp))
            })
            .collect();
        let mut body = Vec::new();
        for (layer, layer_alloc) in alloc.iter().enumerate() {
            for (pg, state) in precincts.iter().zip(&mut states) {
                let Some(state) = state else { continue };
                let block_jobs = pg.first_job..pg.first_job + pg.n_blocks;
                let upto = &layer_alloc[block_jobs.clone()];
                let pass_lens: Vec<Vec<usize>> = block_jobs
                    .clone()
                    .map(|j| coded[j].passes.iter().map(|p| p.len).collect())
                    .collect();
                let prev: Vec<usize> = (0..pg.n_blocks).map(|i| state.included_passes(i)).collect();
                let header = encode_packet(state, layer, upto, &pass_lens);
                body.extend_from_slice(&(header.len() as u16).to_be_bytes());
                body.extend_from_slice(&header);
                for (i, j) in block_jobs.enumerate() {
                    for p in prev[i]..upto[i] {
                        body.extend_from_slice(coded[j].segment(p));
                    }
                }
            }
        }
        body
    });
    m.add("tier2.packet_encode_s", s);
    let packets = precincts.iter().filter(|pg| pg.n_blocks > 0).count() * n_layers;
    m.add("tier2.packets", packets as f64);

    // --- Tier-2 decode: parse the packets back into per-block segments ----
    let (parsed, s) = tr.time("tier2.packet_decode", || {
        let mut cursor = 0;
        let mut states: Vec<PrecinctState> = precincts
            .iter()
            .map(|pg| PrecinctState::for_decoder(pg.grid.0.max(1), pg.grid.1.max(1)))
            .collect();
        // Per job: coded bit-planes (once known) and the segments so far.
        let mut parsed: Vec<(u8, Vec<&[u8]>)> = vec![(0, Vec::new()); jobs.len()];
        for layer in 0..n_layers {
            for (pg, state) in precincts
                .iter()
                .zip(&mut states)
                .filter(|(pg, _)| pg.n_blocks > 0)
            {
                let hlen = usize::from(u16::from_be_bytes([body[cursor], body[cursor + 1]]));
                let header = &body[cursor + 2..cursor + 2 + hlen];
                cursor += 2 + hlen;
                let (results, _) = decode_packet(state, layer, header).expect("own packet parses");
                let ceiling = kmax[pg.comp * nbands + pg.band_idx];
                for (slot, result) in parsed[pg.first_job..].iter_mut().zip(&results) {
                    if result.new_passes > 0 {
                        slot.0 = ceiling - result.zero_bitplanes as u8;
                    }
                    for &len in &result.seg_lens {
                        slot.1.push(&body[cursor..cursor + len]);
                        cursor += len;
                    }
                }
            }
        }
        assert_eq!(cursor, body.len(), "packets cover the body");
        parsed
    });
    m.add("tier2.packet_decode_s", s);

    // --- Tier-1 decode of the kept passes (what the decoder does) ----------
    let mut scratch = BlockDecoderScratch::new();
    let mut block = Vec::new();
    let all = tr.begin("ebcot.decode_kept");
    let mut decoded: Vec<Plane<i32>> = (0..ncomp).map(|_| Plane::new(w, h)).collect();
    for (job, (msb, segs)) in jobs
        .iter()
        .zip(&parsed)
        .filter(|(_, (_, segs))| !segs.is_empty())
    {
        let one = tr.begin("ebcot.decode_block");
        let (bw, bh) = (job.geom.w, job.geom.h);
        scratch
            .decode_into(
                bw,
                bh,
                band_ctx(job.band),
                *msb,
                segs,
                cfg.tier1,
                &mut block,
            )
            .expect("own code-block decodes");
        scatter(&mut decoded[job.comp], &job.geom, &block);
        tr.end(one);
    }
    m.add("ebcot.decode_kept_s", tr.end(all));
    drop(parsed);

    // --- Tier-1 decode of every coded pass: must give back the input ------
    let mut original = Vec::new();
    let mut mismatches = 0usize;
    let all = tr.begin("ebcot.decode");
    for (job, blk) in jobs.iter().zip(&coded) {
        let mut offset = 0;
        let segs: Vec<&[u8]> = blk
            .passes
            .iter()
            .map(|p| {
                offset += p.len;
                &blk.data[offset - p.len..offset]
            })
            .collect();
        let (bw, bh) = (job.geom.w, job.geom.h);
        block.clear();
        block.resize(bw * bh, 0);
        let ok = segs.is_empty()
            || scratch
                .decode_into(
                    bw,
                    bh,
                    band_ctx(job.band),
                    blk.msb_planes,
                    &segs,
                    cfg.tier1,
                    &mut block,
                )
                .is_ok();
        stage(&indices[job.comp], &job.geom, &mut original);
        mismatches += usize::from(!ok || block != original);
    }
    m.add("ebcot.decode_s", tr.end(all));
    m.add("ebcot.decode_mismatch_blocks", mismatches as f64);
    drop((indices, coded));

    // --- dequantization, inverse DWT, inverse colour transform -------------
    let (mut coef_i, mut coef_f): (Vec<Plane<i32>>, Vec<Plane<f32>>) = if reversible {
        (decoded, Vec::new())
    } else {
        let (f, s) = tr.time("quant.dequantize", || {
            let dequantize = |q: &Plane<i32>| {
                let mut f = Plane::<f32>::new(w, h);
                for (sb, &step) in band_list
                    .iter()
                    .zip(&steps)
                    .filter(|(sb, _)| !sb.is_empty())
                {
                    dequantize_plane(q, &mut f, (sb.x0, sb.y0, sb.w, sb.h), step, &Exec::SEQ);
                }
                f
            };
            decoded.iter().map(dequantize).collect()
        });
        m.add("quant.dequantize_s", s);
        (Vec::new(), f)
    };
    let inverse = |pi: &mut [Plane<i32>], pf: &mut [Plane<f32>], exec: &Exec| {
        for p in pi {
            inverse_53(p, levels, vstrat, exec);
        }
        for p in pf {
            inverse_97(p, levels, vstrat, exec);
        }
    };
    let (mut copy_i, mut copy_f) = (coef_i.clone(), coef_f.clone());
    let ((), s) = tr.time("dwt.inv_par", || {
        inverse(&mut copy_i, &mut copy_f, &exec_par)
    });
    m.add("dwt.inv_par_s", s);
    drop((copy_i, copy_f));
    let ((), s) = tr.time("dwt.inv_p1", || {
        inverse(&mut coef_i, &mut coef_f, &Exec::SEQ)
    });
    m.add("dwt.inv_p1_s", s);
    if ncomp == 3 {
        let ((), s) = tr.time("image.color_inv", || {
            if reversible {
                let (y, u, v) = three(&mut coef_i);
                rct_inverse(y, u, v);
            } else {
                let (y, cb, cr) = three(&mut coef_f);
                ict_inverse(y, cb, cr);
            }
        });
        m.add("image.color_inv_s", s);
    }
    if !reversible {
        coef_i = coef_f.iter().map(|f| f.map(|v| v.round() as i32)).collect();
    }
    let mut image = Image::new(coef_i, img.bit_depth(), img.signed());
    dc_level_shift_inverse(&mut image);
    image.clamp_to_depth();

    let (written, s) = tr.time("image.pnm_write", || {
        pnm::write(&mut std::fs::File::create(output)?, &image)
    });
    m.add("image.pnm_write_s", s);
    written?;
    Ok(ChainOutput {
        image,
        blocks: jobs.len(),
        passes,
    })
}
