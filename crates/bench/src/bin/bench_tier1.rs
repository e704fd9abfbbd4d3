//! Tier-1 throughput trajectory harness.
//!
//! Emits `BENCH_tier1.json` (schema `pj2k.bench_tier1.v5`) with six
//! measurements that track this workspace's Tier-1 performance over time:
//!
//! 1. **Scratch-arena microbenchmark**: blocks/sec and heap allocations
//!    per block for the seed path ([`pj2k_ebcot::encode_block`] per block,
//!    which copies the coefficients into a fresh coder) versus the reused
//!    [`pj2k_ebcot::BlockCoder`] per-worker arena refilling a recycled
//!    [`pj2k_ebcot::EncodedBlock`] — the steady-state arena path must stay
//!    allocation-free (enforced below).
//! 2. **Engine ablation**: the same arena loop pinned to
//!    [`Tier1Engine::Reference`] (the `oracle` feature's test oracle) and
//!    [`Tier1Engine::Bitplane`] (the product engine);
//!    `bitplane_speedup` is their blocks/sec ratio, measured in the same
//!    run and required to be > 1 (the bitplane engine must beat the
//!    reference engine it replaced as default).
//! 3. **Per-pass breakdown** for both engines: wall-clock seconds and
//!    exact decision counts of the significance-propagation, refinement,
//!    and cleanup passes (via [`pj2k_ebcot::Tier1Profile`]).
//! 4. **Per-component estimate**: a calibrated MQ cost-per-decision splits
//!    each engine's time into entropy coding vs context formation.
//! 5. **Steady-state allocation oracle**: the exact per-thread allocation
//!    count of one warm arena pass over every block, which must be zero —
//!    the runtime proof behind the `AUDIT(hot): amortized` justifications
//!    `cargo xtask audit` accepts in the Tier-1 closure.
//! 6. **Rate-aware vs full coding**: the sequential encoder at 1 bpp as
//!    shipped (Tier-1 stops above the planes PCRD discards, DESIGN.md §18)
//!    against `Encoder::with_full_coding` on the same image — seconds, the
//!    share of the nominal passes actually coded, and a byte comparison of
//!    the two codestreams, which must be equal (enforced below).
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_tier1 -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workload for CI: it validates the harness, the
//! allocation floor, and the engine-ordering floor — not absolute
//! performance numbers.
//!
//! Whole-encoder throughput at p workers is the end-to-end benchmark's
//! (`benchmark/`), measured there with alternation and quartiles.

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::report::Json;
use pj2k_bench::{harness_args, obj, test_image, time};
use pj2k_core::{Encoder, EncoderConfig, RateControl};
use pj2k_ebcot::{
    encode_block, BandCtx, BlockCoder, EncodedBlock, Tier1Engine, Tier1Options, Tier1Profile,
};
use pj2k_mq::MqEncoder;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Deterministic synthetic 64x64 code-blocks with subband-like sparsity.
fn synth_blocks(n: usize) -> Vec<Vec<i32>> {
    let mut state = 0x5DEECE66Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|b| {
            // Pyramid-weighted density mix. A dyadic decomposition puts
            // 3/4 of its area — and with fixed 64x64 code-blocks, 3/4 of
            // its blocks — in the finest detail subbands, ~3/16 in the next
            // level, and the remainder in coarse levels plus the dense LL
            // band, so per 8 blocks: six sparse finest-level blocks, one
            // mid-level, one dense LL-like. Values are keep thresholds out
            // of 128 (~3%..55% nonzero).
            let keep = [4usize, 4, 4, 4, 4, 4, 12, 70][b % 8];
            (0..64 * 64)
                .map(|_| {
                    let r = next();
                    if (r >> 32) % 128 < keep as u64 {
                        (((r >> 40) & 0xFF) as i32) - 128
                    } else {
                        0
                    }
                })
                .collect()
        })
        .collect()
}

fn band_of(i: usize) -> BandCtx {
    match i % 3 {
        0 => BandCtx::LlLh,
        1 => BandCtx::Hl,
        _ => BandCtx::Hh,
    }
}

struct MicroResult {
    secs: f64,
    blocks_per_sec: f64,
    allocs_per_block: f64,
}

/// Best of three timed trials of `reps` calls of `pass`, one pass over
/// the block set each (per-block coding is ~ms-scale, so a single trial
/// is at the mercy of the host scheduler), with the whole-process
/// allocations per block coded.
fn micro(blocks: &[Vec<i32>], reps: usize, mut pass: impl FnMut() -> usize) -> MicroResult {
    const TRIALS: usize = 3;
    let n = blocks.len() * reps;
    let a0 = alloc_count::global_allocs();
    let (mut secs, mut sink) = (f64::INFINITY, 0usize);
    for _ in 0..TRIALS {
        let ((), t) = time(|| (0..reps).for_each(|_| sink += pass()));
        secs = secs.min(t);
    }
    std::hint::black_box(sink);
    MicroResult {
        secs,
        blocks_per_sec: if secs > 0.0 { n as f64 / secs } else { 0.0 },
        allocs_per_block: (alloc_count::global_allocs() - a0) as f64 / (n * TRIALS) as f64,
    }
}

/// The seed path: a fresh coefficient buffer and a fresh single-use
/// encoder per block (what the first version of this workspace shipped).
fn micro_seed(blocks: &[Vec<i32>], reps: usize) -> MicroResult {
    let opts = Tier1Options::default();
    micro(blocks, reps, || {
        let blocks = blocks.iter().enumerate();
        blocks
            .map(|(i, c)| encode_block(c, 64, 64, band_of(i), opts).data.len())
            .sum()
    })
}

/// Code every block once through a warm arena: one [`BlockCoder`]
/// refilling one recycled [`EncodedBlock`]. Returns the bytes coded.
fn arena_pass(coder: &mut BlockCoder, out: &mut EncodedBlock, blocks: &[Vec<i32>]) -> usize {
    let opts = Tier1Options::default();
    let mut bytes = 0;
    for (i, coeffs) in blocks.iter().enumerate() {
        coder.coeff_scratch().extend_from_slice(coeffs);
        coder.encode_scratch_into(64, 64, band_of(i), opts, 0, out);
        bytes += out.data.len();
    }
    bytes
}

/// The arena path. After an untimed warm-up pass sized every buffer, the
/// timed passes must not allocate at all.
fn micro_arena(blocks: &[Vec<i32>], reps: usize, engine: Tier1Engine) -> MicroResult {
    let mut coder = BlockCoder::with_engine(engine);
    let mut out = EncodedBlock::default();
    arena_pass(&mut coder, &mut out, blocks);
    micro(blocks, reps, || arena_pass(&mut coder, &mut out, blocks))
}

/// Exact steady-state allocation count of one warm arena pass over every
/// block, from the thread-local counter (immune to other threads): after
/// the warm-up pass has sized every scratch buffer, recycling the coder
/// and output block must allocate nothing at all.
fn steady_state_allocs(blocks: &[Vec<i32>], engine: Tier1Engine) -> u64 {
    let mut coder = BlockCoder::with_engine(engine);
    let mut out = EncodedBlock::default();
    arena_pass(&mut coder, &mut out, blocks);
    let a0 = alloc_count::thread_allocs();
    std::hint::black_box(arena_pass(&mut coder, &mut out, blocks));
    alloc_count::thread_allocs() - a0
}

/// Per-pass time/decision breakdown of one engine over the block set.
fn profile_engine(blocks: &[Vec<i32>], reps: usize, engine: Tier1Engine) -> Tier1Profile {
    let opts = Tier1Options::default();
    let mut coder = BlockCoder::with_engine(engine);
    let mut out = EncodedBlock::default();
    let mut profile = Tier1Profile::default();
    for _ in 0..reps {
        for (i, coeffs) in blocks.iter().enumerate() {
            coder.coeff_scratch().extend_from_slice(coeffs);
            coder.encode_scratch_profiled_into(64, 64, band_of(i), opts, &mut profile, &mut out);
        }
    }
    profile
}

/// Calibrated MQ cost per decision (seconds): a pseudo-random decision
/// stream over a rotating context set, best of three trials.
fn mq_cost_per_decision() -> f64 {
    use pj2k_ebcot::context::initial_states;
    const N: usize = 400_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut ctx = initial_states();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let (_, t) = time(|| {
            let mut enc = MqEncoder::new();
            for i in 0..N {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bit = ((state >> 62) & 1) as u8; // ~50/50: worst case
                enc.encode(&mut ctx[i % 9], bit);
            }
            enc.flush().len()
        });
        best = best.min(t);
    }
    best / N as f64
}

fn pass_rows(p: &Tier1Profile) -> [(&'static str, f64, u64); 3] {
    [
        ("sig_prop", p.sig_prop_secs, p.sig_prop_decisions),
        ("mag_ref", p.mag_ref_secs, p.mag_ref_decisions),
        ("cleanup", p.cleanup_secs, p.cleanup_decisions),
    ]
}

fn main() {
    let (smoke, out_path) = harness_args();
    let out_path = out_path.unwrap_or_else(|| "BENCH_tier1.json".to_string());

    // At least 512x512 also in smoke runs: 16 of the 25 blocks of a
    // 256x256 image are its bands' first blocks, which the rate-aware
    // pilot's first stage codes in full.
    let (n_blocks, reps, kpx) = if smoke { (8, 2, 256) } else { (96, 10, 1024) };

    // --- microbenchmark: seed path vs scratch arenas ---------------------
    let blocks = synth_blocks(n_blocks);
    // Cross-check first: every path and every engine must produce
    // identical streams.
    let mut ref_coder = BlockCoder::with_engine(Tier1Engine::Reference);
    let mut bp_coder = BlockCoder::with_engine(Tier1Engine::Bitplane);
    for (i, c) in blocks.iter().enumerate() {
        let opts = Tier1Options::default();
        let a = encode_block(c, 64, 64, band_of(i), opts);
        ref_coder.coeff_scratch().extend_from_slice(c);
        let r = ref_coder.encode_scratch(64, 64, band_of(i), opts);
        bp_coder.coeff_scratch().extend_from_slice(c);
        let b = bp_coder.encode_scratch(64, 64, band_of(i), opts);
        assert_eq!(a.data, r.data, "scratch arena changed the bitstream");
        assert_eq!(r.data, b.data, "bitplane engine changed the bitstream");
    }
    // Untimed warm-up of the seed path, then measure.
    let _ = micro_seed(&blocks, 1);
    let seed = micro_seed(&blocks, reps);
    let scratch = micro_arena(&blocks, reps, Tier1Engine::Bitplane);
    let speedup = seed.secs / scratch.secs;
    let avoided = (seed.allocs_per_block - scratch.allocs_per_block).max(0.0);
    println!(
        "microbench: {n_blocks} blocks x {reps} reps — seed {:.1} blk/s ({:.2} allocs/blk), \
         scratch {:.1} blk/s ({:.2} allocs/blk), speedup {speedup:.3}x",
        seed.blocks_per_sec,
        seed.allocs_per_block,
        scratch.blocks_per_sec,
        scratch.allocs_per_block
    );
    // Self-validation: the warm arena path must not allocate. The floor is
    // intentionally strict — 2.0 allocs/block was the residual, before the
    // arena refilled a recycled `EncodedBlock`, this harness existed to
    // flag.
    const ALLOCS_PER_BLOCK_FLOOR: f64 = 0.5;
    if scratch.allocs_per_block > ALLOCS_PER_BLOCK_FLOOR {
        eprintln!(
            "FAIL: scratch path allocates {:.3}/block (floor {ALLOCS_PER_BLOCK_FLOOR})",
            scratch.allocs_per_block
        );
        std::process::exit(1);
    }

    // --- steady-state allocation oracle ----------------------------------
    // Exact (thread-local) count, not the whole-process estimate above:
    // the warm arena must allocate literally zero times per block, for
    // both engines. This is the runtime check behind the `AUDIT(hot):
    // amortized` annotations `cargo xtask audit` accepts in the Tier-1 closure.
    let steady_ref = steady_state_allocs(&blocks, Tier1Engine::Reference);
    let steady_bp = steady_state_allocs(&blocks, Tier1Engine::Bitplane);
    let steady_allocs = steady_ref + steady_bp;
    let steady_per_block = steady_allocs as f64 / (2 * blocks.len()) as f64;
    println!(
        "steady-state oracle: {} allocs over {} warm blocks \
         (reference {steady_ref}, bitplane {steady_bp})",
        steady_allocs,
        2 * blocks.len()
    );
    if steady_allocs != 0 {
        eprintln!("FAIL: warm arena allocated {steady_allocs} time(s); the contract is zero");
        std::process::exit(1);
    }

    // --- engine ablation --------------------------------------------------
    // The bitplane side is the scratch-arena measurement above.
    let reference = micro_arena(&blocks, reps, Tier1Engine::Reference);
    let bitplane = &scratch;
    let bitplane_speedup = reference.secs / bitplane.secs;
    println!(
        "engines: reference {:.1} blk/s, bitplane {:.1} blk/s — bitplane speedup {bitplane_speedup:.3}x",
        reference.blocks_per_sec, bitplane.blocks_per_sec
    );
    // Self-validation: the default engine must beat the one it replaced,
    // measured in this same run on this same machine.
    if bitplane_speedup <= 1.0 {
        eprintln!("FAIL: bitplane engine is not faster than reference ({bitplane_speedup:.3}x)");
        std::process::exit(1);
    }

    // --- per-pass and per-component breakdown ----------------------------
    let prof_ref = profile_engine(&blocks, reps.min(3), Tier1Engine::Reference);
    let prof_bp = profile_engine(&blocks, reps.min(3), Tier1Engine::Bitplane);
    let mq_cost = mq_cost_per_decision();
    for (name, p) in [("reference", &prof_ref), ("bitplane", &prof_bp)] {
        let total = p.total_secs().max(1e-12);
        let rows = pass_rows(p);
        let shares: Vec<String> = rows
            .iter()
            .map(|(k, s, d)| format!("{k} {:.0}% ({d} dec)", 100.0 * s / total))
            .collect();
        println!("per-pass {name}: {}", shares.join(", "));
    }

    // --- rate-aware vs full coding ----------------------------------------
    // Best of three each, alternating, on the sequential encoder.
    let img = test_image(kpx);
    let cfg = EncoderConfig {
        rate: RateControl::TargetBpp(vec![1.0]),
        ..EncoderConfig::default()
    };
    let fast_enc = Encoder::new(cfg.clone()).expect("config");
    let full_enc = Encoder::new(cfg).expect("config").with_full_coding();
    let (mut t_fast, mut t_full) = (f64::INFINITY, f64::INFINITY);
    let (fast_bytes, fast_report) = fast_enc.encode(&img);
    let (full_bytes, _) = full_enc.encode(&img);
    for _ in 0..3 {
        t_fast = t_fast.min(time(|| fast_enc.encode(&img)).1);
        t_full = t_full.min(time(|| full_enc.encode(&img)).1);
    }
    let byte_mismatches = usize::from(fast_bytes.len() != full_bytes.len())
        + fast_bytes
            .iter()
            .zip(&full_bytes)
            .filter(|(a, b)| a != b)
            .count();
    let coded_pass_share = fast_report.coded_passes as f64 / fast_report.total_passes.max(1) as f64;
    println!(
        "rate-aware: {:.1} ms vs full coding {:.1} ms (x{:.3}); {}/{}/{} passes \
         coded/nominal/kept in {} round(s); {byte_mismatches} byte(s) differ",
        t_fast * 1e3,
        t_full * 1e3,
        t_full / t_fast,
        fast_report.coded_passes,
        fast_report.total_passes,
        fast_report.kept_passes,
        fast_report.tier1_rounds
    );
    if byte_mismatches != 0 {
        eprintln!("FAIL: rate-aware Tier-1 changed the codestream");
        std::process::exit(1);
    }

    // --- JSON ---------------------------------------------------------------
    let micro = |m: &MicroResult| {
        obj! {
            "secs" => m.secs,
            "blocks_per_sec" => m.blocks_per_sec,
            "allocs_per_block" => m.allocs_per_block,
        }
    };
    let profiles = [("reference", &prof_ref), ("bitplane", &prof_bp)];
    let per_pass = profiles.map(|(name, p)| {
        let passes =
            pass_rows(p).map(|(k, s, d)| (k.to_string(), obj! { "secs" => s, "decisions" => d }));
        (name.to_string(), Json::Obj(passes.to_vec()))
    });
    let components = profiles.map(|(name, p)| {
        let entropy = (p.total_decisions() as f64 * mq_cost).min(p.total_secs());
        let formation = (p.total_secs() - entropy).max(0.0);
        let split = obj! {
            "entropy_secs_est" => entropy,
            "context_formation_secs_est" => formation,
        };
        (name.to_string(), split)
    });
    let mut components_obj = vec![(
        "mq_cost_per_decision_ns".to_string(),
        Json::from(mq_cost * 1e9),
    )];
    components_obj.extend(components);
    let doc = obj! {
        "schema" => "pj2k.bench_tier1.v5",
        "smoke" => smoke,
        "microbench" => obj! {
            "blocks" => n_blocks,
            "reps" => reps,
            "block_size" => vec![64usize, 64],
            "seed_path" => micro(&seed),
            "scratch_path" => micro(&scratch),
            "scratch_speedup" => speedup,
            "allocs_avoided_per_block" => avoided,
        },
        "steady_state" => obj! {
            "blocks" => 2 * blocks.len(),
            "allocs" => steady_allocs,
            "steady_allocs_per_block" => steady_per_block,
        },
        "engines" => obj! {
            "reference" => micro(&reference),
            "bitplane" => micro(bitplane),
            "bitplane_speedup" => bitplane_speedup,
        },
        "per_pass" => Json::Obj(per_pass.to_vec()),
        "components" => Json::Obj(components_obj),
        "rate_aware" => obj! {
            "bpp" => Json::Num(1.0, 1),
            "kpixels" => kpx,
            "rate_aware_secs" => t_fast,
            "full_coding_secs" => t_full,
            "rate_aware_speedup" => t_full / t_fast,
            "nominal_passes" => fast_report.total_passes,
            "coded_passes" => fast_report.coded_passes,
            "kept_passes" => fast_report.kept_passes,
            "tier1_rounds" => fast_report.tier1_rounds,
            "coded_pass_share" => coded_pass_share,
            "byte_mismatches" => byte_mismatches,
        },
    }
    .pretty();
    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    println!("wrote {out_path} ({} bytes)", doc.len());
}
