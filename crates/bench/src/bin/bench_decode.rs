//! Tier-1 decode harness.
//!
//! Emits `BENCH_decode.json` (schema `pj2k.bench_decode.v4`) tracking the
//! packed Tier-1 block decoder (DESIGN.md §13) against the
//! per-coefficient oracle it replaced. Everything reported is measured.
//!
//! 1. **Steady-state allocation oracle**: a warm
//!    [`pj2k_ebcot::BlockDecoderScratch`] pass over pre-parsed segments
//!    must allocate exactly zero times per block — the runtime proof
//!    behind the `AUDIT(hot): amortized` justifications in the decoder's
//!    per-block closure.
//! 2. **Tier-1 decode engines** (`tier1_decode`): the packed decoder vs
//!    the `pj2k_ebcot::oracle` decoder over the same warm block set —
//!    blocks/s, ns per block and allocations per warm block (0 enforced
//!    for both), reported only after both reproduced every block's
//!    coefficients exactly. `packed_speedup` is the headline key.
//!
//! Whole-decoder throughput at p workers is the end-to-end benchmark's
//! (`benchmark/`), measured there with alternation and quartiles; the
//! decoder's bit identity across worker counts is a test
//! (`parallel_decoding_matches_sequential`). Every document carries
//! `host_cores`.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_decode -- [--smoke] [--out PATH]
//! ```

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::report::host_cores;
use pj2k_bench::{harness_args, obj, time};
use pj2k_ebcot::oracle::OracleDecoderScratch;
use pj2k_ebcot::{
    BandCtx, BlockCoder, BlockDecoderScratch, DecodeError, EncodedBlock, Tier1Options,
};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const BANDS: [BandCtx; 3] = [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh];

/// The Tier-1 probe's block set: `n` 64x64 blocks of mixed density (three
/// sparse fine-level, one mid, one dense per five) with their source
/// coefficients, encoded once.
fn probe_blocks(n: usize) -> Vec<(EncodedBlock, Vec<i32>)> {
    let mut state = 0x00DE_C0DE_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut coder = BlockCoder::new();
    (0..n)
        .map(|b| {
            let keep = [4u64, 4, 4, 12, 70][b % 5];
            let coeffs: Vec<i32> = (0..64 * 64)
                .map(|_| {
                    let r = next();
                    if (r >> 32) % 128 < keep {
                        (((r >> 40) & 0xFF) as i32) - 128
                    } else {
                        0
                    }
                })
                .collect();
            coder.coeff_scratch().extend_from_slice(&coeffs);
            let blk = coder.encode_scratch(64, 64, BANDS[b % 3], Tier1Options::default());
            (blk, coeffs)
        })
        .collect()
}

struct EngineRow {
    secs: f64,
    allocs: u64,
    decoded: usize,
}

/// Decode the probe set through `decode`: one warm-up pass that sizes the
/// scratch and checks every block against its source coefficients (exit 1
/// on any difference — no number is reported for a wrong decoder), then
/// `reps` timed passes under the allocation counter. Segments are sliced
/// up front, exactly what the Tier-2 parser hands the decoder's workers.
fn run_engine(
    name: &str,
    blocks: &[(EncodedBlock, Vec<i32>)],
    reps: usize,
    mut decode: impl FnMut(&EncodedBlock, BandCtx, &[&[u8]], &mut Vec<i32>) -> Result<(), DecodeError>,
) -> EngineRow {
    let segments: Vec<Vec<&[u8]>> = blocks
        .iter()
        .map(|(blk, _)| (0..blk.passes.len()).map(|p| blk.segment(p)).collect())
        .collect();
    let mut out = Vec::new();
    for (b, ((blk, coeffs), segs)) in blocks.iter().zip(&segments).enumerate() {
        decode(blk, BANDS[b % 3], segs, &mut out).expect("self-encoded block must decode");
        if out != *coeffs {
            eprintln!("FAIL: {name} decoder did not reproduce block {b}");
            std::process::exit(1);
        }
    }
    let a0 = alloc_count::thread_allocs();
    let mut sink = 0i64;
    let ((), secs) = time(|| {
        for _ in 0..reps {
            for (b, ((blk, _), segs)) in blocks.iter().zip(&segments).enumerate() {
                decode(blk, BANDS[b % 3], segs, &mut out).expect("self-encoded block must decode");
                sink += i64::from(out.first().copied().unwrap_or(0));
            }
        }
    });
    std::hint::black_box(sink);
    EngineRow {
        secs,
        allocs: alloc_count::thread_allocs() - a0,
        decoded: reps * blocks.len(),
    }
}

fn main() {
    let (smoke, out_path) = harness_args();
    let out_path = out_path.unwrap_or_else(|| "BENCH_decode.json".to_string());
    let (oracle_blocks, engine_reps) = if smoke { (10, 8) } else { (48, 12) };

    // --- Tier-1 engines: equality, steady-state allocations, throughput --
    let opts = Tier1Options::default();
    let probe = probe_blocks(oracle_blocks);
    let mut packed_scratch = BlockDecoderScratch::new();
    let packed = run_engine("packed", &probe, engine_reps, |blk, band, segs, out| {
        packed_scratch.decode_into(blk.width, blk.height, band, blk.msb_planes, segs, opts, out)
    });
    let mut oracle_scratch = OracleDecoderScratch::new();
    let oracle = run_engine("oracle", &probe, engine_reps, |blk, band, segs, out| {
        oracle_scratch.decode_into(blk.width, blk.height, band, blk.msb_planes, segs, opts, out)
    });
    println!("tier-1 engines: packed and oracle decoders reproduce every probe block");
    for (name, row) in [("packed", &packed), ("oracle", &oracle)] {
        println!(
            "  {name}: {:.0} blocks/s, {:.0} ns/block, {} allocs over {} warm blocks",
            row.decoded as f64 / row.secs,
            row.secs * 1e9 / row.decoded as f64,
            row.allocs,
            row.decoded
        );
        if row.allocs != 0 {
            eprintln!(
                "FAIL: warm {name} decode scratch allocated {} time(s); the contract is zero",
                row.allocs
            );
            std::process::exit(1);
        }
    }
    let packed_speedup = oracle.secs / packed.secs;
    println!("  packed / oracle: x{packed_speedup:.3}");
    if packed_speedup <= 1.0 {
        eprintln!("FAIL: the packed decoder is not faster than the oracle it replaced");
        std::process::exit(1);
    }
    let (steady_allocs, oracle_n) = (packed.allocs, packed.decoded);
    let steady_per_block = steady_allocs as f64 / oracle_n as f64;

    // --- JSON ---------------------------------------------------------------
    let engine = |row: &EngineRow| {
        let n = row.decoded as f64;
        obj! {
            "secs" => row.secs,
            "blocks_per_sec" => n / row.secs,
            "ns_per_block" => row.secs * 1e9 / n,
            "warm_allocs_per_block" => row.allocs as f64 / n,
        }
    };
    let doc = obj! {
        "schema" => "pj2k.bench_decode.v4",
        "smoke" => smoke,
        "host_cores" => host_cores(),
        "steady_state" => obj! {
            "blocks" => oracle_n,
            "allocs" => steady_allocs,
            "steady_allocs_per_block" => steady_per_block,
        },
        "tier1_decode" => obj! {
            "blocks" => probe.len(),
            "reps" => engine_reps,
            "equality" => "ok",
            "oracle" => engine(&oracle),
            "packed" => engine(&packed),
            "packed_speedup" => packed_speedup,
        },
    }
    .pretty();
    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    println!("wrote {out_path} ({} bytes)", doc.len());
}
