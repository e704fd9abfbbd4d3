//! Decode throughput harness.
//!
//! Emits `BENCH_decode.json` (schema `pj2k.bench_decode.v3`) tracking the
//! decoder (DESIGN.md §15) on real threads, and the packed Tier-1 block
//! decoder (DESIGN.md §13) against the per-coefficient oracle it replaced.
//! Everything reported is measured.
//!
//! 1. **Bit-identity cross-check**: the decoder at every worker count this
//!    harness times must reproduce the one-worker image exactly — enforced
//!    in-run before any number is reported.
//! 2. **Real-thread sweep** at p ∈ {1, 2, 4, 8} over two workloads: a
//!    *pyramid* stream (paper-default encode, dyadic cost mix) and a
//!    *skewed* stream (heavy code-blocks recurring at a fixed stride —
//!    the aliasing case for stride schedules, which the decoder's
//!    arrival-order queue drain does not have). Wall seconds, Mpix/s and
//!    speedup over p = 1, with the one-worker stage split (parse, Tier-1,
//!    inverse DWT) beside them.
//! 3. **Steady-state allocation oracle**: a warm
//!    [`pj2k_ebcot::BlockDecoderScratch`] pass over pre-parsed segments
//!    must allocate exactly zero times per block — the runtime proof
//!    behind the `AUDIT(hot): amortized` justifications in the decoder's
//!    per-block closure.
//! 4. **Tier-1 decode engines** (`tier1_decode`): the packed decoder vs
//!    the `pj2k_ebcot::oracle` decoder over the same warm block set —
//!    blocks/s, ns per block and allocations per warm block (0 enforced
//!    for both), reported only after both reproduced every block's
//!    coefficients exactly. `packed_speedup` is the headline key.
//!
//! Every document carries `host_cores`; measured rows with `p` above it
//! are flagged `oversubscribed`.
//!
//! ```sh
//! cargo run --release -p pj2k-bench --bin bench_decode -- [--smoke] [--out PATH]
//! ```

use pj2k_bench::alloc_count::{self, CountingAlloc};
use pj2k_bench::{paper_config, test_image, time};
use pj2k_core::report::stage;
use pj2k_core::{Decoder, Encoder, EncoderConfig, ParallelMode};
use pj2k_ebcot::oracle::OracleDecoderScratch;
use pj2k_ebcot::{
    BandCtx, BlockCoder, BlockDecoderScratch, DecodeError, EncodedBlock, Tier1Options,
};
use pj2k_image::{Image, Plane};
use pj2k_testkit::synth;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Smooth background with a dense noise band in every fourth 64-pixel
/// code-block row: heavy blocks recur at a fixed stride, which a stride
/// schedule would alias onto one worker.
fn skewed_image(side: usize) -> Image {
    let mut state = 0x5EED_BEEFu64;
    Image::gray8(Plane::from_fn(side, side, |x, y| {
        if (y / 64) % 4 == 0 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 256) as i32
        } else {
            (((x + 2 * y) / 8) % 256) as i32
        }
    }))
}

fn decoder(p: usize) -> Decoder {
    Decoder {
        parallel: if p == 1 {
            ParallelMode::Sequential
        } else {
            ParallelMode::WorkerPool { workers: p }
        },
        ..Decoder::default()
    }
}

struct Workload {
    name: &'static str,
    bytes: Vec<u8>,
    pixels: f64,
}

fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

/// Keys the emitted document must contain; checked after writing so a
/// refactor cannot silently change the schema consumers parse.
const REQUIRED_KEYS: &[&str] = &[
    "\"schema\"",
    "\"smoke\"",
    "\"host_cores\"",
    "\"bit_identity\"",
    "\"steady_state\"",
    "\"steady_allocs_per_block\"",
    "\"tier1_decode\"",
    "\"equality\"",
    "\"oracle\"",
    "\"packed\"",
    "\"blocks_per_sec\"",
    "\"ns_per_block\"",
    "\"warm_allocs_per_block\"",
    "\"packed_speedup\"",
    "\"workloads\"",
    "\"pyramid\"",
    "\"skewed\"",
    "\"parse_secs\"",
    "\"tier1_secs\"",
    "\"dwt_secs\"",
    "\"measured\"",
    "\"secs\"",
    "\"mpix_per_sec\"",
    "\"speedup\"",
    "\"oversubscribed\"",
];

fn validate(doc: &str) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !doc.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    if opens == 0 || opens != closes {
        return Err(format!("unbalanced braces: {opens} vs {closes}"));
    }
    if doc.matches('[').count() != doc.matches(']').count() {
        return Err("unbalanced brackets".to_string());
    }
    Ok(())
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_decode.json".to_string());
    let (kpx, trials, oracle_blocks, engine_reps) = if smoke {
        (64, 1, 10, 8)
    } else {
        (1024, 3, 48, 12)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- workloads --------------------------------------------------------
    let pyramid_img = test_image(kpx);
    let side = synth::side_for_kpixels(kpx).max(256);
    let skewed_img = skewed_image(side);
    let enc = Encoder::new(EncoderConfig {
        levels: 5,
        ..paper_config()
    })
    .expect("config");
    let workloads = [
        Workload {
            name: "pyramid",
            bytes: enc.encode(&pyramid_img).0,
            pixels: (pyramid_img.width() * pyramid_img.height()) as f64,
        },
        Workload {
            name: "skewed",
            bytes: enc.encode(&skewed_img).0,
            pixels: (side * side) as f64,
        },
    ];

    // --- in-run bit-identity cross-check ---------------------------------
    let cpus = [1usize, 2, 4, 8];
    for w in &workloads {
        let (reference, _) = decoder(1).decode(&w.bytes).expect("valid stream");
        for &p in &cpus[1..] {
            let (img, _) = decoder(p).decode(&w.bytes).expect("valid stream");
            if img != reference {
                eprintln!("FAIL: p={p} diverged from p=1 on {}", w.name);
                std::process::exit(1);
            }
        }
    }
    println!("bit-identity: every worker count decodes the one-worker image");

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

    // --- measured sweep ---------------------------------------------------
    let mut sections = Vec::new();
    for w in &workloads {
        let (_, report) = decoder(1).decode(&w.bytes).expect("valid stream");
        let parse_total = report.stages.get(stage::TIER2).as_secs_f64();
        let tier1_total = report.stages.get(stage::TIER1).as_secs_f64();
        let dwt_total = report.stages.get(stage::INTRA_COMPONENT).as_secs_f64();
        let n = report.num_blocks;
        println!(
            "{}: {} blocks — parse {:.1} ms, tier-1 {:.1} ms, dwt {:.1} ms",
            w.name,
            n,
            parse_total * 1e3,
            tier1_total * 1e3,
            dwt_total * 1e3
        );
        let mut measured = Vec::new();
        for &p in &cpus {
            let mut best = f64::INFINITY;
            for _ in 0..trials {
                let (_, t) = time(|| decoder(p).decode(&w.bytes).expect("valid stream"));
                best = best.min(t);
            }
            measured.push((p, best));
        }
        let p1 = measured[0].1;
        for &(p, secs) in &measured {
            println!(
                "  p={p}: {:.1} ms, {:.1} Mpix/s (x{:.3}){}",
                secs * 1e3,
                w.pixels / 1e6 / secs,
                p1 / secs,
                if p > host_cores {
                    " oversubscribed"
                } else {
                    ""
                }
            );
        }
        sections.push((w, parse_total, tier1_total, dwt_total, n, measured));
    }

    // --- hand-rolled JSON -------------------------------------------------
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"pj2k.bench_decode.v3\",\n");
    doc.push_str(&format!("  \"smoke\": {smoke},\n"));
    doc.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    doc.push_str(&format!("  \"kpixels\": {kpx},\n"));
    doc.push_str("  \"bit_identity\": \"ok\",\n");
    doc.push_str(&format!(
        "  \"steady_state\": {{ \"blocks\": {oracle_n}, \"allocs\": {steady_allocs}, \
         \"steady_allocs_per_block\": {} }},\n",
        jf(steady_per_block)
    ));
    doc.push_str(&format!(
        "  \"tier1_decode\": {{\n    \"blocks\": {}, \"reps\": {engine_reps}, \"equality\": \"ok\",\n",
        probe.len()
    ));
    for (name, row) in [("oracle", &oracle), ("packed", &packed)] {
        doc.push_str(&format!(
            "    \"{name}\": {{ \"secs\": {}, \"blocks_per_sec\": {}, \"ns_per_block\": {}, \
             \"warm_allocs_per_block\": {} }},\n",
            jf(row.secs),
            jf(row.decoded as f64 / row.secs),
            jf(row.secs * 1e9 / row.decoded as f64),
            jf(row.allocs as f64 / row.decoded as f64)
        ));
    }
    doc.push_str(&format!(
        "    \"packed_speedup\": {}\n  }},\n",
        jf(packed_speedup)
    ));
    doc.push_str("  \"workloads\": {\n");
    for (wi, (w, parse, tier1, dwt, n, measured)) in sections.iter().enumerate() {
        doc.push_str(&format!("    \"{}\": {{\n", w.name));
        doc.push_str(&format!("      \"blocks\": {n},\n"));
        doc.push_str(&format!("      \"parse_secs\": {},\n", jf(*parse)));
        doc.push_str(&format!("      \"tier1_secs\": {},\n", jf(*tier1)));
        doc.push_str(&format!("      \"dwt_secs\": {},\n", jf(*dwt)));
        doc.push_str("      \"measured\": [\n");
        let p1 = measured[0].1;
        for (i, &(p, secs)) in measured.iter().enumerate() {
            doc.push_str(&format!(
                "        {{ \"p\": {p}, \"secs\": {}, \"mpix_per_sec\": {}, \"speedup\": {}, \
                 \"oversubscribed\": {} }}{}\n",
                jf(secs),
                jf(w.pixels / 1e6 / secs),
                jf(p1 / secs),
                p > host_cores,
                if i + 1 < measured.len() { "," } else { "" }
            ));
        }
        doc.push_str("      ]\n");
        doc.push_str(&format!(
            "    }}{}\n",
            if wi + 1 < sections.len() { "," } else { "" }
        ));
    }
    doc.push_str("  }\n}\n");

    std::fs::write(&out_path, &doc).expect("write benchmark JSON");
    let written = std::fs::read_to_string(&out_path).expect("re-read benchmark JSON");
    if let Err(e) = validate(&written) {
        eprintln!("BENCH_decode schema validation failed: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes, schema OK)", written.len());
}
