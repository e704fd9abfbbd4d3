//! The traced run: per-layer metrics of one workload.
//!
//! ```text
//! layers --workload W --seed N --seconds S --trace 1 [--smoke]
//! ```
//!
//! Links the library crates and times calls into each layer's public
//! functions (`chain.rs`) on the same generated inputs the end-to-end run
//! uses, then the whole codec in process, the batch layer, the fork-join
//! primitives, a fixed MQ stream, and one CLI repetition. Every call is a
//! span; the spans of the last round go to `trace_<workload>.json`. The
//! public functions called here are listed in the README: they are the
//! surface this binary pins.

mod chain;
mod trace;

use chain::Sums;
use pj2k_benchmark::gen::{Raster, SplitMix64};
use pj2k_benchmark::json::Json;
use pj2k_benchmark::report::{contract_line, metrics_json, out_dir, print_metrics, Args, Metric};
use pj2k_benchmark::rig::Rig;
use pj2k_benchmark::stats::{quantile, summarize};
use pj2k_benchmark::workload::{par_threads, workload, Rate, Workload, NAMES};
use pj2k_core::{
    Decoder, Encoder, EncoderConfig, FilterStrategy, ParallelMode, RateControl, StageOverlap,
    Wavelet,
};
use pj2k_mq::{CtxState, MqDecoder, MqEncoder};
use pj2k_parutil::{pool_run, Exec, Schedule};
use pj2k_serve::{encode_files, BatchOptions};
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Every per-layer metric with its unit, in reporting order. A metric a
/// workload has no work for (colour transforms on gray, quantization on
/// lossless) reads 0.
const METRICS: [(&str, &str); 55] = [
    ("image.pnm_read_s", "s"),
    ("image.pnm_write_s", "s"),
    ("image.color_fwd_s", "s"),
    ("image.color_inv_s", "s"),
    ("dwt.fwd_p1_s", "s"),
    ("dwt.fwd_par_s", "s"),
    ("dwt.fwd_vertical_s", "s"),
    ("dwt.inv_p1_s", "s"),
    ("dwt.inv_par_s", "s"),
    ("dwt.samples", "count"),
    ("quant.quantize_s", "s"),
    ("quant.dequantize_s", "s"),
    ("ebcot.encode_s", "s"),
    ("ebcot.decode_s", "s"),
    ("ebcot.decode_kept_s", "s"),
    ("ebcot.blocks", "count"),
    ("ebcot.passes", "count"),
    ("ebcot.kept_passes", "count"),
    ("ebcot.coded_bytes", "bytes"),
    ("ebcot.encode_ns_per_sample", "ns"),
    ("ebcot.decode_mismatch_blocks", "count"),
    ("ebcot.wasted_pass_share", "share"),
    ("mq.encode_ns_per_decision", "ns"),
    ("mq.decode_ns_per_decision", "ns"),
    ("tier2.pcrd_s", "s"),
    ("tier2.packet_encode_s", "s"),
    ("tier2.packet_decode_s", "s"),
    ("tier2.packets", "count"),
    ("core.encode_p1_s", "s"),
    ("core.encode_par_s", "s"),
    ("core.decode_p1_s", "s"),
    ("core.decode_par_s", "s"),
    ("core.decode_pipelined_par_s", "s"),
    ("core.encode_par_speedup", "x"),
    ("core.decode_par_speedup", "x"),
    ("core.encode_unattributed_share", "share"),
    ("core.decode_unattributed_share", "share"),
    ("core.par_bitexact", "count"),
    ("parutil.forkjoin_us", "us"),
    ("parutil.run_ranges_us", "us"),
    ("serve.batch_p1_s", "s"),
    ("serve.batch_par_s", "s"),
    ("serve.solo_sum_s", "s"),
    ("serve.overhead_share", "share"),
    ("serve.plan_jobs", "count"),
    ("serve.plan_threads_per_job", "count"),
    ("cli.encode_overhead_s", "s"),
    ("cli.decode_overhead_s", "s"),
    ("cli.encode_par_cpu_s", "s"),
    ("cli.decode_par_cpu_s", "s"),
    ("cli.decode_file_p50_ms", "ms"),
    ("cli.decode_file_p95_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
];

/// Decisions in the fixed MQ stream.
const MQ_DECISIONS: usize = 4_000_000;
/// Empty fork-joins timed per round.
const FORKJOINS: usize = 1000;
/// Empty spans recorded per round to price one.
const EMPTY_SPANS: usize = 100_000;

/// Checks made inside the traced run; a failed one makes it incorrect.
struct Checks {
    workload: &'static str,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "benchmark: {}: traced-run check failed: {what}",
                self.workload
            );
        }
    }
}

/// The configuration `pj2k encode` builds for this workload's arguments
/// (`encoder_config` in the CLI: strip filtering on top of the defaults).
fn cli_config(wl: &Workload) -> EncoderConfig {
    let mut cfg = EncoderConfig {
        filter: FilterStrategy::Strip,
        ..EncoderConfig::default()
    };
    match wl.rate {
        Rate::Bpp(r) => cfg.rate = RateControl::TargetBpp(vec![r]),
        Rate::Lossless => {
            cfg.wavelet = Wavelet::Reversible53;
            cfg.rate = RateControl::Lossless;
        }
    }
    cfg
}

fn pool(par: usize) -> ParallelMode {
    if par <= 1 {
        ParallelMode::Sequential
    } else {
        ParallelMode::WorkerPool { workers: par }
    }
}

/// Whole-codec runs in process for one image, with the CLI's
/// configuration; cross-checked against the chain's output.
fn core_runs(
    input: &Path,
    chain: &chain::ChainOutput,
    cfg: &EncoderConfig,
    par: usize,
    tr: &mut Tracer,
    m: &mut Sums,
    checks: &mut Checks,
) -> std::io::Result<bool> {
    let img = pj2k_image::pnm::read(&mut BufReader::new(std::fs::File::open(input)?))?;
    let encoder = |parallel| {
        Encoder::new(EncoderConfig {
            parallel,
            ..cfg.clone()
        })
        .expect("the CLI's configuration is valid")
    };
    let (seq, par_enc) = (encoder(ParallelMode::Sequential), encoder(pool(par)));
    let ((bytes, report), s) = tr.time("core.encode_p1", || seq.encode(&img));
    m.add("core.encode_p1_s", s);
    let ((bytes_par, _), s) = tr.time("core.encode_par", || par_enc.encode(&img));
    m.add("core.encode_par_s", s);
    checks.expect(
        report.num_blocks == chain.blocks && report.total_passes == chain.passes,
        "the chain coded other blocks or passes than Encoder::encode",
    );

    let decoder = |parallel, overlap| Decoder {
        parallel,
        overlap,
        ..Decoder::default()
    };
    let mut decode = |name: &'static str, metric: &'static str, d: Decoder| {
        let (out, s) = tr.time(name, || d.decode(&bytes));
        m.add(metric, s);
        out.map(|(image, _)| image).ok()
    };
    let barriered = StageOverlap::Barriered;
    let p1 = decode(
        "core.decode_p1",
        "core.decode_p1_s",
        decoder(ParallelMode::Sequential, barriered),
    );
    let par_out = decode(
        "core.decode_par",
        "core.decode_par_s",
        decoder(pool(par), barriered),
    );
    let piped = decode(
        "core.decode_pipelined_par",
        "core.decode_pipelined_par_s",
        decoder(pool(par), StageOverlap::Pipelined),
    );
    checks.expect(
        p1.as_ref() == Some(&chain.image),
        "the chain decoded another image than Decoder::decode",
    );
    Ok(bytes_par == bytes && p1.is_some() && par_out == p1 && piped == p1)
}

/// Median microseconds of `FORKJOINS` runs of `f`.
fn median_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..FORKJOINS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    summarize(&samples).median
}

/// Encode then decode a fixed seeded decision stream over 19 contexts
/// (Tier-1's count) with skewed probabilities; nanoseconds per decision.
fn mq_probe(tr: &mut Tracer, m: &mut Sums, checks: &mut Checks) {
    let mut rng = SplitMix64::new(0x6d71);
    let stream: Vec<(u8, u8)> = (0..MQ_DECISIONS)
        .map(|_| {
            let r = rng.next_u64();
            let ctx = (r % 19) as u8;
            // Context c emits 1 with probability (c + 1) / 40: from
            // heavily skewed to nearly even, as Tier-1's contexts are.
            (ctx, u8::from((r >> 32) % 40 <= u64::from(ctx)))
        })
        .collect();
    let (bytes, s) = tr.time("mq.encode", || {
        let mut contexts = [CtxState::default(); 19];
        let mut enc = MqEncoder::new();
        for &(ctx, bit) in &stream {
            enc.encode(&mut contexts[usize::from(ctx)], bit);
        }
        enc.flush()
    });
    m.add("mq.encode_ns_per_decision", s * 1e9 / MQ_DECISIONS as f64);
    let (wrong, s) = tr.time("mq.decode", || {
        let mut contexts = [CtxState::default(); 19];
        let mut dec = MqDecoder::new(&bytes);
        stream
            .iter()
            .filter(|&&(ctx, bit)| dec.decode(&mut contexts[usize::from(ctx)]) != bit)
            .count()
    });
    m.add("mq.decode_ns_per_decision", s * 1e9 / MQ_DECISIONS as f64);
    checks.expect(
        wrong == 0,
        "the MQ decoder did not return the encoded decisions",
    );
}

/// One measurement round: every metric once. Returns the metric values
/// and the round's tracer.
fn round(
    rig: &mut Rig,
    inputs: &[Raster],
    out: &Path,
    checks: &mut Checks,
) -> std::io::Result<(Sums, Tracer)> {
    let wl = rig.workload.clone();
    let (par, cfg) = (rig.par, cli_config(&rig.workload));
    let mut m = Sums::default();
    let (mut traced, mut untraced) = (Tracer::new(true), Tracer::new(false));
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut bitexact = true;
    let chain_dir = out.join("chain");
    std::fs::create_dir_all(&chain_dir)?;
    for item in &wl.items {
        let input = rig.input_dir().join(item.pnm_name());
        let output = chain_dir.join(item.pnm_name());
        // The same chain untraced and traced (the spans); the difference
        // between the two walls is the tracing overhead. Of each probe's
        // two executions the faster, which is the less disturbed one, is
        // the reported number (the counts are equal).
        let (mut plain, mut spanned) = (Sums::default(), Sums::default());
        let t = Instant::now();
        let chain_out = chain::run(&input, &output, &cfg, par, &mut untraced, &mut plain)?;
        untraced_s += t.elapsed().as_secs_f64();
        let file = traced.begin("file");
        let t = Instant::now();
        chain::run(&input, &output, &cfg, par, &mut traced, &mut spanned)?;
        traced_s += t.elapsed().as_secs_f64();
        for (name, value) in &plain.0 {
            m.add(name, value.min(spanned.get(name)));
        }
        bitexact &= core_runs(&input, &chain_out, &cfg, par, &mut traced, &mut m, checks)?;
        traced.end(file);
    }
    checks.expect(
        bitexact,
        "parallel or pipelined output differs from sequential",
    );
    checks.expect(
        m.get("ebcot.decode_mismatch_blocks") == 0.0,
        "a code-block did not decode back to its coefficients",
    );
    m.add("core.par_bitexact", f64::from(u8::from(bitexact)));
    m.add("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

    // The batch layer in process, on all of the workload's files.
    let mut batch = |name: &'static str, metric: &'static str, budget: usize, m: &mut Sums| {
        let dir = out.join(format!("serve_{budget}"));
        let _ = std::fs::create_dir_all(&dir);
        let pairs: Vec<(PathBuf, PathBuf)> = wl
            .items
            .iter()
            .map(|i| {
                (
                    rig.input_dir().join(i.pnm_name()),
                    dir.join(format!("{}.pj2k", i.stem)),
                )
            })
            .collect();
        let options = BatchOptions {
            budget: Some(budget),
            ..BatchOptions::default()
        };
        let (report, s) = traced.time(name, || encode_files(&pairs, &cfg, &options));
        m.add(metric, s);
        let report = report.expect("the CLI's configuration is valid");
        checks.expect(report.all_ok(), "a job of the in-process batch failed");
        report.plan
    };
    batch("serve.batch_p1", "serve.batch_p1_s", 1, &mut m);
    let plan = batch("serve.batch_par", "serve.batch_par_s", par, &mut m);
    m.add("serve.plan_jobs", plan.jobs as f64);
    m.add("serve.plan_threads_per_job", plan.threads_per_job as f64);
    let solo = m.get("image.pnm_read_s") + m.get("core.encode_p1_s");
    m.add("serve.solo_sum_s", solo);
    m.add(
        "serve.overhead_share",
        (m.get("serve.batch_p1_s") - solo) / solo,
    );

    // Empty fork-joins at `par`: what each parallel stage pays to launch.
    let empty = |i: usize| {
        black_box(i);
    };
    m.add(
        "parutil.forkjoin_us",
        median_us(|| pool_run(par, par, Schedule::StaticBlock, empty)),
    );
    let exec = Exec::threads(par);
    m.add(
        "parutil.run_ranges_us",
        median_us(|| {
            exec.run_ranges(par, |r| {
                black_box(r);
            })
        }),
    );
    mq_probe(&mut traced, &mut m, checks);

    // One CLI repetition, for what the process adds around the library.
    let cli = traced.begin("cli.rep");
    let rep = rig.rep(inputs);
    traced.end(cli);
    m.add(
        "cli.encode_overhead_s",
        rep.encode[0].wall_s - m.get("image.pnm_read_s") - m.get("core.encode_p1_s"),
    );
    // The faster of the repetition's p1 decode passes.
    let decode_p1_s = rep
        .decode
        .iter()
        .map(|pass| pass[0].wall_s)
        .fold(f64::INFINITY, f64::min);
    m.add(
        "cli.decode_overhead_s",
        decode_p1_s - m.get("core.decode_p1_s") - m.get("image.pnm_write_s"),
    );
    m.add("cli.encode_par_cpu_s", rep.encode[1].cpu_s);
    m.add("cli.decode_par_cpu_s", rep.decode[0][1].cpu_s);
    // Every p1 decode invocation of the repetition's passes.
    let mut latencies_ms: Vec<f64> = rep
        .decode
        .iter()
        .flat_map(|pass| &pass[0].each_wall_s)
        .map(|s| s * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    m.add("cli.decode_file_p50_ms", quantile(&latencies_ms, 0.5));
    m.add("cli.decode_file_p95_ms", quantile(&latencies_ms, 0.95));

    // Derived values, each from this round's own measurements.
    m.add(
        "core.encode_par_speedup",
        m.get("core.encode_p1_s") / m.get("core.encode_par_s"),
    );
    m.add(
        "core.decode_par_speedup",
        m.get("core.decode_p1_s") / m.get("core.decode_par_s"),
    );
    let share = |m: &Sums, layers: &[&str], total: &str| {
        1.0 - layers.iter().map(|l| m.get(l)).sum::<f64>() / m.get(total)
    };
    let encode_layers = [
        "image.color_fwd_s",
        "dwt.fwd_p1_s",
        "quant.quantize_s",
        "ebcot.encode_s",
        "tier2.pcrd_s",
        "tier2.packet_encode_s",
    ];
    let decode_layers = [
        "tier2.packet_decode_s",
        "ebcot.decode_kept_s",
        "quant.dequantize_s",
        "dwt.inv_p1_s",
        "image.color_inv_s",
    ];
    m.add(
        "core.encode_unattributed_share",
        share(&m, &encode_layers, "core.encode_p1_s"),
    );
    m.add(
        "core.decode_unattributed_share",
        share(&m, &decode_layers, "core.decode_p1_s"),
    );
    m.add(
        "ebcot.encode_ns_per_sample",
        m.get("ebcot.encode_s") * 1e9 / m.get("dwt.samples"),
    );
    m.add(
        "ebcot.wasted_pass_share",
        1.0 - m.get("ebcot.kept_passes") / m.get("ebcot.passes"),
    );
    m.add("trace.spans", traced.span_count() as f64);
    // `trace.overhead_share` is the difference of two walls and so mostly
    // the host's noise; what a span costs is measured directly as well.
    let mut pricing = Tracer::new(true);
    let t = Instant::now();
    for _ in 0..EMPTY_SPANS {
        let span = pricing.begin("empty");
        pricing.end(span);
    }
    m.add(
        "trace.span_cost_ns",
        t.elapsed().as_secs_f64() * 1e9 / EMPTY_SPANS as f64,
    );
    Ok((m, traced))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if !args.trace {
        return Err("--trace 0 is the `e2e` binary's run (benchmark/run.sh dispatches)".into());
    }
    let wl = workload(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?} (one of {NAMES:?})", args.workload))?;
    let io_err = |e: std::io::Error| format!("{}: {e}", wl.name);
    let par = par_threads();
    let dir = out_dir().join(format!("{}.traced", wl.name));
    let mut rig = Rig::new(wl.clone(), par, &dir).map_err(io_err)?;
    let inputs = rig.write_inputs(args.seed).map_err(io_err)?;
    rig.warm_up();
    rig.encode_references();

    let start = Instant::now();
    let mut checks = Checks {
        workload: wl.name,
        attempted: 0,
        failed: 0,
    };
    let mut rounds: Vec<Sums> = Vec::new();
    let mut last_trace = None;
    // Rounds are long (every probe once), so another one starts only if it
    // is expected to end within the measuring time.
    let mut longest_round_s = 0f64;
    while rounds.is_empty() || start.elapsed().as_secs_f64() + longest_round_s < args.seconds {
        let t = Instant::now();
        let (sums, tracer) = round(&mut rig, &inputs, &dir, &mut checks).map_err(io_err)?;
        longest_round_s = longest_round_s.max(t.elapsed().as_secs_f64());
        rounds.push(sums);
        last_trace = Some(tracer);
    }
    let trace_path = out_dir().join(format!("trace_{}.json", wl.name));
    last_trace
        .expect("at least one round ran")
        .write_chrome(&trace_path, wl.name)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let metrics: Vec<Metric> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = rounds.iter().map(|r| r.get(name)).collect();
            Metric::new(name, unit, &samples)
        })
        .collect();
    print_metrics(wl.name, &metrics);
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    println!(
        "{:<15} core.encode_par_speedup = core.encode_p1_s / core.encode_par_s = {:.4} s / {:.4} s, par = {par} threads",
        wl.name,
        value("core.encode_p1_s"),
        value("core.encode_par_s"),
    );
    println!(
        "{:<15} core.decode_par_speedup = core.decode_p1_s / core.decode_par_s = {:.4} s / {:.4} s, par = {par} threads",
        wl.name,
        value("core.decode_p1_s"),
        value("core.decode_par_s"),
    );
    let (attempted, failed) = (checks.attempted + rig.attempted, checks.failed + rig.failed);
    println!(
        "{:<15} failed checks and ops {failed} out of {attempted}; {} rounds in {:.1} s; spans in {}",
        wl.name,
        rounds.len(),
        start.elapsed().as_secs_f64(),
        trace_path.display()
    );

    let doc = Json::obj([
        ("workload", Json::str(wl.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("par", Json::Num(par as f64)),
        ("rounds", Json::Num(rounds.len() as f64)),
        ("ops", Json::Num(attempted as f64)),
        ("failed_ops", Json::Num(failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    let path = out_dir().join(format!("layers_{}.json", wl.name));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", contract_line(attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // The library reads `PJ2K_*` overrides from the environment; measure
    // its defaults. No other thread exists yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PJ2K_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&args).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::from(2)
        }
    }
}
