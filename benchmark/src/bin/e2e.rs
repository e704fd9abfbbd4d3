//! End-to-end driver: times the production `pj2k` CLI from outside.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0 [--smoke]
//! e2e report  [--seed N] [--smoke]
//! e2e compare A.json B.json
//! ```
//!
//! Links no `pj2k-*` crate; everything it knows about the program is the
//! CLI surface listed in the README.

use pj2k_benchmark::json::{self, Json};
use pj2k_benchmark::pnm::fnv64;
use pj2k_benchmark::report::{contract_line, metrics_json, out_dir, print_metrics, Args, Metric};
use pj2k_benchmark::rig::{OpStats, Rep, Rig};
use pj2k_benchmark::stats::quantile;
use pj2k_benchmark::workload::{par_threads, workload, NAMES};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run measures at least this many repetitions, however short it is.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("report") => Args::parse(&args[1..]).and_then(|a| report(&a)),
        Some("compare") => match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("compare needs two result documents".to_string()),
        },
        _ => Args::parse(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Throughput of one operation from its passes over a run.
///
/// The samples are each pass's pixels per wall second. The reported value
/// is the throughput at the fast quartile of every invocation's wall time
/// (pixels over the sum, across the pass's invocations, of each one's
/// lower-quartile wall time over the passes): what disturbs a timing on a
/// shared host only ever slows it, in bursts that outlast several
/// invocations, so between runs of the same program the fast quartile
/// moves about half as much as the median does (README, "Noise").
fn throughput(name: &str, pixels: f64, passes: &[&OpStats]) -> Metric {
    let mpix_s = |wall_s: f64| pixels / 1e6 / wall_s;
    let samples: Vec<f64> = passes.iter().map(|p| mpix_s(p.wall_s)).collect();
    let fast_s: f64 = (0..passes[0].each_wall_s.len())
        .map(|i| {
            let mut walls: Vec<f64> = passes.iter().map(|p| p.each_wall_s[i]).collect();
            walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are not NaN"));
            quantile(&walls, 0.25)
        })
        .sum();
    Metric::with_value(name, "Mpix/s", &samples, mpix_s(fast_s))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.trace {
        return Err("--trace 1 is the `layers` binary's run (benchmark/run.sh dispatches)".into());
    }
    let wl = workload(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?} (one of {NAMES:?})", args.workload))?;
    let io_err = |e: std::io::Error| format!("{}: {e}", wl.name);
    let pixels = wl.pixels() as f64;
    let mut rig = Rig::new(wl.clone(), par_threads(), &out_dir().join(wl.name)).map_err(io_err)?;

    // Set-up: generate and write the inputs, then one untimed parallel
    // encode and decode. Done SETUPS times from scratch; the last one
    // leaves the state the timed repetitions start from.
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = rig.write_inputs(args.seed).map_err(io_err)?;
        rig.warm_up();
        setup_s.push(t.elapsed().as_secs_f64());
        if rig.failed > 0 {
            break;
        }
    }
    rig.encode_references();
    let hashes = wl
        .items
        .iter()
        .map(|item| {
            let name = item.pnm_name();
            let bytes = std::fs::read(rig.input_dir().join(&name)).map_err(io_err)?;
            Ok((name, Json::Str(format!("{:016x}", fnv64(&bytes)))))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Repetitions are whole: another one starts only if at least half of
    // it is expected to fit, so a run measures for about `--seconds`. A
    // program that fails its checks is reported, not measured further.
    while reps.is_empty()
        || (rig.failed == 0 && {
            let elapsed = start.elapsed().as_secs_f64();
            reps.len() < MIN_REPS || elapsed + 0.5 * elapsed / reps.len() as f64 <= args.seconds
        })
    {
        reps.push(rig.rep(&inputs));
    }

    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // Every encode, and every decode pass, of side `s` (0 = p1, 1 = par).
    let encodes = |s: usize| reps.iter().map(|r| &r.encode[s]).collect::<Vec<_>>();
    let decodes = |s: usize| {
        reps.iter()
            .flat_map(|r| &r.decode)
            .map(|d| &d[s])
            .collect::<Vec<_>>()
    };
    let rss_mb = |passes: &[&OpStats]| {
        passes
            .iter()
            .map(|p| p.max_rss_kb as f64 / 1024.0)
            .collect::<Vec<_>>()
    };
    let metrics = [
        Metric::new("setup_s", "s", &setup_s),
        throughput("encode_p1_mpix_s", pixels, &encodes(0)),
        throughput("encode_par_mpix_s", pixels, &encodes(1)),
        throughput("decode_p1_mpix_s", pixels, &decodes(0)),
        throughput("decode_par_mpix_s", pixels, &decodes(1)),
        Metric::new("encode_peak_rss_mb", "MB", &rss_mb(&encodes(1))),
        Metric::new("decode_peak_rss_mb", "MB", &rss_mb(&decodes(1))),
        Metric::new("compressed_bpp", "bpp", &per_rep(&|r| r.compressed_bpp)),
        Metric::new("psnr_db", "dB", &per_rep(&|r| r.psnr_db)),
    ];
    print_metrics(wl.name, &metrics);
    println!(
        "{:<15} failed_ops {} out of {} ops; {} reps in {:.1} s; par = {} threads",
        wl.name,
        rig.failed,
        rig.attempted,
        reps.len(),
        start.elapsed().as_secs_f64(),
        rig.par
    );

    let doc = Json::obj([
        ("workload", Json::str(wl.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("par", Json::Num(rig.par as f64)),
        ("reps", Json::Num(reps.len() as f64)),
        ("ops", Json::Num(rig.attempted as f64)),
        ("failed_ops", Json::Num(rig.failed as f64)),
        ("inputs", Json::obj(hashes)),
        ("metrics", metrics_json(&metrics)),
    ]);
    let path = out_dir().join(format!("e2e_{}.json", wl.name));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", contract_line(rig.attempted, rig.failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// Merge the per-workload documents of both binaries into
/// `<out>/result.json`, stamped with what the numbers depend on.
fn report(args: &Args) -> Result<ExitCode, String> {
    let load = |name: String| -> Result<Json, String> {
        let path = out_dir().join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut workloads = Vec::new();
    let mut failed_ops = 0.0;
    for name in NAMES {
        let e2e = load(format!("e2e_{name}.json"))?;
        let layers = load(format!("layers_{name}.json"))?;
        for doc in [&e2e, &layers] {
            let seed = doc.get("seed").and_then(Json::as_f64);
            if seed != Some(args.seed as f64) || doc.get("smoke") != Some(&Json::Bool(args.smoke)) {
                return Err(format!(
                    "{name}: document is from another run (seed or smoke differ)"
                ));
            }
            failed_ops += doc
                .get("failed_ops")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
        }
        workloads.push((name, Json::obj([("e2e", e2e), ("layers", layers)])));
    }
    let env = |key: &str| Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::obj([
        ("benchmark", Json::str("pj2k end-to-end + per-layer")),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::Num(args.seed as f64)),
        ("host_cores", Json::Num(cores as f64)),
        ("par", Json::Num(par_threads() as f64)),
        ("rustc", env("BENCH_RUSTC")),
        ("git_revision", env("BENCH_GIT_REVISION")),
        ("failed_ops", Json::Num(failed_ops)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} (failed_ops {failed_ops})", path.display());
    Ok(if failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Apply the bounds of `BENCHMARK.json` (in the current directory) to two
/// result documents: one row per workload x end-to-end metric.
fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load("BENCHMARK.json")?);
    for (key, doc) in [(a_path, &a), (b_path, &b)] {
        if doc.get("smoke") != Some(&Json::Bool(false)) {
            return Err(format!("{key}: smoke results are never compared"));
        }
    }
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut worse = 0;
    for name in NAMES {
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let summary = |doc: &Json, stat: &str| {
                doc.get("workloads")
                    .and_then(|w| w.get(name))
                    .and_then(|w| w.get("e2e"))
                    .and_then(|w| w.get("metrics"))
                    .and_then(|w| w.get(metric))
                    .and_then(|w| w.get(stat))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}.{metric}.{stat} missing"))
            };
            let (ma, mb) = (summary(&a, "value")?, summary(&b, "value")?);
            let change = (mb - ma) / ma.abs();
            let higher_is_better = field("better") == "higher";
            // How much worse b is than a, as a share of a's value.
            let worse_by = if higher_is_better { -change } else { change };
            let spread = |doc: &Json, m: f64| -> Result<f64, String> {
                Ok((summary(doc, "q3")? - summary(doc, "q1")?) / m.abs())
            };
            let noisy = spread(&a, ma)?.max(spread(&b, mb)?) > bound;
            // Every repetition of b better than every repetition of a
            // resolves a noisy metric in b's favour.
            let b_clearly_better = if higher_is_better {
                summary(&b, "min")? > summary(&a, "max")?
            } else {
                summary(&b, "max")? < summary(&a, "min")?
            };
            let verdict = if worse_by > bound {
                worse += 1;
                "worse"
            } else if noisy && !b_clearly_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{name:<15} {metric:<20} {ma:>12.4} {mb:>12.4} {:>+7.2}% {:>6.2}%  {verdict}",
                change * 100.0,
                bound * 100.0
            );
        }
    }
    println!("change = (b - a) / a; worse = b's value is worse than a's by more than the bound");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
