//! How both binaries name, print and serialize their metrics, and the
//! command line they share.

use crate::json::Json;
use crate::stats::{summarize, Summary};
use std::path::Path;

/// One metric of one workload: its samples over the run's repetitions.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    /// The reported value.
    pub value: f64,
}

impl Metric {
    /// A metric reported as the median over the repetitions.
    pub fn new(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = summarize(samples);
        Metric {
            name: name.to_string(),
            unit,
            summary,
            value: summary.median,
        }
    }

    /// A metric whose reported value is not the samples' median.
    pub fn with_value(name: &str, unit: &'static str, samples: &[f64], value: f64) -> Metric {
        Metric {
            value,
            ..Metric::new(name, unit, samples)
        }
    }
}

/// Print every metric by name with its unit, one per line: the reported
/// value, then the samples' median, quartiles and range. With fewer than
/// 20 samples no percentile above the median has ten samples beyond it,
/// so none is shown.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let s = &m.summary;
        println!(
            "{workload:<15} {:<34} {:>14.6} {:<7} median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            m.name, m.value, m.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
}

/// `{name: {unit, value, median, q1, q3, min, max, n}}` for the result
/// document.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let s = &m.summary;
        let fields = [
            ("unit", Json::str(m.unit)),
            ("value", Json::Num(m.value)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("n", Json::Num(s.n as f64)),
        ];
        (m.name.clone(), Json::obj(fields))
    }))
}

/// Where inputs, outputs and documents go, relative to the root of the
/// checkout, which is where `run.sh` starts the binaries.
pub fn out_dir() -> &'static Path {
    Path::new("benchmark/out")
}

/// The one-line result the benchmark contract asks for as the last line
/// of standard output.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let values = metrics.iter().map(|m| {
        let fields = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        (m.name.clone(), Json::obj(fields))
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(values)),
    ])
}

/// `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long to keep measuring; repetitions are whole, so a run ends
    /// after the first one that finishes past this.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &String| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload = value()?.clone(),
                "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                "--smoke" => parsed.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".to_string());
        }
        Ok(parsed)
    }
}
