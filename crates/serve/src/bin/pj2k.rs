//! `pj2k` — command-line front end for the codec.
//!
//! ```text
//! pj2k encode <inputs...> <out.pj2k|outdir> [options]
//!     One input file + an output file encodes a single image. Several
//!     inputs, a directory input, or --jobs routes through the batch
//!     layer: every .pgm/.ppm/.pnm in a directory input is encoded, the
//!     last argument names the output directory (created if missing),
//!     outputs are written in input order, and the exit code is non-zero
//!     iff any job failed.
//!     --bpp R[,R2,...]   lossy target bit rates (cumulative layers; default 1.0)
//!     --lossless         reversible 5/3, exact reconstruction
//!     --levels N         decomposition levels (default 5)
//!     --block WxH        code-block size (default 64x64)
//!     --tiles N|WxH      NxN or WxH tiling (default: none)
//!     --threads N        single image: worker threads (default 1);
//!                        batch: total worker budget B (default PJ2K_THREADS
//!                        or host parallelism)
//!     --jobs J           batch: concurrent images (default: auto j×k ≤ B split)
//!     --bypass           lazy mode: raw-code the deep SPP/MRP passes
//!     --roi X,Y,W,H      prioritize a region of interest (MAXSHIFT)
//!     --stats            print the per-stage timing breakdown, then one
//!                        line per Tier-1 round and the pilot estimate
//!                        (single image)
//!
//! pj2k decode <in.pj2k> <out.pgm> [--layers N] [--threads N] [--stats]
//!     --stats            print the per-stage timing breakdown; the output
//!                        pass (round, level shift, clamp) counts as
//!                        pipeline setup, as the encoder's level shift does
//! pj2k info   <in.pj2k>
//! ```
//!
//! An option not listed here is an error (exit 1), not a flag to ignore.

use pj2k_core::config::Tier1Options;
use pj2k_core::DwtStats;
use pj2k_core::{
    read_header, CodecError, Decoder, Encoder, EncoderConfig, ParallelMode, RateControl, Wavelet,
};
use pj2k_image::pnm;
use pj2k_parutil::StageTimes;
use pj2k_serve::{discover, encode_files, BatchOptions};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("pj2k: {msg}");
    eprintln!("run `pj2k help` for usage");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("encode") => match parse_opts(&args[1..], ENCODE_OPTS) {
            Ok(opts) => cmd_encode(&opts),
            Err(e) => fail(&e),
        },
        Some("decode") => match parse_opts(&args[1..], DECODE_OPTS) {
            Ok(opts) => cmd_decode(&opts),
            Err(e) => fail(&e),
        },
        Some("info") => match parse_opts(&args[1..], &[]) {
            Ok(opts) => cmd_info(&opts),
            Err(e) => fail(&e),
        },
        Some("help") | None => {
            println!("usage: pj2k <encode|decode|info> ... (see crate docs)");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown command {other:?}")),
    }
}

/// Pull `--name value` style options out of an argument list.
struct Opts<'a> {
    rest: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// The options `pj2k encode` accepts, each with whether it takes a value.
const ENCODE_OPTS: &[(&str, bool)] = &[
    ("--bpp", true),
    ("--lossless", false),
    ("--levels", true),
    ("--block", true),
    ("--tiles", true),
    ("--threads", true),
    ("--jobs", true),
    ("--bypass", false),
    ("--roi", true),
    ("--stats", false),
];

/// The options `pj2k decode` accepts.
const DECODE_OPTS: &[(&str, bool)] = &[("--layers", true), ("--threads", true), ("--stats", false)];

/// Split `args` into positional arguments and the `known` options; any
/// other `--option`, or a value option without its value, is an error.
fn parse_opts<'a>(args: &'a [String], known: &[(&str, bool)]) -> Result<Opts<'a>, String> {
    let mut rest = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            rest.push(a);
            continue;
        }
        match known.iter().find(|(name, _)| *name == a) {
            Some((_, true)) => match it.next() {
                Some(v) => flags.push((a, Some(v))),
                None => return Err(format!("option {a:?} needs a value")),
            },
            Some((_, false)) => flags.push((a, None)),
            None => return Err(format!("unknown option {a:?}")),
        }
    }
    Ok(Opts { rest, flags })
}

impl Opts<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

fn parallel_mode(opts: &Opts) -> Result<ParallelMode, String> {
    let threads: usize = match opts.value("--threads") {
        None => 1,
        Some(t) => t.parse().map_err(|_| format!("bad --threads {t:?}"))?,
    };
    if threads <= 1 {
        return Ok(ParallelMode::Sequential);
    }
    Ok(ParallelMode::WorkerPool { workers: threads })
}

/// Build the encoder configuration shared by single and batch encodes
/// (everything but `parallel`, which single mode takes from `--threads`
/// and batch mode from the `j × k` plan).
fn encoder_config(opts: &Opts) -> Result<EncoderConfig, String> {
    let mut cfg = EncoderConfig::default();
    if opts.has("--lossless") {
        cfg.wavelet = Wavelet::Reversible53;
        cfg.rate = RateControl::Lossless;
    } else if let Some(bpp) = opts.value("--bpp") {
        let rates: Result<Vec<f64>, _> = bpp.split(',').map(str::parse).collect();
        match rates {
            Ok(r) => cfg.rate = RateControl::TargetBpp(r),
            Err(_) => return Err(format!("bad --bpp {bpp:?}")),
        }
    }
    if let Some(l) = opts.value("--levels") {
        cfg.levels = l.parse().map_err(|_| format!("bad --levels {l:?}"))?;
    }
    if let Some(b) = opts.value("--block") {
        cfg.code_block = b
            .split_once('x')
            .and_then(parse_pair)
            .ok_or_else(|| format!("bad --block {b:?} (expected WxH)"))?;
    }
    if let Some(t) = opts.value("--tiles") {
        cfg.tiles = Some(
            parse_pair(t.split_once('x').unwrap_or((t, t)))
                .ok_or_else(|| format!("bad --tiles {t:?} (expected N or WxH)"))?,
        );
    }
    cfg.tier1 = Tier1Options {
        bypass: opts.has("--bypass"),
    };
    if let Some(spec) = opts.value("--roi") {
        let nums: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
        match nums.as_deref() {
            Ok([x0, y0, w, h]) => {
                cfg.roi = Some(pj2k_core::Roi {
                    x0: *x0,
                    y0: *y0,
                    w: *w,
                    h: *h,
                })
            }
            _ => return Err(format!("bad --roi {spec:?} (expected X,Y,W,H)")),
        }
    }
    Ok(cfg)
}

/// Both halves of a `WxH` option as numbers.
fn parse_pair((w, h): (&str, &str)) -> Option<(usize, usize)> {
    Some((w.parse().ok()?, h.parse().ok()?))
}

fn cmd_encode(opts: &Opts) -> ExitCode {
    if opts.rest.len() < 2 {
        return fail("encode needs <inputs...> <output.pj2k|outdir>");
    }
    let inputs: Vec<PathBuf> = opts.rest[..opts.rest.len() - 1]
        .iter()
        .map(PathBuf::from)
        .collect();
    let out_arg = PathBuf::from(opts.rest[opts.rest.len() - 1]);
    let batch_mode =
        inputs.len() > 1 || opts.has("--jobs") || inputs[0].is_dir() || out_arg.is_dir();
    if batch_mode {
        cmd_encode_batch(opts, &inputs, &out_arg)
    } else {
        cmd_encode_single(opts, &inputs[0], &out_arg)
    }
}

fn cmd_encode_single(opts: &Opts, input: &PathBuf, output: &PathBuf) -> ExitCode {
    let file = match std::fs::File::open(input) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot open {}: {e}", input.display())),
    };
    let img = match pnm::read(&mut BufReader::new(file)) {
        Ok(i) => i,
        Err(e) => return fail(&format!("cannot read {}: {e}", input.display())),
    };
    let mut cfg = match encoder_config(opts) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    cfg.parallel = match parallel_mode(opts) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let encoder = match Encoder::new(cfg) {
        Ok(e) => e,
        Err(e) => return fail(&format!("{e}")),
    };
    let (bytes, report) = encoder.encode(&img);
    if let Err(e) = std::fs::write(output, &bytes) {
        return fail(&format!("cannot write {}: {e}", output.display()));
    }
    let bpp = bytes.len() as f64 * 8.0 / img.pixels() as f64;
    println!(
        "{} -> {}: {} bytes ({bpp:.3} bpp, {} blocks, {}/{}/{} passes coded/nominal/kept, {} tier-1 round(s))",
        input.display(),
        output.display(),
        bytes.len(),
        report.num_blocks,
        report.coded_passes,
        report.total_passes,
        report.kept_passes,
        report.tier1_rounds
    );
    if opts.has("--stats") {
        print_stats(&report.stages, &report.dwt);
        for r in &report.rounds {
            println!(
                "  tier-1 round {:<8} {:>6} blocks {:>7} passes {:>9.2} ms",
                r.kind.name(),
                r.blocks,
                r.passes,
                r.seconds * 1e3
            );
        }
        for (lambda, envelope) in &report.pilot_estimates {
            println!("  pilot estimate: threshold {lambda:.6e}, envelope {envelope:.6e}");
        }
    }
    ExitCode::SUCCESS
}

/// The `--stats` breakdown: wall-clock per stage, then the DWT's split
/// between its two filtering directions.
fn print_stats(stages: &StageTimes, dwt: &DwtStats) {
    for (stage, t) in stages.iter() {
        println!("  {stage:<28} {:>9.2} ms", t.as_secs_f64() * 1e3);
    }
    println!(
        "  DWT split: vertical {:.2} ms / horizontal {:.2} ms",
        dwt.vertical.as_secs_f64() * 1e3,
        dwt.horizontal.as_secs_f64() * 1e3
    );
}

/// Encode many inputs through the batch layer: bounded-admission
/// scheduling, `j × k ≤ B` thread split, outputs written in input order,
/// exit non-zero iff any job failed.
fn cmd_encode_batch(opts: &Opts, inputs: &[PathBuf], out_arg: &PathBuf) -> ExitCode {
    let jobs_list = match discover(inputs) {
        Ok(l) => l,
        Err(e) => return fail(&format!("{e}")),
    };
    // A single discovered input with a non-directory output encodes to
    // that exact path; otherwise the last argument is the output
    // directory.
    let pairs: Vec<(PathBuf, PathBuf)> = if jobs_list.len() == 1 && !out_arg.is_dir() {
        vec![(jobs_list[0].clone(), out_arg.clone())]
    } else {
        if let Err(e) = std::fs::create_dir_all(out_arg) {
            return fail(&format!("cannot create {}: {e}", out_arg.display()));
        }
        jobs_list
            .iter()
            .map(|input| {
                let stem = input
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "out".to_string());
                (input.clone(), out_arg.join(format!("{stem}.pj2k")))
            })
            .collect()
    };
    let cfg = match encoder_config(opts) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let mut bopts = BatchOptions::default();
    if let Some(j) = opts.value("--jobs") {
        match j.parse::<usize>() {
            Ok(v) if v > 0 => bopts.jobs = Some(v),
            _ => return fail(&format!("bad --jobs {j:?}")),
        }
    }
    if let Some(t) = opts.value("--threads") {
        match t.parse::<usize>() {
            Ok(v) if v > 0 => bopts.budget = Some(v),
            _ => return fail(&format!("bad --threads {t:?}")),
        }
    }
    let report = match encode_files(&pairs, &cfg, &bopts) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{e}")),
    };
    for o in &report.outcomes {
        match &o.result {
            Ok(s) => println!(
                "{} -> {}: {} bytes ({} blocks, {} passes, {:.1} ms)",
                o.input.display(),
                o.output.display(),
                s.bytes,
                s.blocks,
                s.passes,
                s.seconds * 1e3
            ),
            Err(e) => println!("{} -> FAILED: {e}", o.input.display()),
        }
    }
    let failed = report.failed();
    println!(
        "batch: {} job(s), j={} k={} budget={} queue={}, {} ok, {} failed",
        report.outcomes.len(),
        report.plan.jobs,
        report.plan.threads_per_job,
        report.plan.budget,
        report.plan.queue_capacity,
        report.outcomes.len() - failed,
        failed
    );
    if failed > 0 {
        eprintln!("pj2k: {failed} of {} job(s) failed:", report.outcomes.len());
        for o in report.outcomes.iter().filter(|o| o.result.is_err()) {
            if let Err(e) = &o.result {
                eprintln!("  {}: {e}", o.input.display());
            }
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_decode(opts: &Opts) -> ExitCode {
    let [input, output] = opts.rest[..] else {
        return fail("decode needs <input.pj2k> <output.pnm>");
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    let mut dec = Decoder::default();
    if let Some(l) = opts.value("--layers") {
        match l.parse() {
            Ok(v) => dec.max_layers = Some(v),
            Err(_) => return fail(&format!("bad --layers {l:?}")),
        }
    }
    dec.parallel = match parallel_mode(opts) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (img, report) = match dec.decode(&bytes) {
        Ok(r) => r,
        Err(e) => return fail(&format!("decode failed: {e}")),
    };
    let mut f = match std::fs::File::create(output) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {output}: {e}")),
    };
    if let Err(e) = pnm::write(&mut f, &img) {
        return fail(&format!("cannot write {output}: {e}"));
    }
    println!(
        "{} -> {}: {}x{}, {} component(s)",
        input,
        output,
        img.width(),
        img.height(),
        img.num_components()
    );
    if opts.has("--stats") {
        print_stats(&report.stages, &report.dwt);
    }
    ExitCode::SUCCESS
}

fn cmd_info(opts: &Opts) -> ExitCode {
    let [input] = opts.rest[..] else {
        return fail("info needs <input.pj2k>");
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    match describe(&bytes) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("cannot parse {input}: {e}")),
    }
}

/// Render the main-header parameters of a codestream, as the decoder
/// parses and checks them.
fn describe(bytes: &[u8]) -> Result<String, CodecError> {
    use std::fmt::Write;
    let hdr = read_header(bytes)?;
    let mut out = String::new();
    let _ = writeln!(out, "pj2k codestream, {} bytes", bytes.len());
    let _ = writeln!(
        out,
        "  image:      {}x{}, {} component(s), {}-bit{}",
        hdr.width,
        hdr.height,
        hdr.ncomp,
        hdr.bit_depth,
        if hdr.signed { " signed" } else { "" }
    );
    let _ = writeln!(
        out,
        "  tiles:      {}",
        match hdr.tiles {
            None => "none (single tile)".to_string(),
            Some((tw, th)) => format!("{tw}x{th}"),
        }
    );
    let _ = writeln!(
        out,
        "  wavelet:    {} ({} levels)",
        match hdr.wavelet {
            Wavelet::Reversible53 => "reversible 5/3",
            Wavelet::Irreversible97 => "irreversible 9/7",
        },
        hdr.levels
    );
    let (cbw, cbh) = hdr.code_block;
    let _ = writeln!(out, "  code-block: {cbw}x{cbh}");
    let _ = writeln!(out, "  layers:     {}", hdr.n_layers);
    let _ = writeln!(out, "  base step:  {}", hdr.base_step);
    let style = if hdr.tier1.bypass {
        "bypass"
    } else {
        "default"
    };
    let _ = writeln!(out, "  tier-1:     {style}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn config(args: &[&str]) -> Result<EncoderConfig, String> {
        encoder_config(&parse_opts(&strings(args), ENCODE_OPTS)?)
    }

    #[test]
    fn unknown_options_are_rejected() {
        let parse = |args: &[&str]| parse_opts(&strings(args), ENCODE_OPTS).map(|_| ());
        // A typo must not silently write a lossy stream.
        assert_eq!(
            parse(&["in.pgm", "out.pj2k", "--losless"]),
            Err("unknown option \"--losless\"".to_string())
        );
        // The removed `--filter` must not turn its value into an input
        // (which would switch the CLI into batch mode).
        assert_eq!(
            parse(&["in.pgm", "out.pj2k", "--filter", "strip"]),
            Err("unknown option \"--filter\"".to_string())
        );
        // The deleted Tier-1 coding styles are unknown options too.
        for gone in ["--causal", "--reset"] {
            assert_eq!(
                parse(&["in.pgm", "out.pj2k", gone]),
                Err(format!("unknown option {gone:?}"))
            );
        }
        // Options belong to their subcommand.
        assert!(parse_opts(&strings(&["a", "b", "--bpp", "1"]), DECODE_OPTS).is_err());
        assert!(parse_opts(&strings(&["a", "--stats"]), &[]).is_err());
        assert_eq!(
            parse(&["in.pgm", "out.pj2k", "--bpp"]),
            Err("option \"--bpp\" needs a value".to_string())
        );
    }

    #[test]
    fn every_documented_option_parses() {
        // The usage text at the top of this file and the option tables
        // name the same options.
        let mut documented: Vec<&str> = include_str!("pj2k.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_lowercase() || c == '-')))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut listed: Vec<&str> = ENCODE_OPTS.iter().chain(DECODE_OPTS).map(|o| o.0).collect();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(documented, listed);
        // And every encode option is accepted, with a valid value.
        let cfg = config(&[
            "in.pgm",
            "out.pj2k",
            "--bpp",
            "0.5,1",
            "--levels",
            "3",
            "--block",
            "32x32",
            "--tiles",
            "64",
            "--threads",
            "2",
            "--jobs",
            "2",
            "--bypass",
            "--roi",
            "0,0,8,8",
            "--stats",
        ])
        .unwrap();
        assert_eq!(cfg.rate, RateControl::TargetBpp(vec![0.5, 1.0]));
        assert_eq!(
            (cfg.levels, cfg.code_block, cfg.tiles),
            (3, (32, 32), Some((64, 64)))
        );
        assert!(cfg.tier1.bypass);
        assert!(cfg.roi.is_some());
        let lossless = config(&["in.pgm", "out.pj2k", "--lossless"]).unwrap();
        assert_eq!(lossless.rate, RateControl::Lossless);
        let dec = strings(&[
            "in.pj2k",
            "out.pgm",
            "--layers",
            "1",
            "--threads",
            "2",
            "--stats",
        ]);
        let opts = parse_opts(&dec, DECODE_OPTS).unwrap();
        assert_eq!(opts.rest, ["in.pj2k", "out.pgm"]);
        assert_eq!(
            (opts.value("--layers"), opts.has("--stats")),
            (Some("1"), true)
        );
    }

    #[test]
    fn tiles_accepts_a_side_or_a_pair() {
        assert_eq!(config(&[]).unwrap().tiles, None);
        assert_eq!(config(&["--tiles", "512"]).unwrap().tiles, Some((512, 512)));
        assert_eq!(
            config(&["--tiles", "512x256"]).unwrap().tiles,
            Some((512, 256))
        );
        for bad in ["", "x", "512x", "x256", "12x34x56", "wide"] {
            let err = config(&["--tiles", bad]).unwrap_err();
            assert!(err.starts_with("bad --tiles"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn info_reads_the_decoders_header_parse() {
        let img = pj2k_testkit::synth::natural_gray(40, 24, 3);
        let cfg = EncoderConfig {
            levels: 2,
            ..EncoderConfig::default()
        };
        let mut bytes = Encoder::new(cfg).unwrap().encode(&img).0;
        let text = describe(&bytes).unwrap();
        for line in [
            "image:      40x24, 1 component(s), 8-bit",
            "tiles:      none (single tile)",
            "wavelet:    irreversible 9/7 (2 levels)",
            "code-block: 64x64",
            "layers:     1",
            "tier-1:     default",
        ] {
            assert!(text.contains(line), "{line:?} missing from\n{text}");
        }
        // SOC, SIZ with its length and 19-byte payload (25 bytes), COD and
        // its length (4) and the 8 COD bytes before the style byte. Flag
        // byte 1 (ISO 15444-1's stripe-causal style, which this codec
        // does not implement) fails `info` with the error `decode` gives.
        const COD_STYLE_AT: usize = 37;
        assert_eq!(bytes[COD_STYLE_AT], 0);
        bytes[COD_STYLE_AT] = 1;
        let err = describe(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)), "{err:?}");
        assert_eq!(Some(err), Decoder::default().decode(&bytes).err());
    }

    #[test]
    fn block_still_needs_a_pair() {
        assert_eq!(config(&["--block", "32x16"]).unwrap().code_block, (32, 16));
        for bad in ["32", "32x", "axb"] {
            assert!(config(&["--block", bad]).is_err(), "{bad:?}");
        }
    }
}
