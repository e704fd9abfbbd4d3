//! Drives the production `pj2k` CLI on one workload: writes the inputs,
//! runs encode/decode invocations one child at a time (a closed loop with
//! one client), and checks every output.

use crate::child::{self, ChildStats};
use crate::gen::{self, Raster, SplitMix64};
use crate::pnm;
use crate::workload::Workload;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Thread count of an invocation: `--threads 1` or `--threads par`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    P1,
    Par,
}

impl Side {
    fn tag(self) -> &'static str {
        match self {
            Side::P1 => "p1",
            Side::Par => "par",
        }
    }
}

/// One CLI invocation, for failure accounting: which operation, on which
/// side, for which item (always 0 for a batch encode, which is one
/// invocation for all items).
type Invocation = (&'static str, Side, usize);

/// Cost of one operation (one invocation, or one per item).
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Summed over the operation's invocations.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Largest peak RSS among the invocations.
    pub max_rss_kb: i64,
    /// Wall seconds of each invocation.
    pub each_wall_s: Vec<f64>,
}

impl OpStats {
    fn add(&mut self, c: &ChildStats) {
        self.wall_s += c.wall_s;
        self.cpu_s += c.cpu_s;
        self.max_rss_kb = self.max_rss_kb.max(c.max_rss_kb);
        self.each_wall_s.push(c.wall_s);
    }
}

/// Decode passes per repetition. A decode is the shortest operation and
/// the parallel one the noisiest on a shared host, so it is sampled twice
/// as often as an encode.
pub const DECODE_PASSES: usize = 2;

/// One repetition: encode p1, encode par, then [`DECODE_PASSES`] times
/// decode p1, decode par; every output checked.
#[derive(Debug, Clone)]
pub struct Rep {
    /// `[p1, par]`.
    pub encode: [OpStats; 2],
    /// `[p1, par]` of each decode pass.
    pub decode: Vec<[OpStats; 2]>,
    pub compressed_bpp: f64,
    pub psnr_db: f64,
}

pub struct Rig {
    pub workload: Workload,
    pub par: usize,
    pj2k: PathBuf,
    dir: PathBuf,
    /// CLI invocations so far, and how many of them failed (non-zero
    /// exit, timeout, or an output that failed a check).
    pub attempted: u64,
    pub failed: u64,
}

impl Rig {
    /// `dir` is this workload's scratch directory; the `pj2k` binary is
    /// expected next to the running executable (same cargo target dir).
    pub fn new(workload: Workload, par: usize, dir: &Path) -> io::Result<Rig> {
        let exe = std::env::current_exe()?;
        let pj2k = exe.with_file_name("pj2k");
        if !pj2k.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found; build with benchmark/run.sh", pj2k.display()),
            ));
        }
        Ok(Rig {
            workload,
            par,
            pj2k,
            dir: dir.to_path_buf(),
            attempted: 0,
            failed: 0,
        })
    }

    pub fn input_dir(&self) -> PathBuf {
        self.dir.join("in")
    }

    fn out_dir(&self, kind: &str, side: Side) -> PathBuf {
        self.dir.join(format!("{kind}_{}", side.tag()))
    }

    /// Generate the workload's inputs from `seed` and write them,
    /// replacing the scratch directory. Returns the rasters (kept for the
    /// output checks) in item order.
    pub fn write_inputs(&self, seed: u64) -> io::Result<Vec<Raster>> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)?;
        }
        std::fs::create_dir_all(self.input_dir())?;
        // One stream of per-file seeds per (workload, seed), so workloads
        // never share an image.
        let mut seeds = SplitMix64::new(seed ^ pnm::fnv64(self.workload.name.as_bytes()));
        let mut rasters = Vec::with_capacity(self.workload.items.len());
        for item in &self.workload.items {
            let raster = gen::generate(
                item.width,
                item.height,
                item.channels,
                self.workload.preset,
                seeds.next_u64(),
            );
            pnm::write(&self.input_dir().join(item.pnm_name()), &raster)?;
            rasters.push(raster);
        }
        Ok(rasters)
    }

    fn fresh_dir(dir: &Path) {
        // Best effort: a directory that cannot be recreated makes the
        // invocation that writes into it fail, which is counted.
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::create_dir_all(dir);
    }

    fn command(&self, subcommand: &str, threads: usize) -> Command {
        let mut cmd = Command::new(&self.pj2k);
        // The CLI's own defaults, not the caller's environment.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PJ2K_") {
                cmd.env_remove(key);
            }
        }
        cmd.arg(subcommand)
            .arg("--threads")
            .arg(threads.to_string());
        cmd
    }

    fn threads(&self, side: Side) -> usize {
        match side {
            Side::P1 => 1,
            Side::Par => self.par,
        }
    }

    fn run(
        &mut self,
        cmd: &mut Command,
        id: Invocation,
        stats: &mut OpStats,
        failures: &mut BTreeSet<Invocation>,
    ) {
        let c = child::run(cmd);
        self.attempted += 1;
        if !c.ok {
            let why = if c.timed_out {
                "timed out"
            } else {
                "exited non-zero"
            };
            eprintln!(
                "benchmark: {}: {} {:?} item {} {why}",
                self.workload.name, id.0, id.1, id.2
            );
            failures.insert(id);
        }
        stats.add(&c);
    }

    /// Encode every item into `out`: one directory-mode invocation for a
    /// batch workload, else one invocation per item.
    fn encode_into(
        &mut self,
        out: &Path,
        threads: usize,
        batch: bool,
        id: (&'static str, Side),
        failures: &mut BTreeSet<Invocation>,
    ) -> OpStats {
        Self::fresh_dir(out);
        let mut stats = OpStats::default();
        if batch {
            let mut cmd = self.command("encode", threads);
            cmd.arg(self.input_dir()).arg(out);
            cmd.args(self.workload.rate_args());
            self.run(&mut cmd, (id.0, id.1, 0), &mut stats, failures);
        } else {
            for (i, item) in self.workload.items.clone().iter().enumerate() {
                let mut cmd = self.command("encode", threads);
                cmd.arg(self.input_dir().join(item.pnm_name()))
                    .arg(out.join(format!("{}.pj2k", item.stem)));
                cmd.args(self.workload.rate_args());
                self.run(&mut cmd, (id.0, id.1, i), &mut stats, failures);
            }
        }
        stats
    }

    fn encode(&mut self, side: Side, failures: &mut BTreeSet<Invocation>) -> OpStats {
        let out = self.out_dir("enc", side);
        let batch = self.workload.batch;
        self.encode_into(&out, self.threads(side), batch, ("encode", side), failures)
    }

    /// Decode every item of the same side's encode output, one invocation
    /// per item.
    fn decode(&mut self, side: Side, failures: &mut BTreeSet<Invocation>) -> OpStats {
        let out = self.out_dir("dec", side);
        Self::fresh_dir(&out);
        let mut stats = OpStats::default();
        for (i, item) in self.workload.items.clone().iter().enumerate() {
            let mut cmd = self.command("decode", self.threads(side));
            cmd.arg(
                self.out_dir("enc", side)
                    .join(format!("{}.pj2k", item.stem)),
            )
            .arg(out.join(item.pnm_name()));
            self.run(&mut cmd, ("decode", side, i), &mut stats, failures);
        }
        stats
    }

    fn settle(&mut self, failures: BTreeSet<Invocation>) {
        self.failed += failures.len() as u64;
    }

    /// The untimed pass that ends a set-up: one parallel encode and
    /// decode, so the binary and the inputs are in the page cache and
    /// whatever the program prepares on first use is prepared.
    pub fn warm_up(&mut self) {
        let mut failures = BTreeSet::new();
        self.encode(Side::Par, &mut failures);
        self.decode(Side::Par, &mut failures);
        self.settle(failures);
    }

    /// For a batch workload, encode each file on its own, single-threaded:
    /// the reference every batch output must equal. Part of the checks,
    /// not of set-up.
    pub fn encode_references(&mut self) {
        if self.workload.batch {
            let mut failures = BTreeSet::new();
            let reference = self.dir.join("ref");
            self.encode_into(
                &reference,
                1,
                false,
                ("reference encode", Side::P1),
                &mut failures,
            );
            self.settle(failures);
        }
    }

    /// One repetition: the timed invocations, each operation's outputs
    /// checked (untimed) before the next operation runs.
    pub fn rep(&mut self, inputs: &[Raster]) -> Rep {
        let mut failures = BTreeSet::new();
        let encode = [Side::P1, Side::Par].map(|s| self.encode(s, &mut failures));
        let compressed_bpp = self.check_encode(&mut failures);
        self.settle(failures);
        let mut psnr_db = 0.0;
        let decode = (0..DECODE_PASSES)
            .map(|_| {
                let mut failures = BTreeSet::new();
                let pass = [Side::P1, Side::Par].map(|s| self.decode(s, &mut failures));
                psnr_db = self.check_decode(inputs, &mut failures);
                self.settle(failures);
                pass
            })
            .collect();
        Rep {
            encode,
            decode,
            compressed_bpp,
            psnr_db,
        }
    }

    /// Print a failed check and mark the invocation that wrote the bad
    /// output as failed.
    fn fail(&self, failures: &mut BTreeSet<Invocation>, id: Invocation, what: &str) {
        // An invocation that already failed explains its bad output.
        if failures.insert(id) {
            let name = self.workload.name;
            eprintln!(
                "benchmark: {name}: check failed: {what} ({} {:?} item {})",
                id.0, id.1, id.2
            );
        }
    }

    /// Check the codestreams of one repetition's encodes. Returns the p1
    /// codestream bits per pixel.
    fn check_encode(&self, failures: &mut BTreeSet<Invocation>) -> f64 {
        let read = |path: PathBuf| std::fs::read(path).ok();
        let encode_item = |i: usize| if self.workload.batch { 0 } else { i };
        let mut coded_bytes = 0u64;
        for (i, item) in self.workload.items.iter().enumerate() {
            let stream = format!("{}.pj2k", item.stem);
            let p1 = read(self.out_dir("enc", Side::P1).join(&stream));
            match &p1 {
                None => self.fail(
                    failures,
                    ("encode", Side::P1, encode_item(i)),
                    "codestream missing",
                ),
                Some(bytes) => coded_bytes += bytes.len() as u64,
            }
            if p1.is_none() || read(self.out_dir("enc", Side::Par).join(&stream)) != p1 {
                self.fail(
                    failures,
                    ("encode", Side::Par, encode_item(i)),
                    "par codestream differs from p1",
                );
            }
            if self.workload.batch
                && (p1.is_none() || read(self.dir.join("ref").join(&stream)) != p1)
            {
                let what = "batch codestream differs from the single-image encode";
                self.fail(failures, ("encode", Side::P1, 0), what);
            }
        }
        coded_bytes as f64 * 8.0 / self.workload.pixels() as f64
    }

    /// Check the images of one decode pass. Returns the PSNR of the p1
    /// decode against the inputs (error pooled over the items).
    fn check_decode(&self, inputs: &[Raster], failures: &mut BTreeSet<Invocation>) -> f64 {
        let read = |path: PathBuf| std::fs::read(path).ok();
        let mut fail = |id: Invocation, what: &str| self.fail(failures, id, what);
        let (mut squared_error, mut samples) = (0u64, 0usize);
        for (i, (item, input)) in self.workload.items.iter().zip(inputs).enumerate() {
            let decoded = read(self.out_dir("dec", Side::P1).join(item.pnm_name()));
            let error = decoded
                .as_deref()
                .and_then(|bytes| pnm::parse(bytes).ok())
                .and_then(|raster| pnm::squared_error(input, &raster));
            match error {
                None => fail(
                    ("decode", Side::P1, i),
                    "decoded image missing or of the wrong shape",
                ),
                Some(e) if e > 0 && self.workload.lossless() => fail(
                    ("decode", Side::P1, i),
                    "lossless decode differs from the input",
                ),
                Some(e) => squared_error += e,
            }
            samples += input.data.len();
            if decoded.is_none()
                || read(self.out_dir("dec", Side::Par).join(item.pnm_name())) != decoded
            {
                fail(("decode", Side::Par, i), "par decode differs from p1");
            }
        }
        let psnr_db = pnm::psnr_db(squared_error, samples);
        if psnr_db < self.workload.psnr_floor_db {
            fail(
                ("decode", Side::P1, 0),
                &format!("PSNR {psnr_db:.2} dB below the floor"),
            );
        }
        psnr_db
    }
}
