//! `xtask ci` — the one-command verification gate.
//!
//! Runs, in order: `cargo fmt --check`, `cargo clippy -D warnings` twice —
//! over the whole workspace, then over the product build alone — the audit
//! (in-process, every check; the full inventory goes to
//! `target/audit_report.txt`), the size check and `cargo test`. The workspace clippy run
//! unifies `pj2k-bench`'s `oracle` features into every crate, so it never
//! sees the build users get; the product run lints the codec and CLI
//! crates' libraries and binaries without them, catching oracle-only code
//! that leaks into, or goes dead in, the default build. The size step
//! recomputes the product line count in process and fails when the
//! committed `BENCH_code.json` differs (see [`crate::size`]). The cargo
//! steps run `--offline --locked`: the workspace has no external
//! dependency, so needing the network or a different lock file is itself a
//! failure. All steps run even if an earlier one fails, so a
//! single invocation reports every problem; the exit status is non-zero if
//! any step failed.

use std::path::Path;
use std::process::Command;

/// Options for [`run`], parsed from `xtask ci` flags.
#[derive(Debug, Default)]
pub struct CiOptions {
    /// Skip `cargo fmt --check` (e.g. when rustfmt is unavailable).
    pub skip_fmt: bool,
    /// Skip `cargo clippy` (e.g. when clippy is unavailable).
    pub skip_clippy: bool,
    /// Skip `cargo test` (lint-only gate).
    pub skip_tests: bool,
}

struct StepResult {
    name: &'static str,
    outcome: Outcome,
}

#[derive(PartialEq)]
enum Outcome {
    Pass,
    Fail,
    Skipped,
}

/// Run the gate rooted at `root`. Returns the process exit code.
pub fn run(root: &Path, opts: &CiOptions) -> i32 {
    let fmt = step_cmd(
        "fmt",
        opts.skip_fmt,
        Command::new("cargo")
            .args(["fmt", "--all", "--check"])
            .current_dir(root),
    );
    let clippy = step_cmd(
        "clippy",
        opts.skip_clippy,
        Command::new("cargo")
            .args("clippy --offline --locked --workspace --all-targets -- -D warnings".split(' '))
            .current_dir(root),
    );
    let clippy_product = step_cmd(
        "clippy (product build)",
        opts.skip_clippy,
        Command::new("cargo")
            .args(
                "clippy --offline --locked -p pj2k-ebcot -p pj2k-core -p pj2k-serve --lib --bins -- -D warnings"
                    .split(' '),
            )
            .current_dir(root),
    );
    let audit = step_audit(root);
    let size = step_size(root);
    let test = step_cmd(
        "test",
        opts.skip_tests,
        Command::new("cargo")
            .args(["test", "--offline", "--locked", "--workspace", "-q"])
            .current_dir(root),
    );
    let results = [fmt, clippy, clippy_product, audit, size, test];

    println!("\n== ci summary ==");
    let mut failed = false;
    for r in &results {
        let mark = match r.outcome {
            Outcome::Pass => "ok  ",
            Outcome::Fail => "FAIL",
            Outcome::Skipped => "skip",
        };
        println!("  [{mark}] {}", r.name);
        failed |= r.outcome == Outcome::Fail;
    }
    i32::from(failed)
}

fn step_cmd(name: &'static str, skip: bool, cmd: &mut Command) -> StepResult {
    if skip {
        return StepResult {
            name,
            outcome: Outcome::Skipped,
        };
    }
    println!("== ci: {name} ==");
    let outcome = match cmd.status() {
        Ok(status) if status.success() => Outcome::Pass,
        Ok(status) => {
            eprintln!("ci: {name} exited with {status}");
            Outcome::Fail
        }
        Err(err) => {
            eprintln!("ci: failed to launch {name}: {err}");
            Outcome::Fail
        }
    };
    StepResult { name, outcome }
}

fn step_audit(root: &Path) -> StepResult {
    println!("== ci: audit ==");
    let report = root.join("target").join("audit_report.txt");
    let written = std::fs::create_dir_all(root.join("target"));
    let ok = written.is_ok() && crate::run_audit(root, true, Some(&report)) == 0;
    StepResult {
        name: "audit",
        outcome: if ok { Outcome::Pass } else { Outcome::Fail },
    }
}

fn step_size(root: &Path) -> StepResult {
    println!("== ci: size ==");
    let outcome = match crate::size::check(root) {
        Ok(()) => Outcome::Pass,
        Err(msg) => {
            eprintln!("ci: size: {msg}");
            Outcome::Fail
        }
    };
    StepResult {
        name: "size",
        outcome,
    }
}
