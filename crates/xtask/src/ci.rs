//! `xtask ci` — the one-command verification gate.
//!
//! Runs, in order: `cargo fmt --check`, `cargo clippy -D warnings`, the
//! project lint pass including the std-only dependency gate (in-process),
//! the panic-path audit (in-process), the concurrency-contract audit
//! (in-process), the hot-path discipline audit (in-process), and `cargo
//! test`. The cargo steps run `--offline --locked`: the workspace has no
//! external dependency, so needing the network or a different lock file is
//! itself a failure. All steps run even if an earlier one fails, so a
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
            .args([
                "clippy",
                "--offline",
                "--locked",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ])
            .current_dir(root),
    );
    let lint = step_lint(root);
    let audit = step_audit(root);
    let unsafe_audit = step_unsafe_audit(root);
    let hotpath = step_hotpath(root);
    let test = step_cmd(
        "test",
        opts.skip_tests,
        Command::new("cargo")
            .args(["test", "--offline", "--locked", "--workspace", "-q"])
            .current_dir(root),
    );
    let results = [fmt, clippy, lint, audit, unsafe_audit, hotpath, test];

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

fn step_lint(root: &Path) -> StepResult {
    println!("== ci: lint ==");
    let outcome = match crate::lint::lint_workspace(root) {
        Ok(report) => {
            print!("{}", report.render_inventory());
            if report.violations.is_empty() {
                println!("lint: clean ({} files)", report.files_scanned);
                Outcome::Pass
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("lint: {} violation(s)", report.violations.len());
                Outcome::Fail
            }
        }
        Err(err) => {
            eprintln!("lint: io error: {err}");
            Outcome::Fail
        }
    };
    StepResult {
        name: "lint",
        outcome,
    }
}

fn step_audit(root: &Path) -> StepResult {
    println!("== ci: audit-panics ==");
    let outcome = match crate::audit::audit_workspace(root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.violations.is_empty() {
                println!("audit-panics: clean ({} files)", report.files_scanned);
                Outcome::Pass
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-panics: {} violation(s)", report.violations.len());
                Outcome::Fail
            }
        }
        Err(err) => {
            eprintln!("audit-panics: io error: {err}");
            Outcome::Fail
        }
    };
    StepResult {
        name: "audit-panics",
        outcome,
    }
}

fn step_unsafe_audit(root: &Path) -> StepResult {
    println!("== ci: audit-unsafe ==");
    let outcome = match crate::unsafe_audit::audit_unsafe_workspace(root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.violations.is_empty() {
                println!("audit-unsafe: clean ({} files)", report.files_scanned);
                Outcome::Pass
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-unsafe: {} violation(s)", report.violations.len());
                Outcome::Fail
            }
        }
        Err(err) => {
            eprintln!("audit-unsafe: io error: {err}");
            Outcome::Fail
        }
    };
    StepResult {
        name: "audit-unsafe",
        outcome,
    }
}

fn step_hotpath(root: &Path) -> StepResult {
    println!("== ci: audit-hotpath ==");
    let outcome = match crate::hotpath::audit_hotpath_workspace(root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.violations.is_empty() {
                println!(
                    "audit-hotpath: clean ({} hot fns from {} roots)",
                    report.closure.len(),
                    report.roots.len()
                );
                Outcome::Pass
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-hotpath: {} violation(s)", report.violations.len());
                Outcome::Fail
            }
        }
        Err(err) => {
            eprintln!("audit-hotpath: io error: {err}");
            Outcome::Fail
        }
    };
    StepResult {
        name: "audit-hotpath",
        outcome,
    }
}
