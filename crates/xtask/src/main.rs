//! Workspace automation for pj2k.
//!
//! * `cargo run -p xtask -- lint` — project-specific concurrency/safety
//!   lint over every crate (see [`lint`] for the rules), the std-only
//!   dependency gate (see [`std_only`]), plus a full `unsafe` inventory
//!   report. Exits non-zero on any violation.
//! * `cargo run -p xtask -- audit-panics` — static panic-path audit of the
//!   decoder-reachable scope (see [`audit`]): every panic site must carry
//!   an `// AUDIT:` justification. Exits non-zero on any unaudited site.
//! * `cargo run -p xtask -- audit-unsafe` — static concurrency-contract
//!   audit (see [`unsafe_audit`]): Send/Sync impls need SAFETY contracts,
//!   raw parallel writes must route through `DisjointClaim` or carry an
//!   `// AUDIT(alias):` justification, and `SendPtr` stays inside its
//!   allowlisted modules. Exits non-zero on any uncovered site.
//! * `cargo run -p xtask -- audit-hotpath` — static hot-path discipline
//!   audit (see [`hotpath`]): builds an approximate call graph from the
//!   roots declared in `hotpaths.toml` and requires every allocation,
//!   lock, I/O, or panic site in the transitive closure to carry an
//!   `// AUDIT(hot):` justification. Exits non-zero on any uncovered site.
//! * `cargo run -p xtask -- ci` — the full verification gate: fmt check,
//!   clippy `-D warnings`, the custom lint, all three audits, and the
//!   test suite.
//! * `cargo run -p xtask -- bench-smoke` — run every benchmark harness in
//!   smoke mode and re-validate the JSON it emits (see [`bench`]).
//!
//! The binary is intentionally dependency-free so it builds anywhere the
//! Rust toolchain exists, including offline CI runners.

mod audit;
mod bench;
mod ci;
mod hotpath;
mod lint;
mod scan;
mod std_only;
mod unsafe_audit;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let quiet = args.iter().any(|a| a == "--quiet");
            run_lint(&root, quiet)
        }
        Some("audit-panics") => {
            let quiet = args.iter().any(|a| a == "--quiet");
            run_audit(&root, quiet)
        }
        Some("audit-unsafe") => {
            let quiet = args.iter().any(|a| a == "--quiet");
            run_unsafe_audit(&root, quiet)
        }
        Some("audit-hotpath") => {
            let quiet = args.iter().any(|a| a == "--quiet");
            let report_path = args
                .iter()
                .position(|a| a == "--report")
                .and_then(|i| args.get(i + 1))
                .map(PathBuf::from);
            run_hotpath_audit(&root, quiet, report_path.as_deref())
        }
        Some("ci") => {
            let opts = ci::CiOptions {
                skip_fmt: args.iter().any(|a| a == "--skip-fmt"),
                skip_clippy: args.iter().any(|a| a == "--skip-clippy"),
                skip_tests: args.iter().any(|a| a == "--skip-tests"),
            };
            ExitCode::from(ci::run(&root, &opts) as u8)
        }
        Some("bench-smoke") => ExitCode::from(bench::run(&root) as u8),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn run_lint(root: &Path, quiet: bool) -> ExitCode {
    match lint::lint_workspace(root) {
        Ok(report) => {
            if !quiet {
                print!("{}", report.render_inventory());
            } else {
                println!(
                    "unsafe inventory: {} sites across {} files",
                    report.unsafe_sites.len(),
                    report.files_scanned
                );
            }
            if report.violations.is_empty() {
                println!("lint: clean ({} files scanned)", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("lint: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("lint: io error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_audit(root: &Path, quiet: bool) -> ExitCode {
    match audit::audit_workspace(root) {
        Ok(report) => {
            if !quiet {
                print!("{}", report.render());
            } else {
                println!(
                    "panic-site inventory: {} sites across {} files",
                    report.sites.len(),
                    report.files_scanned
                );
            }
            if report.violations.is_empty() {
                println!(
                    "audit-panics: clean ({} files scanned)",
                    report.files_scanned
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-panics: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("audit-panics: io error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_unsafe_audit(root: &Path, quiet: bool) -> ExitCode {
    match unsafe_audit::audit_unsafe_workspace(root) {
        Ok(report) => {
            if !quiet {
                print!("{}", report.render());
            } else {
                println!(
                    "concurrency-contract inventory: {} sites across {} files",
                    report.sites.len(),
                    report.files_scanned
                );
            }
            if report.violations.is_empty() {
                println!(
                    "audit-unsafe: clean ({} files scanned)",
                    report.files_scanned
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-unsafe: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("audit-unsafe: io error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_hotpath_audit(root: &Path, quiet: bool, report_path: Option<&Path>) -> ExitCode {
    match hotpath::audit_hotpath_workspace(root) {
        Ok(report) => {
            let rendered = report.render();
            if !quiet {
                print!("{rendered}");
            } else {
                println!(
                    "hot-path inventory: {} sites across {} hot fns",
                    report.sites.len(),
                    report.closure.len()
                );
            }
            if let Some(path) = report_path {
                if let Err(err) = std::fs::write(path, &rendered) {
                    eprintln!("audit-hotpath: cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("audit-hotpath: report written to {}", path.display());
            }
            if report.violations.is_empty() {
                println!(
                    "audit-hotpath: clean ({} hot fns from {} roots)",
                    report.closure.len(),
                    report.roots.len()
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("audit-hotpath: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("audit-hotpath: io error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Locate the workspace root: walk up from the current directory to the
/// first directory containing a `crates/` subdirectory and a `Cargo.toml`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn print_help() {
    println!(
        "xtask — pj2k workspace automation\n\
         \n\
         USAGE:\n\
         \tcargo run -p xtask -- <command> [flags]\n\
         \n\
         COMMANDS:\n\
         \tlint\trun the project lint rules + unsafe inventory\n\
         \t\t--quiet\tsummarize the inventory instead of listing sites\n\
         \taudit-panics\tstatic panic-path audit of the decode pipeline\n\
         \t\t--quiet\tsummarize the inventory instead of listing sites\n\
         \taudit-unsafe\tconcurrency-contract audit (Send/Sync, SendPtr, claims)\n\
         \t\t--quiet\tsummarize the inventory instead of listing sites\n\
         \taudit-hotpath\thot-path discipline audit (hotpaths.toml call-graph closure)\n\
         \t\t--quiet\tsummarize the inventory instead of listing sites\n\
         \t\t--report <path>\talso write the inventory report to a file\n\
         \tci\tfmt-check + clippy -D warnings + lint + audits + tests\n\
         \t\t--skip-fmt | --skip-clippy | --skip-tests\n\
         \tbench-smoke\trun every bench harness in smoke mode, validate JSON\n\
         \thelp\tthis message\n\
         \n\
         LINT RULES (suppress with `// lint:allow(<rule>) -- <reason>`):\n\
         \tunsafe_needs_safety\tunsafe code must carry a SAFETY justification\n\
         \thot_path_panic\tno unwrap/expect/panic! in mq, ebcot, dwt, tier2\n\
         \traw_thread_spawn\tno raw thread creation outside parutil\n\
         \tstd_only\tno dependency from outside the repository (Cargo.lock, manifests)"
    );
}
