//! Workspace automation for pj2k.
//!
//! * `cargo xtask audit [--quiet] [--report PATH]` — every static check,
//!   as queries over one scan of the workspace sources (see [`scan`]):
//!   `safety` and `thread` ([`lint`]), `panic` ([`audit`]), `alias`
//!   ([`unsafe_audit`]), `hot` ([`hotpath`]) and `std_only`
//!   ([`std_only`]), plus `annotation` for malformed `AUDIT(..)`
//!   comments. Prints the inventory (only the summary and the violations
//!   with `--quiet`), writes the full inventory to `PATH` with
//!   `--report`, and exits non-zero on any violation.
//! * `cargo xtask ci` — the full verification gate: fmt check, clippy
//!   `-D warnings`, the audit, and the test suite (see [`ci`]).
//! * `cargo xtask bench-smoke` — run every benchmark harness in smoke mode
//!   and re-validate the JSON it emits (see [`bench`]).
//!
//! The binary is intentionally dependency-free so it builds anywhere the
//! Rust toolchain exists, including offline CI runners.

#![forbid(unsafe_code)]

mod audit;
mod bench;
mod ci;
mod hotpath;
mod lint;
mod scan;
mod std_only;
mod unsafe_audit;

use scan::{Finding, Source};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let code = match args.first().map(String::as_str) {
        Some("audit") => {
            let report = args.iter().position(|a| a == "--report");
            let report = report.and_then(|i| args.get(i + 1)).map(PathBuf::from);
            let quiet = args.iter().any(|a| a == "--quiet");
            run_audit(&root, quiet, report.as_deref())
        }
        Some("ci") => {
            let opts = ci::CiOptions {
                skip_fmt: args.iter().any(|a| a == "--skip-fmt"),
                skip_clippy: args.iter().any(|a| a == "--skip-clippy"),
                skip_tests: args.iter().any(|a| a == "--skip-tests"),
            };
            ci::run(&root, &opts)
        }
        Some("bench-smoke") => bench::run(&root),
        Some("help") | None => {
            print_help();
            0
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_help();
            1
        }
    };
    ExitCode::from(code as u8)
}

/// Run every query over the workspace at `root`: print the inventory, write
/// it to `report` if given, print the violations. Returns the exit code.
fn run_audit(root: &Path, quiet: bool, report: Option<&Path>) -> i32 {
    let (findings, notes) = match audit_workspace(root) {
        Ok(found) => found,
        Err(err) => {
            eprintln!("audit: io error: {err}");
            return 1;
        }
    };
    print!("{}", scan::render(&findings, &notes, quiet));
    if let Some(path) = report {
        if let Err(err) = std::fs::write(path, scan::render(&findings, &notes, false)) {
            eprintln!("audit: cannot write {}: {err}", path.display());
            return 1;
        }
        println!("audit: inventory written to {}", path.display());
    }
    let violations: Vec<&Finding> = findings.iter().filter(|f| f.is_violation()).collect();
    if violations.is_empty() {
        println!("audit: clean ({} sites)", findings.len());
        return 0;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!(
        "audit: {} violation(s). A site is justified by `// SAFETY: ..` (safety) or \
         `// AUDIT(<check>): <reason>` (panic, hot, alias, thread) on its line, in the \
         comment/attribute block directly above it, or above the signature of an item \
         around it (not for safety, nor for a libm site).",
        violations.len()
    );
    1
}

/// Every finding of every query over the workspace at `root`, and the hot
/// query's notes.
fn audit_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, Vec<String>)> {
    audit_sources(root, &scan::load(root)?)
}

/// [`audit_workspace`] over already classified `sources`.
fn audit_sources(root: &Path, sources: &[Source]) -> std::io::Result<(Vec<Finding>, Vec<String>)> {
    let mut out = Vec::new();
    for src in sources {
        // The panic lint wall may be declared per file or at the crate root.
        let lib = src.path.with_file_name("lib.rs");
        let root_deny = sources
            .iter()
            .any(|s| s.path == lib && s.path != src.path && audit::declares_deny(s));
        audit_file(src, root_deny, &mut out);
    }
    let manifests = std_only::manifests(root)?;
    let mut notes = vec![format!("{} source files scanned", sources.len())];
    notes.extend(hotpath::hot_workspace(root, sources, &manifests, &mut out));
    std_only::check_workspace(root, &manifests, &mut out);
    sort(&mut out);
    Ok((out, notes))
}

/// The per-file queries over one source.
fn audit_file(src: &Source, crate_root_deny: bool, out: &mut Vec<Finding>) {
    for (idx, line) in src.lines.iter().enumerate() {
        if let Some(Err(what)) = scan::parse_annotation(&line.comment) {
            let what = format!("malformed AUDIT annotation: {what}");
            out.push(Finding::fail(&src.path, idx + 1, "annotation", what));
        }
    }
    lint::safety(src, out);
    lint::thread(src, out);
    audit::panic(src, crate_root_deny, out);
    unsafe_audit::alias(src, out);
}

/// Order findings by check, then by file and line.
fn sort(found: &mut [Finding]) {
    let rank = |c: &str| scan::CHECKS.iter().position(|k| *k == c);
    found.sort_by(|a, b| (rank(a.check), &a.path, a.line).cmp(&(rank(b.check), &b.path, b.line)));
}

/// The per-file findings of `text` at the workspace-relative `path`, with
/// the panic lint wall declared by the crate root.
#[cfg(test)]
fn fixture(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    audit_file(&Source::new(Path::new(path), text), true, &mut out);
    sort(&mut out);
    out
}

/// [`fixture`] over a file of this workspace.
#[cfg(test)]
fn workspace_fixture(rel: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    fixture(
        rel,
        &std::fs::read_to_string(path).expect("workspace file exists"),
    )
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
         \tcargo xtask <command> [flags]\n\
         \n\
         COMMANDS:\n\
         \taudit\tevery static check: safety, thread, panic, alias, hot, std_only\n\
         \t\t--quiet\tprint the summary and the violations, not every site\n\
         \t\t--report <path>\talso write the full inventory to a file\n\
         \tci\tfmt-check + clippy -D warnings + audit + tests\n\
         \t\t--skip-fmt | --skip-clippy | --skip-tests\n\
         \tbench-smoke\trun every bench harness in smoke mode, validate JSON\n\
         \thelp\tthis message\n\
         \n\
         CHECKS (justify a site with `// AUDIT(<check>): <reason>`):\n\
         \tsafety\tunsafe code needs a `// SAFETY:` comment\n\
         \tthread\tno raw thread creation outside parutil's fork\n\
         \tpanic\tno unjustified panic site in the decoder scope or the codec crates\n\
         \talias\traw parallel writes route through DisjointWriter claims\n\
         \thot\tno unjustified alloc/lock/io/libm/panic site under hotpaths.toml roots\n\
         \tstd_only\tno dependency from outside the repository (not justifiable)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replace `from` with `to` on the nearest line at or above the first
    /// line containing `anchor`.
    fn edit(text: &str, anchor: &str, from: &str, to: &str) -> String {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let at = lines
            .iter()
            .position(|l| l.contains(anchor))
            .expect("anchor");
        let i = (0..=at)
            .rev()
            .find(|&i| lines[i].contains(from))
            .expect("target");
        lines[i] = lines[i].replacen(from, to, 1);
        lines.join("\n") + "\n"
    }

    #[test]
    fn seeded_violations_on_the_real_tree_fail_the_audit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (clean, _) = audit_workspace(&root).expect("workspace readable");
        let bad: Vec<_> = clean.iter().filter(|f| f.is_violation()).collect();
        assert!(bad.is_empty(), "the tree must audit clean: {bad:?}");
        type Seed = fn(&str) -> String;
        let cases: [(&str, &str, Seed); 6] = [
            ("crates/parutil/src/disjoint.rs", "safety", |t| {
                edit(t, "unsafe impl<T: Send> Send", "SAFETY", "NOTE")
            }),
            ("crates/core/src/quant.rs", "alias", |t| {
                format!(
                    "{t}fn seeded(p: *mut i32) {{\n    // SAFETY: seeded.\n    \
                         let _ = unsafe {{ std::slice::from_raw_parts_mut(p, 1) }};\n}}\n"
                )
            }),
            ("crates/tier2/src/packet.rs", "panic", |t| {
                edit(t, "AUDIT(panic)", "AUDIT", "NOTE")
            }),
            ("crates/ebcot/src/bitplane.rs", "hot", |t| {
                edit(t, "AUDIT(hot)", "AUDIT", "NOTE")
            }),
            ("crates/core/src/lib.rs", "thread", |t| {
                format!("{t}fn seeded() {{\n    std::thread::spawn(|| ());\n}}\n")
            }),
            ("crates/parutil/src/pool.rs", "thread", |t| {
                let (head, tests) = t.split_at(t.find("#[cfg(").expect("test module"));
                format!("{head}fn seeded() {{\n    std::thread::scope(|_| ());\n}}\n{tests}")
            }),
        ];
        for (rel, check, seed) in cases {
            let mut sources = scan::load(&root).expect("workspace readable");
            let slot = sources.iter_mut().find(|s| s.path == Path::new(rel));
            let slot = slot.expect("seeded file loaded");
            let text = std::fs::read_to_string(root.join(rel)).expect("seeded file readable");
            *slot = Source::new(Path::new(rel), &seed(&text));
            let (found, _) = audit_sources(&root, &sources).expect("workspace readable");
            let caught = found.iter().any(|f| f.check == check && f.is_violation());
            assert!(caught, "seeded `{check}` violation in {rel} went unnoticed");
        }
        let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("lock file exists");
        let lock =
            format!("{lock}source = \"registry+https://github.com/rust-lang/crates.io-index\"\n");
        let mut out = Vec::new();
        std_only::check_lock(Path::new("Cargo.lock"), &lock, &mut out);
        assert!(out
            .iter()
            .any(|f| f.check == "std_only" && f.is_violation()));
    }
}
