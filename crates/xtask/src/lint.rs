//! Project-specific concurrency-correctness lint rules.
//!
//! The rules encode the workspace's safety discipline (see DESIGN.md,
//! "Concurrency safety model"):
//!
//! * [`Rule::UnsafeNeedsSafety`] — every `unsafe` block, `unsafe fn`,
//!   `unsafe impl` or `unsafe trait` outside test code must be justified by
//!   a `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`).
//!   `unsafe fn` and `unsafe impl` declarations need the justification even
//!   *inside* test code: they declare contracts (caller obligations, Send/
//!   Sync invariants) that hold just as hard when a test harness relies on
//!   them, and an undocumented test-only Send impl races for real.
//! * [`Rule::HotPathPanic`] — no `.unwrap()`, `.expect(..)` or `panic!` in
//!   the codec hot-path crates (`mq`, `ebcot`, `dwt`, `tier2`) outside
//!   `#[cfg(test)]`: hot paths must propagate errors, not abort mid-tile.
//! * [`Rule::RawThreadSpawn`] — no raw `thread::spawn` / `thread::scope` /
//!   `thread::Builder` outside `parutil`: all parallelism flows through the
//!   pool/exec API so schedules stay observable and disjointness stays
//!   checkable.
//!
//! * [`Rule::StdOnly`] — the root workspace depends on nothing outside the
//!   repository: `Cargo.lock` has no `source =` line and no workspace
//!   manifest names a non-`path` dependency (see [`crate::std_only`]; not
//!   suppressible).
//!
//! A finding can only be suppressed explicitly, in the reviewed source:
//! `// lint:allow(<rule>) -- <reason>` on the offending line or the line
//! directly above. A suppression without a reason is itself a finding.

use crate::scan::{classify, Line};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test code is a codec hot path.
const HOT_PATH_CRATES: &[&str] = &["mq", "ebcot", "dwt", "tier2"];
/// The only crate allowed to create OS threads.
const THREAD_CRATES: &[&str] = &["parutil"];

/// Identifier of a lint rule, as used in `lint:allow(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without a SAFETY justification.
    UnsafeNeedsSafety,
    /// Panicking call in a codec hot path.
    HotPathPanic,
    /// Raw thread creation outside `parutil`.
    RawThreadSpawn,
    /// Malformed or unknown `lint:allow` annotation.
    BadSuppression,
    /// A dependency from outside the repository (see [`crate::std_only`]).
    StdOnly,
}

impl Rule {
    /// The name accepted inside `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe_needs_safety",
            Rule::HotPathPanic => "hot_path_panic",
            Rule::RawThreadSpawn => "raw_thread_spawn",
            Rule::BadSuppression => "bad_suppression",
            Rule::StdOnly => "std_only",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unsafe_needs_safety" => Some(Rule::UnsafeNeedsSafety),
            "hot_path_panic" => Some(Rule::HotPathPanic),
            "raw_thread_spawn" => Some(Rule::RawThreadSpawn),
            "bad_suppression" => Some(Rule::BadSuppression),
            _ => None,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path of the offending file (workspace-relative when possible).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Kind of `unsafe` site, for the inventory report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe fn` declaration.
    Fn,
    /// `unsafe impl` (usually Send/Sync).
    Impl,
    /// `unsafe trait` declaration.
    Trait,
    /// An `unsafe { .. }` expression block.
    Block,
}

impl fmt::Display for UnsafeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Trait => "unsafe trait",
            UnsafeKind::Block => "unsafe block",
        };
        f.write_str(s)
    }
}

/// One `unsafe` occurrence (test code included), for the inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Path of the file containing the site.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Syntactic kind of the site.
    pub kind: UnsafeKind,
    /// Crate the site belongs to (directory under `crates/`).
    pub krate: String,
    /// Whether the site is in test code (file under `tests/` or a
    /// `#[cfg(test)]` item).
    pub in_test: bool,
    /// Whether a SAFETY justification was found.
    pub justified: bool,
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in file order.
    pub violations: Vec<Violation>,
    /// Full unsafe inventory, in file order.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Render the unsafe inventory grouped by crate.
    pub fn render_inventory(&self) -> String {
        use std::collections::BTreeMap;
        let mut by_crate: BTreeMap<&str, Vec<&UnsafeSite>> = BTreeMap::new();
        for site in &self.unsafe_sites {
            by_crate.entry(&site.krate).or_default().push(site);
        }
        let mut out = String::new();
        out.push_str("== unsafe inventory ==\n");
        for (krate, sites) in &by_crate {
            let tests = sites.iter().filter(|s| s.in_test).count();
            out.push_str(&format!(
                "{krate}: {} sites ({} in tests)\n",
                sites.len(),
                tests
            ));
            for s in sites {
                out.push_str(&format!(
                    "  {}:{} {}{}{}\n",
                    s.path.display(),
                    s.line,
                    s.kind,
                    if s.in_test { " [test]" } else { "" },
                    if s.justified {
                        ""
                    } else {
                        " [no SAFETY comment]"
                    }
                ));
            }
        }
        let unjustified = self
            .unsafe_sites
            .iter()
            .filter(|s| !s.in_test && !s.justified)
            .count();
        out.push_str(&format!(
            "total: {} unsafe sites across {} files scanned ({} non-test sites lack a SAFETY comment)\n",
            self.unsafe_sites.len(),
            self.files_scanned,
            unjustified
        ));
        out
    }
}

/// Lint every `.rs` file under `root/crates`, except generated/target dirs,
/// then the workspace's manifests and lock file (std-only gate).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut report = Report::default();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        lint_source(&rel, &source, &mut report);
    }
    crate::std_only::check_workspace(root, &mut report)?;
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Context derived from a file's path.
struct FileCtx {
    krate: String,
    /// Integration tests, benches and examples are exempt from rules (but
    /// still inventoried).
    is_test_file: bool,
}

fn file_ctx(path: &Path) -> FileCtx {
    let comps: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let krate = comps
        .iter()
        .position(|c| c == "crates")
        .and_then(|i| comps.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "<root>".to_string());
    let is_test_file = comps
        .iter()
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    FileCtx {
        krate,
        is_test_file,
    }
}

/// Lint one file's source text into `report`.
pub fn lint_source(path: &Path, source: &str, report: &mut Report) {
    let ctx = file_ctx(path);
    let lines = classify(source);
    report.files_scanned += 1;

    for (idx, line) in lines.iter().enumerate() {
        let in_test = ctx.is_test_file || line.in_test_item;
        // The linter's own sources discuss the annotation syntax in prose;
        // don't parse those mentions as real suppressions.
        let allows = if ctx.krate == "xtask" {
            Vec::new()
        } else {
            suppressions(&lines, idx, report, path, in_test)
        };

        // --- unsafe inventory + SAFETY rule ------------------------------
        for kind in unsafe_kinds(&line.code) {
            let justified = has_safety_justification(&lines, idx);
            report.unsafe_sites.push(UnsafeSite {
                path: path.to_path_buf(),
                line: line.number,
                kind,
                krate: ctx.krate.clone(),
                in_test,
                justified,
            });
            // Unsafe *blocks* (and trait declarations) in test code are
            // exempt; `unsafe fn` and `unsafe impl` declare contracts that
            // bind even when only tests use them.
            let test_exempt = in_test && matches!(kind, UnsafeKind::Block | UnsafeKind::Trait);
            if !test_exempt && !justified && !allows.contains(&Rule::UnsafeNeedsSafety) {
                report.violations.push(Violation {
                    path: path.to_path_buf(),
                    line: line.number,
                    rule: Rule::UnsafeNeedsSafety,
                    message: format!("{kind} without a `// SAFETY:` justification"),
                });
            }
        }

        // --- hot-path panic rule -----------------------------------------
        if !in_test
            && HOT_PATH_CRATES.contains(&ctx.krate.as_str())
            && !allows.contains(&Rule::HotPathPanic)
        {
            for needle in [".unwrap()", ".expect(", "panic!"] {
                if line.code.contains(needle) {
                    report.violations.push(Violation {
                        path: path.to_path_buf(),
                        line: line.number,
                        rule: Rule::HotPathPanic,
                        message: format!(
                            "`{needle}` in codec hot path crate `{}` — propagate errors instead",
                            ctx.krate
                        ),
                    });
                }
            }
        }

        // --- raw thread creation rule ------------------------------------
        if !in_test
            && !THREAD_CRATES.contains(&ctx.krate.as_str())
            && ctx.krate != "xtask"
            && !allows.contains(&Rule::RawThreadSpawn)
        {
            for needle in ["thread::spawn(", "thread::scope(", "thread::Builder"] {
                if line.code.contains(needle) {
                    report.violations.push(Violation {
                        path: path.to_path_buf(),
                        line: line.number,
                        rule: Rule::RawThreadSpawn,
                        message: format!(
                            "raw `{needle}` outside parutil — use pool_map/pool_run/Exec"
                        ),
                    });
                }
            }
        }
    }
}

/// Tokens that start an unsafe site on this code line. A line like
/// `unsafe fn f()` yields one site; `unsafe { a }; unsafe { b }` yields two.
fn unsafe_kinds(code: &str) -> Vec<UnsafeKind> {
    let mut kinds = Vec::new();
    let mut rest = code;
    while let Some(pos) = find_word(rest, "unsafe") {
        let after = rest[pos + "unsafe".len()..].trim_start();
        let kind = if after.starts_with("fn") {
            UnsafeKind::Fn
        } else if after.starts_with("impl") {
            UnsafeKind::Impl
        } else if after.starts_with("trait") {
            UnsafeKind::Trait
        } else {
            UnsafeKind::Block
        };
        kinds.push(kind);
        rest = &rest[pos + "unsafe".len()..];
    }
    kinds
}

/// Find `word` in `code` at identifier boundaries.
pub(crate) fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(rel) = code[start..].find(word) {
        let pos = start + rel;
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[pos + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + word.len();
    }
    None
}

/// How far above an unsafe site we search for its SAFETY comment.
const SAFETY_LOOKBACK: usize = 24;

/// True when line `idx` (containing an unsafe site) is covered by a SAFETY
/// justification: a `SAFETY:` / `# Safety` comment on the same line, or in
/// the contiguous run of comment/attribute/blank lines directly above.
/// Consecutive `unsafe impl` lines share one justification.
fn has_safety_justification(lines: &[Line], idx: usize) -> bool {
    if is_safety_comment(&lines[idx].comment) {
        return true;
    }
    let mut i = idx;
    let mut looked = 0;
    while i > 0 && looked < SAFETY_LOOKBACK {
        i -= 1;
        looked += 1;
        let l = &lines[i];
        if is_safety_comment(&l.comment) {
            return true;
        }
        let code = l.code.trim();
        let is_pass_through = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            // A grouped `unsafe impl Send/Sync` pair shares the comment
            // above the first impl.
            || (code.contains("unsafe impl") && lines[idx].code.contains("unsafe impl"))
            // A statement head rustfmt wrapped above the unsafe expression
            // (e.g. `let row =` / a call opened with `(` / an argument
            // list) — the comment sits above the whole statement.
            || code.ends_with('=')
            || code.ends_with('(')
            || code.ends_with(',');
        if !is_pass_through {
            return false;
        }
    }
    false
}

fn is_safety_comment(comment: &str) -> bool {
    comment.contains("SAFETY")
        || comment.contains("# Safety")
        || comment.contains("Safety contract")
}

/// How many dedicated comment lines above a statement are searched for a
/// `lint:allow` annotation (the annotation's reason may wrap).
const SUPPRESSION_LOOKBACK: usize = 8;

/// Parse `lint:allow(rule, rule2) -- reason` annotations covering line
/// `idx`: on the line itself, or anywhere in the contiguous block of
/// code-free comment lines directly above it (so a wrapped reason does not
/// push the annotation out of range). Malformed annotations are reported.
fn suppressions(
    lines: &[Line],
    idx: usize,
    report: &mut Report,
    path: &Path,
    in_test: bool,
) -> Vec<Rule> {
    let mut candidates = vec![idx];
    for back in 1..=SUPPRESSION_LOOKBACK {
        let Some(look) = idx.checked_sub(back) else {
            break;
        };
        // Only dedicated comment lines extend the annotation block.
        if !lines[look].code.trim().is_empty() || lines[look].comment.trim().is_empty() {
            break;
        }
        candidates.push(look);
    }
    let mut rules = Vec::new();
    for look in candidates {
        let comment = &lines[look].comment;
        let Some(pos) = comment.find("lint:allow(") else {
            continue;
        };
        // Malformed annotations are reported exactly once: when the scan
        // visits the annotation's own line.
        let report_bad = look == idx && !in_test;
        let rest = &comment[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            if report_bad {
                report
                    .violations
                    .push(bad_suppression(path, lines[idx].number, "missing `)`"));
            }
            continue;
        };
        let names = &rest[..close];
        let after = &rest[close + 1..];
        let reason_ok = after
            .split_once("--")
            .is_some_and(|(_, reason)| !reason.trim().is_empty());
        if !reason_ok {
            if report_bad {
                report.violations.push(bad_suppression(
                    path,
                    lines[look].number,
                    "missing `-- <reason>`",
                ));
            }
            continue;
        }
        for name in names.split(',') {
            match Rule::from_name(name.trim()) {
                Some(rule) => rules.push(rule),
                None => {
                    if report_bad {
                        report.violations.push(bad_suppression(
                            path,
                            lines[look].number,
                            &format!("unknown rule `{}`", name.trim()),
                        ));
                    }
                }
            }
        }
    }
    rules
}

fn bad_suppression(path: &Path, line: usize, what: &str) -> Violation {
    Violation {
        path: path.to_path_buf(),
        line,
        rule: Rule::BadSuppression,
        message: format!("malformed lint:allow annotation: {what}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, src: &str) -> Report {
        let mut report = Report::default();
        lint_source(Path::new(path), src, &mut report);
        report
    }

    fn rules_fired(report: &Report) -> Vec<Rule> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unjustified_unsafe_block_is_flagged() {
        let r = lint_str(
            "crates/dwt/src/x.rs",
            "fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n",
        );
        assert_eq!(rules_fired(&r), vec![Rule::UnsafeNeedsSafety]);
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn safety_comment_above_satisfies_rule() {
        let r = lint_str(
            "crates/dwt/src/x.rs",
            "fn f(p: *mut u8) {\n    // SAFETY: p is valid and exclusive.\n    unsafe { *p = 1 };\n}\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.unsafe_sites.len(), 1);
        assert!(r.unsafe_sites[0].justified);
    }

    #[test]
    fn safety_doc_section_satisfies_unsafe_fn() {
        let r = lint_str(
            "crates/parutil/src/x.rs",
            "/// Does a thing.\n///\n/// # Safety\n/// Caller must own `i`.\n#[inline]\npub unsafe fn poke(i: usize) {}\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn grouped_unsafe_impls_share_justification() {
        let src = "// SAFETY: disjointness is the caller's obligation.\nunsafe impl<T: Send> Send for P<T> {}\nunsafe impl<T: Send> Sync for P<T> {}\n";
        let r = lint_str("crates/parutil/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.unsafe_sites.len(), 2);
    }

    #[test]
    fn safety_comment_does_not_leak_across_code() {
        let src = "// SAFETY: only covers the first block.\nlet a = unsafe { f() };\nlet b = 1;\nlet c = unsafe { g() };\n";
        let r = lint_str("crates/dwt/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec![Rule::UnsafeNeedsSafety]);
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        let r = lint_str("crates/mq/src/x.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_fired(&r), vec![Rule::HotPathPanic]);
    }

    #[test]
    fn expect_and_panic_in_hot_path_are_flagged() {
        let r = lint_str(
            "crates/tier2/src/x.rs",
            "fn f() { x.expect(\"boom\"); panic!(\"no\"); }\n",
        );
        assert_eq!(
            rules_fired(&r),
            vec![Rule::HotPathPanic, Rule::HotPathPanic]
        );
    }

    #[test]
    fn unwrap_outside_hot_path_is_fine() {
        let r = lint_str("crates/image/src/x.rs", "fn f() { x.unwrap(); }\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unwrap_in_test_file_is_fine() {
        let r = lint_str("crates/mq/tests/t.rs", "fn f() { x.unwrap(); }\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unwrap_in_string_is_not_flagged() {
        let r = lint_str(
            "crates/mq/src/x.rs",
            "fn f() { let s = \"call .unwrap() later\"; }\n",
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn expect_named_method_is_not_flagged() {
        let r = lint_str(
            "crates/tier2/src/x.rs",
            "fn f(r: &mut R) -> Result<(), E> { r.expect_marker(SOC)?; Ok(()) }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn thread_spawn_outside_parutil_is_flagged() {
        let r = lint_str(
            "crates/core/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(rules_fired(&r), vec![Rule::RawThreadSpawn]);
    }

    #[test]
    fn thread_scope_and_builder_are_flagged() {
        let r = lint_str(
            "crates/dwt/src/x.rs",
            "fn f() { thread::scope(|s| {}); thread::Builder::new(); }\n",
        );
        assert_eq!(
            rules_fired(&r),
            vec![Rule::RawThreadSpawn, Rule::RawThreadSpawn]
        );
    }

    #[test]
    fn thread_spawn_inside_parutil_is_fine() {
        let r = lint_str(
            "crates/parutil/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn safety_comment_above_wrapped_statement_works() {
        // rustfmt may break `let x = unsafe { ... }` after the `=`; the
        // SAFETY comment above the statement head must still count.
        let src = "// SAFETY: disjoint rows.\nlet row =\n    unsafe { ptr.slice_mut(0, w) };\n";
        let r = lint_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn suppression_with_reason_works() {
        let src = "fn f() { x.unwrap(); // lint:allow(hot_path_panic) -- length checked above\n}\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn suppression_on_line_above_works() {
        let src = "// lint:allow(hot_path_panic) -- table index is clamped to 46\nlet q = TABLE[i].unwrap();\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn suppression_with_wrapped_reason_works() {
        // The reason continues onto a second comment line; the annotation
        // still covers the statement below the block.
        let src = "// lint:allow(hot_path_panic) -- table index is clamped\n// to 46 by the state machine.\nlet q = TABLE[i].unwrap();\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn suppression_does_not_leak_past_code() {
        // An annotation above an *intervening statement* covers only that
        // statement, not later ones.
        let src =
            "// lint:allow(hot_path_panic) -- covered\nlet a = x.unwrap();\nlet b = y.unwrap();\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec![Rule::HotPathPanic]);
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        let src = "fn f() { x.unwrap(); // lint:allow(hot_path_panic)\n}\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(rules_fired(&r).contains(&Rule::BadSuppression));
        // ... and does NOT suppress the original finding.
        assert!(rules_fired(&r).contains(&Rule::HotPathPanic));
    }

    #[test]
    fn suppression_of_unknown_rule_is_flagged() {
        let src = "fn f() { x.unwrap(); // lint:allow(no_such_rule) -- because\n}\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert!(rules_fired(&r).contains(&Rule::BadSuppression));
    }

    #[test]
    fn suppression_only_covers_its_rule() {
        let src = "fn f(p: *mut u8) { unsafe { *p = 1 }; x.unwrap(); // lint:allow(hot_path_panic) -- checked\n}\n";
        let r = lint_str("crates/mq/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec![Rule::UnsafeNeedsSafety]);
    }

    #[test]
    fn inventory_counts_test_sites_without_flagging() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) { unsafe { *p = 1 }; }\n}\n";
        let r = lint_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty());
        assert_eq!(r.unsafe_sites.len(), 1);
        assert!(r.unsafe_sites[0].in_test);
    }

    #[test]
    fn unsafe_impl_in_test_code_needs_safety() {
        // A Send/Sync impl in a test harness still transfers real data
        // across real threads — the contract must be written down.
        let src =
            "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    unsafe impl Send for W {}\n}\n";
        let r = lint_str("crates/parutil/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec![Rule::UnsafeNeedsSafety]);
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn unsafe_fn_in_test_file_needs_safety() {
        let r = lint_str(
            "crates/parutil/tests/t.rs",
            "unsafe fn poke(p: *mut u8) { unsafe { *p = 1 } }\n",
        );
        assert_eq!(rules_fired(&r), vec![Rule::UnsafeNeedsSafety]);
    }

    #[test]
    fn justified_unsafe_impl_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    \
                   // SAFETY: each test thread gets a disjoint pointer.\n    \
                   unsafe impl Send for W {}\n}\n";
        let r = lint_str("crates/parutil/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unsafe_block_in_test_code_stays_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) { unsafe { *p = 1 }; }\n}\n";
        let r = lint_str("crates/parutil/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unsafe_kind_classification() {
        assert_eq!(unsafe_kinds("pub unsafe fn f()"), vec![UnsafeKind::Fn]);
        assert_eq!(
            unsafe_kinds("unsafe impl Send for X {}"),
            vec![UnsafeKind::Impl]
        );
        assert_eq!(unsafe_kinds("unsafe trait T {}"), vec![UnsafeKind::Trait]);
        assert_eq!(
            unsafe_kinds("let x = unsafe { f() };"),
            vec![UnsafeKind::Block]
        );
        assert_eq!(unsafe_kinds("unsafe_op_in_unsafe_fn"), vec![]);
        assert_eq!(unsafe_kinds("unsafe { a }; unsafe { b };").len(), 2);
    }

    #[test]
    fn fused_kernels_stay_panic_free() {
        // Regression guard for the fused lifting hot loops specifically:
        // `dwt` is a HOT_PATH_CRATES member, so any unwrap/expect/panic!
        // creeping into the single-pass kernels must fail this lint.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../dwt/src/fused.rs")
            .canonicalize()
            .expect("crates/dwt/src/fused.rs must exist");
        let src = std::fs::read_to_string(&path).unwrap();
        let mut r = Report::default();
        lint_source(Path::new("crates/dwt/src/fused.rs"), &src, &mut r);
        let panics: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::HotPathPanic)
            .collect();
        assert!(panics.is_empty(), "{panics:?}");
    }

    #[test]
    fn simd_kernels_stay_panic_free_and_justified() {
        // Same regression guard for the SIMD lifting kernels: every
        // intrinsics `unsafe` block/fn must carry a SAFETY justification,
        // and no unwrap/expect/panic! may creep into the vector hot loops.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../dwt/src/simd.rs")
            .canonicalize()
            .expect("crates/dwt/src/simd.rs must exist");
        let src = std::fs::read_to_string(&path).unwrap();
        let mut r = Report::default();
        lint_source(Path::new("crates/dwt/src/simd.rs"), &src, &mut r);
        let bad: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::HotPathPanic || v.rule == Rule::UnsafeNeedsSafety)
            .collect();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn inventory_render_mentions_counts() {
        let mut r = Report::default();
        lint_source(
            Path::new("crates/dwt/src/x.rs"),
            "// SAFETY: fine.\nunsafe fn f() {}\n",
            &mut r,
        );
        let text = r.render_inventory();
        assert!(text.contains("dwt: 1 sites"), "{text}");
        assert!(text.contains("unsafe fn"), "{text}");
    }
}
