//! `xtask audit-panics` — static panic-path audit of the decode pipeline.
//!
//! The decoder consumes untrusted bytes (DESIGN.md §9): every way it could
//! panic is a potential denial-of-service. This pass inventories every
//! *panic site* in the decoder-reachable scope — panicking calls
//! (`unwrap`/`expect`/`panic!`/`unreachable!`/asserts), slice/array
//! indexing expressions, and scoped `#[allow(clippy::...)]` escapes from
//! the no-panic lints — and requires each one to carry an explicit
//! `// AUDIT:` justification classifying it as unreachable-from-input.
//!
//! Three annotation forms are accepted, mirroring the SAFETY discipline of
//! the concurrency lint ([`crate::lint`]):
//!
//! * `// AUDIT: <reason>` on the site's line or in the contiguous
//!   comment/attribute block directly above it;
//! * `// AUDIT(fn): <reason>` above an item — covers every site inside the
//!   braced body that follows (used for encoder-only functions, which are
//!   never fed untrusted bytes);
//! * `// AUDIT(block): <reason>` above a statement or block — same
//!   mechanics, scoped to the next braced region (or, for brace-less
//!   statements, the statement itself via the lookback rule).
//!
//! The scope additionally must *declare* the no-panic lint wall: each
//! audited file (or its crate root) carries
//! `#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]`,
//! so unchecked arithmetic and unguarded indexing are compile errors unless
//! explicitly allowed — and every such `allow` is itself an audit site.
//!
//! Test code is exempt (tests may panic freely); the inventory still counts
//! it so the report shows the full picture.

use crate::scan::{classify, Line};
use std::fmt;
use std::path::{Path, PathBuf};

/// The audited scope: everything untrusted bytes flow through
/// (decoder-reachable code), plus encoder hot loops dense enough in
/// index/shift arithmetic that they carry the same wall (the Tier-1
/// bitplane engine). Directories mean "every `.rs` file directly inside".
const SCOPED_DIRS: &[&str] = &["crates/tier2/src", "crates/mq/src"];
const SCOPED_FILES: &[&str] = &[
    "crates/ebcot/src/decoder.rs",
    // The packed state, stencils and context LUTs the decoder shares with
    // the bitplane encoder, and the per-coefficient oracle decoder the
    // differential tests feed the same hostile bytes.
    "crates/ebcot/src/packed.rs",
    "crates/ebcot/src/oracle.rs",
    "crates/ebcot/src/bitplane.rs",
    "crates/core/src/decode.rs",
    "crates/image/src/pnm.rs",
    // Encoder hot DWT kernels: same index/arithmetic density as the
    // Tier-1 bitplane engine, and the same wall (ISSUE 8 satellite).
    "crates/dwt/src/lift.rs",
    "crates/dwt/src/fused.rs",
    "crates/dwt/src/vertical.rs",
    "crates/dwt/src/simd.rs",
];

/// The lint wall every scoped file must live behind.
const DENY_ARITH: &str = "clippy::arithmetic_side_effects";
const DENY_INDEX: &str = "clippy::indexing_slicing";

/// Panicking calls the audit looks for. Needles starting with an
/// identifier character are matched at word boundaries, so
/// `debug_assert!` (compiled out in release builds) does not match
/// `assert!`.
const PANIC_NEEDLES: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Kind of panic site, for the inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A panicking call (`unwrap`, `expect`, `panic!`, an assert, ...).
    PanicCall,
    /// A bracket-indexing expression (`x[i]`, `x[a..b]`).
    Indexing,
    /// A scoped `#[allow(clippy::arithmetic_side_effects)]` /
    /// `#[allow(clippy::indexing_slicing)]` escape from the lint wall.
    AllowAttr,
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SiteKind::PanicCall => "panic call",
            SiteKind::Indexing => "indexing",
            SiteKind::AllowAttr => "allow attr",
        };
        f.write_str(s)
    }
}

/// One inventoried site.
#[derive(Debug, Clone)]
pub struct AuditSite {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What kind of site.
    pub kind: SiteKind,
    /// The matched token (needle or `[`-context snippet).
    pub what: String,
    /// Whether the site is in test code.
    pub in_test: bool,
    /// Whether an AUDIT justification covers it.
    pub audited: bool,
}

/// One audit failure.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.path.display(), self.line, self.message)
    }
}

/// Result of auditing the scope.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Every site found, in file order.
    pub sites: Vec<AuditSite>,
    /// Unaudited sites and missing deny declarations.
    pub violations: Vec<AuditViolation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Render the inventory grouped by file.
    pub fn render(&self) -> String {
        use std::collections::BTreeMap;
        let mut by_file: BTreeMap<String, Vec<&AuditSite>> = BTreeMap::new();
        for site in &self.sites {
            by_file
                .entry(site.path.display().to_string())
                .or_default()
                .push(site);
        }
        let mut out = String::new();
        out.push_str("== panic-site inventory (decoder-reachable scope) ==\n");
        for (file, sites) in &by_file {
            let tests = sites.iter().filter(|s| s.in_test).count();
            out.push_str(&format!(
                "{file}: {} sites ({} in tests)\n",
                sites.len(),
                tests
            ));
            for s in sites {
                out.push_str(&format!(
                    "  {}:{} {} `{}`{}{}\n",
                    s.path.display(),
                    s.line,
                    s.kind,
                    s.what,
                    if s.in_test { " [test]" } else { "" },
                    if s.audited || s.in_test {
                        ""
                    } else {
                        " [NO AUDIT]"
                    }
                ));
            }
        }
        let unaudited = self
            .sites
            .iter()
            .filter(|s| !s.in_test && !s.audited)
            .count();
        out.push_str(&format!(
            "total: {} sites across {} files ({} non-test sites lack an AUDIT comment)\n",
            self.sites.len(),
            self.files_scanned,
            unaudited
        ));
        out
    }
}

/// Audit every file in the decoder-reachable scope under `root`.
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    for dir in SCOPED_DIRS {
        let dir_path = root.join(dir);
        if !dir_path.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&dir_path)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    for file in SCOPED_FILES {
        let path = root.join(file);
        if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    let mut report = AuditReport::default();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        // The lint wall may be declared per-file or at the crate root.
        let crate_root_deny = file
            .parent()
            .map(|dir| dir.join("lib.rs"))
            .filter(|lib| lib != file)
            .and_then(|lib| std::fs::read_to_string(lib).ok())
            .is_some_and(|src| declares_deny(&src));
        audit_source(&rel, &source, crate_root_deny, &mut report);
    }
    Ok(report)
}

/// True when `source` declares the scoped no-panic lint wall.
fn declares_deny(source: &str) -> bool {
    source.lines().any(|l| {
        let l = l.trim();
        l.starts_with("#![deny(") && l.contains(DENY_ARITH) && l.contains(DENY_INDEX)
    })
}

/// Audit one file's source text into `report`.
pub fn audit_source(
    path: &Path,
    source: &str,
    crate_root_declares_deny: bool,
    report: &mut AuditReport,
) {
    report.files_scanned += 1;
    if !declares_deny(source) && !crate_root_declares_deny {
        report.violations.push(AuditViolation {
            path: path.to_path_buf(),
            line: 0,
            message: format!(
                "scoped file lacks `#![deny({DENY_ARITH}, {DENY_INDEX})]` \
                 (here or in the crate root)"
            ),
        });
    }
    let lines = classify(source);
    let covered = block_coverage(&lines);
    for (idx, line) in lines.iter().enumerate() {
        let in_test = line.in_test_item || near_cfg_test(&lines, idx);
        let mut sites: Vec<(SiteKind, String)> = Vec::new();
        for needle in PANIC_NEEDLES {
            if find_needle(&line.code, needle).is_some() {
                sites.push((SiteKind::PanicCall, (*needle).to_string()));
            }
        }
        for snippet in indexing_sites(&line.code) {
            sites.push((SiteKind::Indexing, snippet));
        }
        if line.code.contains("allow(")
            && (line.code.contains(DENY_ARITH) || line.code.contains(DENY_INDEX))
        {
            sites.push((SiteKind::AllowAttr, "#[allow(clippy::..)]".to_string()));
        }
        if sites.is_empty() {
            continue;
        }
        let audited =
            covered.get(idx).copied().unwrap_or(false) || has_audit_justification(&lines, idx);
        for (kind, what) in sites {
            report.sites.push(AuditSite {
                path: path.to_path_buf(),
                line: line.number,
                kind,
                what: what.clone(),
                in_test,
                audited,
            });
            if !in_test && !audited {
                report.violations.push(AuditViolation {
                    path: path.to_path_buf(),
                    line: line.number,
                    message: format!(
                        "{kind} `{what}` without an `// AUDIT:` justification \
                         (classify it as unreachable-from-input or return an error)"
                    ),
                });
            }
        }
    }
}

/// Bracket-indexing expressions on a code line: a `[` directly preceded by
/// an identifier character, `)` or `]` is an index/slice of a place
/// expression (attribute `#[..]`, macro `vec![..]`, array type `[u8; 4]`
/// and slice pattern `&[a, b]` all fail the predecessor test). Returns a
/// short context snippet per hit for the report.
fn indexing_sites(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            let start = i.saturating_sub(12);
            let end = (i + 8).min(chars.len());
            out.push(chars[start..end].iter().collect::<String>());
        }
    }
    out
}

/// Find `needle` in `code`. Needles starting with an identifier character
/// are matched at word boundaries (so `debug_assert!` does not match
/// `assert!`, and `my_panic!` does not match `panic!`); needles starting
/// with `.` match anywhere.
fn find_needle(code: &str, needle: &str) -> Option<usize> {
    let needs_boundary = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut start = 0;
    while let Some(rel) = code[start..].find(needle) {
        let pos = start + rel;
        let before_ok = !needs_boundary
            || pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return Some(pos);
        }
        start = pos + needle.len();
    }
    None
}

/// True when line `idx` sits within (a few lines below) a `#[cfg(test)]`
/// attribute — covers attribute stacks between the cfg and the item brace,
/// which the brace-tracking test marker cannot see yet.
fn near_cfg_test(lines: &[Line], idx: usize) -> bool {
    (idx.saturating_sub(3)..=idx).any(|i| lines[i].code.contains("#[cfg(test)]"))
}

/// How far above a site the contiguous-block lookback searches for its
/// AUDIT comment (matches the SAFETY lookback of the concurrency lint).
const AUDIT_LOOKBACK: usize = 24;

/// True when line `idx` is covered by a per-site AUDIT comment: on the
/// line itself, or in the contiguous run of comment/attribute/blank or
/// wrapped-statement-head lines directly above.
fn has_audit_justification(lines: &[Line], idx: usize) -> bool {
    if is_audit_comment(&lines[idx].comment) {
        return true;
    }
    let mut i = idx;
    let mut looked = 0;
    while i > 0 && looked < AUDIT_LOOKBACK {
        i -= 1;
        looked += 1;
        let l = &lines[i];
        if is_audit_comment(&l.comment) {
            return true;
        }
        let code = l.code.trim();
        let is_pass_through = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            // A statement head rustfmt wrapped above the site.
            || code.ends_with('=')
            || code.ends_with('(')
            || code.ends_with(',');
        if !is_pass_through {
            return false;
        }
    }
    false
}

fn is_audit_comment(comment: &str) -> bool {
    comment.contains("AUDIT")
}

/// How many lines below an `AUDIT(fn)` / `AUDIT(block)` comment the opening
/// brace of the covered item may sit (a multi-line comment, attributes and
/// a fully wrapped signature all push the brace down).
const BLOCK_SCAN: usize = 24;

/// Per-line coverage by `AUDIT(fn)` / `AUDIT(block)` comments: from each
/// such comment, scan forward to the first code line containing `{`, then
/// brace-match (on comment-and-string-stripped code) to the region's end;
/// every line in between is covered.
fn block_coverage(lines: &[Line]) -> Vec<bool> {
    let mut covered = vec![false; lines.len()];
    for idx in 0..lines.len() {
        let c = &lines[idx].comment;
        if !(c.contains("AUDIT(fn)") || c.contains("AUDIT(block)")) {
            continue;
        }
        // Find the opening brace of the item the comment annotates.
        let open = lines
            .iter()
            .enumerate()
            .take(lines.len().min(idx + BLOCK_SCAN))
            .skip(idx)
            .find(|(_, l)| l.code.contains('{'))
            .map(|(j, _)| j);
        let Some(open) = open else { continue };
        let mut depth: i64 = 0;
        let mut end = open;
        'scan: for (j, line) in lines.iter().enumerate().skip(open) {
            for ch in line.code.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for slot in covered.iter_mut().take(end + 1).skip(idx) {
            *slot = true;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_str(path: &str, src: &str) -> AuditReport {
        let mut report = AuditReport::default();
        audit_source(Path::new(path), src, false, &mut report);
        report
    }

    const DENY: &str = "#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]\n";

    #[test]
    fn missing_deny_is_flagged() {
        let r = audit_str("crates/tier2/src/x.rs", "fn f() {}\n");
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("deny"));
    }

    #[test]
    fn crate_root_deny_satisfies_file() {
        let mut r = AuditReport::default();
        audit_source(
            Path::new("crates/mq/src/raw.rs"),
            "fn f() {}\n",
            true,
            &mut r,
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unaudited_unwrap_is_flagged() {
        let src = format!("{DENY}fn f() {{ x.unwrap(); }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains(".unwrap()"));
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn audit_comment_above_covers_site() {
        let src = format!(
            "{DENY}fn f() {{\n    // AUDIT: length checked two lines up.\n    x.unwrap();\n}}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sites.len(), 1);
        assert!(r.sites[0].audited);
    }

    #[test]
    fn audit_comment_same_line_covers_site() {
        let src = format!("{DENY}fn f() {{ x.unwrap(); // AUDIT: cannot fail\n}}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn audit_fn_covers_whole_body() {
        let src = format!(
            "{DENY}// AUDIT(fn): encoder side, no untrusted input.\n\
             #[allow(clippy::indexing_slicing)]\n\
             fn encode(v: &[u8]) {{\n    let a = v[0];\n    let b = v[1].max(2);\n}}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // allow attr + two indexing sites, all audited
        assert!(r.sites.len() >= 3);
        assert!(r.sites.iter().all(|s| s.audited));
    }

    #[test]
    fn audit_fn_does_not_leak_past_body() {
        let src = format!(
            "{DENY}// AUDIT(fn): covered.\nfn a(v: &[u8]) {{\n    let x = v[0];\n}}\n\
             fn b(v: &[u8]) {{\n    let y = v[1];\n}}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 7);
    }

    #[test]
    fn indexing_heuristic_skips_non_indexing_brackets() {
        let src = format!(
            "{DENY}fn f(v: &[u8; 4]) -> Vec<u8> {{\n    #[cfg(feature = \"x\")]\n    let a: [u8; 2] = [1, 2];\n    vec![0u8; 3]\n}}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(
            r.sites.iter().all(|s| s.kind != SiteKind::Indexing),
            "{:?}",
            r.sites
        );
    }

    #[test]
    fn indexing_heuristic_catches_place_expressions() {
        let src = format!("{DENY}fn f(v: &[u8], i: usize) {{\n    let a = v[i];\n}}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert_eq!(
            r.sites
                .iter()
                .filter(|s| s.kind == SiteKind::Indexing)
                .count(),
            1
        );
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn debug_assert_is_not_a_site() {
        let src = format!("{DENY}fn f(x: u8) {{ debug_assert!(x < 2); }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn assert_is_a_site() {
        let src = format!("{DENY}fn f(x: u8) {{ assert!(x < 2); }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn test_code_is_exempt_but_inventoried() {
        let src = format!(
            "{DENY}#[cfg(test)]\n#[allow(clippy::indexing_slicing)]\nmod tests {{\n    fn t(v: &[u8]) {{ let a = v[0]; v.last().unwrap(); }}\n}}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.sites.iter().all(|s| s.in_test), "{:?}", r.sites);
    }

    #[test]
    fn scoped_allow_needs_audit() {
        let src = format!(
            "{DENY}#[allow(clippy::arithmetic_side_effects)]\nfn f(a: u32, b: u32) -> u32 {{ a + b }}\n"
        );
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("allow"));
    }

    #[test]
    fn needle_in_string_is_not_a_site() {
        let src = format!("{DENY}fn f() {{ let s = \"call .unwrap() or panic!\"; }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn expect_named_method_is_not_a_site() {
        let src =
            format!("{DENY}fn f(r: &mut R) -> Result<(), E> {{ r.expect_marker(SOC)?; Ok(()) }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        assert!(r.sites.iter().all(|s| s.kind != SiteKind::PanicCall));
    }

    #[test]
    fn render_mentions_counts() {
        let src = format!("{DENY}fn f() {{ x.unwrap(); }}\n");
        let r = audit_str("crates/tier2/src/x.rs", &src);
        let text = r.render();
        assert!(text.contains("1 sites"), "{text}");
        assert!(text.contains("NO AUDIT"), "{text}");
    }
}
