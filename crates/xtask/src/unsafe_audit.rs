//! `xtask audit-unsafe` — static concurrency-contract audit of the unsafe
//! disjoint-write machinery.
//!
//! The parallel encoder's speedups rest on `unsafe` shared-buffer writes
//! (DESIGN.md §12): workers write disjoint regions of one output plane
//! through `DisjointWriter`/`DisjointClaim` (debug-checked claims) or, in
//! two audited hot paths, through the `SendPtr` escape hatch. This pass
//! inventories every aliasing-relevant site — `unsafe impl Send`/`Sync`,
//! `SendPtr` uses, claim-table escapes, raw mutable-slice fabrication — and
//! enforces three rules:
//!
//! * **send_sync_contract** — every `unsafe impl Send` / `unsafe impl Sync`
//!   (test code included: a bogus Send impl in a test harness still races)
//!   must carry a `// SAFETY:` contract naming the shared-state invariant
//!   that makes cross-thread transfer sound.
//! * **raw_write_routing** — inside the parallel-write scope (`parutil`,
//!   `dwt`, `mq` sources, `core::quant`, and `core::decode`), every raw
//!   parallel write must be lexically routed through a `DisjointClaim`: mutable-slice
//!   fabrication (`from_raw_parts_mut`, `ptr::write`) and `.write(..)` /
//!   `.slice_mut(..)` calls on `SendPtr`-rooted receivers are violations
//!   unless covered by an `// AUDIT(alias): <reason>` justification naming
//!   the disjointness argument. The two files that *implement* the routing
//!   layer (`parutil/src/disjoint.rs`, `parutil/src/exec.rs`) are exempt —
//!   their internals are governed by SAFETY contracts and the Miri/loom
//!   gates instead.
//! * **sendptr_allowlist** — the `SendPtr` type must not appear outside an
//!   allowlisted module set (`parutil::exec` where it lives, the `parutil`
//!   crate root that re-exports it, `core::quant`'s audited hot loops,
//!   `core::decode`'s join-synchronized block scatter, and
//!   `parutil/tests/`). New code must use `DisjointWriter` claims; growing
//!   the allowlist is a reviewed change to this file.
//!
//! `AUDIT(alias)` coverage uses the same lookback mechanics as the panic
//! audit ([`crate::audit`]): the comment may sit on the site's line or in
//! the contiguous comment/attribute block directly above it.
//!
//! The `xtask` crate itself is excluded from the scan: its sources (this
//! file, fixtures, help text) necessarily *name* the tokens being audited.
//!
//! Known limitation: receiver rooting is per-file and lexical. A `SendPtr`
//! smuggled through a struct field or renamed through a non-`let` binding
//! will not be receiver-matched — but its construction site still trips
//! `sendptr_allowlist` outside the allowlist, which is the load-bearing
//! fence.

use crate::lint::find_word;
use crate::scan::{classify, Line};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The parallel-write scope for `raw_write_routing`: everything that
/// fabricates or consumes shared mutable buffers across worker threads.
const SCOPED_DIRS: &[&str] = &["crates/parutil/src", "crates/dwt/src", "crates/mq/src"];
const SCOPED_FILES: &[&str] = &["crates/core/src/quant.rs", "crates/core/src/decode.rs"];

/// Files implementing the claim/escape layer itself — `raw_write_routing`
/// does not apply (they are what writes get routed *to*).
const LAYER_FILES: &[&str] = &[
    "crates/parutil/src/disjoint.rs",
    "crates/parutil/src/exec.rs",
];

/// Where the `SendPtr` token may legally appear.
const SENDPTR_ALLOWED_FILES: &[&str] = &[
    "crates/parutil/src/exec.rs",
    "crates/parutil/src/lib.rs",
    "crates/core/src/quant.rs",
    "crates/core/src/decode.rs",
];
const SENDPTR_ALLOWED_DIRS: &[&str] = &["crates/parutil/tests"];

/// Kind of aliasing-relevant site, for the inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `unsafe impl Send` / `unsafe impl Sync`.
    SendSyncImpl,
    /// A code line naming the `SendPtr` type.
    SendPtrUse,
    /// A raw parallel write (mutable-slice fabrication or a write through
    /// a `SendPtr`-rooted receiver).
    RawWrite,
    /// A sanctioned claim-table escape (`claim_range` / `claim_indices` /
    /// `claim_rect`) or a write through a claim-rooted receiver.
    ClaimRoute,
    /// Raw-pointer arithmetic/deref (`.add(`, `from_raw_parts(`) — read
    /// side, inventoried for the full aliasing picture, never a violation.
    RawDeref,
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SiteKind::SendSyncImpl => "unsafe Send/Sync impl",
            SiteKind::SendPtrUse => "SendPtr use",
            SiteKind::RawWrite => "raw write",
            SiteKind::ClaimRoute => "claim route",
            SiteKind::RawDeref => "raw deref",
        };
        f.write_str(s)
    }
}

/// One inventoried site.
#[derive(Debug, Clone)]
pub struct UnsafeAuditSite {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What kind of site.
    pub kind: SiteKind,
    /// The matched token / short context.
    pub what: String,
    /// Whether the site is in test code.
    pub in_test: bool,
    /// Whether the site is covered (SAFETY for impls, AUDIT(alias) or
    /// claim routing for writes; routing-neutral kinds are always true).
    pub covered: bool,
}

/// One audit failure.
#[derive(Debug, Clone)]
pub struct UnsafeAuditViolation {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (`send_sync_contract`, `raw_write_routing`,
    /// `sendptr_allowlist`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for UnsafeAuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of auditing the workspace.
#[derive(Debug, Default)]
pub struct UnsafeAuditReport {
    /// Every site found, in file order.
    pub sites: Vec<UnsafeAuditSite>,
    /// Rule violations.
    pub violations: Vec<UnsafeAuditViolation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl UnsafeAuditReport {
    /// Render the inventory grouped by file.
    pub fn render(&self) -> String {
        use std::collections::BTreeMap;
        let mut by_file: BTreeMap<String, Vec<&UnsafeAuditSite>> = BTreeMap::new();
        for site in &self.sites {
            by_file
                .entry(site.path.display().to_string())
                .or_default()
                .push(site);
        }
        let mut out = String::new();
        out.push_str("== concurrency-contract inventory (aliasing/Send audit) ==\n");
        for (file, sites) in &by_file {
            let writes = sites
                .iter()
                .filter(|s| s.kind == SiteKind::RawWrite)
                .count();
            out.push_str(&format!(
                "{file}: {} sites ({} raw writes)\n",
                sites.len(),
                writes
            ));
            for s in sites {
                out.push_str(&format!(
                    "  {}:{} {} `{}`{}{}\n",
                    s.path.display(),
                    s.line,
                    s.kind,
                    s.what,
                    if s.in_test { " [test]" } else { "" },
                    if s.covered { "" } else { " [UNCOVERED]" }
                ));
            }
        }
        let uncovered = self.sites.iter().filter(|s| !s.covered).count();
        out.push_str(&format!(
            "total: {} sites across {} files ({} uncovered)\n",
            self.sites.len(),
            self.files_scanned,
            uncovered
        ));
        out
    }
}

/// Audit every non-`xtask` crate source under `root`.
pub fn audit_unsafe_workspace(root: &Path) -> std::io::Result<UnsafeAuditReport> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut report = UnsafeAuditReport::default();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        if rel.starts_with("crates/xtask") {
            continue;
        }
        let source = std::fs::read_to_string(file)?;
        audit_unsafe_source(&rel, &source, &mut report);
    }
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

/// Context derived from a file's workspace-relative path.
struct FileCtx {
    /// `raw_write_routing` applies to non-test code here.
    write_scoped: bool,
    /// Implements the routing layer — `raw_write_routing` exempt.
    layer_file: bool,
    /// `SendPtr` may appear here.
    sendptr_allowed: bool,
    /// Integration tests / benches / examples.
    is_test_file: bool,
}

fn file_ctx(path: &Path) -> FileCtx {
    let p = path.to_string_lossy().replace('\\', "/");
    let in_dir = |dirs: &[&str]| dirs.iter().any(|d| p.starts_with(&format!("{d}/")));
    let is_file = |files: &[&str]| files.iter().any(|f| p == *f);
    FileCtx {
        write_scoped: in_dir(SCOPED_DIRS) || is_file(SCOPED_FILES),
        layer_file: is_file(LAYER_FILES),
        sendptr_allowed: is_file(SENDPTR_ALLOWED_FILES) || in_dir(SENDPTR_ALLOWED_DIRS),
        is_test_file: path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .any(|c| c == "tests" || c == "benches" || c == "examples"),
    }
}

/// Audit one file's source text into `report`.
pub fn audit_unsafe_source(path: &Path, source: &str, report: &mut UnsafeAuditReport) {
    report.files_scanned += 1;
    let ctx = file_ctx(path);
    let lines = classify(source);
    let roots = rooted_idents(&lines);

    for (idx, line) in lines.iter().enumerate() {
        let in_test = ctx.is_test_file || line.in_test_item;
        let code = &line.code;

        // --- send_sync_contract ------------------------------------------
        if code.contains("unsafe impl")
            && (find_word(code, "Send").is_some() || find_word(code, "Sync").is_some())
        {
            let covered = has_justification(&lines, idx, "SAFETY");
            push_site(
                report,
                path,
                line,
                SiteKind::SendSyncImpl,
                snippet(code),
                in_test,
                covered,
            );
            if !covered {
                report.violations.push(UnsafeAuditViolation {
                    path: path.to_path_buf(),
                    line: line.number,
                    rule: "send_sync_contract",
                    message: "unsafe Send/Sync impl without a `// SAFETY:` contract \
                              naming the shared-state invariant"
                        .to_string(),
                });
            }
        }

        // --- sendptr_allowlist -------------------------------------------
        if find_word(code, "SendPtr").is_some() {
            let covered = ctx.sendptr_allowed;
            push_site(
                report,
                path,
                line,
                SiteKind::SendPtrUse,
                snippet(code),
                in_test,
                covered,
            );
            if !covered {
                report.violations.push(UnsafeAuditViolation {
                    path: path.to_path_buf(),
                    line: line.number,
                    rule: "sendptr_allowlist",
                    message: "`SendPtr` outside the allowlisted modules \
                              (parutil::exec, parutil crate root, core::quant, \
                              core::decode, parutil/tests) — route writes through \
                              DisjointWriter claims instead"
                        .to_string(),
                });
            }
        }

        // --- claim-route inventory ---------------------------------------
        for escape in ["claim_range(", "claim_indices(", "claim_rect("] {
            if code.contains(&format!(".{escape}")) {
                push_site(
                    report,
                    path,
                    line,
                    SiteKind::ClaimRoute,
                    escape.trim_end_matches('(').to_string(),
                    in_test,
                    true,
                );
            }
        }

        // --- raw-deref inventory (read side, never a violation) ----------
        if ctx.write_scoped && (code.contains("from_raw_parts(") || code.contains(".add(")) {
            push_site(
                report,
                path,
                line,
                SiteKind::RawDeref,
                snippet(code),
                in_test,
                true,
            );
        }

        // --- raw_write_routing -------------------------------------------
        if !ctx.write_scoped || ctx.layer_file || in_test {
            continue;
        }
        let mut raw_writes: Vec<String> = Vec::new();
        for needle in [
            "from_raw_parts_mut(",
            "ptr::write(",
            "ptr::write_unaligned(",
        ] {
            if code.contains(needle) {
                raw_writes.push(needle.trim_end_matches('(').to_string());
            }
        }
        for method in [".write(", ".slice_mut("] {
            for recv in receivers(code, method) {
                if roots.sendptr.contains(&recv) {
                    raw_writes.push(format!("{recv}{}", method.trim_end_matches('(')));
                } else if roots.claim.contains(&recv) {
                    push_site(
                        report,
                        path,
                        line,
                        SiteKind::ClaimRoute,
                        format!("{recv}{}", method.trim_end_matches('(')),
                        in_test,
                        true,
                    );
                }
                // Unknown receivers (io::Write, Vec writes, ...) are not
                // parallel-aliasing sites; ignore them.
            }
        }
        for what in raw_writes {
            let covered = has_justification(&lines, idx, "AUDIT(alias)");
            push_site(
                report,
                path,
                line,
                SiteKind::RawWrite,
                what.clone(),
                in_test,
                covered,
            );
            if !covered {
                report.violations.push(UnsafeAuditViolation {
                    path: path.to_path_buf(),
                    line: line.number,
                    rule: "raw_write_routing",
                    message: format!(
                        "raw parallel write `{what}` not routed through a \
                         DisjointClaim and without an `// AUDIT(alias):` \
                         justification naming the disjointness argument"
                    ),
                });
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_site(
    report: &mut UnsafeAuditReport,
    path: &Path,
    line: &Line,
    kind: SiteKind,
    what: String,
    in_test: bool,
    covered: bool,
) {
    report.sites.push(UnsafeAuditSite {
        path: path.to_path_buf(),
        line: line.number,
        kind,
        what,
        in_test,
        covered,
    });
}

/// Short context snippet of a code line for the report.
fn snippet(code: &str) -> String {
    let t = code.trim();
    let mut s: String = t.chars().take(48).collect();
    if s.len() < t.len() {
        s.push('…');
    }
    s
}

/// Identifiers rooted to the claim layer / the `SendPtr` escape hatch,
/// collected per file.
#[derive(Default)]
struct RootedIdents {
    /// Bound from `claim_range`/`claim_indices`/`claim_rect` or typed
    /// `&DisjointClaim` parameters: writes through these are routed.
    claim: BTreeSet<String>,
    /// Bound from `SendPtr(..)` / `SendPtr::new(..)` or typed `SendPtr`
    /// parameters: writes through these bypass the claim table.
    sendptr: BTreeSet<String>,
}

fn rooted_idents(lines: &[Line]) -> RootedIdents {
    let mut roots = RootedIdents::default();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let is_claim_ctor = [".claim_range(", ".claim_indices(", ".claim_rect("]
            .iter()
            .any(|n| code.contains(n));
        let is_sendptr_ctor = code.contains("SendPtr(") || code.contains("SendPtr::new(");
        if is_claim_ctor {
            if let Some(name) = let_binding_ident(lines, idx) {
                roots.claim.insert(name);
            }
        }
        if is_sendptr_ctor {
            if let Some(name) = let_binding_ident(lines, idx) {
                roots.sendptr.insert(name);
            }
        }
        for ty in ["&DisjointClaim", "&mut DisjointClaim", "DisjointClaim"] {
            for name in typed_idents(code, ty) {
                roots.claim.insert(name);
            }
        }
        for ty in ["&SendPtr", "SendPtr"] {
            for name in typed_idents(code, ty) {
                roots.sendptr.insert(name);
            }
        }
    }
    roots
}

/// The identifier bound by the `let` statement containing line `idx`: on
/// the line itself, or (for rustfmt-wrapped initializers) up to three
/// lines above when the statement head ends in `=` or the continuation
/// starts with `.`.
fn let_binding_ident(lines: &[Line], idx: usize) -> Option<String> {
    let mut i = idx;
    for _ in 0..4 {
        let code = lines[i].code.trim();
        if let Some(pos) = find_word(&lines[i].code, "let") {
            let rest = &lines[i].code[pos + 3..];
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            return (!name.is_empty()).then_some(name);
        }
        // Continuation lines: `let x =` above, or `.claim_rect(` chained.
        if i == 0 {
            return None;
        }
        let prev = lines[i - 1].code.trim_end();
        if !(code.starts_with('.') || prev.ends_with('=') || prev.ends_with('(')) {
            return None;
        }
        i -= 1;
    }
    None
}

/// Identifiers annotated `name: <ty>` on this code line (function
/// parameters and struct fields).
fn typed_idents(code: &str, ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    let pat = format!(": {ty}");
    while let Some(rel) = code[start..].find(&pat) {
        let pos = start + rel;
        // The type must end at a token boundary (`DisjointClaim<T>` yes,
        // `DisjointClaimFoo` no).
        let after = code[pos + pat.len()..].chars().next();
        if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            let ident: String = code[..pos]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !ident.is_empty() {
                out.push(ident);
            }
        }
        start = pos + pat.len();
    }
    out
}

/// Receiver identifiers of `recv.method(` call sites on this line.
fn receivers(code: &str, method: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(rel) = code[start..].find(method) {
        let pos = start + rel;
        let recv: String = code[..pos]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if !recv.is_empty() {
            out.push(recv);
        }
        start = pos + method.len();
    }
    out
}

/// How far above a site the contiguous-block lookback searches for its
/// justification comment (matches the panic audit).
const LOOKBACK: usize = 24;

/// True when line `idx` is covered by a comment containing `needle`: on
/// the line itself, or in the contiguous run of comment/attribute/blank or
/// wrapped-statement-head lines directly above.
fn has_justification(lines: &[Line], idx: usize, needle: &str) -> bool {
    if lines[idx].comment.contains(needle) {
        return true;
    }
    let mut i = idx;
    let mut looked = 0;
    while i > 0 && looked < LOOKBACK {
        i -= 1;
        looked += 1;
        let l = &lines[i];
        if l.comment.contains(needle) {
            return true;
        }
        let code = l.code.trim();
        let is_pass_through = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            // A grouped `unsafe impl Send/Sync` pair shares the comment
            // above the first impl.
            || (code.contains("unsafe impl") && lines[idx].code.contains("unsafe impl"))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_str(path: &str, src: &str) -> UnsafeAuditReport {
        let mut report = UnsafeAuditReport::default();
        audit_unsafe_source(Path::new(path), src, &mut report);
        report
    }

    fn rules_fired(report: &UnsafeAuditReport) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn send_impl_without_safety_fires() {
        let src = "pub struct P<T>(*mut T);\nunsafe impl<T: Send> Send for P<T> {}\n";
        let r = audit_str("crates/parutil/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec!["send_sync_contract"]);
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn send_impl_with_safety_is_clean() {
        let src = "// SAFETY: P hands out disjoint regions only.\n\
                   unsafe impl<T: Send> Send for P<T> {}\n\
                   unsafe impl<T: Send> Sync for P<T> {}\n";
        let r = audit_str("crates/parutil/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(
            r.sites
                .iter()
                .filter(|s| s.kind == SiteKind::SendSyncImpl)
                .count(),
            2
        );
    }

    #[test]
    fn send_impl_in_test_code_still_fires() {
        // Unlike the panic audit, Send/Sync contracts are required even in
        // test code: a bogus impl in a test harness still races for real.
        let src =
            "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    unsafe impl Send for W {}\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec!["send_sync_contract"]);
    }

    #[test]
    fn non_send_unsafe_impl_is_not_a_site() {
        let src = "unsafe impl GlobalAlloc for CountingAlloc {}\n";
        let r = audit_str("crates/bench/src/bin/b.rs", src);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn sendptr_outside_allowlist_fires() {
        let src = "fn f(buf: &mut [u8]) {\n    let p = SendPtr::new(buf);\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(
            rules_fired(&r).contains(&"sendptr_allowlist"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn sendptr_in_quant_is_allowed() {
        let src = "fn f(buf: &mut [i32]) {\n    let p = SendPtr::new(buf);\n}\n";
        let r = audit_str("crates/core/src/quant.rs", src);
        assert!(
            !rules_fired(&r).contains(&"sendptr_allowlist"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn sendptr_in_parutil_tests_is_allowed() {
        let src = "let p = SendPtr::new(buf);\n";
        let r = audit_str("crates/parutil/tests/t.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn sendptr_write_without_alias_audit_fires() {
        let src = "fn f(dst: &mut [i32]) {\n    let p = SendPtr::new(dst);\n    \
                   // SAFETY: rows are disjoint.\n    let row = unsafe { p.slice_mut(0, 4) };\n}\n";
        let r = audit_str("crates/core/src/quant.rs", src);
        assert_eq!(
            rules_fired(&r),
            vec!["raw_write_routing"],
            "{:?}",
            r.violations
        );
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn sendptr_write_with_alias_audit_is_clean() {
        let src = "fn f(dst: &mut [i32]) {\n    let p = SendPtr::new(dst);\n    \
                   // AUDIT(alias): rows are worker-disjoint by construction.\n    \
                   let row = unsafe { p.slice_mut(0, 4) };\n}\n";
        let r = audit_str("crates/core/src/quant.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let site = r
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::RawWrite)
            .expect("raw write inventoried");
        assert!(site.covered);
    }

    #[test]
    fn claim_routed_write_is_clean() {
        let src = "unsafe fn st(c: &DisjointClaim<f32>, i: usize, v: f32) {\n    \
                   unsafe { c.write(i, v) };\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(
            r.sites.iter().any(|s| s.kind == SiteKind::ClaimRoute),
            "{:?}",
            r.sites
        );
    }

    #[test]
    fn claim_range_binding_roots_receiver() {
        let src = "fn f(writer: &DisjointWriter<i32>) {\n    \
                   let row = writer.claim_range(0..4);\n    \
                   let s = unsafe { row.slice_mut(0, 4) };\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn wrapped_claim_binding_roots_receiver() {
        // rustfmt may wrap the initializer below the `let` head.
        let src = "fn f(writer: &DisjointWriter<i32>) {\n    let row =\n        \
                   writer.claim_range(0..4);\n    let s = unsafe { row.slice_mut(0, 4) };\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn from_raw_parts_mut_without_audit_fires() {
        let src =
            "fn f(p: *mut u8) {\n    let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert_eq!(rules_fired(&r), vec!["raw_write_routing"]);
    }

    #[test]
    fn from_raw_parts_mut_in_layer_file_is_exempt() {
        let src =
            "fn f(p: *mut u8) {\n    let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n}\n";
        let r = audit_str("crates/parutil/src/disjoint.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn raw_write_outside_scope_is_not_checked() {
        // tier2 is outside the parallel-write scope; the plain SAFETY lint
        // still covers its unsafe blocks.
        let src =
            "fn f(p: *mut u8) {\n    let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n}\n";
        let r = audit_str("crates/tier2/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn test_code_is_exempt_from_write_routing() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) {\n        \
                   let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n    }\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn unknown_receiver_write_is_ignored() {
        let src = "fn f(mut file: std::fs::File, buf: &[u8]) {\n    file.write(buf).ok();\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.sites.iter().all(|s| s.kind != SiteKind::RawWrite));
    }

    #[test]
    fn sendptr_in_comment_is_not_a_site() {
        let src = "// SendPtr is not allowed here; use claims.\nfn f() {}\n";
        let r = audit_str("crates/dwt/src/x.rs", src);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn raw_deref_is_inventoried_not_flagged() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    \
                   let s = unsafe { std::slice::from_raw_parts(p.add(1), 4) };\n}\n";
        let r = audit_str("crates/mq/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.sites.iter().any(|s| s.kind == SiteKind::RawDeref));
    }

    #[test]
    fn render_mentions_counts() {
        let src = "unsafe impl Send for W {}\n";
        let r = audit_str("crates/parutil/src/x.rs", src);
        let text = r.render();
        assert!(text.contains("1 sites"), "{text}");
        assert!(text.contains("UNCOVERED"), "{text}");
    }

    #[test]
    fn real_quant_hot_loops_stay_audited() {
        // Regression guard: the two SendPtr hot loops in core::quant must
        // keep their AUDIT(alias) coverage.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../core/src/quant.rs")
            .canonicalize()
            .expect("crates/core/src/quant.rs must exist");
        let src = std::fs::read_to_string(&path).unwrap();
        let r = audit_str("crates/core/src/quant.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(
            r.sites
                .iter()
                .any(|s| s.kind == SiteKind::RawWrite && s.covered),
            "expected audited SendPtr writes in quant.rs"
        );
    }

    #[test]
    fn real_decode_pipeline_scatter_stays_audited() {
        // Regression guard: the decoder's two SendPtr writers — the scatter
        // of code-blocks into the inverse-DWT planes and the output pass
        // into the image (DESIGN.md §15) — must keep their AUDIT(alias)
        // coverage: core::decode is in the raw-write scope and on the
        // SendPtr allowlist.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../core/src/decode.rs")
            .canonicalize()
            .expect("crates/core/src/decode.rs must exist");
        let src = std::fs::read_to_string(&path).unwrap();
        let r = audit_str("crates/core/src/decode.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let writes = r
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::RawWrite)
            .collect::<Vec<_>>();
        assert!(
            writes.len() >= 2 && writes.iter().all(|s| s.covered),
            "expected two audited SendPtr writers in decode.rs: {writes:?}"
        );
        assert!(
            r.sites.iter().any(|s| s.kind == SiteKind::SendPtrUse),
            "expected inventoried SendPtr uses in decode.rs"
        );
    }

    #[test]
    fn real_disjoint_layer_declares_contracts() {
        // Regression guard: the claim layer's Send/Sync impls must keep
        // their SAFETY contracts.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../parutil/src/disjoint.rs")
            .canonicalize()
            .expect("crates/parutil/src/disjoint.rs must exist");
        let src = std::fs::read_to_string(&path).unwrap();
        let r = audit_str("crates/parutil/src/disjoint.rs", &src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::SendSyncImpl && s.covered));
    }
}
