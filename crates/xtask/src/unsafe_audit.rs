//! The `alias` query: the concurrency contract of the unsafe disjoint-write
//! machinery.
//!
//! The parallel codec's speedups rest on `unsafe` shared-buffer writes
//! (DESIGN.md §12): workers write disjoint regions of one plane through
//! `DisjointWriter`/`DisjointClaim`, the workspace's one raw-write
//! primitive, whose claims are overlap-checked in debug builds. This query
//! inventories every aliasing-relevant site — claim routes, raw
//! mutable-slice fabrication, raw pointer reads — and enforces one rule
//! (the Send/Sync contracts are the `safety` query's):
//!
//! * **raw-write routing** — inside the parallel-write scope (`parutil`,
//!   `dwt`, `mq` sources, `core::quant`, and `core::decode`), every raw
//!   parallel write must be lexically routed through a `DisjointClaim`:
//!   mutable-slice fabrication (`from_raw_parts_mut`, `ptr::write`) needs
//!   an `// AUDIT(alias): <reason>` naming the disjointness argument. The
//!   file that *implements* the claim layer (`parutil/src/disjoint.rs`) is
//!   exempt — its internals are governed by SAFETY contracts and the
//!   Miri/loom gates.

use crate::scan::{find_word, ident_at, ident_before, Finding, Kind, Line, Source};
use std::collections::BTreeSet;

/// The parallel-write scope: everything that fabricates or consumes shared
/// mutable buffers across worker threads.
const SCOPED_DIRS: &[&str] = &["crates/parutil/src", "crates/dwt/src", "crates/mq/src"];
const SCOPED_FILES: &[&str] = &["crates/core/src/quant.rs", "crates/core/src/decode.rs"];

/// The file implementing the claim layer itself: writes get routed *to*
/// it, so the routing rule does not apply.
const LAYER_FILES: &[&str] = &["crates/parutil/src/disjoint.rs"];

const CLAIMS: [&str; 3] = ["claim_range(", "claim_indices(", "claim_rect("];

/// The `alias` query over one file.
pub fn alias(src: &Source, out: &mut Vec<Finding>) {
    let p = src.path.to_string_lossy().replace('\\', "/");
    let in_dir = |dirs: &[&str]| dirs.iter().any(|d| p.starts_with(&format!("{d}/")));
    let write_scoped = in_dir(SCOPED_DIRS) || SCOPED_FILES.contains(&p.as_str());
    let layer_file = LAYER_FILES.contains(&p.as_str());
    let claims = claim_idents(&src.lines);
    let site = |idx: usize, what: String, ok: bool| Finding::at(src, idx, "alias", what, ok);

    for (idx, line) in src.lines.iter().enumerate() {
        let code = &line.code;
        for claim in CLAIMS.iter().filter(|c| code.contains(&format!(".{c}"))) {
            out.push(site(
                idx,
                format!("claim route `{}`", claim.trim_end_matches('(')),
                true,
            ));
        }
        if write_scoped && (code.contains("from_raw_parts(") || code.contains(".add(")) {
            out.push(site(idx, format!("raw deref `{}`", snippet(code)), true));
        }
        if !write_scoped || layer_file || src.in_test(idx) {
            continue;
        }
        for method in [".write(", ".slice_mut("] {
            for recv in receivers(code, method)
                .into_iter()
                .filter(|r| claims.contains(*r))
            {
                let call = format!("{recv}{}", method.trim_end_matches('('));
                out.push(site(idx, format!("claim route `{call}`"), true));
            }
            // Other receivers (io::Write, Vec writes, ...) are not
            // parallel-aliasing sites.
        }
        for raw in [
            "from_raw_parts_mut(",
            "ptr::write(",
            "ptr::write_unaligned(",
        ] {
            if code.contains(raw) {
                let ok = src.covered(idx, Kind::Alias, true);
                let what = format!("raw write `{}`", raw.trim_end_matches('('));
                out.push(site(idx, what, ok));
            }
        }
    }
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

/// Identifiers rooted to the claim layer, collected per file: bound from
/// a claim call or typed `DisjointClaim`. Writes through these are routed.
fn claim_idents(lines: &[Line]) -> BTreeSet<String> {
    let mut claims = BTreeSet::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if CLAIMS.iter().any(|c| code.contains(&format!(".{c}"))) {
            claims.extend(let_binding_ident(lines, idx));
        }
        claims.extend(typed_idents(code, "DisjointClaim"));
    }
    claims
}

/// The identifier bound by the `let` statement containing line `idx`: on
/// the line itself, or (for rustfmt-wrapped initializers) up to three
/// lines above when the statement head ends in `=` or `(` or the
/// continuation starts with `.`.
fn let_binding_ident(lines: &[Line], idx: usize) -> Option<String> {
    let mut i = idx;
    for _ in 0..4 {
        let code = &lines[i].code;
        if let Some(pos) = find_word(code, "let") {
            let rest = code[pos + 3..].trim_start();
            let name = ident_at(rest.strip_prefix("mut ").unwrap_or(rest).trim_start());
            return (!name.is_empty()).then(|| name.to_string());
        }
        let prev = lines[i.checked_sub(1)?].code.trim_end();
        if !(code.trim().starts_with('.') || prev.ends_with(['=', '('])) {
            return None;
        }
        i -= 1;
    }
    None
}

/// Identifiers annotated `name: <ty>`, `name: &<ty>` or `name: &mut <ty>`
/// on this code line (function parameters and struct fields).
fn typed_idents(code: &str, ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in code.match_indices(": ") {
        let rest = code[pos + 2..].trim_start_matches('&');
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name = ident_before(code, pos);
        if ident_at(rest) == ty && !name.is_empty() {
            out.push(name.to_string());
        }
    }
    out
}

/// Receiver identifiers of `recv.method(` call sites on this line.
fn receivers<'a>(code: &'a str, method: &str) -> Vec<&'a str> {
    code.match_indices(method)
        .map(|(pos, _)| ident_before(code, pos))
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    /// The findings of `check` that `src` yields at `path`.
    fn audit_str(path: &str, src: &str, check: &str) -> Vec<Finding> {
        fixture(path, src)
            .into_iter()
            .filter(|f| f.check == check)
            .collect()
    }

    fn violations(found: &[Finding]) -> Vec<usize> {
        found
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| f.line)
            .collect()
    }

    fn of_kind<'a>(found: &'a [Finding], kind: &str) -> Vec<&'a Finding> {
        found.iter().filter(|f| f.what.starts_with(kind)).collect()
    }

    #[test]
    fn send_impl_without_safety_fires() {
        let src = "pub struct P<T>(*mut T);\nunsafe impl<T: Send> Send for P<T> {}\n";
        assert_eq!(
            violations(&audit_str("crates/parutil/src/x.rs", src, "safety")),
            [2]
        );
    }

    #[test]
    fn send_impl_with_safety_is_clean() {
        let src = "// SAFETY: P hands out disjoint regions only.\n\
                   unsafe impl<T: Send> Send for P<T> {}\n\
                   unsafe impl<T: Send> Sync for P<T> {}\n";
        let r = audit_str("crates/parutil/src/x.rs", src, "safety");
        assert!(r.len() == 2 && r.iter().all(|f| f.justified), "{r:?}");
    }

    #[test]
    fn send_impl_in_test_code_still_fires() {
        // Unlike the panic check, Send/Sync contracts are required even in
        // test code: a bogus impl in a test harness still races for real.
        let src =
            "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    unsafe impl Send for W {}\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src, "safety");
        assert!(r.len() == 1 && !r[0].in_test, "{r:?}");
        assert_eq!(violations(&r), [4]);
    }

    #[test]
    fn non_send_unsafe_impl_is_not_a_site() {
        let src = "unsafe impl GlobalAlloc for CountingAlloc {}\n";
        assert!(audit_str("crates/bench/src/bin/b.rs", src, "alias").is_empty());
    }

    #[test]
    fn claim_routed_write_is_clean() {
        let src = "unsafe fn st(c: &DisjointClaim<f32>, i: usize, v: f32) {\n    \
                   unsafe { c.write(i, v) };\n}\n";
        let r = audit_str("crates/dwt/src/x.rs", src, "alias");
        assert!(
            violations(&r).is_empty() && !of_kind(&r, "claim route").is_empty(),
            "{r:?}"
        );
    }

    #[test]
    fn claim_range_binding_roots_receiver() {
        let src = "fn f(writer: &DisjointWriter<i32>) {\n    \
                   let row = writer.claim_range(0..4);\n    \
                   let s = unsafe { row.slice_mut(0, 4) };\n}\n";
        assert!(violations(&audit_str("crates/dwt/src/x.rs", src, "alias")).is_empty());
    }

    #[test]
    fn wrapped_claim_binding_roots_receiver() {
        // rustfmt may wrap the initializer below the `let` head.
        let src = "fn f(writer: &DisjointWriter<i32>) {\n    let row =\n        \
                   writer.claim_range(0..4);\n    let s = unsafe { row.slice_mut(0, 4) };\n}\n";
        assert!(violations(&audit_str("crates/dwt/src/x.rs", src, "alias")).is_empty());
    }

    const RAW_MUT: &str =
        "fn f(p: *mut u8) {\n    let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n}\n";

    #[test]
    fn from_raw_parts_mut_without_audit_fires() {
        assert_eq!(
            violations(&audit_str("crates/dwt/src/x.rs", RAW_MUT, "alias")),
            [2]
        );
    }

    #[test]
    fn from_raw_parts_mut_with_alias_audit_is_clean() {
        let src = "fn f(p: *mut i32) {\n    \
                   // AUDIT(alias): rows are worker-disjoint by construction.\n    \
                   let row = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n}\n";
        let r = audit_str("crates/core/src/quant.rs", src, "alias");
        let writes = of_kind(&r, "raw write");
        assert!(writes.len() == 1 && writes[0].justified, "{r:?}");
        assert!(violations(&r).is_empty());
    }

    #[test]
    fn sendptr_write_without_alias_audit_fires() {
        // A hand-rolled Send pointer wrapper is no way around the claims:
        // its raw write needs an AUDIT(alias) reason, and a SAFETY comment
        // does not stand in for one.
        let src = "fn f(dst: &mut [i32]) {\n    let p = SendPtr(dst.as_mut_ptr());\n    \
                   // SAFETY: rows are disjoint.\n    \
                   let row = unsafe { std::slice::from_raw_parts_mut(p.0, 4) };\n}\n";
        let bad: Vec<_> = fixture("crates/core/src/quant.rs", src)
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| (f.check, f.line))
            .collect();
        assert_eq!(bad, [("alias", 4)]);
    }

    #[test]
    fn from_raw_parts_mut_in_layer_file_is_exempt() {
        assert!(audit_str("crates/parutil/src/disjoint.rs", RAW_MUT, "alias").is_empty());
    }

    #[test]
    fn raw_write_outside_scope_is_not_checked() {
        // tier2 is outside the parallel-write scope; the safety query still
        // covers its unsafe blocks.
        assert!(audit_str("crates/tier2/src/x.rs", RAW_MUT, "alias").is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_write_routing() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) {\n        \
                   let s = unsafe { std::slice::from_raw_parts_mut(p, 4) };\n    }\n}\n";
        assert!(audit_str("crates/dwt/src/x.rs", src, "alias").is_empty());
    }

    #[test]
    fn unknown_receiver_write_is_ignored() {
        let src = "fn f(mut file: std::fs::File, buf: &[u8]) {\n    file.write(buf).ok();\n}\n";
        assert!(audit_str("crates/dwt/src/x.rs", src, "alias").is_empty());
    }

    #[test]
    fn raw_write_in_comment_is_not_a_site() {
        let src = "// from_raw_parts_mut( is not allowed here; use claims.\nfn f() {}\n";
        assert!(fixture("crates/dwt/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_deref_is_inventoried_not_flagged() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: in bounds.\n    \
                   let s = unsafe { std::slice::from_raw_parts(p.add(1), 4) };\n}\n";
        let all = fixture("crates/mq/src/x.rs", src);
        assert!(all.iter().all(|f| !f.is_violation()), "{all:?}");
        assert_eq!(of_kind(&all, "raw deref").len(), 1);
    }

    #[test]
    fn render_mentions_counts() {
        let r = fixture("crates/dwt/src/x.rs", RAW_MUT);
        let text = crate::scan::render(&r, &[], false);
        assert!(
            text.contains("== alias: 1 sites in 1 files, 1 violations"),
            "{text}"
        );
        assert!(text.contains("UNJUSTIFIED"), "{text}");
    }

    /// Every finding of `check` in a real workspace file; none may be a
    /// violation.
    fn real(rel: &str, check: &str) -> Vec<Finding> {
        let found = crate::workspace_fixture(rel).into_iter();
        let found: Vec<Finding> = found.filter(|f| f.check == check).collect();
        assert!(violations(&found).is_empty(), "{found:?}");
        found
    }

    #[test]
    fn real_quant_hot_loops_stay_audited() {
        // core::quant's row loops write through claims, not raw slices.
        let r = real("crates/core/src/quant.rs", "alias");
        assert!(!of_kind(&r, "claim route").is_empty(), "{r:?}");
        assert!(of_kind(&r, "raw write").is_empty(), "{r:?}");
    }

    #[test]
    fn real_decode_pipeline_scatter_stays_audited() {
        // The decoder's two writers — the scatter of code-blocks into the
        // inverse-DWT planes and the output pass into the image (DESIGN.md
        // §15) — take claims, so debug builds check them for overlap.
        let r = real("crates/core/src/decode.rs", "alias");
        assert!(of_kind(&r, "claim route `claim_rect`").len() >= 2, "{r:?}");
        assert!(of_kind(&r, "raw write").is_empty(), "{r:?}");
    }

    #[test]
    fn real_disjoint_layer_declares_contracts() {
        // The claim layer's Send/Sync impls keep their SAFETY contracts.
        let r = real("crates/parutil/src/disjoint.rs", "safety");
        assert!(r.iter().any(|f| f.what == "unsafe impl" && f.justified));
    }
}
