//! The `panic` query: panic sites need `// AUDIT(panic): <reason>`.
//!
//! The decoder consumes untrusted bytes (DESIGN.md §9): every way it could
//! panic is a potential denial-of-service. Two scopes, each with its own
//! needle set:
//!
//! * the **decoder-reachable scope** ([`SCOPED_DIRS`], [`SCOPED_FILES`]):
//!   panicking calls (`unwrap`/`expect`/`panic!`/`unreachable!`/asserts),
//!   slice/array indexing expressions, and scoped
//!   `#[allow(clippy::...)]` escapes from the no-panic lint wall. Each file
//!   (or its crate root) must also declare the wall,
//!   `#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]`,
//!   so unchecked arithmetic and unguarded indexing are compile errors
//!   unless explicitly allowed — and every such `allow` is itself a site.
//!   Test sites are inventoried but exempt.
//! * the **codec crates** ([`CODEC_CRATES`]) outside that scope: `.unwrap()`,
//!   `.expect(` and `panic!` in non-test code — codec paths propagate
//!   errors, they do not abort mid-tile.

use crate::scan::{find_word, is_ident, Finding, Kind, Source};

/// Everything untrusted bytes flow through, plus encoder hot loops dense
/// enough in index/shift arithmetic that they carry the same wall.
/// Directories mean "every `.rs` file directly inside".
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
    // Encoder DWT kernels: the Tier-1 engine's index/arithmetic density.
    "crates/dwt/src/lift.rs",
    "crates/dwt/src/fused.rs",
    "crates/dwt/src/vertical.rs",
    "crates/dwt/src/simd.rs",
];

/// Crates whose non-test code is a codec path.
const CODEC_CRATES: &[&str] = &["mq", "ebcot", "dwt", "tier2"];

/// The lint wall every scoped file must live behind.
const DENY_ARITH: &str = "clippy::arithmetic_side_effects";
const DENY_INDEX: &str = "clippy::indexing_slicing";

/// Panicking calls. `debug_assert!` (compiled out in release builds) does
/// not match `assert!`; the codec crates' rule uses the first three
/// ([`CODEC_NEEDLES`]).
pub const PANIC_NEEDLES: &str =
    ".unwrap() .expect( panic! unreachable! todo! unimplemented! assert! assert_eq! assert_ne!";
const CODEC_NEEDLES: usize = 3;

/// Whether `src` is in the decoder-reachable scope.
fn scoped(src: &Source) -> bool {
    let p = src.path.to_string_lossy().replace('\\', "/");
    SCOPED_FILES.contains(&p.as_str())
        || p.rsplit_once('/')
            .is_some_and(|(dir, _)| SCOPED_DIRS.contains(&dir))
}

/// Whether `src` declares the no-panic lint wall.
pub fn declares_deny(src: &Source) -> bool {
    src.lines.iter().any(|l| {
        let c = l.code.trim();
        c.starts_with("#![deny(") && c.contains(DENY_ARITH) && c.contains(DENY_INDEX)
    })
}

/// The `panic` query over one file; `crate_root_deny` says whether the
/// crate root declares the lint wall for it.
pub fn panic(src: &Source, crate_root_deny: bool, out: &mut Vec<Finding>) {
    let scoped = scoped(src);
    let needles = if scoped {
        usize::MAX
    } else if CODEC_CRATES.contains(&src.krate.as_str()) && !src.test_file {
        CODEC_NEEDLES
    } else {
        return;
    };
    if scoped && !crate_root_deny && !declares_deny(src) {
        let what = format!(
            "scoped file lacks `#![deny({DENY_ARITH}, {DENY_INDEX})]` (here or in the crate root)"
        );
        out.push(Finding::fail(&src.path, 0, "panic", what));
    }
    for (idx, line) in src.lines.iter().enumerate() {
        if !scoped && src.in_test(idx) {
            continue;
        }
        let code = &line.code;
        let mut sites: Vec<String> = PANIC_NEEDLES
            .split_whitespace()
            .take(needles)
            .filter(|n| find_word(code, n).is_some())
            .map(|n| format!("panic call `{n}`"))
            .collect();
        if scoped {
            sites.extend(indexing_sites(code).map(|s| format!("indexing `{s}`")));
            if code.contains("allow(") && (code.contains(DENY_ARITH) || code.contains(DENY_INDEX)) {
                sites.push("allow attr `#[allow(clippy::..)]`".into());
            }
        }
        for what in sites {
            let justified = src.covered(idx, Kind::Panic, true);
            out.push(Finding::at(src, idx, "panic", what, justified));
        }
    }
}

/// Bracket-indexing expressions on a code line: a `[` directly preceded by
/// an identifier character, `)` or `]` indexes or slices a place
/// expression (attribute `#[..]`, macro `vec![..]`, array type `[u8; 4]`
/// and slice pattern `&[a, b]` all fail the predecessor test). Yields a
/// short context snippet per hit.
fn indexing_sites(code: &str) -> impl Iterator<Item = String> + '_ {
    let chars: Vec<char> = code.chars().collect();
    (1..chars.len())
        .filter(move |&i| {
            let prev = chars[i - 1];
            chars[i] == '[' && (is_ident(prev) || matches!(prev, ')' | ']'))
        })
        .map(move |i| {
            code.chars()
                .skip(i.saturating_sub(12))
                .take(i.min(12) + 8)
                .collect()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const DENY: &str = "#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]\n";

    /// The panic findings of `src` in `tier2`, a scoped crate whose root
    /// does not declare the wall.
    fn audit_str(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        panic(
            &Source::new(Path::new("crates/tier2/src/x.rs"), src),
            false,
            &mut out,
        );
        out
    }

    fn violations(found: &[Finding]) -> Vec<&Finding> {
        found.iter().filter(|f| f.is_violation()).collect()
    }

    fn of_kind<'a>(found: &'a [Finding], kind: &str) -> Vec<&'a Finding> {
        found.iter().filter(|f| f.what.starts_with(kind)).collect()
    }

    #[test]
    fn missing_deny_is_flagged() {
        let r = audit_str("fn f() {}\n");
        assert_eq!(violations(&r).len(), 1);
        assert!(r[0].what.contains("deny"));
    }

    #[test]
    fn crate_root_deny_satisfies_file() {
        let mut r = Vec::new();
        panic(
            &Source::new(Path::new("crates/mq/src/raw.rs"), "fn f() {}\n"),
            true,
            &mut r,
        );
        assert!(r.is_empty());
    }

    #[test]
    fn unaudited_unwrap_is_flagged() {
        let r = audit_str(&format!("{DENY}fn f() {{ x.unwrap(); }}\n"));
        let v = violations(&r);
        assert!(
            v.len() == 1 && v[0].what.contains(".unwrap()") && v[0].line == 2,
            "{v:?}"
        );
    }

    #[test]
    fn audit_comment_above_covers_site() {
        let src =
            format!("{DENY}fn f() {{\n    // AUDIT(panic): length checked two lines up.\n    x.unwrap();\n}}\n");
        let r = audit_str(&src);
        assert!(r.len() == 1 && r[0].justified, "{r:?}");
    }

    #[test]
    fn audit_comment_same_line_covers_site() {
        let r = audit_str(&format!(
            "{DENY}fn f() {{ x.unwrap(); // AUDIT(panic): cannot fail\n}}\n"
        ));
        assert!(violations(&r).is_empty(), "{r:?}");
    }

    #[test]
    fn audit_fn_covers_whole_body() {
        let src = format!(
            "{DENY}// AUDIT(panic): encoder side, no untrusted input.\n\
             #[allow(clippy::indexing_slicing)]\n\
             fn encode(v: &[u8]) {{\n    let a = v[0];\n    let b = v[1].max(2);\n}}\n"
        );
        let r = audit_str(&src);
        // allow attr + two indexing sites, all audited
        assert!(r.len() == 3 && r.iter().all(|s| s.justified), "{r:?}");
    }

    #[test]
    fn audit_fn_does_not_leak_past_body() {
        let src = format!(
            "{DENY}// AUDIT(panic): covered.\nfn a(v: &[u8]) {{\n    let x = v[0];\n}}\n\
             fn b(v: &[u8]) {{\n    let y = v[1];\n}}\n"
        );
        let r = audit_str(&src);
        let v = violations(&r);
        assert!(v.len() == 1 && v[0].line == 7, "{v:?}");
    }

    #[test]
    fn statement_annotation_does_not_reach_the_next_block() {
        // Above a statement, an annotation covers that statement only, not
        // the braced statement after it.
        let src = format!(
            "{DENY}fn f(v: &[u8], b: u8, c: u8, d: bool, i: usize) {{\n    \
             // AUDIT(panic): b > c\n    let a = b - c;\n    if d {{\n        \
             let x = v[i];\n    }}\n}}\n"
        );
        let v: Vec<usize> = violations(&audit_str(&src))
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(v, [6]);
    }

    #[test]
    fn braceless_cfg_test_item_exempts_nothing_after_it() {
        let src =
            format!("{DENY}#[cfg(test)]\nmod tests_file;\nfn real() {{\n    x.unwrap();\n}}\n");
        let v: Vec<usize> = violations(&audit_str(&src))
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(v, [5]);
    }

    #[test]
    fn indexing_heuristic_skips_non_indexing_brackets() {
        let src = format!(
            "{DENY}fn f(v: &[u8; 4]) -> Vec<u8> {{\n    #[cfg(feature = \"x\")]\n    let a: [u8; 2] = [1, 2];\n    vec![0u8; 3]\n}}\n"
        );
        let r = audit_str(&src);
        assert!(of_kind(&r, "indexing").is_empty(), "{r:?}");
    }

    #[test]
    fn indexing_heuristic_catches_place_expressions() {
        let r = audit_str(&format!(
            "{DENY}fn f(v: &[u8], i: usize) {{\n    let a = v[i];\n}}\n"
        ));
        assert_eq!(of_kind(&r, "indexing").len(), 1);
        assert_eq!(violations(&r).len(), 1);
    }

    #[test]
    fn debug_assert_is_not_a_site() {
        let r = audit_str(&format!("{DENY}fn f(x: u8) {{ debug_assert!(x < 2); }}\n"));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn assert_is_a_site() {
        let r = audit_str(&format!("{DENY}fn f(x: u8) {{ assert!(x < 2); }}\n"));
        assert_eq!((r.len(), violations(&r).len()), (1, 1));
    }

    #[test]
    fn test_code_is_exempt_but_inventoried() {
        let src = format!(
            "{DENY}#[cfg(test)]\n#[allow(clippy::indexing_slicing)]\nmod tests {{\n    fn t(v: &[u8]) {{ let a = v[0]; v.last().unwrap(); }}\n}}\n"
        );
        let r = audit_str(&src);
        assert!(r.len() == 3 && r.iter().all(|s| s.in_test), "{r:?}");
    }

    #[test]
    fn scoped_allow_needs_audit() {
        let src = format!(
            "{DENY}#[allow(clippy::arithmetic_side_effects)]\nfn f(a: u32, b: u32) -> u32 {{ a + b }}\n"
        );
        let r = audit_str(&src);
        let v = violations(&r);
        assert!(v.len() == 1 && v[0].what.contains("allow"), "{v:?}");
    }

    #[test]
    fn expect_named_method_is_not_a_site() {
        let r = audit_str(&format!(
            "{DENY}fn f(r: &mut R) -> Result<(), E> {{ r.expect_marker(SOC)?; Ok(()) }}\n"
        ));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn needle_in_string_is_not_a_site() {
        let r = audit_str(&format!(
            "{DENY}fn f() {{ let s = \"call .unwrap() or panic!\"; }}\n"
        ));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn render_mentions_counts() {
        let r = audit_str(&format!("{DENY}fn f() {{ x.unwrap(); }}\n"));
        let text = crate::scan::render(&r, &[], false);
        assert!(
            text.contains("== panic: 1 sites in 1 files, 1 violations"),
            "{text}"
        );
        assert!(text.contains("UNJUSTIFIED"), "{text}");
    }
}
