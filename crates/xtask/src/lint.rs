//! The `safety` and `thread` queries: the workspace's concurrency rules
//! (DESIGN.md, "Concurrency safety model").
//!
//! * **safety** — every `unsafe` block, `unsafe fn`, `unsafe impl` or
//!   `unsafe trait` outside test code needs a `// SAFETY:` comment (or a
//!   `# Safety` doc section) on its line or in the block directly above.
//!   `unsafe fn` and `unsafe impl` need it inside test code too: they
//!   declare contracts (caller obligations, Send/Sync invariants) that hold
//!   just as hard when a test harness relies on them, and an undocumented
//!   test-only Send impl races for real.
//! * **thread** — no raw `thread::spawn` / `thread::scope` /
//!   `thread::Builder` outside parutil's one fork (`parutil::exec`) and
//!   test code: all parallelism flows through the pool/exec API so
//!   schedules stay observable, disjointness stays checkable, and a change
//!   of threading model stays a change to one function.
//!   `// AUDIT(thread): <reason>` justifies an exception.

use crate::scan::{find_word, ident_at, Finding, Kind, Source};

/// The only file allowed to create OS threads: the home of parutil's `fork`.
const FORK_FILE: &str = "crates/parutil/src/exec.rs";
const THREAD_NEEDLES: &[&str] = &["thread::spawn(", "thread::scope(", "thread::Builder"];

/// The `safety` query over one file.
pub fn safety(src: &Source, out: &mut Vec<Finding>) {
    for (idx, line) in src.lines.iter().enumerate() {
        for kind in unsafe_kinds(&line.code) {
            let justified = src.covered(idx, Kind::Safety, false);
            let mut f = Finding::at(src, idx, "safety", kind.to_string(), justified);
            // Unsafe *blocks* (and trait declarations) in test code are
            // exempt; `unsafe fn` and `unsafe impl` declare contracts.
            f.in_test &= matches!(kind, "unsafe block" | "unsafe trait");
            out.push(f);
        }
    }
}

/// The `thread` query over one file.
pub fn thread(src: &Source, out: &mut Vec<Finding>) {
    let fork = src.path.to_string_lossy().replace('\\', "/") == FORK_FILE;
    for (idx, line) in src.lines.iter().enumerate() {
        for needle in THREAD_NEEDLES {
            if !src.in_test(idx) && find_word(&line.code, needle).is_some() {
                let (what, ok) = if fork {
                    (format!("parutil's fork `{needle}`"), true)
                } else {
                    let what = "outside parutil's fork (use pool_map/pool_run/Exec)";
                    (
                        format!("raw `{needle}` {what}"),
                        src.covered(idx, Kind::Thread, true),
                    )
                };
                out.push(Finding::at(src, idx, "thread", what, ok));
            }
        }
    }
}

/// The unsafe sites a code line starts: `unsafe fn f()` is one site,
/// `unsafe { a }; unsafe { b }` two.
fn unsafe_kinds(code: &str) -> Vec<&'static str> {
    let mut kinds = Vec::new();
    let mut rest = code;
    while let Some(pos) = find_word(rest, "unsafe") {
        rest = &rest[pos + "unsafe".len()..];
        kinds.push(match ident_at(rest.trim_start()) {
            "fn" => "unsafe fn",
            "impl" => "unsafe impl",
            "trait" => "unsafe trait",
            _ => "unsafe block",
        });
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    /// The checks of the violations `src` yields at `path`.
    fn fired(path: &str, src: &str) -> Vec<&'static str> {
        let found = fixture(path, src);
        found
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| f.check)
            .collect()
    }

    fn lines(path: &str, src: &str) -> Vec<usize> {
        let found = fixture(path, src);
        found
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| f.line)
            .collect()
    }

    fn safety_sites(path: &str, src: &str) -> Vec<Finding> {
        fixture(path, src)
            .into_iter()
            .filter(|f| f.check == "safety")
            .collect()
    }

    #[test]
    fn unjustified_unsafe_block_is_flagged() {
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n";
        assert_eq!(fired("crates/dwt/src/x.rs", src), ["safety"]);
        assert_eq!(lines("crates/dwt/src/x.rs", src), [2]);
    }

    #[test]
    fn safety_comment_above_satisfies_rule() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: p is valid and exclusive.\n    unsafe { *p = 1 };\n}\n";
        assert!(fired("crates/dwt/src/x.rs", src).is_empty());
        let sites = safety_sites("crates/dwt/src/x.rs", src);
        assert!(sites.len() == 1 && sites[0].justified, "{sites:?}");
    }

    #[test]
    fn safety_doc_section_satisfies_unsafe_fn() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller must own `i`.\n#[inline]\npub unsafe fn poke(i: usize) {}\n";
        assert!(fired("crates/parutil/src/x.rs", src).is_empty());
    }

    #[test]
    fn grouped_unsafe_impls_share_justification() {
        let src = "// SAFETY: disjointness is the caller's obligation.\nunsafe impl<T: Send> Send for P<T> {}\nunsafe impl<T: Send> Sync for P<T> {}\n";
        assert!(fired("crates/parutil/src/x.rs", src).is_empty());
        assert_eq!(safety_sites("crates/parutil/src/x.rs", src).len(), 2);
    }

    #[test]
    fn safety_comment_does_not_leak_across_code() {
        let src = "// SAFETY: only covers the first block.\nlet a = unsafe { f() };\nlet b = 1;\nlet c = unsafe { g() };\n";
        assert_eq!(fired("crates/dwt/src/x.rs", src), ["safety"]);
        assert_eq!(lines("crates/dwt/src/x.rs", src), [4]);
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        assert_eq!(
            fired("crates/mq/src/x.rs", "fn f() { x.unwrap(); }\n"),
            ["panic"]
        );
    }

    #[test]
    fn expect_and_panic_in_hot_path_are_flagged() {
        let src = "fn f() { x.expect(\"boom\"); panic!(\"no\"); }\n";
        assert_eq!(fired("crates/tier2/src/x.rs", src), ["panic", "panic"]);
    }

    #[test]
    fn unwrap_outside_hot_path_is_fine() {
        assert!(fired("crates/image/src/x.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(fired("crates/mq/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_file_is_fine() {
        assert!(fired("crates/mq/tests/t.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn unwrap_in_string_is_not_flagged() {
        let src = "fn f() { let s = \"call .unwrap() later\"; }\n";
        assert!(fired("crates/mq/src/x.rs", src).is_empty());
    }

    #[test]
    fn expect_named_method_is_not_flagged() {
        let src = "fn f(r: &mut R) -> Result<(), E> { r.expect_marker(SOC)?; Ok(()) }\n";
        assert!(fired("crates/tier2/src/x.rs", src).is_empty());
        assert!(fixture("crates/tier2/src/x.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_outside_parutil_is_flagged() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(fired("crates/core/src/x.rs", src), ["thread"]);
        let src = "fn f() {\n    // AUDIT(thread): a watchdog outside the pool.\n    std::thread::spawn(|| {});\n}\n";
        assert!(fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn thread_scope_and_builder_are_flagged() {
        let src = "fn f() { thread::scope(|s| {}); thread::Builder::new(); }\n";
        assert_eq!(fired("crates/dwt/src/x.rs", src), ["thread", "thread"]);
    }

    #[test]
    fn thread_spawn_inside_parutil_is_fine() {
        // ... in the module that holds parutil's one fork.
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(fired("crates/parutil/src/exec.rs", src).is_empty());
    }

    #[test]
    fn thread_scope_elsewhere_in_parutil_is_flagged() {
        let src = "fn f() {\n    std::thread::scope(|s| {});\n}\n";
        assert_eq!(fired("crates/parutil/src/pool.rs", src), ["thread"]);
        assert_eq!(lines("crates/parutil/src/pool.rs", src), [2]);
        // Test code in parutil may still spawn.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|s| {}); }\n}\n";
        assert!(fired("crates/parutil/src/pool.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_above_wrapped_statement_works() {
        // rustfmt may break `let x = unsafe { ... }` after the `=`; the
        // SAFETY comment above the statement head must still count.
        let src = "// SAFETY: disjoint rows.\nlet row =\n    unsafe { ptr.slice_mut(0, w) };\n";
        assert!(fired("crates/dwt/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_works() {
        let src = "fn f() { x.unwrap(); // AUDIT(panic): length checked above\n}\n";
        assert!(fired("crates/mq/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_on_line_above_works() {
        let src = "// AUDIT(panic): table index is clamped to 46\nlet q = TABLE[i].unwrap();\n";
        assert!(fired("crates/mq/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_wrapped_reason_works() {
        // The reason continues onto a second comment line; the annotation
        // still covers the statement below the block.
        let src = "// AUDIT(panic): table index is clamped\n// to 46 by the state machine.\nlet q = TABLE[i].unwrap();\n";
        assert!(fired("crates/mq/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_does_not_leak_past_code() {
        // An annotation above an *intervening statement* covers only that
        // statement, not later ones.
        let src = "// AUDIT(panic): covered\nlet a = x.unwrap();\nlet b = y.unwrap();\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["panic"]);
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        // A reason-less annotation is a finding and justifies nothing.
        let src = "fn f() { x.unwrap(); // AUDIT(panic)\n}\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["annotation", "panic"]);
        let src = "fn f() { x.unwrap(); // AUDIT(panic):\n}\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["annotation", "panic"]);
    }

    #[test]
    fn suppression_of_unknown_rule_is_flagged() {
        let src = "fn f() { x.unwrap(); // AUDIT(no_such_rule): because\n}\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["annotation", "panic"]);
        // The retired spellings are unknown kinds now.
        let src = "// AUDIT(fn): old spelling.\nfn f() { x.unwrap(); }\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["annotation", "panic"]);
    }

    #[test]
    fn prose_mentioning_audit_justifies_nothing() {
        let src =
            "fn f() {\n    // The AUDIT(panic) rule below: AUDIT: not one.\n    x.unwrap();\n}\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["panic"]);
    }

    #[test]
    fn suppression_only_covers_its_rule() {
        let src = "fn f(p: *mut u8) { unsafe { *p = 1 }; x.unwrap(); // AUDIT(panic): checked\n}\n";
        assert_eq!(fired("crates/mq/src/x.rs", src), ["safety"]);
    }

    #[test]
    fn inventory_counts_test_sites_without_flagging() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) { unsafe { *p = 1 }; }\n}\n";
        assert!(fired("crates/dwt/src/x.rs", src).is_empty());
        let sites = safety_sites("crates/dwt/src/x.rs", src);
        assert!(sites.len() == 1 && sites[0].in_test, "{sites:?}");
    }

    #[test]
    fn unsafe_impl_in_test_code_needs_safety() {
        // A Send/Sync impl in a test harness still transfers real data
        // across real threads — the contract must be written down.
        let src =
            "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    unsafe impl Send for W {}\n}\n";
        for path in ["crates/parutil/src/x.rs", "crates/dwt/src/x.rs"] {
            assert_eq!(fired(path, src), ["safety"]);
            assert_eq!(lines(path, src), [4]);
        }
    }

    #[test]
    fn unsafe_fn_in_test_file_needs_safety() {
        let src = "unsafe fn poke(p: *mut u8) { unsafe { *p = 1 } }\n";
        assert_eq!(fired("crates/parutil/tests/t.rs", src), ["safety"]);
    }

    #[test]
    fn justified_unsafe_impl_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    struct W(*mut u8);\n    \
                   // SAFETY: each test thread gets a disjoint pointer.\n    \
                   unsafe impl Send for W {}\n}\n";
        assert!(fired("crates/parutil/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_block_in_test_code_stays_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) { unsafe { *p = 1 }; }\n}\n";
        assert!(fired("crates/parutil/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_kind_classification() {
        assert_eq!(unsafe_kinds("pub unsafe fn f()"), ["unsafe fn"]);
        assert_eq!(unsafe_kinds("unsafe impl Send for X {}"), ["unsafe impl"]);
        assert_eq!(unsafe_kinds("unsafe trait T {}"), ["unsafe trait"]);
        assert_eq!(unsafe_kinds("let x = unsafe { f() };"), ["unsafe block"]);
        assert!(unsafe_kinds("unsafe_op_in_unsafe_fn").is_empty());
        assert_eq!(unsafe_kinds("unsafe { a }; unsafe { b };").len(), 2);
    }

    /// Violations of `checks` in a workspace file.
    fn real(rel: &str, checks: &[&str]) -> Vec<Finding> {
        let found = crate::workspace_fixture(rel).into_iter();
        found
            .filter(|f| f.is_violation() && checks.contains(&f.check))
            .collect()
    }

    #[test]
    fn fused_kernels_stay_panic_free() {
        // Regression guard for the fused lifting hot loops: any unjustified
        // unwrap/expect/panic! in the single-pass kernels fails the audit.
        let bad = real("crates/dwt/src/fused.rs", &["panic"]);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn simd_kernels_stay_panic_free_and_justified() {
        // Every intrinsics `unsafe` block/fn carries a SAFETY comment and no
        // unjustified panic creeps into the vector hot loops.
        let bad = real("crates/dwt/src/simd.rs", &["panic", "safety"]);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn inventory_render_mentions_counts() {
        let found = fixture(
            "crates/dwt/src/x.rs",
            "// SAFETY: fine.\nunsafe fn f() {}\n",
        );
        let text = crate::scan::render(&found, &[], false);
        assert!(
            text.contains("== safety: 1 sites in 1 files, 0 violations"),
            "{text}"
        );
        assert!(text.contains("unsafe fn"), "{text}");
    }
}
