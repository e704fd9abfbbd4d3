//! `xtask size` — how much code the product is.
//!
//! The product is the `pj2k` binary: `pj2k-serve` and every crate its
//! `[dependencies]` reach (dev-dependencies are test edges and do not
//! count). For each of those crates this counts the lines a default build
//! compiles: the files reached by `mod` declarations from `src/lib.rs`,
//! `src/main.rs` and `src/bin/*.rs`, less every item gated by
//! `#[cfg(test)]` (the scanner's test marking) or by
//! `#[cfg(feature = "oracle")]`. A gated `mod` takes its whole file with
//! it. `lines` counts every remaining line; `code_lines` also leaves out
//! blank and comment-only lines, so deleting comments does not read as
//! less code.
//!
//! The report is `BENCH_code.json`, committed like the other trajectories.
//! `cargo xtask ci` recomputes it and fails when the committed file is
//! stale, so a change that adds product code or a product dependency shows
//! the new figures in its diff.

use crate::hotpath::{dep_map, reachable_crates};
use crate::scan::{self, classify, gated_items, ident_at, strip_visibility};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The committed report, relative to the workspace root.
pub const REPORT: &str = "BENCH_code.json";

/// The crate (directory under `crates/`) that builds the product binary.
const PRODUCT: &str = "serve";

/// The attribute that compiles an item only into oracle builds.
const ORACLE_GATE: &str = "#[cfg(feature = \"oracle\")]";

/// The size of one product crate.
#[derive(Debug, PartialEq)]
struct CrateSize {
    name: String,
    files: usize,
    lines: usize,
    code_lines: usize,
}

/// `cargo xtask size`: write the report at `root` and print it. Returns
/// the exit code.
pub fn run(root: &Path) -> i32 {
    let doc = match report(root) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("size: io error: {err}");
            return 1;
        }
    };
    if let Err(err) = std::fs::write(root.join(REPORT), &doc) {
        eprintln!("size: cannot write {REPORT}: {err}");
        return 1;
    }
    print!("{doc}");
    println!("size: wrote {REPORT}");
    0
}

/// Whether the committed report at `root` matches the tree.
pub fn check(root: &Path) -> Result<(), String> {
    let want = report(root).map_err(|e| format!("io error: {e}"))?;
    match std::fs::read_to_string(root.join(REPORT)) {
        Ok(have) if have == want => Ok(()),
        Ok(_) => Err(format!(
            "{REPORT} is stale; run `cargo xtask size` and commit it:\n{want}"
        )),
        Err(e) => Err(format!("cannot read {REPORT}: {e}")),
    }
}

/// The report of the workspace at `root`.
fn report(root: &Path) -> std::io::Result<String> {
    let manifests = crate::std_only::manifests(root)?;
    Ok(render(&measure(&scan::files(root)?, &manifests)))
}

/// The size of every product crate, by name, over the workspace `files`
/// and `manifests` (both workspace-relative paths with their text).
fn measure(files: &[(PathBuf, String)], manifests: &[(PathBuf, String)]) -> Vec<CrateSize> {
    let mut out: Vec<CrateSize> = reachable_crates(&dep_map(manifests), PRODUCT)
        .into_iter()
        .map(|krate| {
            let name = package_name(manifests, &krate).unwrap_or_else(|| krate.clone());
            crate_size(files, &Path::new("crates").join(krate).join("src"), name)
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The size of the crate whose sources are under `src`: every file the
/// crate roots reach through compiled `mod` declarations.
fn crate_size(files: &[(PathBuf, String)], src: &Path, name: String) -> CrateSize {
    let text_of = |path: &Path| files.iter().find(|(p, _)| p == path).map(|(_, t)| t);
    let bin = src.join("bin");
    // The library, the default binary and every `src/bin/*.rs` or
    // `src/bin/*/main.rs` binary.
    let mut queue: Vec<PathBuf> = files
        .iter()
        .map(|(p, _)| p.clone())
        .filter(|p| {
            *p == src.join("lib.rs")
                || *p == src.join("main.rs")
                || p.parent() == Some(&bin)
                || (p.ends_with("main.rs") && p.parent().and_then(Path::parent) == Some(&bin))
        })
        .collect();
    let mut size = CrateSize {
        name,
        files: 0,
        lines: 0,
        code_lines: 0,
    };
    let mut seen = BTreeSet::new();
    while let Some(path) = queue.pop() {
        let Some(text) = text_of(&path).filter(|_| seen.insert(path.clone())) else {
            continue;
        };
        let lines = classify(text);
        let raw: Vec<&str> = text.lines().collect();
        let oracle = |i: usize| {
            let code = &lines[i].code;
            let attr = code
                .find("#[cfg(")
                .filter(|_| raw[i].contains(ORACLE_GATE))?;
            Some(attr + code[attr..].find(']')? + 1)
        };
        let mut compiled: Vec<bool> = lines.iter().map(|l| !l.in_test).collect();
        for (start, end) in gated_items(&lines, oracle) {
            compiled[start..=end].fill(false);
        }
        size.files += 1;
        for (i, line) in lines.iter().enumerate().filter(|(i, _)| compiled[*i]) {
            size.lines += 1;
            // A line inside a multi-line string literal has neither code
            // text nor a comment, but is code.
            let blank = raw[i].trim().is_empty();
            if !line.code.trim().is_empty() || (line.comment.is_empty() && !blank) {
                size.code_lines += 1;
            }
            if let Some(module) = mod_declaration(&line.code) {
                queue.push(module_file(&path, module, |p| text_of(p).is_some()));
            }
        }
    }
    size
}

/// The `name = ".."` of the `[package]` in `crates/<krate>/Cargo.toml`.
fn package_name(manifests: &[(PathBuf, String)], krate: &str) -> Option<String> {
    let path = Path::new("crates").join(krate).join("Cargo.toml");
    let (_, text) = manifests.iter().find(|(p, _)| *p == path)?;
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("name ="))?;
    Some(line.split('"').nth(1)?.to_string())
}

/// The module name of an out-of-line `mod name;` declaration.
fn mod_declaration(code: &str) -> Option<&str> {
    let rest = strip_visibility(code.trim())
        .strip_prefix("mod ")?
        .trim_start();
    let name = ident_at(rest);
    let decl = !name.is_empty() && rest[name.len()..].trim_start().starts_with(';');
    decl.then_some(name)
}

/// The file of module `name` declared in `parent`: next to a crate root
/// or `mod.rs`, else in the directory named after `parent`; `name.rs`
/// unless only `name/mod.rs` exists.
fn module_file(parent: &Path, name: &str, exists: impl Fn(&Path) -> bool) -> PathBuf {
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let in_bin = parent.parent().is_some_and(|d| d.ends_with("src/bin"));
    let dir = if in_bin || ["lib", "main", "mod"].contains(&stem) {
        parent.with_file_name("")
    } else {
        parent.with_extension("")
    };
    let file = dir.join(format!("{name}.rs"));
    let nested = dir.join(name).join("mod.rs");
    if !exists(&file) && exists(&nested) {
        nested
    } else {
        file
    }
}

/// The JSON report: one row per product crate, then the totals.
fn render(sizes: &[CrateSize]) -> String {
    let mut doc = String::from("{\n  \"schema\": \"pj2k.bench_code.v1\",\n");
    doc.push_str(&format!(
        "  \"product\": \"pj2k-{PRODUCT}\",\n  \"crates\": [\n"
    ));
    let row = |name: &str, files: usize, lines: usize, code: usize| {
        format!(
            "{{ \"crate\": \"{name}\", \"files\": {files}, \"lines\": {lines}, \
             \"code_lines\": {code} }}"
        )
    };
    for (i, c) in sizes.iter().enumerate() {
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        let r = row(&c.name, c.files, c.lines, c.code_lines);
        doc.push_str(&format!("    {r}{sep}\n"));
    }
    let sum = |f: fn(&CrateSize) -> usize| sizes.iter().map(f).sum::<usize>();
    let total = row(
        "total",
        sum(|c| c.files),
        sum(|c| c.lines),
        sum(|c| c.code_lines),
    );
    doc.push_str(&format!("  ],\n  \"total\": {total}\n}}\n"));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(items: &[(&str, &str)]) -> Vec<(PathBuf, String)> {
        let own = |(p, t): &(&str, &str)| (PathBuf::from(p), t.to_string());
        items.iter().map(own).collect()
    }

    #[test]
    fn counts_what_the_default_build_compiles() {
        let manifests = fixture(&[
            (
                "crates/serve/Cargo.toml",
                "[package]\nname = \"pj2k-serve\"\n\n[dependencies]\npj2k-core.workspace = true\n\n\
                 [dev-dependencies]\npj2k-testkit.workspace = true\n",
            ),
            (
                "crates/core/Cargo.toml",
                "[package]\nname = \"pj2k-core\"\n\n[dependencies]\n",
            ),
            (
                "crates/testkit/Cargo.toml",
                "[package]\nname = \"pj2k-testkit\"\n",
            ),
        ]);
        let files = fixture(&[
            (
                "crates/serve/src/lib.rs",
                "//! A comment-only line.\n\
                 pub mod batch;\n\
                 #[cfg(feature = \"oracle\")]\n\
                 pub mod oracle;\n\
                 \n\
                 pub fn f() -> &'static str {\n    \"a\n    string\n    \"\n}\n\
                 #[cfg(feature = \"oracle\")]\n\
                 pub fn g() {\n    f();\n}\n\
                 #[cfg(test)]\n\
                 mod tests {\n    #[test]\n    fn t() {}\n}\n",
            ),
            ("crates/serve/src/batch.rs", "pub fn b() {}\n"),
            (
                "crates/serve/src/oracle.rs",
                "pub fn o() {}\npub fn p() {}\n",
            ),
            ("crates/serve/src/orphan.rs", "pub fn never_declared() {}\n"),
            ("crates/serve/src/bin/cli.rs", "fn main() {}\n"),
            ("crates/core/src/lib.rs", "pub mod a;\n"),
            ("crates/core/src/a/mod.rs", "mod b;\n"),
            ("crates/core/src/a/b.rs", "\n// only comment\nfn c() {}\n"),
            (
                "crates/testkit/src/lib.rs",
                "pub fn only_tests_reach_me() {}\n",
            ),
        ]);
        let sizes = measure(&files, &manifests);
        let want = |name: &str, files, lines, code_lines| CrateSize {
            name: name.to_string(),
            files,
            lines,
            code_lines,
        };
        // serve: lib.rs keeps the doc line, `pub mod batch;`, the blank
        // line and the five lines of `f` (the string's inner line is code);
        // batch.rs and cli.rs add one each. The oracle module, the oracle
        // fn, the test module and the undeclared file do not count, nor
        // does testkit, reached only through a dev-dependency.
        assert_eq!(
            sizes,
            [want("pj2k-core", 3, 5, 3), want("pj2k-serve", 3, 10, 8)]
        );
        let doc = render(&sizes);
        assert!(doc.contains(
            "\"total\": { \"crate\": \"total\", \"files\": 6, \"lines\": 15, \"code_lines\": 11 }"
        ));
        assert!(!doc.contains("testkit"));
    }

    #[test]
    fn module_files_follow_rustc() {
        let any = |_: &Path| true;
        let none = |_: &Path| false;
        let at = |p: &str, n: &str, e: &dyn Fn(&Path) -> bool| module_file(Path::new(p), n, e);
        assert_eq!(at("c/src/lib.rs", "x", &any), Path::new("c/src/x.rs"));
        assert_eq!(at("c/src/bin/t.rs", "x", &any), Path::new("c/src/bin/x.rs"));
        assert_eq!(at("c/src/foo.rs", "x", &any), Path::new("c/src/foo/x.rs"));
        let nested_only = |p: &Path| p.ends_with("mod.rs");
        assert_eq!(
            at("c/src/lib.rs", "x", &nested_only),
            Path::new("c/src/x/mod.rs")
        );
        assert_eq!(at("c/src/lib.rs", "x", &none), Path::new("c/src/x.rs"));
        assert_eq!(mod_declaration("pub(crate) mod packed;"), Some("packed"));
        assert_eq!(mod_declaration("mod tests {"), None);
        assert_eq!(mod_declaration("let module = 1;"), None);
    }
}
