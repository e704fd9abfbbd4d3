//! `xtask size` — how much code the product is, and how much supports it.
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
//! less code. `oracle_lines` counts the non-test lines the `oracle` gate
//! takes out, gated files included, so moving code behind the gate reads
//! as a move and not as a deletion.
//!
//! Every other crate under `crates/` is support code (the task runner, the
//! benchmark harness, the simulators, the comparators, the test kit, the
//! example and test umbrella) and gets a second table, counted the same
//! way.
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

/// The size of one crate.
#[derive(Debug, PartialEq)]
struct CrateSize {
    name: String,
    files: usize,
    lines: usize,
    code_lines: usize,
    oracle_lines: usize,
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
    let files = scan::files_in(root, &["crates"], "target")?;
    let (product, support) = measure(&files, &manifests);
    Ok(render(&product, &support))
}

/// The size of every product crate and of every support crate, each
/// sorted by name, over the workspace `files` and `manifests` (both
/// workspace-relative paths with their text).
fn measure(
    files: &[(PathBuf, String)],
    manifests: &[(PathBuf, String)],
) -> (Vec<CrateSize>, Vec<CrateSize>) {
    let deps = dep_map(manifests);
    let product = reachable_crates(&deps, PRODUCT);
    let size = |krate: &String| {
        let name = package_name(manifests, krate).unwrap_or_else(|| krate.clone());
        crate_size(files, &Path::new("crates").join(krate).join("src"), name)
    };
    let table = |in_product: bool| {
        let mut rows: Vec<CrateSize> = deps
            .keys()
            .filter(|k| product.contains(*k) == in_product)
            .map(size)
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    };
    (table(true), table(false))
}

/// The size of the crate whose sources are under `src`: every file the
/// crate roots reach through compiled `mod` declarations, and apart from
/// them, in `oracle_lines`, what `oracle`-gated items and modules add.
fn crate_size(files: &[(PathBuf, String)], src: &Path, name: String) -> CrateSize {
    let text_of = |path: &Path| files.iter().find(|(p, _)| p == path).map(|(_, t)| t);
    let bin = src.join("bin");
    // The library, the default binary and every `src/bin/*.rs` or
    // `src/bin/*/main.rs` binary, each paired with whether only oracle
    // builds compile it (which a declaring `mod` line decides).
    let mut queue: Vec<(PathBuf, bool)> = files
        .iter()
        .map(|(p, _)| p.clone())
        .filter(|p| {
            *p == src.join("lib.rs")
                || *p == src.join("main.rs")
                || p.parent() == Some(&bin)
                || (p.ends_with("main.rs") && p.parent().and_then(Path::parent) == Some(&bin))
        })
        .map(|p| (p, false))
        .collect();
    let mut size = CrateSize {
        name,
        files: 0,
        lines: 0,
        code_lines: 0,
        oracle_lines: 0,
    };
    let mut seen = BTreeSet::new();
    while let Some((path, oracle_only)) = queue.pop() {
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
        let mut gated = vec![oracle_only; lines.len()];
        for (start, end) in gated_items(&lines, oracle) {
            gated[start..=end].fill(true);
        }
        if !oracle_only {
            size.files += 1;
        }
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            if let Some(module) = mod_declaration(&line.code) {
                let file = module_file(&path, module, |p| text_of(p).is_some());
                queue.push((file, gated[i]));
            }
            if gated[i] {
                size.oracle_lines += 1;
                continue;
            }
            size.lines += 1;
            // A line inside a multi-line string literal has neither code
            // text nor a comment, but is code.
            let blank = raw[i].trim().is_empty();
            if !line.code.trim().is_empty() || (line.comment.is_empty() && !blank) {
                size.code_lines += 1;
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

/// The JSON report: one row per product crate and their total, then one
/// row per support crate and theirs.
fn render(product: &[CrateSize], support: &[CrateSize]) -> String {
    let mut doc = String::from("{\n  \"schema\": \"pj2k.bench_code.v2\",\n");
    doc.push_str(&format!("  \"product\": \"pj2k-{PRODUCT}\",\n"));
    table(&mut doc, "crates", "total", product);
    doc.push_str(",\n");
    table(&mut doc, "support", "support_total", support);
    doc.push_str("\n}\n");
    doc
}

/// Append the rows of `sizes` as the array `key`, then their sum as the
/// object `total_key`.
fn table(doc: &mut String, key: &str, total_key: &str, sizes: &[CrateSize]) {
    let row = |c: &CrateSize| {
        format!(
            "{{ \"crate\": \"{}\", \"files\": {}, \"lines\": {}, \"code_lines\": {}, \
             \"oracle_lines\": {} }}",
            c.name, c.files, c.lines, c.code_lines, c.oracle_lines
        )
    };
    doc.push_str(&format!("  \"{key}\": [\n"));
    for (i, c) in sizes.iter().enumerate() {
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        doc.push_str(&format!("    {}{sep}\n", row(c)));
    }
    let sum = |f: fn(&CrateSize) -> usize| sizes.iter().map(f).sum::<usize>();
    let total = CrateSize {
        name: "total".to_string(),
        files: sum(|c| c.files),
        lines: sum(|c| c.lines),
        code_lines: sum(|c| c.code_lines),
        oracle_lines: sum(|c| c.oracle_lines),
    };
    doc.push_str(&format!("  ],\n  \"{total_key}\": {}", row(&total)));
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
        let (product, support) = measure(&files, &manifests);
        let want = |name: &str, files, lines, code_lines, oracle_lines| CrateSize {
            name: name.to_string(),
            files,
            lines,
            code_lines,
            oracle_lines,
        };
        // serve: lib.rs keeps the doc line, `pub mod batch;`, the blank
        // line and the five lines of `f` (the string's inner line is code);
        // batch.rs and cli.rs add one each. The oracle module (2 lines of
        // declaration, 2 of file) and the oracle fn (4) count as oracle
        // lines; the test module and the undeclared file count nowhere.
        // testkit, reached only through a dev-dependency, is support.
        assert_eq!(
            product,
            [
                want("pj2k-core", 3, 5, 3, 0),
                want("pj2k-serve", 3, 10, 8, 8)
            ]
        );
        assert_eq!(support, [want("pj2k-testkit", 1, 1, 1, 0)]);
        let doc = render(&product, &support);
        assert!(doc.contains(
            "\"total\": { \"crate\": \"total\", \"files\": 6, \"lines\": 15, \
             \"code_lines\": 11, \"oracle_lines\": 8 }"
        ));
        assert!(doc.contains(
            "\"support_total\": { \"crate\": \"total\", \"files\": 1, \"lines\": 1, \
             \"code_lines\": 1, \"oracle_lines\": 0 }"
        ));
    }

    #[test]
    fn oracle_lines_follow_the_gate() {
        // The gate on an enum variant and on a match arm takes exactly
        // that element; a gated module takes its file and the modules it
        // declares, less their tests.
        let manifests = fixture(&[(
            "crates/serve/Cargo.toml",
            "[package]\nname = \"pj2k-serve\"\n",
        )]);
        let files = fixture(&[
            (
                "crates/serve/src/lib.rs",
                "#[cfg(feature = \"oracle\")]\n\
                 mod walk;\n\
                 pub enum Mode {\n\
                 \x20   /// The baseline.\n\
                 \x20   #[cfg(feature = \"oracle\")]\n\
                 \x20   Naive,\n\
                 \x20   Strip { width: usize },\n\
                 }\n\
                 pub fn run(m: Mode) -> usize {\n\
                 \x20   match m {\n\
                 \x20       Mode::Strip { width } => width,\n\
                 \x20       #[cfg(feature = \"oracle\")]\n\
                 \x20       Mode::Naive => {\n\
                 \x20           walk::naive()\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n",
            ),
            (
                "crates/serve/src/walk.rs",
                "mod inner;\npub fn naive() -> usize {\n    inner::one()\n}\n\
                 #[cfg(test)]\nmod tests {}\n",
            ),
            (
                "crates/serve/src/walk/inner.rs",
                "pub fn one() -> usize {\n    1\n}\n",
            ),
        ]);
        let (product, support) = measure(&files, &manifests);
        // lib.rs: 17 lines, of which the module gate (2), the variant (2)
        // and the arm (4) are oracle-only; walk.rs adds 4 non-test lines
        // and inner.rs 3.
        assert_eq!(product.len(), 1);
        assert!(support.is_empty());
        let serve = &product[0];
        assert_eq!((serve.files, serve.lines, serve.code_lines), (1, 9, 8));
        assert_eq!(serve.oracle_lines, 8 + 4 + 3);
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
