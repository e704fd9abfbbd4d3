//! The `hot` query: hot-path discipline.
//!
//! The measured wins of this workspace live in a handful of inner loops:
//! the Tier-1 bit-plane passes, the MQ coder, the lifting kernels, the
//! dynamic-schedule claim loop, quantization. One stray `Vec::push` into a
//! fresh vector, a `format!`, or a mutex deep in a helper silently brings
//! back the memory traffic the optimizations removed; this query makes the
//! contract a CI gate.
//!
//! 1. **Roots** are declared in `hotpaths.toml` at the workspace root:
//!    each `[[root]]` names a crate + module file (and optionally one
//!    function) whose functions are hot entry points. An `[[exclude]]`
//!    table (same keys) takes a module out of the graph altogether — code
//!    that shares names with a hot module but is compiled out of the
//!    production build (a feature-gated test oracle).
//! 2. Over the `fn` items of every `crates/*/src/**.rs` file, the call
//!    tokens inside each body build an **approximate call graph** by name
//!    resolution: qualified calls (`Type::f`, `module::f`) filter
//!    candidates by impl type / module / crate, method calls prefer impl
//!    methods, bare calls prefer same-module then same-crate definitions,
//!    and anything still ambiguous links to every candidate — an
//!    over-approximation, the safe direction for a wall. Test code is
//!    excluded on both ends, and a call only resolves into the caller's
//!    crate or its (transitive) workspace `[dependencies]`.
//! 3. Every function in the transitive closure of the roots is scanned for
//!    **discipline sites**: heap allocation, locking, blocking I/O,
//!    per-call libm rounding (`.round()` and friends are function calls on
//!    the x86-64 SSE2 baseline), and panicking constructs.
//! 4. Each non-test site needs `// AUDIT(hot): <reason>` saying why it is
//!    setup-time, amortized or cold; a panic site may carry
//!    `// AUDIT(panic)` instead. A libm site needs its own, site-level
//!    `AUDIT(hot)`: a function-wide reason speaks for setup work only.
//!
//! The runtime cross-check lives in `crates/bench`: a counting global
//! allocator asserts zero steady-state allocations per coded block and per
//! DWT strip after warm-up, which proves the "amortized" and "setup-time"
//! justifications true.

use crate::scan::{
    find_word, ident_before, is_ident, skip_generics, Finding, Item, ItemKind, Kind, Source,
};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

/// One `[[root]]` or `[[exclude]]` table of `hotpaths.toml`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RootSpec {
    /// Package name (`pj2k-ebcot`) or bare crate dir name (`ebcot`).
    pub krate: String,
    /// Module file stem relative to `src/` (`bitplane`, `lib`, `raw`).
    pub module: String,
    /// Restrict the root to one function instead of the whole module.
    pub function: Option<String>,
    /// Why this is a hot entry point (documentation only).
    pub note: String,
    /// An `[[exclude]]`: the matching functions leave the call graph.
    pub exclude: bool,
}

/// Parse the `hotpaths.toml` subset: `[[root]]` / `[[exclude]]` tables
/// with string key/value assignments.
pub fn parse_roots(text: &str) -> Result<Vec<RootSpec>, String> {
    let mut roots: Vec<RootSpec> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let err = |what: &str| format!("hotpaths.toml:{}: {what}", ln + 1);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[root]]" || line == "[[exclude]]" {
            let exclude = line == "[[exclude]]";
            roots.push(RootSpec {
                exclude,
                ..RootSpec::default()
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = \"value\"`"))?;
        let root = roots
            .last_mut()
            .ok_or_else(|| err("assignment outside a [[root]]/[[exclude]] table"))?;
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| err("value must be a \"string\""))?
            .to_string();
        match key.trim() {
            "crate" => root.krate = value,
            "module" => root.module = value,
            "function" => root.function = Some(value),
            "note" => root.note = value,
            other => return Err(err(&format!("unknown key `{other}`"))),
        }
    }
    match roots
        .iter()
        .position(|r| r.krate.is_empty() || r.module.is_empty())
    {
        Some(i) => Err(format!("hotpaths.toml: root #{} lacks crate/module", i + 1)),
        None => Ok(roots),
    }
}

/// Site categories and their space-separated needles.
const SITES: [(&str, &str); 5] = [
    (
        "alloc",
        "Vec::new Vec::with_capacity vec! Box::new .to_vec() .to_owned() .to_string() \
         .collect() .collect:: String::new String::from String::with_capacity format! .push( \
         .push_str( .extend_from_slice( .extend( .resize( .reserve( .clone()",
    ),
    (
        "lock",
        "Mutex::new RwLock::new Condvar::new .lock() .wait( .wait_while( .notify_one() \
         .notify_all()",
    ),
    (
        "io",
        "File::open File::create read_to_string read_to_end println! eprintln! print! eprint! \
         stdout() stderr() stdin()",
    ),
    // Float rounding methods that compile to a libm call, not an
    // instruction, on the x86-64 baseline.
    ("libm", ".round() .floor() .ceil() .trunc()"),
    ("panic", crate::audit::PANIC_NEEDLES),
];

/// Crate dir name → the crate dir names it directly depends on.
pub type DepMap = HashMap<String, BTreeSet<String>>;

/// The `hot` query over the workspace at `root`: reads `hotpaths.toml`,
/// takes the crate graph from the workspace `manifests`. Returns the
/// report's notes.
pub fn hot_workspace(
    root: &Path,
    sources: &[Source],
    manifests: &[(PathBuf, String)],
    out: &mut Vec<Finding>,
) -> Vec<String> {
    let roots = std::fs::read_to_string(root.join("hotpaths.toml"))
        .map_err(|e| format!("cannot read hot-root declarations: {e}"))
        .and_then(|text| parse_roots(&text));
    match roots {
        Ok(roots) => hot(sources, &roots, &dep_map(manifests), out),
        Err(msg) => {
            out.push(Finding::fail(Path::new("hotpaths.toml"), 0, "hot", msg));
            Vec::new()
        }
    }
}

/// The crate graph of the workspace `manifests` (as
/// [`crate::std_only::manifests`] reads them), by `[dependencies]` edges
/// only.
pub fn dep_map(manifests: &[(PathBuf, String)]) -> DepMap {
    manifests
        .iter()
        .filter_map(|(rel, text)| {
            let krate = rel.strip_prefix("crates").ok()?.parent()?.to_str()?;
            Some((krate.to_string(), parse_manifest_deps(text)))
        })
        .collect()
}

/// `pj2k-*` entries in the `[dependencies]` section of a manifest (not
/// dev-dependencies: test-only edges are not hot edges), as crate dir
/// names.
fn parse_manifest_deps(manifest: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if let Some(rest) = line.strip_prefix("pj2k-").filter(|_| in_deps) {
            let dep = &rest[..rest
                .find(|c: char| !is_ident(c) && c != '-')
                .unwrap_or(rest.len())];
            if !dep.is_empty() {
                out.insert(dep.to_string());
            }
        }
    }
    out
}

/// Crates reachable from `krate` through the dependency graph, `krate`
/// included.
pub fn reachable_crates(deps: &DepMap, krate: &str) -> HashSet<String> {
    let mut seen = HashSet::from([krate.to_string()]);
    let mut queue = VecDeque::from([krate.to_string()]);
    while let Some(cur) = queue.pop_front() {
        for d in deps.get(&cur).into_iter().flatten() {
            if seen.insert(d.clone()) {
                queue.push_back(d.clone());
            }
        }
    }
    seen
}

/// One `fn` item of the graph.
struct FnDef<'a> {
    src: &'a Source,
    item: &'a Item,
    in_test: bool,
}

impl FnDef<'_> {
    fn label(&self) -> String {
        let (s, name) = (self.src, &self.item.name);
        match &self.item.impl_type {
            Some(t) => format!("{}::{}::{t}::{name}", s.krate, s.module),
            None => format!("{}::{}::{name}", s.krate, s.module),
        }
    }
}

/// One call token found inside a function body.
struct CallTok {
    name: String,
    /// Last path segment before `::name(`, when qualified.
    qualifier: Option<String>,
    /// `.name(` method-call syntax.
    method: bool,
}

/// The `hot` query: close the roots over the call graph, then inventory
/// the discipline sites of every hot function. Returns the report's notes.
pub fn hot(
    sources: &[Source],
    roots: &[RootSpec],
    deps: &DepMap,
    out: &mut Vec<Finding>,
) -> Vec<String> {
    let mut defs: Vec<FnDef> = sources
        .iter()
        .filter(|s| {
            s.path
                .starts_with(Path::new("crates").join(&s.krate).join("src"))
        })
        .flat_map(|src| {
            let fns = src.items.iter().filter(|it| it.kind == ItemKind::Fn);
            fns.map(move |item| FnDef {
                src,
                item,
                in_test: src.lines[item.sig].in_test,
            })
        })
        .collect();
    let matches = |spec: &RootSpec, d: &FnDef| {
        let krate = spec.krate.strip_prefix("pj2k-").unwrap_or(&spec.krate);
        d.src.krate == krate
            && d.src.module == spec.module
            && spec.function.as_ref().is_none_or(|f| *f == d.item.name)
    };
    let mut hot: Vec<usize> = Vec::new();
    let mut notes = vec!["hot roots:".to_string()];
    // Excluded modules leave the graph exactly as test code does: never a
    // root, never a call target, never scanned for sites.
    for spec in roots.iter().filter(|s| s.exclude) {
        let mut hit = false;
        for d in defs.iter_mut().filter(|d| matches(spec, d)) {
            d.in_test = true;
            hit = true;
        }
        if !hit {
            let what = format!(
                "exclude `{}::{}` matches no function in the workspace",
                spec.krate, spec.module
            );
            out.push(Finding::fail(Path::new("hotpaths.toml"), 0, "hot", what));
        }
    }
    for spec in roots.iter().filter(|s| !s.exclude) {
        let matched: Vec<usize> = (0..defs.len())
            .filter(|&i| !defs[i].in_test && matches(spec, &defs[i]))
            .collect();
        let f = spec
            .function
            .as_ref()
            .map(|f| format!("::{f}"))
            .unwrap_or_default();
        let label = format!("{}::{}{f}", spec.krate, spec.module);
        if matched.is_empty() {
            let what = format!("root `{label}` matches no function in the workspace");
            out.push(Finding::fail(Path::new("hotpaths.toml"), 0, "hot", what));
        }
        notes.push(format!("  {label}: {} root fn(s)", matched.len()));
        hot.extend(matched);
    }

    // BFS over the approximate call graph.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, d) in defs.iter().enumerate().filter(|(_, d)| !d.in_test) {
        by_name.entry(d.item.name.as_str()).or_default().push(i);
    }
    let mut seen: HashSet<usize> = HashSet::new();
    hot.retain(|&i| seen.insert(i));
    let mut queue: VecDeque<usize> = hot.iter().copied().collect();
    let mut reach_cache: HashMap<&str, HashSet<String>> = HashMap::new();
    let mut edges = 0usize;
    while let Some(id) = queue.pop_front() {
        let caller = &defs[id];
        let reach = reach_cache
            .entry(caller.src.krate.as_str())
            .or_insert_with(|| reachable_crates(deps, &caller.src.krate));
        let body = &caller.src.lines[caller.item.sig..=caller.item.end];
        for tok in body.iter().flat_map(|l| calls_on_line(&l.code)) {
            let cands: Vec<usize> = by_name
                .get(tok.name.as_str())
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| reach.contains(&defs[i].src.krate))
                .collect();
            for cand in resolve(&defs, cands, caller, &tok) {
                edges += 1;
                if seen.insert(cand) {
                    queue.push_back(cand);
                }
            }
        }
    }
    hot = seen.into_iter().collect();
    hot.sort();
    let indexed = defs.iter().filter(|d| !d.in_test).count();
    notes.push(format!(
        "hot closure: {} fns ({indexed} indexed workspace-wide), {edges} resolved edges",
        hot.len()
    ));

    // Discipline sites of every hot function.
    let mut found: Vec<Finding> = Vec::new();
    for def in hot.iter().map(|&i| &defs[i]) {
        let label = def.label();
        for idx in def.item.sig..=def.item.end {
            for (kind, needles) in SITES {
                for needle in needles
                    .split_whitespace()
                    .filter(|n| find_word(&def.src.lines[idx].code, n).is_some())
                {
                    let covered = |k| def.src.covered(idx, k, kind != "libm");
                    let ok = covered(Kind::Hot) || (kind == "panic" && covered(Kind::Panic));
                    let mut f = Finding::at(
                        def.src,
                        idx,
                        "hot",
                        format!("{kind} `{needle}` in {label}"),
                        ok,
                    );
                    f.in_test |= def.in_test;
                    found.push(f);
                }
            }
        }
    }
    found.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    let count = |k: &str| found.iter().filter(|f| f.what.starts_with(k)).count();
    let kinds: Vec<String> = SITES
        .iter()
        .map(|(k, _)| format!("{k} {}", count(k)))
        .collect();
    notes.push(format!("hot sites by kind: {}", kinds.join(", ")));
    out.extend(found);
    notes
}

/// Keywords that look like call tokens but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "unsafe", "move", "as", "in", "else",
    "impl", "let", "mut", "ref", "await", "where", "dyn", "pub", "use", "mod", "crate", "super",
    "self", "Self", "break", "continue", "true", "false", "static", "const", "enum", "struct",
    "trait", "type", "union",
];

/// Call tokens on a code line: `name(`, `path::name(`, `.name(`, with an
/// optional turbofish before the `(`.
fn calls_on_line(code: &str) -> Vec<CallTok> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let rest = &code[i..];
        let Some(c) = rest.chars().next() else { break };
        if !(c.is_ascii_alphabetic() || c == '_') {
            i += c.len_utf8();
            continue;
        }
        let start = i;
        i += rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &code[start..i];
        let after = code[i..]
            .strip_prefix("::")
            .map_or(&code[i..], skip_generics);
        // Uppercase-initial tokens are constructors or types, never
        // workspace fn names (all snake_case).
        if !after.starts_with('(')
            || KEYWORDS.contains(&name)
            || name.starts_with(char::is_uppercase)
        {
            continue;
        }
        let before = &code[..start];
        let qualifier = before
            .strip_suffix("::")
            .map(|q| ident_before(q, q.len()))
            .filter(|q| !q.is_empty());
        out.push(CallTok {
            name: name.to_string(),
            qualifier: qualifier.map(str::to_string),
            method: before.ends_with('.'),
        });
    }
    out
}

/// Narrow the same-name, reachable candidates of a call token from
/// `caller` to the definitions it most plausibly means.
fn resolve(defs: &[FnDef], cands: Vec<usize>, caller: &FnDef, tok: &CallTok) -> Vec<usize> {
    let prefer = |keep: &dyn Fn(&FnDef) -> bool| -> Option<Vec<usize>> {
        let some: Vec<usize> = cands.iter().copied().filter(|&i| keep(&defs[i])).collect();
        (!some.is_empty()).then_some(some)
    };
    let (ck, cm) = (&caller.src.krate, &caller.src.module);
    let narrowed = if let Some(q) = &tok.qualifier {
        // `self::f()` / `Self::f()` mean the caller's module / impl type.
        prefer(&|d| {
            let (dk, dm, dt) = (&d.src.krate, &d.src.module, d.item.impl_type.as_deref());
            dt == Some(q.as_str())
                || dm == q
                || dm.ends_with(&format!("/{q}"))
                || format!("pj2k_{}", dk.replace('-', "_")) == q.replace('-', "_")
                || (q == "self" && dm == cm && dk == ck)
                || (q == "Self" && dt == caller.item.impl_type.as_deref())
        })
    } else if tok.method {
        prefer(&|d| d.item.impl_type.is_some())
    } else {
        // Bare call: same module first, then same crate.
        prefer(&|d| d.src.krate == *ck && d.src.module == *cm)
            .or_else(|| prefer(&|d| d.src.krate == *ck))
    };
    narrowed.unwrap_or(cands)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(krate: &str, module: &str) -> RootSpec {
        RootSpec {
            krate: krate.to_string(),
            module: module.to_string(),
            ..RootSpec::default()
        }
    }

    fn only(krate: &str, module: &str, function: &str) -> RootSpec {
        RootSpec {
            function: Some(function.to_string()),
            ..root(krate, module)
        }
    }

    /// The findings and notes of the hot query over in-memory files, with
    /// the dependency map ebcot → mq.
    fn run(files: &[(&str, &str)], roots: &[RootSpec]) -> (Vec<Finding>, String) {
        let sources: Vec<Source> = files
            .iter()
            .map(|(p, s)| Source::new(&PathBuf::from(p), s))
            .collect();
        let deps = DepMap::from([("ebcot".to_string(), BTreeSet::from(["mq".to_string()]))]);
        let mut out = Vec::new();
        let notes = hot(&sources, roots, &deps, &mut out);
        let text = crate::scan::render(&out, &notes, false);
        (out, text)
    }

    fn violations(found: &[Finding]) -> Vec<&Finding> {
        found.iter().filter(|f| f.is_violation()).collect()
    }

    const PUSH: (&str, &str) = (
        "crates/ebcot/src/hotmod.rs",
        "pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1);\n}\n",
    );

    #[test]
    fn parse_roots_reads_tables() {
        let text = "# comment\n[[root]]\ncrate = \"pj2k-ebcot\"\nmodule = \"bitplane\"\n\
                    note = \"passes\"\n\n[[root]]\ncrate = \"pj2k-mq\"\nmodule = \"lib\"\n\
                    function = \"encode\"\nnote = \"mq\"\n";
        let roots = parse_roots(text).unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(
            (roots[0].krate.as_str(), roots[0].module.as_str()),
            ("pj2k-ebcot", "bitplane")
        );
        assert_eq!(roots[1].function.as_deref(), Some("encode"));
    }

    #[test]
    fn excluded_module_leaves_the_call_graph() {
        // `decode` in the hot module calls `helper`, which only exists in
        // the oracle module; the exclude table keeps its unjustified
        // allocation out of the wall.
        let files = [
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn decode() {\n    helper();\n}\n",
            ),
            (
                "crates/ebcot/src/oracle.rs",
                "pub fn helper() {\n    let v: Vec<u8> = Vec::new();\n}\n",
            ),
        ];
        let hot = root("pj2k-ebcot", "hotmod");
        assert_eq!(
            violations(&run(&files, std::slice::from_ref(&hot)).0).len(),
            1
        );
        let text = "[[root]]\ncrate = \"pj2k-ebcot\"\nmodule = \"hotmod\"\n\
                    [[exclude]]\ncrate = \"pj2k-ebcot\"\nmodule = \"oracle\"\nnote = \"n\"\n";
        let specs = parse_roots(text).unwrap();
        assert!(!specs[0].exclude && specs[1].exclude);
        let (r, notes) = run(&files, &specs);
        assert!(violations(&r).is_empty(), "{r:?}");
        assert!(
            notes.contains("hotmod: 1 root fn(s)") && !notes.contains("oracle:"),
            "{notes}"
        );
        // An exclude that matches nothing is a stale declaration.
        let stale = RootSpec {
            exclude: true,
            ..root("pj2k-ebcot", "gone")
        };
        let (r, _) = run(&files, &[hot, stale]);
        assert!(r.iter().any(|f| f.what.contains("exclude")));
    }

    #[test]
    fn parse_roots_rejects_malformed() {
        assert!(parse_roots("crate = \"x\"\n").is_err());
        assert!(parse_roots("[[root]]\ncrate = unquoted\n").is_err());
        assert!(parse_roots("[[root]]\nnote = \"incomplete\"\n").is_err());
        assert!(parse_roots("[[root]]\ncrate = \"c\"\nmodule = \"m\"\nbogus = \"v\"\n").is_err());
    }

    #[test]
    fn hot_loop_push_without_audit_fails() {
        // The seeded violation fixture: a root fn pushing into a Vec with
        // no justification must fail the audit.
        let (r, _) = run(&[PUSH], &[root("pj2k-ebcot", "hotmod")]);
        let v = violations(&r);
        assert!(
            r.len() == 1 && v.len() == 1 && v[0].what.contains(".push("),
            "{r:?}"
        );
    }

    #[test]
    fn justified_site_passes() {
        let src = "pub fn hot_entry(out: &mut Vec<u8>) {\n    \
                   // AUDIT(hot): amortized — capacity reserved at setup.\n    out.push(1);\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert!(r.len() == 1 && r[0].justified, "{r:?}");
    }

    #[test]
    fn fn_level_audit_hot_covers_body() {
        let src = "// AUDIT(hot): all growth amortized; oracle holds 0/block.\n\
                   pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1);\n    out.extend_from_slice(&[2]);\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert!(r.len() == 2 && r.iter().all(|s| s.justified), "{r:?}");
        // Above an impl, it covers every method.
        let src = "pub struct C;\n// AUDIT(hot): setup only.\nimpl C {\n    pub fn hot_entry(v: &mut Vec<u8>) {\n        v.push(1);\n    }\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert!(r.len() == 1 && r[0].justified, "{r:?}");
    }

    #[test]
    fn cold_fn_outside_closure_is_not_flagged() {
        // `cold_helper` is never called from `hot_entry`, so its allocation
        // is a site only when the whole module is a root.
        let files = [(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(x: u32) -> u32 {\n    x + 1\n}\n\
             pub fn cold_helper() -> Vec<u8> {\n    Vec::new()\n}\n",
        )];
        assert!(run(&files, &[only("pj2k-ebcot", "hotmod", "hot_entry")])
            .0
            .is_empty());
        assert_eq!(run(&files, &[root("pj2k-ebcot", "hotmod")]).0.len(), 1);
    }

    #[test]
    fn transitive_callee_is_flagged_across_files() {
        let files = [
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn hot_entry(out: &mut Vec<u8>) {\n    helper(out);\n}\n",
            ),
            (
                "crates/mq/src/helpers.rs",
                "pub fn helper(out: &mut Vec<u8>) {\n    out.push(9);\n}\n",
            ),
        ];
        let (r, notes) = run(&files, &[only("pj2k-ebcot", "hotmod", "hot_entry")]);
        let v = violations(&r);
        assert!(
            v.len() == 1 && v[0].path.to_string_lossy().contains("mq"),
            "{r:?}"
        );
        assert!(notes.contains("hot closure: 2 fns"), "{notes}");
    }

    #[test]
    fn method_call_resolves_to_impl_fn() {
        let files = [
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn hot_entry(c: &mut Coder) {\n    c.emit();\n}\n",
            ),
            (
                "crates/mq/src/coder.rs",
                "pub struct Coder;\nimpl Coder {\n    pub fn emit(&mut self) {\n        \
                 let v: Vec<u8> = Vec::new();\n        drop(v);\n    }\n}\n",
            ),
        ];
        let (r, _) = run(&files, &[only("pj2k-ebcot", "hotmod", "hot_entry")]);
        let v = violations(&r);
        assert!(
            v.len() == 1 && v[0].what.contains("`Vec::new` in mq::coder::Coder::emit"),
            "{v:?}"
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1); // AUDIT(hot): amortized.\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {\n        let mut v = Vec::new();\n        \
                   v.push(1);\n        super::hot_entry(&mut v);\n    }\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert!(violations(&r).is_empty(), "{r:?}");
    }

    #[test]
    fn panic_site_accepts_plain_audit() {
        // A hot-closure panic site accepts `AUDIT(panic)` as well as
        // `AUDIT(hot)`.
        let src = "pub fn hot_entry(v: &[u8]) -> u8 {\n    \
                   // AUDIT(panic): length checked by caller.\n    *v.last().unwrap()\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert!(
            r.len() == 1 && r[0].justified && r[0].what.starts_with("panic"),
            "{r:?}"
        );
    }

    #[test]
    fn alloc_site_does_not_accept_plain_audit() {
        let src = "pub fn hot_entry(out: &mut Vec<u8>) {\n    \
                   // AUDIT(panic): fine really.\n    out.push(1);\n}\n";
        let (r, _) = run(
            &[("crates/ebcot/src/hotmod.rs", src)],
            &[root("pj2k-ebcot", "hotmod")],
        );
        assert_eq!(violations(&r).len(), 1, "{r:?}");
    }

    #[test]
    fn lock_and_io_sites_flagged() {
        let src = "pub fn hot_entry() {\n    let m = Mutex::new(0u32);\n    \
                   let g = m.lock();\n    println!(\"{:?}\", g);\n}\n";
        let (r, _) = run(
            &[("crates/parutil/src/hotmod.rs", src)],
            &[root("pj2k-parutil", "hotmod")],
        );
        assert!(r.iter().any(|f| f.what.starts_with("lock")), "{r:?}");
        assert!(r.iter().any(|f| f.what.starts_with("io")), "{r:?}");
        assert_eq!(violations(&r).len(), 3, "{r:?}");
    }

    #[test]
    fn libm_rounding_in_a_hot_loop_fails() {
        // The seeded violation fixture for the libm needles: a per-sample
        // `.round()` with no justification fails; every needle is caught;
        // an AUDIT(hot) reason clears it; an integer cast is not a site.
        for call in [".round()", ".floor()", ".ceil()", ".trunc()"] {
            let body = format!(
                "pub fn hot_entry(s: &[f32], d: &mut [i32]) {{\n    \
                 for (d, v) in d.iter_mut().zip(s) {{\n        *d = v{call} as i32;\n    }}\n}}\n"
            );
            let (r, _) = run(
                &[("crates/mq/src/lib.rs", &body)],
                &[root("pj2k-mq", "lib")],
            );
            let v = violations(&r);
            assert!(
                v.len() == 1 && v[0].what.starts_with(&format!("libm `{call}`")),
                "{r:?}"
            );
        }
        let src = "pub fn hot_entry(v: f32) -> i32 {\n    \
                   // AUDIT(hot): once per image, not per sample.\n    v.round() as i32\n}\n\
                   pub fn cast(v: f32) -> i32 {\n    v as i32\n}\n";
        let (r, text) = run(&[("crates/mq/src/lib.rs", src)], &[root("pj2k-mq", "lib")]);
        assert!(r.len() == 1 && violations(&r).is_empty(), "{r:?}");
        assert!(text.contains("libm 1"), "{text}");
        // A function-wide AUDIT(hot) covers allocations, not a libm call.
        let src = "// AUDIT(hot): buffers are set up once per tile.\n\
                   pub fn hot_entry(v: f32) -> Vec<i32> {\n    vec![v.floor() as i32]\n}\n";
        let (r, _) = run(&[("crates/mq/src/lib.rs", src)], &[root("pj2k-mq", "lib")]);
        let v = violations(&r);
        assert!(v.len() == 1 && v[0].what.contains(".floor()"), "{r:?}");
    }

    #[test]
    fn unmatched_root_is_a_violation() {
        let (r, _) = run(
            &[("crates/mq/src/lib.rs", "pub fn f() {}\n")],
            &[root("pj2k-ebcot", "nothere")],
        );
        assert!(
            r.len() == 1 && r[0].what.contains("matches no function"),
            "{r:?}"
        );
    }

    #[test]
    fn needle_in_string_is_not_a_site() {
        let src = "pub fn f() -> &'static str {\n    \"call Vec::new or .push( here\"\n}\n";
        assert!(
            run(&[("crates/mq/src/lib.rs", src)], &[root("pj2k-mq", "lib")])
                .0
                .is_empty()
        );
    }

    #[test]
    fn debug_assert_is_not_a_panic_site() {
        let src = "pub fn f(x: u8) {\n    debug_assert!(x < 4);\n}\n";
        assert!(
            run(&[("crates/mq/src/lib.rs", src)], &[root("pj2k-mq", "lib")])
                .0
                .is_empty()
        );
    }

    #[test]
    fn qualified_call_filters_by_module() {
        // Two `helper` fns; the qualified call resolves only to the named
        // module, so the other crate's helper stays cold.
        let files = [
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn hot_entry() {\n    near::helper();\n}\n",
            ),
            (
                "crates/ebcot/src/near.rs",
                "pub fn helper() {\n    let _x = 0u32;\n}\n",
            ),
            (
                "crates/mq/src/far.rs",
                "pub fn helper() {\n    let v: Vec<u8> = Vec::new();\n    drop(v);\n}\n",
            ),
        ];
        let (r, notes) = run(&files, &[only("pj2k-ebcot", "hotmod", "hot_entry")]);
        assert!(r.is_empty(), "{r:?}");
        assert!(notes.contains("hot closure: 2 fns"), "{notes}");
    }

    #[test]
    fn render_mentions_roots_and_counts() {
        let (_, text) = run(&[PUSH], &[root("pj2k-ebcot", "hotmod")]);
        assert!(text.contains("pj2k-ebcot::hotmod: 1 root fn(s)"), "{text}");
        assert!(
            text.contains("== hot: 1 sites in 1 files, 1 violations"),
            "{text}"
        );
        assert!(text.contains("alloc 1"), "{text}");
    }
}
