//! `xtask audit-hotpath` — static hot-path discipline audit.
//!
//! The measured wins of this workspace live in a handful of inner loops:
//! the Tier-1 bit-plane passes, the MQ coder, the lifting kernels, the
//! dynamic-schedule claim loop, quantization. PRs 2–7 made those loops
//! allocation-free, lock-free and branch-lean (scratch arenas, packed flag
//! words, SIMD tiers) — but nothing *enforced* that discipline. One stray
//! `Vec::push` into a fresh vector, a `format!`, or a mutex deep in a
//! helper silently reintroduces the memory traffic the optimization PRs
//! removed. This pass makes the performance contract a CI gate.
//!
//! Mechanics (all dependency-free, built on [`crate::scan`]):
//!
//! 1. **Roots** are declared in a checked-in `hotpaths.toml` at the
//!    workspace root: each `[[root]]` names a crate + module file (and
//!    optionally a single function) whose functions are hot entry points.
//!    New subsystems opt in by adding a root. An `[[exclude]]` table
//!    (same keys) takes a module out of the graph altogether — for code
//!    that shares names with a hot module but is compiled out of the
//!    production build (a feature-gated test oracle).
//! 2. The pass parses every `crates/*/src/**.rs` file, extracts function
//!    definitions (name, body extent, enclosing `impl` type) and the call
//!    tokens inside each body, and builds an **approximate intra-workspace
//!    call graph** by name resolution: qualified calls (`Type::f`,
//!    `module::f`) filter candidates by impl type / module / crate, method
//!    calls prefer impl methods, bare calls prefer same-module then
//!    same-crate definitions, and anything still ambiguous links to every
//!    candidate — an over-approximation, which for a wall is the safe
//!    direction. Two guards keep the over-approximation honest: test code
//!    is excluded on both ends, and a call can only resolve into the
//!    caller's own crate or its (transitive) workspace dependencies, as
//!    parsed from the `crates/*/Cargo.toml` `[dependencies]` sections —
//!    same-name methods in crates the caller cannot even link against do
//!    not create edges.
//! 3. Every function in the transitive closure of the roots is scanned for
//!    **discipline sites**: heap allocation (`Vec::new`/`with_capacity`/
//!    `push`/`collect`, `Box::new`, `to_vec`, `clone`, `format!`/`String`),
//!    locking (`Mutex`/`RwLock`/`Condvar`/`lock`/`wait`/`notify`),
//!    blocking I/O (`File::*`, `read_to_*`, `println!` and friends),
//!    per-call libm rounding (`.round()`, `.floor()`, `.ceil()`, `.trunc()`
//!    on floats, each a function call on the x86-64 SSE2 baseline), and
//!    panicking constructs (the [`crate::audit`] needle set).
//! 4. Each non-test site must carry an `// AUDIT(hot): …` justification
//!    naming why it is setup-time, amortized (e.g. a push into a recycled
//!    buffer whose steady state the counting-allocator oracle pins at
//!    zero), or cold. The comment covers the site's line, the contiguous
//!    comment/attribute block above it, or — when placed in the comment
//!    block above a `fn` — the whole body. Panic sites already justified
//!    for [`crate::audit`] (`AUDIT:`/`AUDIT(fn)`/`AUDIT(block)`) are
//!    accepted as-is: reachability is that audit's contract, and a second
//!    marker would be noise.
//!
//! The runtime cross-check lives in `crates/bench`: a counting global
//! allocator asserts zero steady-state allocations per coded block and per
//! DWT strip after warm-up (`tests/alloc_oracle.rs`, plus the
//! `bench_tier1`/`bench_dwt` self-validation). The static wall keeps the
//! sites enumerable and justified; the dynamic floor proves the
//! justifications ("amortized", "setup-time") are actually true.

use crate::scan::{classify, Line};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

/// One hot-root declaration from `hotpaths.toml`.
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
    /// Declared as `[[exclude]]` instead of `[[root]]`: the matching
    /// functions leave the call graph (like test code, on both ends).
    pub exclude: bool,
}

/// Parse the `hotpaths.toml` subset: `[[root]]` / `[[exclude]]` tables
/// with string key/value assignments. A hand parser keeps xtask dependency-free; the
/// file's grammar is deliberately restricted to what this reads.
pub fn parse_roots(text: &str) -> Result<Vec<RootSpec>, String> {
    let mut roots: Vec<RootSpec> = Vec::new();
    let mut open = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[root]]" || line == "[[exclude]]" {
            roots.push(RootSpec {
                exclude: line == "[[exclude]]",
                ..RootSpec::default()
            });
            open = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "hotpaths.toml:{}: expected `key = \"value\"`",
                ln + 1
            ));
        };
        if !open {
            return Err(format!(
                "hotpaths.toml:{}: assignment outside a [[root]]/[[exclude]] table",
                ln + 1
            ));
        }
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("hotpaths.toml:{}: value must be a \"string\"", ln + 1))?;
        let root = roots.last_mut().expect("open implies a root");
        match key.trim() {
            "crate" => root.krate = value.to_string(),
            "module" => root.module = value.to_string(),
            "function" => root.function = Some(value.to_string()),
            "note" => root.note = value.to_string(),
            other => {
                return Err(format!("hotpaths.toml:{}: unknown key `{other}`", ln + 1));
            }
        }
    }
    for (i, r) in roots.iter().enumerate() {
        if r.krate.is_empty() || r.module.is_empty() {
            return Err(format!("hotpaths.toml: root #{} lacks crate/module", i + 1));
        }
    }
    Ok(roots)
}

/// Discipline-site category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotKind {
    /// Heap allocation or growth.
    Alloc,
    /// Lock or condition-variable traffic.
    Lock,
    /// Blocking or console I/O.
    Io,
    /// A libm rounding call (`roundf`, `floor`, ...) per evaluation.
    Libm,
    /// Panicking construct (shared needle set with `audit-panics`).
    Panic,
}

impl fmt::Display for HotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HotKind::Alloc => "alloc",
            HotKind::Lock => "lock",
            HotKind::Io => "io",
            HotKind::Libm => "libm",
            HotKind::Panic => "panic",
        })
    }
}

/// Allocation needles. `.`-prefixed needles match anywhere; identifier
/// needles match at word boundaries (so `my_format!` is not `format!`).
const ALLOC_NEEDLES: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "Box::new",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    ".collect()",
    ".collect::",
    "String::new",
    "String::from",
    "String::with_capacity",
    "format!",
    ".push(",
    ".push_str(",
    ".extend_from_slice(",
    ".extend(",
    ".resize(",
    ".reserve(",
    ".clone()",
];

const LOCK_NEEDLES: &[&str] = &[
    "Mutex::new",
    "RwLock::new",
    "Condvar::new",
    ".lock()",
    ".wait(",
    ".wait_while(",
    ".notify_one()",
    ".notify_all()",
];

const IO_NEEDLES: &[&str] = &[
    "File::open",
    "File::create",
    "read_to_string",
    "read_to_end",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "stdout()",
    "stderr()",
    "stdin()",
];

/// Float rounding methods that compile to a libm call, not an instruction,
/// on the x86-64 baseline: in a per-sample loop that call is most of the
/// cost. An integer cast (`as i32` truncates) usually does the same job.
const LIBM_NEEDLES: &[&str] = &[".round()", ".floor()", ".ceil()", ".trunc()"];

/// Same set as `audit-panics` (minus `debug_assert*`, which the word
/// boundary already excludes).
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

/// One function definition extracted from a source file.
#[derive(Debug, Clone)]
struct FnDef {
    /// Crate directory name under `crates/` (e.g. `ebcot`).
    krate: String,
    /// Module file stem relative to `src/` (e.g. `bitplane`, `lib`).
    module: String,
    name: String,
    /// Enclosing `impl` block's type name, when inside one.
    impl_type: Option<String>,
    /// Workspace-relative path.
    path: PathBuf,
    /// 0-based line index of the `fn` keyword.
    sig_idx: usize,
    /// 0-based inclusive body line range (covers the signature too).
    body: (usize, usize),
    in_test: bool,
}

/// One call token found inside a function body.
#[derive(Debug, Clone)]
struct CallTok {
    name: String,
    /// Last path segment before `::name(`, when qualified.
    qualifier: Option<String>,
    /// `.name(` method-call syntax.
    method: bool,
}

/// One inventoried discipline site.
#[derive(Debug, Clone)]
pub struct HotSite {
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub kind: HotKind,
    /// The matched needle.
    pub what: String,
    /// `crate::module::fn` the site lives in.
    pub in_fn: String,
    pub in_test: bool,
    pub justified: bool,
}

/// One audit failure.
#[derive(Debug, Clone)]
pub struct HotViolation {
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for HotViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.path.display(), self.line, self.message)
    }
}

/// Result of the hot-path audit.
#[derive(Debug, Default)]
pub struct HotpathReport {
    pub sites: Vec<HotSite>,
    pub violations: Vec<HotViolation>,
    pub files_scanned: usize,
    /// All function definitions indexed (non-test).
    pub fns_indexed: usize,
    /// Root spec label -> number of root functions it matched.
    pub roots: Vec<(String, usize)>,
    /// Functions in the transitive closure (roots included).
    pub closure: Vec<String>,
    /// Resolved call-graph edges inside the closure frontier.
    pub edges: usize,
}

impl HotpathReport {
    /// Render the inventory grouped by file, with per-category counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== hot-path inventory (transitive closure of hotpaths.toml roots) ==\n");
        out.push_str("roots:\n");
        for (label, n) in &self.roots {
            out.push_str(&format!("  {label}: {n} root fn(s)\n"));
        }
        out.push_str(&format!(
            "closure: {} hot fns ({} indexed workspace-wide), {} resolved edges\n",
            self.closure.len(),
            self.fns_indexed,
            self.edges
        ));
        let mut by_file: BTreeMap<String, Vec<&HotSite>> = BTreeMap::new();
        for site in &self.sites {
            by_file
                .entry(site.path.display().to_string())
                .or_default()
                .push(site);
        }
        for (file, sites) in &by_file {
            let justified = sites.iter().filter(|s| s.justified || s.in_test).count();
            out.push_str(&format!(
                "{file}: {} sites ({justified} justified)\n",
                sites.len()
            ));
            for s in sites {
                out.push_str(&format!(
                    "  {}:{} [{}] `{}` in {}{}\n",
                    s.path.display(),
                    s.line,
                    s.kind,
                    s.what,
                    s.in_fn,
                    if s.justified || s.in_test {
                        ""
                    } else {
                        " [NO AUDIT(hot)]"
                    }
                ));
            }
        }
        let (mut alloc, mut lock, mut io, mut libm, mut panic) = (0usize, 0, 0, 0, 0);
        for s in &self.sites {
            match s.kind {
                HotKind::Alloc => alloc += 1,
                HotKind::Lock => lock += 1,
                HotKind::Io => io += 1,
                HotKind::Libm => libm += 1,
                HotKind::Panic => panic += 1,
            }
        }
        let unjustified = self
            .sites
            .iter()
            .filter(|s| !s.in_test && !s.justified)
            .count();
        out.push_str(&format!(
            "total: {} sites (alloc {alloc}, lock {lock}, io {io}, libm {libm}, panic {panic}) \
             across {} files; \
             {unjustified} lack an AUDIT(hot) justification\n",
            self.sites.len(),
            self.files_scanned,
        ));
        out
    }
}

/// Audit the workspace rooted at `root`, reading `hotpaths.toml` from it.
pub fn audit_hotpath_workspace(root: &Path) -> std::io::Result<HotpathReport> {
    let toml_path = root.join("hotpaths.toml");
    let roots = match std::fs::read_to_string(&toml_path) {
        Ok(text) => match parse_roots(&text) {
            Ok(r) => r,
            Err(msg) => {
                let mut report = HotpathReport::default();
                report.violations.push(HotViolation {
                    path: PathBuf::from("hotpaths.toml"),
                    line: 0,
                    message: msg,
                });
                return Ok(report);
            }
        },
        Err(err) => {
            let mut report = HotpathReport::default();
            report.violations.push(HotViolation {
                path: PathBuf::from("hotpaths.toml"),
                line: 0,
                message: format!("cannot read hot-root declarations: {err}"),
            });
            return Ok(report);
        }
    };
    let mut files = Vec::new();
    collect_src_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        sources.push((rel, source));
    }
    let deps = workspace_deps(root)?;
    Ok(audit_sources(&sources, &roots, &deps))
}

/// Direct intra-workspace dependency edges, crate dir name → dep dir
/// names, parsed from each `crates/*/Cargo.toml` `[dependencies]` section
/// (dev-dependencies excluded: test-only edges are not hot edges).
pub fn workspace_deps(root: &Path) -> std::io::Result<DepMap> {
    let mut deps = DepMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&manifest)?;
        deps.insert(name, parse_manifest_deps(&text));
    }
    Ok(deps)
}

/// Crate dir name → the crate dir names it directly depends on.
pub type DepMap = HashMap<String, BTreeSet<String>>;

/// `pj2k-*` entries in the `[dependencies]` section of a manifest,
/// returned as crate dir names (prefix stripped).
fn parse_manifest_deps(manifest: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(rest) = line.strip_prefix("pj2k-") {
            let dep: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !dep.is_empty() {
                out.insert(dep);
            }
        }
    }
    out
}

/// Crates reachable from `krate` through the dependency graph, including
/// `krate` itself.
fn reachable_crates(deps: &DepMap, krate: &str) -> HashSet<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    seen.insert(krate.to_string());
    queue.push_back(krate.to_string());
    while let Some(cur) = queue.pop_front() {
        if let Some(direct) = deps.get(&cur) {
            for d in direct {
                if seen.insert(d.clone()) {
                    queue.push_back(d.clone());
                }
            }
        }
    }
    seen
}

/// Every `.rs` file under `crates/*/src`, excluding `crates/xtask` (the
/// audit tool itself: its needle tables would self-match).
fn collect_src_files(crates_dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(crates_dir)? {
        let krate = entry?.path();
        if !krate.is_dir() || krate.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs_recursive(&src, out)?;
        }
    }
    Ok(())
}

fn collect_rs_recursive(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_recursive(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crate dir name and module stem for a workspace-relative path like
/// `crates/ebcot/src/bitplane.rs` → (`ebcot`, `bitplane`). Files in
/// subdirectories keep the directory: `src/bin/bench_dwt.rs` → `bin/bench_dwt`.
fn crate_and_module(rel: &Path) -> (String, String) {
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let krate = comps.get(1).cloned().unwrap_or_default();
    let module = comps
        .get(3..)
        .map(|rest| rest.join("/"))
        .unwrap_or_default()
        .trim_end_matches(".rs")
        .to_string();
    (krate, module)
}

/// Audit a set of (workspace-relative path, source) pairs against roots.
/// Split out from [`audit_hotpath_workspace`] so fixture tests can feed
/// in-memory snippets.
pub fn audit_sources(
    sources: &[(PathBuf, String)],
    roots: &[RootSpec],
    deps: &DepMap,
) -> HotpathReport {
    let mut report = HotpathReport {
        files_scanned: sources.len(),
        ..Default::default()
    };

    // Pass 1: extract function definitions and classified lines per file.
    let mut defs: Vec<FnDef> = Vec::new();
    let mut calls: Vec<Vec<CallTok>> = Vec::new();
    let mut file_lines: Vec<Vec<Line>> = Vec::new();
    for (rel, source) in sources {
        let lines = classify(source);
        let (krate, module) = crate_and_module(rel);
        let start = defs.len();
        extract_fns(rel, &krate, &module, &lines, &mut defs);
        for def in &defs[start..] {
            calls.push(extract_calls(&lines, def));
        }
        file_lines.push(lines);
    }
    // Excluded modules leave the graph exactly as test code does: never a
    // root, never a call target, never scanned for sites.
    let matches = |spec: &RootSpec, d: &FnDef| {
        let krate_dir = spec
            .krate
            .strip_prefix("pj2k-")
            .unwrap_or(spec.krate.as_str());
        d.krate == krate_dir
            && d.module == spec.module
            && spec.function.as_ref().is_none_or(|f| *f == d.name)
    };
    for spec in roots.iter().filter(|s| s.exclude) {
        let mut hit = false;
        for d in defs.iter_mut().filter(|d| matches(spec, d)) {
            d.in_test = true;
            hit = true;
        }
        if !hit {
            report.violations.push(HotViolation {
                path: PathBuf::from("hotpaths.toml"),
                line: 0,
                message: format!(
                    "exclude `{}::{}` matches no function in the workspace",
                    spec.krate, spec.module
                ),
            });
        }
    }
    report.fns_indexed = defs.iter().filter(|d| !d.in_test).count();

    // Name index over non-test definitions.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        if !d.in_test {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
    }

    // Roots: every non-test fn matching a spec.
    let mut root_ids: Vec<usize> = Vec::new();
    for spec in roots.iter().filter(|s| !s.exclude) {
        let matched: Vec<usize> = defs
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.in_test && matches(spec, d))
            .map(|(i, _)| i)
            .collect();
        let label = format!(
            "{}::{}{}",
            spec.krate,
            spec.module,
            spec.function
                .as_ref()
                .map(|f| format!("::{f}"))
                .unwrap_or_default()
        );
        if matched.is_empty() {
            report.violations.push(HotViolation {
                path: PathBuf::from("hotpaths.toml"),
                line: 0,
                message: format!("root `{label}` matches no function in the workspace"),
            });
        }
        report.roots.push((label, matched.len()));
        root_ids.extend(matched);
    }

    // Pass 2: BFS over the approximate call graph.
    let mut hot: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for id in root_ids {
        if hot.insert(id) {
            queue.push_back(id);
        }
    }
    let mut edges = 0usize;
    let mut reach_cache: HashMap<String, HashSet<String>> = HashMap::new();
    while let Some(id) = queue.pop_front() {
        let caller_crate = defs[id].krate.clone();
        let reach = reach_cache
            .entry(caller_crate.clone())
            .or_insert_with(|| reachable_crates(deps, &caller_crate))
            .clone();
        for tok in &calls[id] {
            for cand in resolve(&defs, &by_name, &defs[id], tok, &reach) {
                edges += 1;
                if hot.insert(cand) {
                    queue.push_back(cand);
                }
            }
        }
    }
    report.edges = edges;
    let mut hot_sorted: Vec<usize> = hot.iter().copied().collect();
    hot_sorted.sort();
    report.closure = hot_sorted.iter().map(|&i| fn_label(&defs[i])).collect();

    // Pass 3: scan hot function bodies for discipline sites.
    let mut path_to_file: HashMap<&Path, usize> = HashMap::new();
    for (fi, (rel, _)) in sources.iter().enumerate() {
        path_to_file.insert(rel.as_path(), fi);
    }
    for &id in &hot_sorted {
        let def = &defs[id];
        let Some(&fi) = path_to_file.get(def.path.as_path()) else {
            continue;
        };
        scan_fn_sites(&file_lines[fi], def, &mut report);
    }
    report.sites.sort_by_key(|s| (s.path.clone(), s.line));
    report
}

fn fn_label(def: &FnDef) -> String {
    match &def.impl_type {
        Some(t) => format!("{}::{}::{}::{}", def.krate, def.module, t, def.name),
        None => format!("{}::{}::{}", def.krate, def.module, def.name),
    }
}

/// Keywords that look like call tokens but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "unsafe", "move", "as", "in", "else",
    "impl", "let", "mut", "ref", "await", "where", "dyn", "pub", "use", "mod", "crate", "super",
    "self", "Self", "break", "continue", "true", "false", "static", "const", "enum", "struct",
    "trait", "type", "union",
];

/// Extract function definitions (with body extents and impl context) from
/// a classified file.
fn extract_fns(rel: &Path, krate: &str, module: &str, lines: &[Line], out: &mut Vec<FnDef>) {
    // Impl regions: (type, body range).
    let impl_regions = impl_regions(lines);
    for (idx, line) in lines.iter().enumerate() {
        for name_pos in fn_def_positions(&line.code) {
            let (pos, name) = name_pos;
            let _ = pos;
            // Find the body's opening brace: first `{` at/after the
            // signature, unless a `;` (trait/extern declaration) comes
            // first.
            let Some((open_idx, open_col)) = find_body_open(lines, idx, &line.code, &name) else {
                continue;
            };
            let end = match_braces(lines, open_idx, open_col);
            let impl_type = impl_regions
                .iter()
                .filter(|(_, (s, e))| *s <= idx && idx <= *e)
                .map(|(t, _)| t.clone())
                .next_back();
            let in_test = lines[idx].in_test_item;
            out.push(FnDef {
                krate: krate.to_string(),
                module: module.to_string(),
                name,
                impl_type,
                path: rel.to_path_buf(),
                sig_idx: idx,
                body: (idx, end),
                in_test,
            });
        }
    }
}

/// Positions and names of `fn` *definitions* on a code line. Matches the
/// `fn` keyword at a word boundary followed by an identifier — which
/// excludes `Fn(`/`fn(`-pointer types (no identifier follows).
fn fn_def_positions(code: &str) -> Vec<(usize, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(rel) = code[start..].find("fn ") {
        let pos = start + rel;
        start = pos + 3;
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !before_ok {
            continue;
        }
        // Skip whitespace, collect identifier.
        let mut i = pos + 3;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let id_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i > id_start {
            out.push((pos, code[id_start..i].to_string()));
        }
    }
    out
}

/// From the signature line, find the opening brace of the body as
/// (line index, column), or `None` for a brace-less declaration
/// (trait method signature, extern fn).
fn find_body_open(
    lines: &[Line],
    sig_idx: usize,
    sig_code: &str,
    name: &str,
) -> Option<(usize, usize)> {
    // Start searching after the fn name on the signature line.
    let after = sig_code.find(name).map_or(0, |p| p + name.len());
    const SIG_SCAN: usize = 24;
    for (j, line) in lines
        .iter()
        .enumerate()
        .take(lines.len().min(sig_idx + SIG_SCAN))
        .skip(sig_idx)
    {
        let code = &line.code;
        let from = if j == sig_idx { after } else { 0 };
        for (col, ch) in code.char_indices().skip(from) {
            match ch {
                '{' => return Some((j, col)),
                ';' => return None,
                _ => {}
            }
        }
    }
    None
}

/// Match braces from an opening `{` at (line, column); returns the line
/// index of the closing brace (or the last line on malformed input).
fn match_braces(lines: &[Line], open_idx: usize, open_col: usize) -> usize {
    let mut depth: i64 = 0;
    for (j, line) in lines.iter().enumerate().skip(open_idx) {
        let from = if j == open_idx { open_col } else { 0 };
        for (col, ch) in line.code.char_indices() {
            if col < from {
                continue;
            }
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// `impl` block regions: (type name, inclusive line range).
fn impl_regions(lines: &[Line]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim_start();
        if !(code.starts_with("impl ") || code.starts_with("impl<")) {
            continue;
        }
        let Some(ty) = impl_type_name(code) else {
            continue;
        };
        // The impl body's opening brace.
        let Some((open_idx, open_col)) = find_impl_open(lines, idx) else {
            continue;
        };
        let end = match_braces(lines, open_idx, open_col);
        out.push((ty, (idx, end)));
    }
    out
}

fn find_impl_open(lines: &[Line], idx: usize) -> Option<(usize, usize)> {
    const SCAN: usize = 12;
    for (j, line) in lines
        .iter()
        .enumerate()
        .take(lines.len().min(idx + SCAN))
        .skip(idx)
    {
        if let Some(col) = line.code.find('{') {
            return Some((j, col));
        }
    }
    None
}

/// The implemented type's name from an `impl` header: the first identifier
/// after ` for ` when present (trait impls), else the first type identifier
/// after the generics.
fn impl_type_name(code: &str) -> Option<String> {
    let rest = if let Some(p) = code.find(" for ") {
        &code[p + 5..]
    } else {
        // Skip `impl` and an optional generic parameter list.
        let mut rest = code.strip_prefix("impl")?;
        if rest.starts_with('<') {
            let mut depth = 0usize;
            let mut cut = rest.len();
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            cut = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            rest = &rest[cut..];
        }
        rest
    };
    let ident: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace() || *c == '&')
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty() && ident.chars().next().is_some_and(char::is_alphabetic)).then_some(ident)
}

/// Call tokens inside a function body: `name(`, `path::name(`, `.name(`.
fn extract_calls(lines: &[Line], def: &FnDef) -> Vec<CallTok> {
    let mut out = Vec::new();
    for line in lines.iter().take(def.body.1 + 1).skip(def.body.0) {
        collect_calls_on_line(&line.code, &mut out);
    }
    out
}

fn collect_calls_on_line(code: &str, out: &mut Vec<CallTok>) {
    let bytes = code.as_bytes();
    let n = bytes.len();
    let mut i = 0usize;
    while i < n {
        if !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &code[start..i];
        // Optional turbofish between name and `(`.
        let mut j = i;
        if code[j..].starts_with("::<") {
            let mut depth = 0usize;
            let mut k = j + 2;
            for (off, c) in code[j + 2..].char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            k = j + 2 + off + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j = k;
        }
        if !code[j..].starts_with('(') {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Uppercase-initial tokens are tuple-struct/enum constructors or
        // types, never workspace fn names (all snake_case); skip to keep
        // resolution noise down.
        if name.chars().next().is_some_and(char::is_uppercase) {
            continue;
        }
        let before = &code[..start];
        let method = before.ends_with('.');
        let qualifier = if let Some(q) = before.strip_suffix("::") {
            let qid: String = q
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            (!qid.is_empty()).then_some(qid)
        } else {
            None
        };
        out.push(CallTok {
            name: name.to_string(),
            qualifier,
            method,
        });
    }
}

/// Resolve a call token from `caller` to candidate definition indices.
/// Candidates outside `reach` (the caller's dep-reachable crate set) are
/// discarded up front: the caller cannot link against them.
fn resolve(
    defs: &[FnDef],
    by_name: &HashMap<&str, Vec<usize>>,
    caller: &FnDef,
    tok: &CallTok,
    reach: &HashSet<String>,
) -> Vec<usize> {
    let Some(all) = by_name.get(tok.name.as_str()) else {
        return Vec::new();
    };
    let cands: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| reach.contains(&defs[i].krate))
        .collect();
    if cands.is_empty() {
        return cands;
    }
    let cands = &cands;
    if let Some(q) = &tok.qualifier {
        // `self::f()` / `Self::f()` mean the caller's module / impl type.
        let q_norm = q.replace('-', "_");
        let filtered: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let d = &defs[i];
                let crate_norm = format!("pj2k_{}", d.krate.replace('-', "_"));
                d.impl_type.as_deref() == Some(q.as_str())
                    || d.module == *q
                    || d.module.ends_with(&format!("/{q}"))
                    || crate_norm == q_norm
                    || (q == "self" && d.module == caller.module && d.krate == caller.krate)
                    || (q == "Self" && d.impl_type == caller.impl_type)
            })
            .collect();
        if !filtered.is_empty() {
            return filtered;
        }
        return cands.clone();
    }
    if tok.method {
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| defs[i].impl_type.is_some())
            .collect();
        if !methods.is_empty() {
            return methods;
        }
        return cands.clone();
    }
    // Bare call: same module first, then same crate, then anything.
    let same_module: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| defs[i].krate == caller.krate && defs[i].module == caller.module)
        .collect();
    if !same_module.is_empty() {
        return same_module;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| defs[i].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.clone()
}

/// Find `needle` in `code` at a word boundary (for identifier-initial
/// needles). Mirrors `audit-panics`' matcher.
fn find_needle(code: &str, needle: &str) -> bool {
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
            return true;
        }
        start = pos + needle.len();
    }
    false
}

/// How far above a site or signature the contiguous-block lookback
/// searches for its justification (matches `audit-panics`).
const LOOKBACK: usize = 24;

/// True when an `AUDIT(hot)` comment covers line `idx`: on the line or in
/// the contiguous comment/attribute/blank block directly above.
fn hot_justified(lines: &[Line], idx: usize) -> bool {
    if lines[idx].comment.contains("AUDIT(hot)") {
        return true;
    }
    let mut i = idx;
    let mut looked = 0;
    while i > 0 && looked < LOOKBACK {
        i -= 1;
        looked += 1;
        let l = &lines[i];
        if l.comment.contains("AUDIT(hot)") {
            return true;
        }
        let code = l.code.trim();
        let pass_through = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            || code.ends_with('=')
            || code.ends_with('(')
            || code.ends_with(',');
        if !pass_through {
            return false;
        }
    }
    false
}

/// True when any plain `AUDIT` comment covers line `idx` (same lookback).
/// Panic sites use this: their reachability contract belongs to
/// `audit-panics`, whose annotations we honor rather than duplicate.
fn any_audit_justified(lines: &[Line], idx: usize) -> bool {
    if lines[idx].comment.contains("AUDIT") {
        return true;
    }
    let mut i = idx;
    let mut looked = 0;
    while i > 0 && looked < LOOKBACK {
        i -= 1;
        looked += 1;
        let l = &lines[i];
        if l.comment.contains("AUDIT") {
            return true;
        }
        let code = l.code.trim();
        let pass_through = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            || code.ends_with('=')
            || code.ends_with('(')
            || code.ends_with(',');
        if !pass_through {
            return false;
        }
    }
    false
}

/// Per-line coverage by `AUDIT(fn)` / `AUDIT(block)` regions, for panic
/// sites (same mechanics as `audit-panics`).
fn audit_block_coverage(lines: &[Line]) -> Vec<bool> {
    let mut covered = vec![false; lines.len()];
    for idx in 0..lines.len() {
        let c = &lines[idx].comment;
        if !(c.contains("AUDIT(fn)") || c.contains("AUDIT(block)")) {
            continue;
        }
        let open = lines
            .iter()
            .enumerate()
            .take(lines.len().min(idx + LOOKBACK))
            .skip(idx)
            .find(|(_, l)| l.code.contains('{'))
            .map(|(j, _)| j);
        let Some(open) = open else { continue };
        let col = lines[open].code.find('{').unwrap_or(0);
        let end = match_braces(lines, open, col);
        for slot in covered.iter_mut().take(end + 1).skip(idx) {
            *slot = true;
        }
    }
    covered
}

/// Scan one hot function's body for discipline sites and record them.
fn scan_fn_sites(lines: &[Line], def: &FnDef, report: &mut HotpathReport) {
    // An AUDIT(hot) comment in the block above the signature covers the
    // whole body.
    let fn_covered = hot_justified(lines, def.sig_idx)
        && !lines[def.sig_idx].code.trim_start().starts_with("//");
    let block_cov = audit_block_coverage(lines);
    let label = fn_label(def);
    for idx in def.body.0..=def.body.1.min(lines.len().saturating_sub(1)) {
        let line = &lines[idx];
        let mut found: Vec<(HotKind, &str)> = Vec::new();
        for (kind, needles) in [
            (HotKind::Alloc, ALLOC_NEEDLES),
            (HotKind::Lock, LOCK_NEEDLES),
            (HotKind::Io, IO_NEEDLES),
            (HotKind::Libm, LIBM_NEEDLES),
            (HotKind::Panic, PANIC_NEEDLES),
        ] {
            for needle in needles {
                if find_needle(&line.code, needle) {
                    found.push((kind, needle));
                }
            }
        }
        if found.is_empty() {
            continue;
        }
        let in_test = def.in_test || line.in_test_item;
        for (kind, what) in found {
            // A function-wide reason speaks for its setup work; a libm call
            // needs its own, on the line or in the block above it.
            let justified = (fn_covered && kind != HotKind::Libm)
                || hot_justified(lines, idx)
                || (kind == HotKind::Panic
                    && (any_audit_justified(lines, idx)
                        || block_cov.get(idx).copied().unwrap_or(false)));
            report.sites.push(HotSite {
                path: def.path.clone(),
                line: line.number,
                kind,
                what: what.to_string(),
                in_fn: label.clone(),
                in_test,
                justified,
            });
            if !in_test && !justified {
                report.violations.push(HotViolation {
                    path: def.path.clone(),
                    line: line.number,
                    message: format!(
                        "hot-path {kind} site `{what}` in `{label}` without an \
                         `// AUDIT(hot):` justification (setup-time, amortized, or cold?)"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(files: &[(&str, &str)]) -> Vec<(PathBuf, String)> {
        files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
            .collect()
    }

    fn root(krate: &str, module: &str) -> RootSpec {
        RootSpec {
            krate: krate.to_string(),
            module: module.to_string(),
            function: None,
            note: String::new(),
            exclude: false,
        }
    }

    /// Dep map for fixtures: ebcot → mq, everything else a leaf.
    fn fixture_deps() -> DepMap {
        let mut deps = DepMap::new();
        deps.insert("ebcot".to_string(), ["mq".to_string()].into());
        deps
    }

    fn run(files: &[(PathBuf, String)], roots: &[RootSpec]) -> HotpathReport {
        audit_sources(files, roots, &fixture_deps())
    }

    #[test]
    fn parse_roots_reads_tables() {
        let text = "# comment\n[[root]]\ncrate = \"pj2k-ebcot\"\nmodule = \"bitplane\"\n\
                    note = \"passes\"\n\n[[root]]\ncrate = \"pj2k-mq\"\nmodule = \"lib\"\n\
                    function = \"encode\"\nnote = \"mq\"\n";
        let roots = parse_roots(text).unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].krate, "pj2k-ebcot");
        assert_eq!(roots[0].module, "bitplane");
        assert_eq!(roots[1].function.as_deref(), Some("encode"));
    }

    #[test]
    fn excluded_module_leaves_the_call_graph() {
        // `decode` in the hot module calls `pass`; a same-named `pass` in an
        // oracle module would be linked too (ambiguous bare call resolves
        // same-module first, but `helper` only exists in the oracle) — the
        // exclude table keeps its unjustified allocation out of the wall.
        let files = src(&[
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn decode() {\n    helper();\n}\n",
            ),
            (
                "crates/ebcot/src/oracle.rs",
                "pub fn helper() {\n    let v: Vec<u8> = Vec::new();\n}\n",
            ),
        ]);
        let hot = root("pj2k-ebcot", "hotmod");
        let r = run(&files, std::slice::from_ref(&hot));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        let text = "[[root]]\ncrate = \"pj2k-ebcot\"\nmodule = \"hotmod\"\n\
                    [[exclude]]\ncrate = \"pj2k-ebcot\"\nmodule = \"oracle\"\nnote = \"n\"\n";
        let specs = parse_roots(text).unwrap();
        assert!(!specs[0].exclude && specs[1].exclude);
        let r = run(&files, &specs);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.roots.len(), 1);
        // An exclude that matches nothing is a stale declaration.
        let stale = RootSpec {
            exclude: true,
            ..root("pj2k-ebcot", "gone")
        };
        let r = run(&files, &[hot, stale]);
        assert!(r.violations.iter().any(|v| v.message.contains("exclude")));
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
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains(".push("));
        assert_eq!(r.sites.len(), 1);
        assert!(!r.sites[0].justified);
    }

    #[test]
    fn justified_site_passes() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(out: &mut Vec<u8>) {\n    \
             // AUDIT(hot): amortized — capacity reserved at setup.\n    out.push(1);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sites.len(), 1);
        assert!(r.sites[0].justified);
    }

    #[test]
    fn fn_level_audit_hot_covers_body() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "// AUDIT(hot): all growth amortized; oracle holds 0/block.\n\
             pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1);\n    out.extend_from_slice(&[2]);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sites.len(), 2);
        assert!(r.sites.iter().all(|s| s.justified));
    }

    #[test]
    fn cold_fn_outside_closure_is_not_flagged() {
        // `cold_helper` is in the same file but never called from the hot
        // root, so its allocation is not a site.
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(x: u32) -> u32 {\n    x + 1\n}\n\
             pub fn cold_helper() -> Vec<u8> {\n    Vec::new()\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        // Only hot_entry is rooted; wait — module roots pull in *every* fn
        // of the module. Root a single function instead.
        let spec = RootSpec {
            function: Some("hot_entry".to_string()),
            ..root("pj2k-ebcot", "hotmod")
        };
        let r2 = run(&files, &[spec]);
        assert!(r2.sites.is_empty(), "{:?}", r2.sites);
        assert!(r2.violations.is_empty());
        // Whole-module root does flag the helper.
        assert_eq!(r.sites.len(), 1);
    }

    #[test]
    fn transitive_callee_is_flagged_across_files() {
        let files = src(&[
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn hot_entry(out: &mut Vec<u8>) {\n    helper(out);\n}\n",
            ),
            (
                "crates/mq/src/helpers.rs",
                "pub fn helper(out: &mut Vec<u8>) {\n    out.push(9);\n}\n",
            ),
        ]);
        let spec = RootSpec {
            function: Some("hot_entry".to_string()),
            ..root("pj2k-ebcot", "hotmod")
        };
        let r = run(&files, &[spec]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].path.to_string_lossy().contains("mq"));
        assert_eq!(r.closure.len(), 2);
    }

    #[test]
    fn method_call_resolves_to_impl_fn() {
        let files = src(&[
            (
                "crates/ebcot/src/hotmod.rs",
                "pub fn hot_entry(c: &mut Coder) {\n    c.emit();\n}\n",
            ),
            (
                "crates/mq/src/coder.rs",
                "pub struct Coder;\nimpl Coder {\n    pub fn emit(&mut self) {\n        \
                 let v: Vec<u8> = Vec::new();\n        drop(v);\n    }\n}\n",
            ),
        ]);
        let spec = RootSpec {
            function: Some("hot_entry".to_string()),
            ..root("pj2k-ebcot", "hotmod")
        };
        let r = run(&files, &[spec]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("Vec::new"));
    }

    #[test]
    fn test_code_is_exempt() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1); // AUDIT(hot): amortized.\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {\n        let mut v = Vec::new();\n        \
             v.push(1);\n        super::hot_entry(&mut v);\n    }\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn panic_site_accepts_plain_audit() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(v: &[u8]) -> u8 {\n    \
             // AUDIT: length checked by caller.\n    *v.last().unwrap()\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, HotKind::Panic);
    }

    #[test]
    fn alloc_site_does_not_accept_plain_audit() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(out: &mut Vec<u8>) {\n    \
             // AUDIT: fine really.\n    out.push(1);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn lock_and_io_sites_flagged() {
        let files = src(&[(
            "crates/parutil/src/hotmod.rs",
            "pub fn hot_entry() {\n    let m = Mutex::new(0u32);\n    \
             let g = m.lock();\n    println!(\"{:?}\", g);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-parutil", "hotmod")]);
        let kinds: Vec<HotKind> = r.sites.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&HotKind::Lock), "{kinds:?}");
        assert!(kinds.contains(&HotKind::Io), "{kinds:?}");
        assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
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
            let files = src(&[("crates/mq/src/lib.rs", body.as_str())]);
            let r = run(&files, &[root("pj2k-mq", "lib")]);
            assert_eq!(r.violations.len(), 1, "{call}: {:?}", r.violations);
            assert_eq!(r.sites[0].kind, HotKind::Libm);
            assert!(r.violations[0].message.contains(call), "{call}");
        }
        let files = src(&[(
            "crates/mq/src/lib.rs",
            "pub fn hot_entry(v: f32) -> i32 {\n    \
             // AUDIT(hot): once per image, not per sample.\n    v.round() as i32\n}\n\
             pub fn cast(v: f32) -> i32 {\n    v as i32\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-mq", "lib")]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sites.len(), 1);
        assert!(r.render().contains("libm 1"), "{}", r.render());
        // A function-wide AUDIT(hot) covers allocations, not a libm call.
        let files = src(&[(
            "crates/mq/src/lib.rs",
            "// AUDIT(hot): buffers are set up once per tile.\n\
             pub fn hot_entry(v: f32) -> Vec<i32> {\n    vec![v.floor() as i32]\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-mq", "lib")]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains(".floor()"));
    }

    #[test]
    fn unmatched_root_is_a_violation() {
        let r = run(
            &src(&[("crates/mq/src/lib.rs", "pub fn f() {}\n")]),
            &[root("pj2k-ebcot", "nothere")],
        );
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("matches no function"));
    }

    #[test]
    fn needle_in_string_is_not_a_site() {
        let files = src(&[(
            "crates/mq/src/lib.rs",
            "pub fn f() -> &'static str {\n    \"call Vec::new or .push( here\"\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-mq", "lib")]);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn debug_assert_is_not_a_panic_site() {
        let files = src(&[(
            "crates/mq/src/lib.rs",
            "pub fn f(x: u8) {\n    debug_assert!(x < 4);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-mq", "lib")]);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }

    #[test]
    fn qualified_call_filters_by_module() {
        // Two `helper` fns; the qualified call resolves only to the named
        // module, so the other crate's helper stays cold.
        let files = src(&[
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
        ]);
        let spec = RootSpec {
            function: Some("hot_entry".to_string()),
            ..root("pj2k-ebcot", "hotmod")
        };
        let r = run(&files, &[spec]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.closure.len(), 2, "{:?}", r.closure);
    }

    #[test]
    fn render_mentions_roots_and_counts() {
        let files = src(&[(
            "crates/ebcot/src/hotmod.rs",
            "pub fn hot_entry(out: &mut Vec<u8>) {\n    out.push(1);\n}\n",
        )]);
        let r = run(&files, &[root("pj2k-ebcot", "hotmod")]);
        let text = r.render();
        assert!(text.contains("pj2k-ebcot::hotmod: 1 root fn(s)"), "{text}");
        assert!(text.contains("NO AUDIT(hot)"), "{text}");
        assert!(text.contains("alloc 1"), "{text}");
    }
}
