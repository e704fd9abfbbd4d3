//! The one source scanner every audit query reads.
//!
//! Each `.rs` file is classified once into a [`Source`]: per line, the code
//! text (string/char literal contents blanked, comments removed), the
//! comment text and a test flag; plus an item table of every braced
//! `fn`/`impl`/`mod`/`trait` with its signature line, body extent and
//! enclosing impl type. The lexer is a small character-level state machine
//! that understands line comments, nested block comments, strings, raw
//! strings and char literals vs. lifetimes, so a token inside a literal or
//! a comment is never mistaken for code. [`item_end`] is the only brace
//! matcher.
//!
//! This module also owns the one annotation grammar ([`Kind`],
//! [`Source::covered`]), the one word matcher ([`find_word`]), the one file
//! walker ([`load`]) and the one findings type ([`Finding`], [`render`]).

use std::fmt;
use std::path::{Path, PathBuf};

/// One classified source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code text with string and char literal *contents* blanked out and
    /// comments removed. Token boundaries are preserved.
    pub code: String,
    /// Concatenated comment text of the line (line and block comments),
    /// without the comment delimiters.
    pub comment: String,
    /// True inside an item gated by `#[cfg(test)]` (or a `cfg(all(test, ..))`
    /// conjunction), the attribute line included.
    pub in_test: bool,
}

/// Lexer carry-over state between lines.
enum Mode {
    Code,
    /// Inside a block comment at the given nesting depth.
    BlockComment(u32),
    /// Inside a normal (possibly multi-line) string literal.
    Str,
    /// Inside a raw string literal closed by `"` followed by this many `#`.
    RawStr(u32),
}

/// Classify a whole source file into lines. Never panics on malformed
/// input: an unterminated literal simply swallows the rest of the file,
/// which for audit purposes is a safe failure mode.
pub fn classify(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        let n = bytes.len();
        while i < n {
            match mode {
                Mode::BlockComment(depth) => {
                    if i + 1 < n && bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        if depth == 1 {
                            mode = Mode::Code;
                            comment.push(' ');
                        } else {
                            mode = Mode::BlockComment(depth - 1);
                        }
                    } else if i + 1 < n && bytes[i] == '/' && bytes[i + 1] == '*' {
                        i += 2;
                        mode = Mode::BlockComment(depth + 1);
                    } else {
                        comment.push(bytes[i]);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if bytes[i] == '\\' {
                        i += 2; // skip escaped char (may run past EOL harmlessly)
                    } else if bytes[i] == '"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if bytes[i] == '"' {
                        let closing =
                            (0..hashes as usize).all(|k| i + 1 + k < n && bytes[i + 1 + k] == '#');
                        if closing {
                            code.push('"');
                            mode = Mode::Code;
                            i += 1 + hashes as usize;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                Mode::Code => {
                    let c = bytes[i];
                    if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
                        // Line comment (also covers /// and //!); the leading
                        // space keeps an empty `//` line distinct from a blank.
                        let text: String = bytes[i + 2..].iter().collect();
                        comment.push(' ');
                        comment.push_str(text.trim_start_matches(['/', '!']));
                        i = n;
                    } else if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        mode = Mode::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if is_raw_string_start(&bytes, i) {
                        // r"..."  r#"..."#  br#"..."# etc.
                        let mut j = i;
                        while bytes[j] != 'r' {
                            j += 1; // skip the b prefix
                        }
                        j += 1;
                        let mut hashes = 0u32;
                        while j < n && bytes[j] == '#' {
                            hashes += 1;
                            j += 1;
                        }
                        code.push('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else if c == '\'' {
                        // Char literal or lifetime.
                        if i + 2 < n && bytes[i + 1] == '\\' {
                            // Escaped char literal: skip to closing quote.
                            let mut j = i + 2;
                            while j < n && bytes[j] != '\'' {
                                j += 1;
                            }
                            code.push_str("' '");
                            i = (j + 1).min(n);
                        } else if i + 2 < n && bytes[i + 2] == '\'' {
                            code.push_str("' '");
                            i += 3;
                        } else {
                            // Lifetime — keep the tick, it separates tokens.
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // Note: plain string literals may contain literal newlines, so both
        // Str and RawStr mode legitimately carry over to the next line.
        out.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    mark_test_items(&mut out);
    out
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // Must not be preceded by an identifier character (e.g. `for r in ..`).
    if i > 0 && is_ident(bytes[i - 1]) {
        return false;
    }
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if j >= n || bytes[j] != 'r' {
        return false;
    }
    j += 1;
    while j < n && bytes[j] == '#' {
        j += 1;
    }
    j < n && bytes[j] == '"'
}

/// A `#[cfg(test)]` attribute attaches to exactly the next item, braced or
/// not (`mod tests;`, `use`, `fn`, `mod tests { .. }`): the attribute line
/// through the item's end is test code. A `cfg(all(test, ..))` conjunction
/// only narrows the plain gate, so it counts too.
fn mark_test_items(lines: &mut [Line]) {
    let gate = |code: &str| {
        let attr = code
            .find("#[cfg(test)]")
            .or_else(|| code.find("#[cfg(all(test,"))?;
        Some(attr + code[attr..].find(']').map_or(0, |p| p + 1))
    };
    for (start, end) in gated_items(lines, |i| gate(&lines[i].code)) {
        for line in &mut lines[start..=end] {
            line.in_test = true;
        }
    }
}

/// The line spans of the items an attribute gates, from the attribute line
/// through the item's end. `gate(idx)` finds the attribute on line `idx`
/// and returns the byte column of its `code` just past it; the item starts
/// there or on the next line that is not blank or another attribute. A
/// gate inside a gated item is part of that item's span. An element that
/// does not open an item — an enum variant, a field, a match arm — may
/// instead end at the first line that closes it with a comma.
pub fn gated_items(lines: &[Line], gate: impl Fn(usize) -> Option<usize>) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut idx = 0;
    while idx < lines.len() {
        let Some(after) = gate(idx) else {
            idx += 1;
            continue;
        };
        let code = &lines[idx].code;
        let (start, col) = if code[after..].trim().is_empty() {
            let next = (idx + 1..lines.len()).find(|&j| {
                let c = lines[j].code.trim();
                !c.is_empty() && !c.starts_with("#[")
            });
            (next.unwrap_or(idx), 0)
        } else {
            (idx, after)
        };
        let (mut end, _) = item_end(lines, start, col);
        if !opens_item(&lines[start].code[col..]) {
            end = list_element_end(&lines[start..=end], col).map_or(end, |j| start + j);
        }
        spans.push((idx, end));
        idx = end + 1;
    }
    spans
}

/// Whether `code` starts an item that can carry a `where` clause (a fn,
/// possibly qualified, or a type or impl): its commas sit at depth 0, so
/// it ends at its `;` or closing brace, never at a comma.
fn opens_item(code: &str) -> bool {
    const HEADS: [&str; 11] = [
        "fn", "impl", "trait", "struct", "enum", "union", "type", "const", "unsafe", "async",
        "extern",
    ];
    HEADS.contains(&ident_at(strip_visibility(code.trim_start())))
}

/// The index in `lines` of the line that ends a list element starting at
/// byte `col` of the first line: the first line ending in a comma outside
/// every bracket and brace the element opened.
fn list_element_end(lines: &[Line], col: usize) -> Option<usize> {
    let (mut nest, mut braces) = (0i64, 0i64);
    for (j, line) in lines.iter().enumerate() {
        let from = if j == 0 { col.min(line.code.len()) } else { 0 };
        for c in line.code[from..].chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' => braces += 1,
                '}' => braces -= 1,
                _ => {}
            }
        }
        if nest == 0 && braces == 0 && line.code.trim_end().ends_with(',') {
            return Some(j);
        }
    }
    None
}

/// The brace matcher. From `(line, byte column)`, find where the item or
/// statement starting there ends: at the `}` matching its first brace
/// (`braced` = true), at a `;` outside any bracket, or where the enclosing
/// block closes. Returns the end line index and `braced`.
pub fn item_end(lines: &[Line], start: usize, col: usize) -> (usize, bool) {
    let (mut nest, mut braces) = (0i64, 0i64);
    for (j, line) in lines.iter().enumerate().skip(start) {
        let from = if j == start {
            col.min(line.code.len())
        } else {
            0
        };
        for c in line.code[from..].chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' => braces += 1,
                '}' => {
                    braces -= 1;
                    if braces <= 0 {
                        return (j, braces == 0);
                    }
                }
                ';' if nest <= 0 && braces == 0 => return (j, false),
                _ => {}
            }
            if nest < 0 {
                return (j, false);
            }
        }
    }
    (lines.len().saturating_sub(1), false)
}

/// What an item-table entry declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Impl,
    Mod,
    Trait,
}

/// One braced `fn`/`impl`/`mod`/`trait`.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// The item's name; for an `impl`, the implemented type's name.
    pub name: String,
    /// 0-based index of the signature line (the one with the keyword).
    pub sig: usize,
    /// 0-based index of the line holding the closing brace.
    pub end: usize,
    /// For a `fn`, the type of the innermost `impl` block around it.
    pub impl_type: Option<String>,
}

/// Build the item table of a classified file.
fn items(lines: &[Line]) -> Vec<Item> {
    let mut out: Vec<Item> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim_start();
        let head = strip_visibility(code);
        let block = if head.starts_with("impl ") || head.starts_with("impl<") {
            impl_type_name(head).map(|t| (ItemKind::Impl, t))
        } else if let Some(rest) = head.strip_prefix("mod ") {
            Some((ItemKind::Mod, ident_at(rest).to_string()))
        } else {
            let rest = head.strip_prefix("unsafe ").unwrap_or(head);
            rest.strip_prefix("trait ")
                .map(|rest| (ItemKind::Trait, ident_at(rest).to_string()))
        };
        if let Some((kind, name)) = block {
            if let (end, true) = item_end(lines, idx, 0) {
                out.push(Item {
                    kind,
                    name,
                    sig: idx,
                    end,
                    impl_type: None,
                });
            }
        }
        let mut from = 0;
        while let Some(pos) = find_word(&line.code[from..], "fn").map(|p| p + from) {
            from = pos + 2;
            let name = ident_at(line.code[from..].trim_start());
            if name.is_empty() {
                continue; // a `fn(..)` pointer type
            }
            let after = from + line.code[from..].find(name).unwrap_or(0) + name.len();
            if let (end, true) = item_end(lines, idx, after) {
                let impl_type = out
                    .iter()
                    .filter(|it| it.kind == ItemKind::Impl && it.sig <= idx && idx <= it.end)
                    .map(|it| it.name.clone())
                    .next_back();
                out.push(Item {
                    kind: ItemKind::Fn,
                    name: name.to_string(),
                    sig: idx,
                    end,
                    impl_type,
                });
            }
        }
    }
    out
}

pub fn strip_visibility(code: &str) -> &str {
    let Some(rest) = code.strip_prefix("pub") else {
        return code;
    };
    let rest = match rest.strip_prefix('(') {
        Some(r) => r.split_once(')').map_or(r, |(_, r)| r),
        None => rest,
    };
    rest.trim_start()
}

/// The implemented type's name from an `impl` header: the first identifier
/// after ` for ` when present (trait impls), else the first type identifier
/// after the generics.
fn impl_type_name(code: &str) -> Option<String> {
    let rest = if let Some(p) = code.find(" for ") {
        &code[p + 5..]
    } else {
        // Skip `impl` and an optional generic parameter list.
        skip_generics(code.strip_prefix("impl")?)
    };
    let ident = ident_at(rest.trim_start_matches(|c: char| c.is_whitespace() || c == '&'));
    ident
        .starts_with(char::is_alphabetic)
        .then(|| ident.to_string())
}

/// `s` past the `<..>` list it starts with, or `s` when it starts none.
pub fn skip_generics(s: &str) -> &str {
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if depth > 1 => depth -= 1,
            '>' if depth == 1 => return &s[i + 1..],
            _ if depth == 0 => return s,
            _ => {}
        }
    }
    s
}

pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier at the start of `s` (possibly empty).
pub fn ident_at(s: &str) -> &str {
    &s[..s.find(|c: char| !is_ident(c)).unwrap_or(s.len())]
}

/// The identifier ending at byte `pos` of `s` (possibly empty).
pub fn ident_before(s: &str, pos: usize) -> &str {
    let head = &s[..pos];
    &head[head.rfind(|c: char| !is_ident(c)).map_or(0, |p| p + 1)..]
}

/// Find `needle` in `code`. An end of the needle that is an identifier
/// character must sit at an identifier boundary, so `debug_assert!` does
/// not match `assert!`, `unsafe_op` does not match `unsafe`, while
/// `.unwrap()` matches anywhere.
pub fn find_word(code: &str, needle: &str) -> Option<usize> {
    let left = needle.starts_with(is_ident);
    let right = needle.ends_with(is_ident);
    let mut start = 0;
    while let Some(rel) = code[start..].find(needle) {
        let pos = start + rel;
        let end = pos + needle.len();
        let left_ok = !left || !code[..pos].ends_with(is_ident);
        let right_ok = !right || !code[end..].starts_with(is_ident);
        if left_ok && right_ok {
            return Some(pos);
        }
        start = end;
    }
    None
}

/// What a justification argues. `Safety` is Rust's `// SAFETY:` comment
/// (or a `# Safety` doc section); every other kind is spelled
/// `// AUDIT(kind): reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Safety,
    /// The site cannot panic on any input.
    Panic,
    /// An allocation, lock, I/O or libm site on a hot path is setup-time,
    /// amortized or cold.
    Hot,
    /// A raw parallel write does not alias another worker's writes.
    Alias,
    /// A raw thread outside `parutil` is sound.
    Thread,
    /// A test assertion on measured durations cannot lose its race.
    Timing,
}

const KINDS: [(&str, Kind); 5] = [
    ("panic", Kind::Panic),
    ("hot", Kind::Hot),
    ("alias", Kind::Alias),
    ("thread", Kind::Thread),
    ("timing", Kind::Timing),
];

/// Parse a comment that starts with `AUDIT(`: the kind, or what is wrong
/// with the annotation. `None` for any other comment, including prose that
/// mentions the word.
pub fn parse_annotation(comment: &str) -> Option<Result<Kind, String>> {
    let rest = comment.trim_start().strip_prefix("AUDIT(")?;
    let Some((name, after)) = rest.split_once(')') else {
        return Some(Err("missing `)`".into()));
    };
    let Some(&(_, kind)) = KINDS.iter().find(|(n, _)| *n == name) else {
        return Some(Err(format!(
            "unknown kind `{name}` (one of panic, hot, alias, thread, timing)"
        )));
    };
    match after.strip_prefix(':') {
        Some(reason) if !reason.trim().is_empty() => Some(Ok(kind)),
        _ => Some(Err("missing `: <reason>`".into())),
    }
}

fn annotates(comment: &str, kind: Kind) -> bool {
    match kind {
        Kind::Safety => {
            comment.contains("SAFETY")
                || comment.contains("# Safety")
                || comment.contains("Safety contract")
        }
        _ => parse_annotation(comment) == Some(Ok(kind)),
    }
}

/// One classified file with its item table.
#[derive(Debug)]
pub struct Source {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Crate directory name under `crates/`.
    pub krate: String,
    /// Module path relative to the crate's `src/` without `.rs`
    /// (`bitplane`, `lib`, `bin/bench_dwt`).
    pub module: String,
    /// Integration tests, benches and examples: test code throughout.
    pub test_file: bool,
    pub lines: Vec<Line>,
    pub items: Vec<Item>,
}

impl Source {
    /// Classify `text`, the contents of the workspace-relative `path`.
    pub fn new(path: &Path, text: &str) -> Source {
        let comps: Vec<String> = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let module = comps.get(3..).map(|r| r.join("/")).unwrap_or_default();
        let lines = classify(text);
        Source {
            path: path.to_path_buf(),
            krate: comps.get(1).cloned().unwrap_or_default(),
            module: module.trim_end_matches(".rs").to_string(),
            test_file: comps
                .iter()
                .any(|c| c == "tests" || c == "benches" || c == "examples"),
            items: items(&lines),
            lines,
        }
    }

    /// Whether line `idx` is test code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_file || self.lines[idx].in_test
    }

    /// Whether an annotation of `kind` covers line `idx`. An annotation
    /// covers the line it sits on and, from the contiguous block of
    /// comment, attribute and wrapped-statement-head lines directly above a
    /// line, that line; consecutive `unsafe impl` lines share one block.
    /// With `items`, an annotation covering an item's signature line covers
    /// the item's whole body too.
    pub fn covered(&self, idx: usize, kind: Kind, items: bool) -> bool {
        let lines = &self.lines;
        let at = |i: usize| {
            if annotates(&lines[i].comment, kind) {
                return true;
            }
            let pair = lines[i].code.contains("unsafe impl");
            for l in lines[..i].iter().rev() {
                let code = l.code.trim();
                let in_block = (code.is_empty() && !l.comment.is_empty())
                    || code.starts_with("#[")
                    || code.starts_with("#![")
                    || code.ends_with(['=', '(', ','])
                    || (pair && code.contains("unsafe impl"));
                if !in_block {
                    return false;
                }
                if annotates(&l.comment, kind) {
                    return true;
                }
            }
            false
        };
        at(idx)
            || (items
                && self
                    .items
                    .iter()
                    .any(|it| it.sig < idx && idx <= it.end && at(it.sig)))
    }
}

/// Every `.rs` file under `root/crates`, `root/tests` and `root/examples`
/// (the last two are `pj2k-suite`'s test targets), classified, in path
/// order. The `xtask` crate is left out: its sources name every token it
/// audits.
pub fn load(root: &Path) -> std::io::Result<Vec<Source>> {
    let files = files(root)?;
    Ok(files
        .iter()
        .map(|(path, text)| Source::new(path, text))
        .collect())
}

/// The (workspace-relative path, text) of every `.rs` file [`load`]
/// classifies, in path order.
pub fn files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    files_in(root, &["crates", "tests", "examples"], "xtask")
}

/// The (workspace-relative path, text) of every `.rs` file under the
/// directories `dirs` of `root`, in path order, leaving out `target`,
/// hidden directories and every directory named `skip`.
pub fn files_in(root: &Path, dirs: &[&str], skip: &str) -> std::io::Result<Vec<(PathBuf, String)>> {
    fn walk(dir: &Path, skip: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let name = name.unwrap_or_default();
            if path.is_dir() {
                if name != "target" && name != skip && !name.starts_with('.') {
                    walk(&path, skip, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for dir in dirs {
        if root.join(dir).is_dir() {
            walk(&root.join(dir), skip, &mut files)?;
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file)?;
            Ok((file.strip_prefix(root).unwrap_or(&file).to_path_buf(), text))
        })
        .collect()
}

/// The checks, in report order.
pub const CHECKS: [&str; 8] = [
    "annotation",
    "safety",
    "thread",
    "panic",
    "alias",
    "hot",
    "timing",
    "std_only",
];

/// One site a check inventories, or one file-level failure (line 0 when
/// it has no line).
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub line: usize,
    /// One of [`CHECKS`].
    pub check: &'static str,
    /// What the site is, or what is wrong.
    pub what: String,
    /// Test code the check exempts.
    pub in_test: bool,
    pub justified: bool,
}

impl Finding {
    /// A site on line `idx` of `src`; exempt when it is test code.
    pub fn at(src: &Source, idx: usize, check: &'static str, what: String, ok: bool) -> Finding {
        Finding {
            path: src.path.clone(),
            line: idx + 1,
            check,
            what,
            in_test: src.in_test(idx),
            justified: ok,
        }
    }

    /// A failure that no annotation can justify.
    pub fn fail(path: &Path, line: usize, check: &'static str, what: String) -> Finding {
        Finding {
            path: path.to_path_buf(),
            line,
            check,
            what,
            in_test: false,
            justified: false,
        }
    }

    pub fn is_violation(&self) -> bool {
        !self.justified && !self.in_test
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p, l, c, w) = (self.path.display(), self.line, self.check, &self.what);
        write!(f, "{p}:{l} [{c}] {w}")
    }
}

/// Render the inventory: the `notes` (files scanned, the hot-path roots
/// and closure), then per check a summary line and (unless `quiet`) every
/// site.
pub fn render(findings: &[Finding], notes: &[String], quiet: bool) -> String {
    let mut out: String = notes.iter().map(|n| format!("{n}\n")).collect();
    for check in CHECKS {
        let sites: Vec<&Finding> = findings.iter().filter(|f| f.check == check).collect();
        let mut files: Vec<&Path> = sites.iter().map(|f| f.path.as_path()).collect();
        files.sort();
        files.dedup();
        let bad = sites.iter().filter(|f| f.is_violation()).count();
        out.push_str(&format!(
            "== {check}: {} sites in {} files, {bad} violations ==\n",
            sites.len(),
            files.len()
        ));
        for f in sites.iter().filter(|_| !quiet) {
            let tag = if f.in_test {
                " [test]"
            } else if f.justified {
                ""
            } else {
                " [UNJUSTIFIED]"
            };
            out.push_str(&format!("  {f}{tag}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments() {
        let lines = classify("let x = 1; // unsafe here\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe here"));
    }

    #[test]
    fn strips_string_contents() {
        let lines = classify("let s = \"unsafe panic! thread::spawn\";\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].code.contains("let s ="));
    }

    #[test]
    fn handles_multiline_block_comment() {
        let lines = classify("a\n/* unsafe\n still comment\n*/ let b = 2;\n");
        assert_eq!(lines[0].code.trim(), "a");
        assert!(lines[1].code.is_empty());
        assert!(lines[1].comment.contains("unsafe"));
        assert!(lines[2].code.is_empty());
        assert!(lines[3].code.contains("let b = 2;"));
    }

    #[test]
    fn handles_nested_block_comment() {
        let lines = classify("/* outer /* inner */ still */ code();\n");
        assert!(lines[0].code.contains("code();"));
        assert!(!lines[0].code.contains("outer"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = classify("let s = r#\"unsafe \" quote\"# ; done();\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("done();"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let lines = classify("fn f<'a>(x: &'a u8) { let c = '{'; let d = '\\''; }\n");
        // The brace inside the char literal must not appear in code.
        assert_eq!(lines[0].code.matches('{').count(), 1, "{}", lines[0].code);
    }

    #[test]
    fn multiline_string_swallows_tokens() {
        let lines = classify("let s = \"line one\nunsafe panic!\nend\"; after();\n");
        assert!(!lines[1].code.contains("unsafe"));
        assert!(lines[2].code.contains("after();"));
    }

    fn test_lines(src: &str) -> Vec<bool> {
        classify(src).iter().map(|l| l.in_test).collect()
    }

    #[test]
    fn cfg_test_module_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        assert_eq!(test_lines(src), [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_all_test_module_marked() {
        // Modules gated `#[cfg(all(test, not(loom)))]` (so their tests do
        // not run under the loom model checker) are still test code.
        let src = "fn real() {}\n#[cfg(all(test, not(loom)))]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        assert_eq!(test_lines(src), [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_fn_marked() {
        let src = "#[cfg(test)]\nfn helper() {\n    body();\n}\nfn real() {}\n";
        assert_eq!(test_lines(src), [true, true, true, true, false]);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_its_semicolon() {
        // The attribute attaches to `mod tests_file;` only: the production
        // fn below is not test code.
        let src = "#[cfg(test)]\nmod tests_file;\nfn real() {\n    x.unwrap();\n}\n";
        assert_eq!(test_lines(src), [true, true, false, false, false]);
        let src = "#[cfg(test)] use std::fmt;\n#[cfg(test)]\n#[allow(dead_code)]\nconst N: [u8; 2] = [0; 2];\nfn real() {}\n";
        assert_eq!(test_lines(src), [true, true, true, true, false]);
    }

    #[test]
    fn gated_list_elements_end_at_their_comma() {
        // A gated enum variant, match arm or struct-literal field ends at
        // its own comma; a gated fn with a `where` clause still runs to its
        // closing brace.
        let spans = |src: &str| {
            let lines = classify(src);
            gated_items(&lines, |i| {
                let attr = lines[i].code.find("#[cfg(x)]")?;
                Some(attr + "#[cfg(x)]".len())
            })
        };
        let src = "enum E {\n    #[cfg(x)]\n    A,\n    B {\n        w: u8,\n    },\n}\n";
        assert_eq!(spans(src), [(1, 2)]);
        let src = "match v {\n    #[cfg(x)]\n    (A, _) => {\n        f(a,\n          b)\n    }\n    _ => g(),\n}\n";
        assert_eq!(spans(src), [(1, 5)]);
        let src = "S {\n    #[cfg(x)] r: f(\n        a,\n    ),\n    q: 1,\n}\n";
        assert_eq!(spans(src), [(1, 3)]);
        let src = "#[cfg(x)]\nfn f<T>()\nwhere\n    T: Copy,\n{\n}\nfn g() {}\n";
        assert_eq!(spans(src), [(0, 5)]);
    }

    #[test]
    fn item_table_has_extents_and_impl_types() {
        let src = "pub(crate) mod m {\n    impl<T> W<T> {\n        fn a(&self) -> [u8; 2] {\n            [0; 2]\n        }\n        fn decl(&self);\n    }\n    pub unsafe trait T {}\n}\nfn f(g: fn(u8)) {}\n";
        let s = Source::new(Path::new("crates/mq/src/lib.rs"), src);
        let got: Vec<_> = s
            .items
            .iter()
            .map(|i| {
                (
                    i.kind,
                    i.name.as_str(),
                    i.sig,
                    i.end,
                    i.impl_type.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (ItemKind::Mod, "m", 0, 8, None),
                (ItemKind::Impl, "W", 1, 6, None),
                (ItemKind::Fn, "a", 2, 4, Some("W")),
                (ItemKind::Trait, "T", 7, 7, None),
                (ItemKind::Fn, "f", 9, 9, None),
            ]
        );
        assert_eq!((s.krate.as_str(), s.module.as_str()), ("mq", "lib"));
    }

    #[test]
    fn annotation_grammar_is_strict() {
        assert_eq!(
            parse_annotation(" AUDIT(panic): checked"),
            Some(Ok(Kind::Panic))
        );
        assert_eq!(
            parse_annotation("AUDIT(hot): once per tile "),
            Some(Ok(Kind::Hot))
        );
        assert!(
            matches!(parse_annotation(" AUDIT(fn): old"), Some(Err(m)) if m.contains("unknown kind"))
        );
        assert!(
            matches!(parse_annotation(" AUDIT(panic):  "), Some(Err(m)) if m.contains("reason"))
        );
        assert!(matches!(
            parse_annotation(" AUDIT(panic) checked"),
            Some(Err(_))
        ));
        assert!(matches!(parse_annotation(" AUDIT(panic"), Some(Err(_))));
        // Prose that mentions the word is neither an annotation nor a finding.
        assert_eq!(parse_annotation(" see the AUDIT(panic) rule"), None);
        assert_eq!(parse_annotation(" AUDIT: the old spelling"), None);
    }

    #[test]
    fn placement_decides_coverage() {
        let src = "// AUDIT(panic): fn-wide.\n#[inline]\nfn a() {\n    x;\n}\nfn b() {\n    // AUDIT(panic): one line.\n    #[allow(x)]\n    let y =\n        z;\n    w;\n\n    // AUDIT(panic): above a blank line.\n\n    v;\n}\n";
        let s = Source::new(Path::new("crates/mq/src/x.rs"), src);
        let cov: Vec<usize> = (0..s.lines.len())
            .filter(|&i| s.covered(i, Kind::Panic, true))
            .collect();
        // A blank line ends the block: line 14 is not covered.
        assert_eq!(cov, [0, 1, 2, 3, 4, 6, 7, 8, 9, 12, 13]);
        // Site-level only: the fn body is not covered.
        assert!(!s.covered(3, Kind::Panic, false));
        // Another kind never covers.
        assert!(!s.covered(3, Kind::Hot, true));
    }

    #[test]
    fn find_word_respects_identifier_ends() {
        assert_eq!(find_word("debug_assert!(x)", "assert!"), None);
        assert_eq!(find_word("unsafe_op_in_unsafe_fn", "unsafe"), None);
        assert_eq!(find_word("x.unwrap()", ".unwrap()"), Some(1));
        assert_eq!(
            find_word("Box::new_in(x); Box::new(y)", "Box::new"),
            Some(16)
        );
    }
}
