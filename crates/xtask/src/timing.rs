//! The `timing` query: no test assertion rests on a wall-clock race.
//!
//! A test shares the host with the other tests of its binary and with
//! whatever else runs there, so an assertion that one measured duration
//! beats another, or beats a sub-second budget, fails whenever the
//! scheduler says so. A site is an `assert!` in test code whose condition
//! compares two measured durations, or one measured duration with a
//! positive constant below one second. A measured duration is an
//! expression that reads a clock (`.elapsed()`, `Instant::now()`) or
//! converts a `Duration` (`.as_secs_f64()` and friends), or a local that a
//! `let` earlier in the same function binds from one. A comparison with
//! zero (a liveness check such as `> Duration::ZERO`) or with a deadline
//! of a second or more is not a site. `// AUDIT(timing): <reason>`
//! justifies one; wall-clock claims otherwise belong in a `bench-smoke`
//! floor.

use crate::scan::{find_word, is_ident, Finding, ItemKind, Kind, Source};

/// Code that reads a clock or a `Duration`.
const CLOCK_READS: &[&str] = &[
    ".elapsed()",
    "Instant::now()",
    ".as_secs_f64()",
    ".as_secs_f32()",
    ".as_secs()",
    ".as_millis()",
    ".as_micros()",
    ".as_nanos()",
];

/// The `timing` query over one file.
pub fn timing(src: &Source, out: &mut Vec<Finding>) {
    for (idx, line) in src.lines.iter().enumerate() {
        let Some(pos) = find_word(&line.code, "assert!") else {
            continue;
        };
        if !src.in_test(idx) {
            continue;
        }
        let cond = condition(src, idx, pos + "assert!".len());
        let measured = measured_locals(src, idx);
        for clause in split_top(&cond, &["&&", "||"]) {
            if let Some(what) = race(clause, &measured) {
                let justified = src.covered(idx, Kind::Timing, true);
                let mut f = Finding::at(src, idx, "timing", what, justified);
                // Test code is what this check is about.
                f.in_test = false;
                out.push(f);
            }
        }
    }
}

/// The first argument of the macro call whose `(` follows byte `from` of
/// line `idx`, joined across lines.
fn condition(src: &Source, idx: usize, from: usize) -> String {
    let mut text = String::new();
    let mut depth = 0i32;
    let rest = src.lines[idx + 1..].iter().map(|l| l.code.as_str());
    for code in std::iter::once(&src.lines[idx].code[from..]).chain(rest) {
        for c in code.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                ',' if depth == 1 => return text,
                _ => {}
            }
            match depth {
                0 => return text,
                1 if c == '(' => {}
                _ => text.push(c),
            }
        }
        text.push(' ');
    }
    text
}

/// Split `text` at the `ops` that sit outside any bracket.
fn split_top<'a>(text: &'a str, ops: &[&str]) -> Vec<&'a str> {
    let mut parts = Vec::new();
    let (mut depth, mut start, mut i) = (0i32, 0usize, 0usize);
    while i < text.len() {
        let rest = &text[i..];
        match rest.as_bytes()[0] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            if let Some(op) = ops.iter().find(|op| rest.starts_with(**op)) {
                parts.push(&text[start..i]);
                i += op.len();
                start = i;
                continue;
            }
        }
        i += rest.chars().next().map_or(1, char::len_utf8);
    }
    parts.push(&text[start..]);
    parts
}

/// The ordering comparison of `clause`, if it is a wall-clock race: what
/// the site is.
fn race(clause: &str, measured: &[String]) -> Option<String> {
    let mut clause = clause.trim();
    // Unwrap `(a < b)`, but not `(a) < (b)`.
    while let Some(inner) = clause.strip_prefix('(').and_then(|c| c.strip_suffix(')')) {
        if !balanced(inner) {
            break;
        }
        clause = inner.trim();
    }
    let (lhs, rhs) = comparison(clause)?;
    let is_measured = |side: &str| {
        CLOCK_READS.iter().any(|r| side.contains(r))
            || measured.iter().any(|m| find_word(side, m).is_some())
    };
    let what = match (is_measured(lhs), is_measured(rhs)) {
        (true, true) => "compares two measured durations",
        (true, false) if sub_second(rhs) => {
            "compares a measured duration with a sub-second constant"
        }
        (false, true) if sub_second(lhs) => {
            "compares a measured duration with a sub-second constant"
        }
        _ => return None,
    };
    Some(format!(
        "{what}: `{}`",
        clause.split_whitespace().collect::<Vec<_>>().join(" ")
    ))
}

/// Whether no bracket of `text` closes before it opens.
fn balanced(text: &str) -> bool {
    let mut depth = 0i32;
    for c in text.chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
    }
    depth == 0
}

/// The two sides of the first ordering operator (`<`, `>`, `<=`, `>=`)
/// outside any bracket; shifts, arrows and turbofish brackets are not
/// operators.
fn comparison(clause: &str) -> Option<(&str, &str)> {
    let b = clause.as_bytes();
    let mut depth = 0i32;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' | b'>' if depth == 0 => {
                let prev = if i > 0 { b[i - 1] } else { b' ' };
                let next = b.get(i + 1).copied().unwrap_or(b' ');
                let doubled = prev == b[i] || next == b[i];
                if doubled || matches!(prev, b'-' | b'=' | b':') || next == b'-' {
                    continue;
                }
                let len = if next == b'=' { 2 } else { 1 };
                return Some((&clause[..i], &clause[i + len..]));
            }
            _ => {}
        }
    }
    None
}

/// Whether `side` is a positive constant below one second: a float
/// literal in (0, 1), or a `Duration` of one.
fn sub_second(side: &str) -> bool {
    let side: String = side.chars().filter(|c| !c.is_whitespace()).collect();
    let number = |s: &str| -> Option<f64> {
        let s = s.trim_end_matches("f64").trim_end_matches("f32");
        s.replace('_', "").parse().ok()
    };
    let arg = |ctor: &str| {
        side.strip_prefix(ctor)
            .and_then(|r| r.strip_prefix('('))
            .and_then(|r| r.strip_suffix(')'))
            .and_then(number)
    };
    let secs = if let Some(v) = arg("Duration::from_millis") {
        v / 1e3
    } else if let Some(v) = arg("Duration::from_micros") {
        v / 1e6
    } else if let Some(v) = arg("Duration::from_nanos") {
        v / 1e9
    } else if let Some(v) = arg("Duration::from_secs_f64") {
        v
    } else {
        number(&side).unwrap_or(0.0)
    };
    secs > 0.0 && secs < 1.0
}

/// The locals that `let` statements of the function around line `idx`
/// bind, before it, from a clock read or from another such local.
fn measured_locals(src: &Source, idx: usize) -> Vec<String> {
    let start = src
        .items
        .iter()
        .filter(|it| it.kind == ItemKind::Fn && it.sig <= idx && idx <= it.end)
        .map(|it| it.sig)
        .max()
        .unwrap_or(0);
    let mut measured: Vec<String> = Vec::new();
    let mut stmt = String::new();
    for line in &src.lines[start..idx] {
        let code = line.code.trim();
        if stmt.is_empty() && !code.starts_with("let ") {
            continue;
        }
        stmt.push_str(code);
        stmt.push(' ');
        if !code.ends_with(';') {
            continue;
        }
        let text = std::mem::take(&mut stmt);
        let Some(eq) = text.find(" = ") else {
            continue;
        };
        let (pattern, init) = (&text["let ".len()..eq], &text[eq..]);
        let pattern = pattern.split(':').next().unwrap_or(pattern);
        let reads = CLOCK_READS.iter().any(|r| init.contains(r))
            || measured.iter().any(|m| find_word(init, m).is_some());
        if reads {
            measured.extend(
                pattern
                    .split(|c: char| !is_ident(c))
                    .filter(|w| !w.is_empty() && *w != "_" && *w != "mut")
                    .map(String::from),
            );
        }
    }
    measured
}

#[cfg(test)]
mod tests {
    use crate::fixture;

    /// The timing findings of a test file holding `body` as a test.
    fn sites(body: &str) -> Vec<(usize, bool)> {
        let src = format!("#[test]\nfn t() {{\n{body}}}\n");
        fixture("crates/core/tests/t.rs", &src)
            .iter()
            .filter(|f| f.check == "timing")
            .map(|f| (f.line, f.is_violation()))
            .collect()
    }

    #[test]
    fn two_measured_durations_are_a_site() {
        let body = "    let t0 = Instant::now();\n    work();\n    let a = t0.elapsed().as_secs_f64();\n    \
                    let t1 = Instant::now();\n    let b = t1.elapsed().as_secs_f64();\n    \
                    assert!(\n        a < b * 1.2,\n        \"{a} vs {b}\"\n    );\n";
        assert_eq!(sites(body), [(8, true)]);
    }

    #[test]
    fn derived_locals_are_measured_too() {
        let body = "    let (x, y) = (t0.elapsed(), t1.elapsed());\n    let ratio = x.as_secs_f64() / 2.0;\n    \
                    assert!(ratio > 1.0 && y.is_zero() == false);\n    assert!(n < 3);\n";
        // `ratio > 1.0` compares a measured value with a constant of one
        // second or more: no site. Both sides measured is one.
        assert!(sites(body).is_empty());
        let body = "    let ratio = t0.elapsed().as_secs_f64();\n    let r2 = ratio * 2.0;\n    \
                    assert!(r2 >= ratio);\n";
        assert_eq!(sites(body), [(5, true)]);
    }

    #[test]
    fn sub_second_budgets_are_sites_and_deadlines_are_not() {
        for (bound, site) in [
            ("Duration::from_millis(500)", true),
            ("Duration::from_micros(30)", true),
            ("Duration::from_secs_f64(0.25)", true),
            ("0.5", true),
            ("1e-9", true),
            ("Duration::from_secs(20)", false),
            ("Duration::from_millis(1500)", false),
            ("Duration::ZERO", false),
            ("0.0", false),
        ] {
            let body = format!("    assert!(t0.elapsed() < {bound});\n");
            assert_eq!(sites(&body).len(), usize::from(site), "{bound}");
        }
        // Liveness checks read a clock but race nothing.
        assert!(sites("    assert!(stats.vertical.as_secs_f64() > 0.0);\n").is_empty());
        assert!(sites("    assert!(t.get(\"w\") > Duration::ZERO);\n").is_empty());
    }

    #[test]
    fn annotation_justifies_and_product_code_is_out_of_scope() {
        let body = "    // AUDIT(timing): a 100x margin, measured.\n    \
                    assert!(t0.elapsed() < t1.elapsed());\n";
        assert_eq!(sites(body), [(4, false)]);
        let src = "fn f() {\n    assert!(t0.elapsed() < t1.elapsed());\n}\n";
        let found = fixture("crates/core/src/x.rs", src);
        assert!(found.iter().all(|f| f.check != "timing"), "{found:?}");
    }

    #[test]
    fn shifts_arrows_and_other_macros_are_not_comparisons() {
        assert!(sites("    assert!(t0.elapsed().as_nanos() >> 3 != 0);\n").is_empty());
        assert!(sites("    debug_assert!(t0.elapsed() < t1.elapsed());\n").is_empty());
        assert!(sites("    assert_eq!(t0.elapsed() < t1.elapsed(), true);\n").is_empty());
    }
}
