//! The std-only gate of `xtask lint`.
//!
//! The root workspace must build with an empty registry and no network
//! (`cargo build --offline --locked`), so every dependency has to be a
//! `path` crate of this repository. Two checks enforce that:
//!
//! * `Cargo.lock` is committed and names no `source = ...` (a registry or
//!   git package);
//! * no workspace manifest (`Cargo.toml`, `crates/*/Cargo.toml`) declares a
//!   dependency that is neither `path = ...` nor `workspace = true` (which
//!   resolves to a `[workspace.dependencies]` entry, itself checked).
//!
//! The `fuzz/` and `loom/` crates need crates.io and are therefore their
//! own workspaces, outside this gate (and outside `cargo build`).

use crate::lint::{Report, Rule, Violation};
use std::path::Path;

/// Run both checks over the workspace rooted at `root`.
pub fn check_workspace(root: &Path, report: &mut Report) -> std::io::Result<()> {
    match std::fs::read_to_string(root.join("Cargo.lock")) {
        Ok(lock) => check_lock(Path::new("Cargo.lock"), &lock, report),
        Err(_) => report.violations.push(violation(
            Path::new("Cargo.lock"),
            1,
            "Cargo.lock is missing; commit it so `--locked` builds work".into(),
        )),
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))? {
        manifests.push(entry?.path().join("Cargo.toml"));
    }
    manifests.sort();
    for manifest in manifests.iter().filter(|m| m.is_file()) {
        let text = std::fs::read_to_string(manifest)?;
        let rel = manifest.strip_prefix(root).unwrap_or(manifest);
        check_manifest(rel, &text, report);
    }
    Ok(())
}

fn violation(path: &Path, line: usize, message: String) -> Violation {
    Violation {
        path: path.to_path_buf(),
        line,
        rule: Rule::StdOnly,
        message,
    }
}

/// Flag every `source = ...` line of a lock file.
pub fn check_lock(path: &Path, text: &str, report: &mut Report) {
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("source =") {
            report.violations.push(violation(
                path,
                i + 1,
                format!(
                    "locked package comes from outside the repository: {}",
                    line.trim()
                ),
            ));
        }
    }
}

/// Flag every dependency of a manifest that is not a `path` crate.
pub fn check_manifest(path: &Path, text: &str, report: &mut Report) {
    // `[dependencies.foo]`-style table being scanned: (header line, name,
    // whether a `path`/`workspace` key was seen).
    let mut table: Option<(usize, String, bool)> = None;
    let mut in_dep_list = false;
    let flush = |table: &mut Option<(usize, String, bool)>, report: &mut Report| {
        if let Some((line, name, false)) = table.take() {
            report
                .violations
                .push(violation(path, line, non_path_message(&name)));
        }
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            flush(&mut table, report);
            in_dep_list = header.ends_with("dependencies");
            if let Some((_, name)) = header.rsplit_once("dependencies.") {
                table = Some((i + 1, name.to_string(), false));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some((_, _, local)) = table.as_mut() {
            *local |= key == "path" || (key == "workspace" && value == "true");
        } else if in_dep_list {
            let local = key.ends_with(".workspace") && value == "true"
                || value.contains("path =")
                || value.contains("workspace = true");
            if !local {
                let name = key.split('.').next().unwrap_or(key);
                report
                    .violations
                    .push(violation(path, i + 1, non_path_message(name)));
            }
        }
    }
    flush(&mut table, report);
}

fn non_path_message(name: &str) -> String {
    format!(
        "dependency `{name}` is not a `path` crate of this repository \
         (the root workspace is std-only; see DESIGN.md)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_flagged(check: fn(&Path, &str, &mut Report), text: &str) -> Vec<usize> {
        let mut report = Report::default();
        check(Path::new("x"), text, &mut report);
        assert!(report.violations.iter().all(|v| v.rule == Rule::StdOnly));
        report.violations.iter().map(|v| v.line).collect()
    }

    #[test]
    fn lock_with_only_path_packages_is_clean() {
        let lock = "version = 4\n\n[[package]]\nname = \"pj2k-mq\"\nversion = \"0.1.0\"\n";
        assert!(lines_flagged(check_lock, lock).is_empty());
    }

    #[test]
    fn lock_with_registry_package_is_flagged() {
        let lock = "[[package]]\nname = \"outside\"\nversion = \"0.8.5\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        assert_eq!(lines_flagged(check_lock, lock), vec![4]);
    }

    #[test]
    fn path_and_workspace_dependencies_are_clean() {
        let manifest = "[package]\nname = \"a\"\nversion = \"1\"\n\n\
                        [dependencies]\nb.workspace = true\nc = { path = \"../c\" }\n\
                        d = { workspace = true, features = [\"x\"] }\n\n\
                        [dev-dependencies]\na = { path = \".\", features = [\"oracle\"] }\n\n\
                        [workspace.dependencies]\nb = { path = \"crates/b\" }\n\n\
                        [dependencies.e]\npath = \"../e\"\n";
        assert!(lines_flagged(check_manifest, manifest).is_empty());
    }

    #[test]
    fn registry_and_git_dependencies_are_flagged_in_every_table_kind() {
        let manifest = "[dependencies]\nouta = \"0.8\"\n\n\
                        [dev-dependencies]\noutb = { version = \"1\" } # why\n\n\
                        [workspace.dependencies]\noutc = \"1.10\"\n\n\
                        [target.'cfg(unix)'.dependencies]\noutd = \"0.7\"\n\n\
                        [build-dependencies.cc]\nversion = \"1\"\n\n\
                        [dependencies.g]\ngit = \"https://example.invalid/g\"\n";
        assert_eq!(
            lines_flagged(check_manifest, manifest),
            vec![2, 5, 8, 11, 13, 16]
        );
    }

    #[test]
    fn non_dependency_tables_are_ignored() {
        let manifest = "[package]\nversion = \"0.1.0\"\n\n[features]\ndefault = [\"x\"]\n\n\
                        [profile.release]\ndebug = \"line-tables-only\"\n\n\
                        [lints.rust]\nunexpected_cfgs = { level = \"warn\" }\n";
        assert!(lines_flagged(check_manifest, manifest).is_empty());
    }
}
