//! The `std_only` query: the workspace depends on nothing outside the
//! repository.
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

use crate::scan::Finding;
use std::path::{Path, PathBuf};

/// The workspace manifests, `Cargo.toml` and `crates/*/Cargo.toml`, as
/// (workspace-relative path, text) pairs in path order.
pub fn manifests(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut paths = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))? {
        paths.push(entry?.path().join("Cargo.toml"));
    }
    paths.sort();
    let read = |m: &PathBuf| {
        Ok((
            m.strip_prefix(root).unwrap_or(m).to_path_buf(),
            std::fs::read_to_string(m)?,
        ))
    };
    paths.iter().filter(|m| m.is_file()).map(read).collect()
}

/// Run both checks over the workspace rooted at `root`.
pub fn check_workspace(root: &Path, manifests: &[(PathBuf, String)], report: &mut Vec<Finding>) {
    match std::fs::read_to_string(root.join("Cargo.lock")) {
        Ok(lock) => check_lock(Path::new("Cargo.lock"), &lock, report),
        Err(_) => report.push(violation(
            Path::new("Cargo.lock"),
            1,
            "Cargo.lock is missing; commit it so `--locked` builds work".into(),
        )),
    }
    for (rel, text) in manifests {
        check_manifest(rel, text, report);
    }
}

fn violation(path: &Path, line: usize, message: String) -> Finding {
    Finding::fail(path, line, "std_only", message)
}

/// Flag every `source = ...` line of a lock file.
pub fn check_lock(path: &Path, text: &str, report: &mut Vec<Finding>) {
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("source =") {
            report.push(violation(
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
pub fn check_manifest(path: &Path, text: &str, report: &mut Vec<Finding>) {
    // `[dependencies.foo]`-style table being scanned: (header line, name,
    // whether a `path`/`workspace` key was seen).
    let mut table: Option<(usize, String, bool)> = None;
    let mut in_dep_list = false;
    let flush = |table: &mut Option<(usize, String, bool)>, report: &mut Vec<Finding>| {
        if let Some((line, name, false)) = table.take() {
            report.push(violation(path, line, non_path_message(&name)));
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
                report.push(violation(path, i + 1, non_path_message(name)));
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

    fn lines_flagged(check: fn(&Path, &str, &mut Vec<Finding>), text: &str) -> Vec<usize> {
        let mut report = Vec::new();
        check(Path::new("x"), text, &mut report);
        assert!(report
            .iter()
            .all(|v| v.check == "std_only" && v.is_violation()));
        report.iter().map(|v| v.line).collect()
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
