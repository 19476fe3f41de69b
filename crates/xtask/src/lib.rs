//! `xtask` — workspace automation for the DeepOD stack.
//!
//! The one subcommand that matters is `cargo run -p xtask -- check`: a
//! static-analysis gate enforcing the invariants the determinism and
//! serving contracts rest on (DESIGN.md §6–§7) — determinism of the
//! numeric crates, panic-freedom of library code and of the serving hot
//! path, numeric hygiene, crash-safe writes, lock discipline, and named
//! serial-equivalence coverage for every parallel primitive. Each file
//! is read, lexed, test-masked and parsed once ([`parser::ParsedFile`]);
//! every rule in [`rules::REGISTRY`] is a view of those parses.
//!
//! The gate is deliberately dependency-free (hand-rolled lexer, `std`
//! only) so it builds in seconds and runs offline.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

use parser::ParsedFile;
use rules::Finding;
use std::path::{Path, PathBuf};

/// Directories never scanned: vendored stand-ins are external code, rule
/// fixtures contain violations *on purpose*, and build output is noise.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Recursively collects `.rs` files under `dir` (sorted for stable output).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether every token of the file counts as test code by location alone.
fn path_is_test_only(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.ends_with("_test.rs")
        || rel.ends_with("_tests.rs")
}

/// Whether the file is a binary entry point (panic-safety rules relax).
fn path_is_bin(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("/src/main.rs")
}

/// Crate directory name for a workspace-relative path like
/// `crates/tensor/src/ops.rs`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Reads, lexes and parses one file.
fn parse_path(
    path: &Path,
    rel: &str,
    crate_name: &str,
    test_only: bool,
    is_bin: bool,
) -> std::io::Result<ParsedFile> {
    let src = std::fs::read_to_string(path)?;
    let lexed = lexer::lex(&src);
    Ok(parser::parse_file(
        rel, crate_name, lexed, test_only, is_bin,
    ))
}

/// Parses every `.rs` file under `root/crates`, each read once.
fn parse_workspace(root: &Path) -> std::io::Result<Vec<ParsedFile>> {
    let mut paths = Vec::new();
    collect_rs_files(&root.join("crates"), &mut paths)?;
    paths
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            parse_path(
                path,
                &rel,
                crate_of(&rel),
                path_is_test_only(&rel),
                path_is_bin(&rel),
            )
        })
        .collect()
}

/// Runs every rule over the workspace rooted at `root` with the default
/// `no-panic` roots; the baseline is not applied yet. Fails with `Err`
/// only on I/O problems (unreadable tree), never on findings.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(rules::run(&parse_workspace(root)?, &rules::DEFAULT_ROOTS))
}

/// Checks files in isolation, each as non-test library code of its
/// crate, with explicit `no-panic` roots (the fixture entry point; a
/// root outside the set is a missing-root finding).
pub fn check_files_as(
    paths: &[(&Path, &str)],
    roots: &[(&str, &str)],
) -> std::io::Result<Vec<Finding>> {
    let files = paths
        .iter()
        .map(|(path, crate_name)| {
            let rel = path.to_string_lossy().replace('\\', "/");
            parse_path(path, &rel, crate_name, false, false)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(rules::run(&files, roots))
}
