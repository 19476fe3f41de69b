//! `cargo run -p xtask -- <command>` — workspace automation.
//!
//! Commands:
//!
//! * `check [--root DIR] [--json] [--update-baseline]` — run every rule
//!   over one parse of the workspace; `no-panic` findings are compared
//!   against `audit-baseline.json`, which `--update-baseline` first
//!   rewrites from the current findings (after review).
//! * `rules` — print every rule with its description.
//!
//! Exit-code contract: `0` clean, `1` findings survive the allow
//! directives and the baseline, `2` I/O or parse error (unreadable tree,
//! corrupt baseline). CI can therefore distinguish "the code regressed"
//! from "the gate itself broke".

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::baseline::{self, Baseline, BASELINE_FILE};
use xtask::rules::{Finding, REGISTRY};

const USAGE: &str = "\
xtask — DeepOD workspace automation

USAGE:
  cargo run -p xtask -- check [--root DIR] [--json] [--update-baseline]
                                         run every rule (DESIGN.md §7)
  cargo run -p xtask -- rules            list all rules

EXIT CODES:
  0  clean        1  findings        2  I/O or parse error
";

const EXIT_FINDINGS: u8 = 1;
const EXIT_ERROR: u8 = 2;

fn workspace_root(argv: &[String]) -> PathBuf {
    if let Some(i) = argv.iter().position(|a| a == "--root") {
        if let Some(dir) = argv.get(i + 1) {
            return PathBuf::from(dir);
        }
    }
    // crates/xtask -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn run_check(argv: &[String]) -> Result<ExitCode, String> {
    let root = workspace_root(argv);
    let baseline_path = root.join(BASELINE_FILE);
    let mut findings = xtask::check_workspace(&root).map_err(|e| format!("i/o error: {e}"))?;

    if argv.iter().any(|a| a == "--update-baseline") {
        // The gate's own baseline is not a crash-safe artifact; a torn
        // write is repaired by re-running.
        // deepod-lint: allow(no-bare-fs-write)
        std::fs::write(&baseline_path, baseline::render(&findings))
            .map_err(|e| format!("cannot write baseline: {e}"))?;
        eprintln!(
            "xtask check: baseline rewritten -> {}",
            baseline_path.display()
        );
    }
    let absorbed = Baseline::load(&baseline_path)
        .map_err(|e| format!("bad baseline: {e}"))?
        .absorb(&mut findings);

    if argv.iter().any(|a| a == "--json") {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        let by_rule: Vec<String> = REGISTRY
            .iter()
            .filter_map(|r| {
                let n = findings.iter().filter(|f| f.rule == r.id).count();
                (n > 0).then(|| format!("{}: {n}", r.id))
            })
            .collect();
        let verdict = if findings.is_empty() {
            "clean".to_string()
        } else {
            format!("{} finding(s) [{}]", findings.len(), by_rule.join(", "))
        };
        eprintln!(
            "xtask check: {verdict} ({} rules, {absorbed} baselined no-panic finding(s))",
            REGISTRY.len()
        );
    }
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    })
}

/// `{"findings": [...], "count": N}`, one finding per line with its
/// fingerprint and witness chain.
fn render_json(findings: &[Finding]) -> String {
    use serde::json::escape_str;
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {\"rule\": ");
        escape_str(f.rule, &mut out);
        out.push_str(", \"path\": ");
        escape_str(&f.path, &mut out);
        out.push_str(&format!(", \"line\": {}, \"msg\": ", f.line));
        escape_str(&f.msg, &mut out);
        out.push_str(", \"fingerprint\": ");
        escape_str(&f.fingerprint, &mut out);
        out.push_str(", \"chain\": [");
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            escape_str(hop, &mut out);
        }
        out.push_str("]}");
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check") => run_check(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("xtask check: {e}");
            ExitCode::from(EXIT_ERROR)
        }),
        Some("rules") => {
            for info in REGISTRY {
                println!("{:<22} {}", info.id, info.description);
            }
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command '{other}'\n{USAGE}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}
