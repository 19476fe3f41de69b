//! The checked-in `no-panic` baseline (`audit-baseline.json`).
//!
//! The call graph over-approximates, so `no-panic` also reports chains
//! that cannot execute; a reviewed `--update-baseline` run records them
//! here. It is the only rule a baseline absorbs — every other finding is
//! fixed or allow-annotated at its line. Matching is by fingerprint
//! (line-number-free), so ordinary edits don't churn the file. An entry
//! that absorbs nothing is an `unused-allow` finding: a fingerprint has
//! no line, so a stale entry would quietly absorb a later panic of the
//! same kind in the same fn.

use crate::rules::{sort, Finding};
use serde::json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// File name of the baseline at the workspace root.
pub const BASELINE_FILE: &str = "audit-baseline.json";

/// Parsed baseline: accepted fingerprints, each with its line in the file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// File name findings about the baseline itself are reported under.
    pub path: String,
    /// Fingerprint → 1-based line of its entry.
    pub fingerprints: BTreeMap<String, u32>,
}

impl Baseline {
    /// Loads `path`. A missing file is an *empty* baseline (fresh
    /// checkout before the first `--update-baseline`); an unreadable or
    /// malformed file is an error — the gate must not silently pass
    /// because its baseline rotted.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        let mut baseline = Baseline {
            path: name,
            fingerprints: BTreeMap::new(),
        };
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(baseline),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let err = |e| format!("{}: {e}", path.display());
        let v = json::parse(&src).map_err(err)?;
        let arr = json::obj_field(&v, "findings")
            .and_then(json::expect_arr)
            .map_err(err)?;
        for item in arr {
            let fp = json::obj_field(item, "fingerprint")
                .and_then(json::expect_str)
                .map_err(err)?;
            let quoted = format!("\"{fp}\"");
            let line = src.lines().position(|l| l.contains(&quoted)).unwrap_or(0);
            baseline
                .fingerprints
                .insert(fp.to_string(), line as u32 + 1);
        }
        Ok(baseline)
    }

    /// Removes the `no-panic` findings this baseline absorbs, reports
    /// every entry that absorbed nothing as `unused-allow`, and returns
    /// how many findings were absorbed.
    pub fn absorb(&self, findings: &mut Vec<Finding>) -> usize {
        let absorbs =
            |f: &Finding| f.rule == "no-panic" && self.fingerprints.contains_key(&f.fingerprint);
        let used: BTreeSet<String> = findings
            .iter()
            .filter(|f| absorbs(f))
            .map(|f| f.fingerprint.clone())
            .collect();
        let before = findings.len();
        findings.retain(|f| !absorbs(f));
        let absorbed = before - findings.len();
        for (fp, &line) in &self.fingerprints {
            if !used.contains(fp) {
                let mut f = Finding::at(
                    "unused-allow",
                    &self.path,
                    line,
                    format!("baseline entry `{fp}` absorbs no `no-panic` finding; delete it"),
                );
                f.fingerprint = format!("unused-allow:{}:{fp}", self.path);
                findings.push(f);
            }
        }
        sort(findings);
        absorbed
    }
}

/// Renders the `no-panic` findings as baseline JSON: fingerprint plus a
/// human note (rule + message) so reviews of baseline diffs don't need
/// to re-run the check. Sorted by fingerprint; one finding per line.
pub fn render(findings: &[Finding]) -> String {
    let mut rows: Vec<&Finding> = findings.iter().filter(|f| f.rule == "no-panic").collect();
    rows.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
    rows.dedup_by(|a, b| a.fingerprint == b.fingerprint);
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, f) in rows.iter().enumerate() {
        out.push_str("    {\"fingerprint\": ");
        json::escape_str(&f.fingerprint, &mut out);
        out.push_str(", \"rule\": ");
        json::escape_str(f.rule, &mut out);
        out.push_str(", \"note\": ");
        json::escape_str(&f.msg, &mut out);
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}
