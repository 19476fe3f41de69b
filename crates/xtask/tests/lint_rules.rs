//! Fixture tests proving every per-file rule live: each seeded
//! violation fires, and the clean fixture (idiomatic library + test code)
//! produces zero false positives. Finally, the real workspace must be
//! clean against its baseline — this test *is* the `xtask check` gate,
//! reachable from plain `cargo test`.

use std::path::{Path, PathBuf};
use xtask::baseline::{Baseline, BASELINE_FILE};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Checks a fixture as non-test library code of the given crate and
/// returns the rule names that fired (duplicates preserved).
fn rules_fired(name: &str, crate_name: &str) -> Vec<&'static str> {
    let findings =
        xtask::check_files_as(&[(&fixture(name), crate_name)], &[]).expect("fixture readable");
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unwrap_rule_fires() {
    assert_eq!(rules_fired("unwrap.rs", "roadnet"), vec!["unwrap"]);
}

#[test]
fn expect_rule_fires() {
    assert_eq!(rules_fired("expect.rs", "roadnet"), vec!["expect"]);
}

#[test]
fn panic_rule_fires() {
    let fired = rules_fired("panic.rs", "core");
    assert_eq!(fired, vec!["panic"], "panic! fires; todo! is clippy's");
}

#[test]
fn nondeterminism_rule_fires_in_numeric_crates_only() {
    let fired = rules_fired("nondeterminism.rs", "nn");
    assert_eq!(
        fired.iter().filter(|r| **r == "nondeterminism").count(),
        4,
        "Instant::now, SystemTime, thread_rng, from_entropy: {fired:?}"
    );
    // The same file linted as a non-numeric crate is silent.
    assert!(rules_fired("nondeterminism.rs", "eval").is_empty());
}

#[test]
fn float_eq_rule_fires() {
    assert_eq!(
        rules_fired("float_eq.rs", "baselines"),
        vec!["float-eq", "float-eq"]
    );
}

#[test]
fn truncating_cast_rule_fires() {
    let fired = rules_fired("truncating_cast.rs", "tensor");
    assert_eq!(
        fired,
        vec!["truncating-cast", "truncating-cast", "truncating-cast"],
        "floor-cast, literal cast, and chained float cast"
    );
}

#[test]
fn parallel_coverage_rule_fires() {
    let out = xtask::check_files_as(&[(&fixture("parallel.rs"), "tensor")], &[]).expect("fixture");
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "parallel-coverage");
    assert!(out[0].msg.contains("fold_back"));
}

#[test]
fn bare_fs_write_rule_fires() {
    assert_eq!(
        rules_fired("bare_fs_write.rs", "eval"),
        vec!["no-bare-fs-write", "no-bare-fs-write"],
        "fs::write and File::create both fire; the test module does not"
    );
}

#[test]
fn bare_eprintln_rule_fires() {
    assert_eq!(
        rules_fired("bare_eprintln.rs", "core"),
        vec!["no-bare-eprintln", "no-bare-eprintln"],
        "eprintln! and eprint! both fire; the allow and the test module do not"
    );
}

#[test]
fn env_read_rule_fires() {
    assert_eq!(
        rules_fired("env_read.rs", "core"),
        vec!["no-env-read-in-lib", "no-env-read-in-lib"],
        "env::var and env::vars fire; allow, args, env!, and tests do not"
    );
}

#[test]
fn unsupervised_spawn_rule_fires() {
    assert_eq!(
        rules_fired("unsupervised_spawn.rs", "serve"),
        vec!["no-unsupervised-spawn", "no-unsupervised-spawn"],
        "path spawn and builder .spawn( fire; allow and tests do not"
    );
    // Linted as any other crate the spawns are silent — only the serve
    // crate runs long-lived worker threads under supervision — so the
    // allow directive suppresses nothing there.
    assert_eq!(
        rules_fired("unsupervised_spawn.rs", "tensor"),
        vec!["unused-allow"]
    );
}

#[test]
fn unsupervised_spawn_rule_blesses_the_supervisor_module() {
    assert!(
        rules_fired("supervisor.rs", "serve").is_empty(),
        "the supervision layer is the one legal spawn site"
    );
}

#[test]
fn unbounded_cache_rule_fires() {
    assert_eq!(
        rules_fired("unbounded_cache.rs", "serve"),
        vec![
            "no-unbounded-cache", // cache-named receiver
            "no-unbounded-cache", // lru-named receiver
            "no-unbounded-cache", // any insert in a *cache*.rs file
        ],
        "allow-annotated and test-module inserts do not fire"
    );
}

#[test]
fn unused_allow_rule_fires() {
    let findings =
        xtask::check_files_as(&[(&fixture("unused_allow.rs"), "core")], &[]).expect("fixture");
    let fired: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        fired,
        vec![
            ("unused-allow", 10), // nothing to suppress on its lines
            ("unused-allow", 16), // no-panic never looks without a root
            ("unused-allow", 26), // test code is exempt already
        ],
        "the live directive and the doc comment do not fire"
    );
}

#[test]
fn clean_fixture_has_zero_false_positives() {
    let findings =
        xtask::check_files_as(&[(&fixture("clean.rs"), "tensor")], &[]).expect("fixture");
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut findings = xtask::check_workspace(root).expect("workspace readable");
    Baseline::load(&root.join(BASELINE_FILE))
        .expect("baseline parses")
        .absorb(&mut findings);
    assert!(
        findings.is_empty(),
        "`xtask check` findings in the workspace (a stale baseline entry is \
         `unused-allow`; refresh with `--update-baseline` after review):\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
