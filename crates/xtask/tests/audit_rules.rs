//! Fixture tests proving every call-graph rule live: each seeded flow
//! defect fires (with the right fingerprint/witness shape), each clean
//! fixture produces zero false positives, and the `no-panic` baseline
//! round-trips and reports its stale entries.

use std::path::{Path, PathBuf};
use xtask::baseline::Baseline;
use xtask::rules::Finding;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("audit")
        .join(name)
}

/// Checks one fixture file as library code of crate `demo` with the
/// given no-panic roots (path suffixes are matched against the fixture
/// file name). These fixtures seed `.unwrap()` as a *flow* panic source
/// (and lock idiom), so the per-line `unwrap` rule, proven in
/// `lint_rules.rs`, is left out of their expectations.
fn audit_one(name: &str, roots: &[(&str, &str)]) -> Vec<Finding> {
    let path = fixture(name);
    let mut findings = xtask::check_files_as(&[(&path, "demo")], roots).expect("fixture readable");
    findings.retain(|f| f.rule != "unwrap");
    findings
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// --- no-panic -------------------------------------------------------------

#[test]
fn no_panic_fires_with_witness_chains() {
    let findings = audit_one(
        "no_panic_firing.rs",
        &[("no_panic_firing.rs", "serve_entry")],
    );
    assert_eq!(rules_of(&findings), vec!["no-panic", "no-panic"]);

    let index = findings
        .iter()
        .find(|f| f.fingerprint.ends_with(":index"))
        .expect("indexing finding");
    assert!(
        index.msg.contains("`no_panic_firing::prepare`"),
        "{}",
        index.msg
    );
    assert_eq!(index.chain.len(), 2, "root -> prepare: {:?}", index.chain);
    assert!(index.chain[0].contains("serve_entry"), "{:?}", index.chain);

    let unwrap = findings
        .iter()
        .find(|f| f.fingerprint.ends_with(":unwrap"))
        .expect("unwrap finding");
    // serve_entry -> combine -> reduce_max, each hop carrying file:line.
    assert_eq!(unwrap.chain.len(), 3, "{:?}", unwrap.chain);
    assert!(
        unwrap
            .chain
            .iter()
            .all(|hop| hop.contains("no_panic_firing.rs:")),
        "every hop cites a call site: {:?}",
        unwrap.chain
    );
}

#[test]
fn no_panic_clean_has_zero_false_positives() {
    let findings = audit_one("no_panic_clean.rs", &[("no_panic_clean.rs", "serve_entry")]);
    assert_eq!(rules_of(&findings), Vec::<&str>::new(), "{findings:#?}");
}

#[test]
fn missing_root_is_itself_a_finding() {
    let findings = audit_one("no_panic_clean.rs", &[("no_panic_clean.rs", "gone_entry")]);
    // With the root gone, the fixture's reviewed allow suppresses nothing.
    assert_eq!(rules_of(&findings), vec!["no-panic", "unused-allow"]);
    assert_eq!(
        findings[0].fingerprint,
        "no-panic:missing-root:no_panic_clean.rs:gone_entry"
    );
}

// --- unsafe-safety ----------------------------------------------------------

#[test]
fn unsafe_rules_fire() {
    let findings = audit_one("unsafe_firing.rs", &[]);
    assert_eq!(rules_of(&findings), vec!["unsafe-safety"]);
    assert!(
        findings[0].msg.contains("no_comment"),
        "{}",
        findings[0].msg
    );
}

#[test]
fn unsafe_clean_has_zero_false_positives() {
    let findings = audit_one("unsafe_clean.rs", &[]);
    assert_eq!(rules_of(&findings), Vec::<&str>::new(), "{findings:#?}");
}

// --- lock-order / lock-across-send ---------------------------------------

#[test]
fn lock_rules_fire_including_transitive_order() {
    let findings = audit_one("lock_firing.rs", &[]);
    assert_eq!(rules_of(&findings), vec!["lock-order", "lock-across-send"]);
    // The queue->registry direction only exists *transitively*
    // (outer holds queue, tick acquires registry).
    assert_eq!(findings[0].fingerprint, "lock-order:queue<->registry");
    assert!(
        findings[0].msg.contains("both orders"),
        "{}",
        findings[0].msg
    );
    assert!(
        findings[1].fingerprint.contains(":notify:queue:send"),
        "{}",
        findings[1].fingerprint
    );
}

#[test]
fn lock_clean_has_zero_false_positives() {
    let findings = audit_one("lock_clean.rs", &[]);
    assert_eq!(rules_of(&findings), Vec::<&str>::new(), "{findings:#?}");
}

// --- metrics-consistency --------------------------------------------------

#[test]
fn metrics_rule_fires() {
    let findings = audit_one("metrics_firing.rs", &[]);
    assert_eq!(rules_of(&findings), vec!["metrics-consistency"]);
    assert_eq!(findings[0].fingerprint, "metrics-consistency:fixture.ticks");
}

#[test]
fn metrics_clean_has_zero_false_positives() {
    let findings = audit_one("metrics_clean.rs", &[]);
    assert_eq!(rules_of(&findings), Vec::<&str>::new(), "{findings:#?}");
}

// --- baseline -------------------------------------------------------------

#[test]
fn baseline_loads_partitions_and_reports_stale() {
    let baseline = Baseline::load(&fixture("baseline_ok.json")).expect("well-formed");
    assert_eq!(baseline.fingerprints.len(), 2);

    let roots = [("no_panic_firing.rs", "serve_entry")];
    let mut findings = audit_one("no_panic_firing.rs", &roots);
    // The fixture file's own path differs from the baseline's demo path,
    // so nothing matches: both findings stay, and both entries are stale
    // (the metrics-consistency one could never absorb anything).
    assert_eq!(baseline.absorb(&mut findings), 0);
    assert_eq!(
        rules_of(&findings),
        vec!["no-panic", "no-panic", "unused-allow", "unused-allow"]
    );

    // A baseline rendered from the findings absorbs them exactly.
    let mut findings = audit_one("no_panic_firing.rs", &roots);
    let rendered = xtask::baseline::render(&findings);
    let dir = std::env::temp_dir().join(format!("xtask-baseline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.json");
    std::fs::write(&path, rendered).expect("write baseline");
    let reloaded = Baseline::load(&path).expect("round-trips");
    assert_eq!(reloaded.absorb(&mut findings), 2);
    assert!(findings.is_empty(), "{findings:#?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_baseline_entry_is_an_unused_allow() {
    let baseline = Baseline::load(&fixture("baseline_stale.json")).expect("well-formed");
    let mut findings = audit_one("no_panic_clean.rs", &[("no_panic_clean.rs", "serve_entry")]);
    assert_eq!(baseline.absorb(&mut findings), 0);
    assert_eq!(rules_of(&findings), vec!["unused-allow"]);
    assert_eq!(
        (findings[0].path.as_str(), findings[0].line),
        ("baseline_stale.json", 4),
        "anchored at the entry's line"
    );
    assert!(
        findings[0].msg.contains("demo::gone:unwrap"),
        "{}",
        findings[0].msg
    );
}

#[test]
fn missing_baseline_is_empty_but_malformed_is_an_error() {
    let missing = Baseline::load(&fixture("no_such_baseline.json")).expect("missing = empty");
    assert!(missing.fingerprints.is_empty());
    let err = Baseline::load(&fixture("baseline_bad.json"));
    assert!(err.is_err(), "malformed baseline must not silently pass");
}

// --- workspace ------------------------------------------------------------

/// The call-graph rules this file's fixtures prove live.
const AUDIT_RULES: [&str; 5] = [
    "no-panic",
    "unsafe-safety",
    "lock-order",
    "lock-across-send",
    "metrics-consistency",
];

#[test]
fn workspace_audit_is_clean_against_checked_in_baseline() {
    // crates/xtask -> crates -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut findings = xtask::check_workspace(root).expect("workspace readable");
    Baseline::load(&root.join(xtask::baseline::BASELINE_FILE))
        .expect("baseline parses")
        .absorb(&mut findings);
    // Every baseline entry is an audit fingerprint, so a stale one
    // (`unused-allow`) belongs to this audit too.
    findings.retain(|f| AUDIT_RULES.contains(&f.rule) || f.rule == "unused-allow");
    assert!(
        findings.is_empty(),
        "unbaselined audit findings or stale baseline entries (refresh with \
         `cargo run -p xtask -- check --update-baseline` after review):\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
