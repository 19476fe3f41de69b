//! Every rule `xtask check` runs, and the one registry they report
//! through.
//!
//! Each rule is a view of the parsed files (`crate::parser`): the
//! per-line rules scan a file's tokens outside its test mask, the panic
//! rules read the parser's panic sites, `parallel-coverage` reads its
//! fns, and the flow rules walk the workspace call graph
//! (`crate::callgraph`). A plain comment `// deepod-lint: allow(<rule>)`
//! (`deepod-audit:` is accepted too) on a finding's line or the line
//! above suppresses it; a directive that suppresses nothing is itself an
//! `unused-allow` finding. DESIGN.md §7 is the rule ledger: what each
//! rule denies, what it has caught, and its live allows.

mod env_read;
mod eprintln_rule;
mod float_eq;
mod fs_write;
mod lock_order;
pub(crate) mod masks;
mod metrics;
mod no_panic;
mod nondeterminism;
mod parallel_coverage;
mod spawn;
mod truncating_cast;
mod unbounded_cache;
mod unsafe_safety;

pub use no_panic::DEFAULT_ROOTS;

use crate::callgraph::CallGraph;
use crate::parser::{PanicKind, ParsedFile};
use std::fmt;

/// Crates whose library code must be free of ambient nondeterminism: the
/// model forward/backward stack and everything it computes with. A wall
/// clock or OS-entropy RNG anywhere here silently breaks the bit-stable
/// loss-curve contract from DESIGN.md §6.
pub const DETERMINISTIC_CRATES: [&str; 4] = ["core", "nn", "tensor", "graphembed"];

/// Files of the checker's own crate get every per-line rule but stay out
/// of the call graph: the flow rules certify the *product* crates, and
/// tooling sharing method names with them (`item`, `parse`) would only
/// inject false edges.
const TOOLING_PREFIX: &str = "crates/xtask/";

/// One row of the rule registry.
pub struct RuleInfo {
    /// Stable rule id (`unwrap`, `no-panic`, ...).
    pub id: &'static str,
    /// One-line description for `xtask rules`.
    pub description: &'static str,
}

/// Every rule, in report order. Every finding fails the gate.
pub const REGISTRY: [RuleInfo; 18] = [
    RuleInfo {
        id: "unwrap",
        description: "`.unwrap()` in non-test library code",
    },
    RuleInfo {
        id: "expect",
        description: "`.expect(..)` in non-test library code",
    },
    RuleInfo {
        id: "panic",
        description: "`panic!` in non-test library code",
    },
    RuleInfo {
        id: "nondeterminism",
        description: "wall clock or OS-entropy RNG in the deterministic numeric crates",
    },
    RuleInfo {
        id: "float-eq",
        description: "exact `==`/`!=` against a float literal",
    },
    RuleInfo {
        id: "truncating-cast",
        description: "float-producing expression cast straight to an integer type",
    },
    RuleInfo {
        id: "parallel-coverage",
        description: "pub fn in deepod_tensor::parallel without a *serial* regression test",
    },
    RuleInfo {
        id: "no-bare-fs-write",
        description: "fs::write / File::create outside the crash-safe io_guard path",
    },
    RuleInfo {
        id: "no-bare-eprintln",
        description: "eprintln!/eprint! in library code bypassing the obs layer",
    },
    RuleInfo {
        id: "no-env-read-in-lib",
        description: "environment read in library code instead of RuntimeConfig",
    },
    RuleInfo {
        id: "no-unsupervised-spawn",
        description: "bare thread spawn in deepod-serve outside the supervisor module",
    },
    RuleInfo {
        id: "no-unbounded-cache",
        description: "cache-named insert in a file with no capacity bound or eviction evidence",
    },
    RuleInfo {
        id: "no-panic",
        description: "panic source (unwrap/expect/panic!/indexing/assert!) reachable from a \
                      hot-path root",
    },
    RuleInfo {
        id: "unsafe-safety",
        description: "unsafe block or fn without a `// SAFETY:` justification comment",
    },
    RuleInfo {
        id: "lock-order",
        description: "two named locks acquired in both orders on different paths (deadlock)",
    },
    RuleInfo {
        id: "lock-across-send",
        description: "lock guard held across a channel send or queue submit",
    },
    RuleInfo {
        id: "metrics-consistency",
        description: "metric name emitted somewhere but absent from the eager registration set",
    },
    RuleInfo {
        id: "unused-allow",
        description: "allow directive or baseline entry that suppresses nothing",
    },
];

/// One finding of any rule.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (one of [`REGISTRY`]).
    pub rule: &'static str,
    /// Workspace-relative path of the anchoring site.
    pub path: String,
    /// 1-based line of the anchoring site.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
    /// Stable identity. The flow rules leave line numbers out of it, so
    /// the `no-panic` baseline survives ordinary edits.
    pub fingerprint: String,
    /// Witness call chain (root first), one `label (path:line)` per hop;
    /// empty except for `no-panic`.
    pub chain: Vec<String>,
}

impl Finding {
    /// A finding at one line, identified by that line.
    pub fn at(rule: &'static str, path: &str, line: u32, msg: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            msg,
            fingerprint: format!("{rule}:{path}:{line}"),
            chain: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )?;
        for hop in &self.chain {
            write!(f, "\n    {hop}")?;
        }
        Ok(())
    }
}

/// Reports a finding at `line` unless an allow directive covers it.
fn push(file: &ParsedFile, out: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String) {
    if !file.allowed(rule, line) {
        out.push(Finding::at(rule, &file.rel_path, line, msg));
    }
}

/// Runs every rule over `files` with the given `no-panic` roots, then
/// reports each allow directive that suppressed nothing. The result is
/// sorted; the baseline has not been applied yet.
pub(crate) fn run(files: &[ParsedFile], roots: &[(&str, &str)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        panic_rules(file, &mut out);
        eprintln_rule::check(file, &mut out);
        env_read::check(file, &mut out);
        nondeterminism::check(file, &mut out);
        float_eq::check(file, &mut out);
        fs_write::check(file, &mut out);
        spawn::check(file, &mut out);
        truncating_cast::check(file, &mut out);
        unbounded_cache::check(file, &mut out);
    }
    parallel_coverage::check(files, &mut out);

    let graph = CallGraph::build(
        files
            .iter()
            .filter(|f| !f.rel_path.starts_with(TOOLING_PREFIX)),
    );
    no_panic::check(&graph, roots, &mut out);
    unsafe_safety::check(&graph, &mut out);
    lock_order::check(&graph, &mut out);
    metrics::check(&graph, &mut out);

    for file in files {
        for a in file.allows.iter().filter(|a| !a.used.get()) {
            let msg = format!("`allow({})` suppresses nothing here; delete it", a.rule);
            out.push(Finding::at("unused-allow", &file.rel_path, a.line, msg));
        }
    }
    sort(&mut out);
    out
}

/// Sorts findings by (registry order, path, line, fingerprint).
pub(crate) fn sort(findings: &mut [Finding]) {
    let order = |rule: &str| REGISTRY.iter().position(|r| r.id == rule);
    findings.sort_by(|a, b| {
        (order(a.rule), &a.path, a.line, &a.fingerprint).cmp(&(
            order(b.rule),
            &b.path,
            b.line,
            &b.fingerprint,
        ))
    });
}

/// `unwrap`, `expect`, `panic`: views of the parser's panic sites.
/// Library code returns typed errors instead of crashing; binary entry
/// points are exempt (a CLI top level may crash with a message).
/// `todo!` / `unimplemented!` are left to clippy, which denies them on
/// every target.
fn panic_rules(file: &ParsedFile, out: &mut Vec<Finding>) {
    if file.is_bin {
        return;
    }
    let fn_sites = file.functions.iter().flat_map(|f| &f.panics);
    for site in fn_sites.chain(&file.top_level_panics) {
        let (rule, msg) = match site.kind {
            PanicKind::Unwrap => (
                "unwrap",
                "`.unwrap()` in library code; return a typed error or restructure \
                 so the invariant is explicit",
            ),
            PanicKind::Expect => (
                "expect",
                "`.expect(..)` in library code; return a typed error instead",
            ),
            PanicKind::Panic => (
                "panic",
                "`panic!` in library code; return a typed error instead",
            ),
            _ => continue,
        };
        push(file, out, rule, site.line, msg.to_string());
    }
}

/// Parses `src` as one file and runs every rule over it (unit-test
/// entry point).
#[cfg(test)]
pub(crate) fn check_src(rel_path: &str, crate_name: &str, src: &str, is_bin: bool) -> Vec<Finding> {
    let lexed = crate::lexer::lex(src);
    let file = crate::parser::parse_file(rel_path, crate_name, lexed, false, is_bin);
    run(&[file], &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn lint_lib_src(src: &str) -> Vec<Finding> {
        check_src("mem.rs", "tensor", src, false)
    }

    #[test]
    fn registry_covers_every_rule_exactly_once() {
        let mut seen = BTreeSet::new();
        for r in &REGISTRY {
            assert!(seen.insert(r.id), "duplicate registry id {}", r.id);
            assert!(!r.description.is_empty());
        }
        // Findings of every rule sort in registry order.
        let mut f: Vec<Finding> = ["unused-allow", "no-panic", "unwrap"]
            .into_iter()
            .map(|rule| Finding::at(rule, "a.rs", 1, String::new()))
            .collect();
        sort(&mut f);
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unwrap", "no-panic", "unused-allow"]);
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n";
        let f = lint_lib_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nmod m { fn b() { y.unwrap(); } }\n";
        assert_eq!(lint_lib_src(src).len(), 1);
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn lib() { z.unwrap(); }\n";
        let f = lint_lib_src(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn a() { x.unwrap(); } // deepod-lint: allow(unwrap)\n";
        assert!(lint_lib_src(src).is_empty());
        // A directive that suppresses nothing is itself a finding.
        let f = lint_lib_src("// deepod-lint: allow(unwrap)\nfn a() {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("unused-allow", 1));
    }

    #[test]
    fn truncating_cast_variants() {
        assert_eq!(
            lint_lib_src("fn a() -> usize { x.floor() as usize }").len(),
            1
        );
        assert_eq!(lint_lib_src("fn a() -> usize { 2.5 as usize }").len(), 1);
        assert_eq!(lint_lib_src("fn a() -> u32 { x as f32 as u32 }").len(), 1);
        assert!(lint_lib_src("fn a() -> usize { x.len() as usize }").is_empty());
        assert!(lint_lib_src("fn a() -> f64 { x.floor() as f64 }").is_empty());
    }

    #[test]
    fn float_eq_flags_literal_comparisons_only() {
        assert_eq!(lint_lib_src("fn a() -> bool { x == 0.0 }").len(), 1);
        assert_eq!(lint_lib_src("fn a() -> bool { 1.5 != y }").len(), 1);
        assert!(lint_lib_src("fn a() -> bool { x == y }").is_empty());
        assert!(lint_lib_src("fn a() -> bool { n == 0 }").is_empty());
    }

    #[test]
    fn nondeterminism_scoped_to_crate_list() {
        let src = "fn a() { let t = Instant::now(); }";
        assert_eq!(check_src("mem.rs", "core", src, false).len(), 1);
        assert!(
            check_src("mem.rs", "eval", src, false).is_empty(),
            "eval may use wall clocks"
        );
    }

    #[test]
    fn parallel_coverage_names() {
        let src = "pub fn map_ranges() {}\npub(crate) fn tree_reduce() {}\nfn private() {}\n\
                   #[cfg(test)]\nmod tests {\n#[test]\nfn map_ranges_threads1_matches_serial() {}\n}\n";
        let out = check_src("crates/tensor/src/parallel.rs", "tensor", src, false);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("parallel-coverage", 2));
        assert!(out[0].msg.contains("tree_reduce"));
        // Only the parallel module is anchored.
        assert!(check_src("crates/tensor/src/ops.rs", "tensor", src, false).is_empty());
    }

    #[test]
    fn bare_fs_write_fires_outside_io_guard() {
        let src = "fn a() { std::fs::write(p, b)?; }";
        assert_eq!(lint_lib_src(src).len(), 1);
        assert_eq!(lint_lib_src(src)[0].rule, "no-bare-fs-write");
        let src = "fn a() { let f = File::create(p)?; }";
        assert_eq!(lint_lib_src(src)[0].rule, "no-bare-fs-write");
        // Reads and directory creation stay legal.
        assert!(lint_lib_src("fn a() { fs::read_to_string(p)?; }").is_empty());
        assert!(lint_lib_src("fn a() { fs::create_dir_all(p)?; }").is_empty());
    }

    #[test]
    fn bare_fs_write_exempts_io_guard_and_tests() {
        let src = "fn a() { std::fs::write(p, b)?; }";
        let out = check_src("crates/core/src/io_guard.rs", "core", src, false);
        assert!(out.is_empty(), "io_guard.rs may write directly: {out:?}");

        let src = "#[test]\nfn t() { std::fs::write(p, b).unwrap(); }\n";
        assert!(lint_lib_src(src).is_empty(), "test code may seed files");
    }

    #[test]
    fn bare_fs_write_fires_in_bins_too() {
        let src = "fn main() { std::fs::write(p, b).ok(); }";
        let out = check_src("crates/cli/src/main.rs", "cli", src, true);
        assert!(
            out.iter().any(|f| f.rule == "no-bare-fs-write"),
            "bins are not exempt: {out:?}"
        );
    }

    #[test]
    fn bare_eprintln_fires_in_library_code_only() {
        let f = lint_lib_src("fn a() { eprintln!(\"oops\"); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-bare-eprintln");
        assert_eq!(
            lint_lib_src("fn a() { eprint!(\"x\"); }")[0].rule,
            "no-bare-eprintln"
        );
        // println! (stdout) and an identifier without `!` stay legal.
        assert!(lint_lib_src("fn a() { println!(\"ok\"); }").is_empty());
        assert!(lint_lib_src("fn a() { let eprintln = 1; }").is_empty());
        // Allow directive and test code are exempt.
        assert!(lint_lib_src(
            "fn a() { eprintln!(\"x\"); } // deepod-lint: allow(no-bare-eprintln)"
        )
        .is_empty());
        assert!(lint_lib_src("#[test]\nfn t() { eprintln!(\"dbg\"); }\n").is_empty());
        // Bins keep their top-level stderr messages.
        let src = "fn main() { eprintln!(\"error: x\"); }";
        let out = check_src("crates/cli/src/main.rs", "cli", src, true);
        assert!(out.is_empty(), "bins are exempt: {out:?}");
    }

    #[test]
    fn env_read_fires_in_library_code_only() {
        let f = lint_lib_src("fn a() { let v = std::env::var(\"X\"); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-env-read-in-lib");
        assert_eq!(
            lint_lib_src("fn a() { for (k, v) in std::env::vars() {} }")[0].rule,
            "no-env-read-in-lib"
        );
        assert_eq!(
            lint_lib_src("fn a() { env::var_os(\"X\"); }")[0].rule,
            "no-env-read-in-lib"
        );
        // `env::args` (argv, not ambient config) and the compile-time
        // `env!` macro stay legal, as do tests and allow directives.
        assert!(lint_lib_src("fn a() { std::env::args().nth(1); }").is_empty());
        assert!(lint_lib_src("fn a() { let v = env!(\"CARGO_PKG_NAME\"); }").is_empty());
        assert!(lint_lib_src("#[test]\nfn t() { std::env::var(\"X\").ok(); }\n").is_empty());
        assert!(lint_lib_src(
            "fn a() { std::env::var(\"X\").ok(); } // deepod-lint: allow(no-env-read-in-lib)"
        )
        .is_empty());
        // Binaries resolve the environment themselves: exempt.
        let src = "fn main() { std::env::var(\"DEEPOD_LOG\").ok(); }";
        let out = check_src("crates/cli/src/main.rs", "cli", src, true);
        assert!(out.is_empty(), "bins may read env: {out:?}");
    }

    #[test]
    fn unsupervised_spawn_fires_in_serve_outside_supervisor() {
        let lint_serve = |rel_path: &str, src: &str| {
            let mut out = check_src(rel_path, "serve", src, false);
            out.retain(|f| f.rule == "no-unsupervised-spawn");
            out
        };
        // Bare path spawn and builder-style `.spawn(` both fire.
        let f = lint_serve(
            "crates/serve/src/engine.rs",
            "fn a() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            lint_serve(
                "crates/serve/src/engine.rs",
                "fn a() { thread::Builder::new().spawn(|| {}); }",
            )
            .len(),
            1
        );
        // The supervisor module is the blessed spawn site.
        assert!(lint_serve(
            "crates/serve/src/supervisor.rs",
            "fn a() { std::thread::spawn(|| {}); }",
        )
        .is_empty());
        // Other crates, test code, and allow directives are exempt.
        let src = "fn a() { std::thread::spawn(|| {}); }";
        let out = check_src("crates/tensor/src/parallel.rs", "tensor", src, false);
        assert!(
            out.iter().all(|f| f.rule != "no-unsupervised-spawn"),
            "{out:?}"
        );
        assert!(lint_serve(
            "crates/serve/src/engine.rs",
            "#[test]\nfn t() { std::thread::spawn(|| {}); }\n",
        )
        .is_empty());
        assert!(lint_serve(
            "crates/serve/src/engine.rs",
            "fn a() { std::thread::spawn(|| {}); } // deepod-lint: allow(no-unsupervised-spawn)",
        )
        .is_empty());
    }

    #[test]
    fn bins_skip_panic_rules_but_not_hygiene() {
        let src = "fn main() { x.unwrap(); let b = y == 0.5; }";
        let out = check_src("main.rs", "cli", src, true);
        assert!(out.iter().all(|f| f.rule != "unwrap"), "{out:?}");
        assert!(out.iter().any(|f| f.rule == "float-eq"), "{out:?}");
    }
}
