//! The `deepod-lint` rule set and the shared rule registry.
//!
//! Each lint rule is a token-level pattern over a [`Lexed`] file plus a
//! *test mask* (which tokens live inside `#[cfg(test)]` modules, `#[test]`
//! functions, `tests/` or `benches/` trees). Rules report [`Finding`]s;
//! a trailing `// deepod-lint: allow(<rule>)` comment on the same line
//! (or a standalone comment on the line above) suppresses a finding.
//! Every rule lives in its own module below; [`REGISTRY`] is the single
//! table of (id, pass, default severity, description) shared by the
//! `lint` and `audit` output paths.
//!
//! Lint rules (see DESIGN.md §7 for rationale and how to add one):
//!
//! | rule                | what it denies                                       |
//! |---------------------|------------------------------------------------------|
//! | `unwrap`            | `.unwrap()` in non-test library code                 |
//! | `expect`            | `.expect(..)` in non-test library code               |
//! | `panic`             | `panic!` / `unimplemented!` / `todo!` in non-test    |
//! | `nondeterminism`    | `Instant::now` / `SystemTime` / `thread_rng` /       |
//! |                     | `from_entropy` in the numeric crates                 |
//! | `float-eq`          | `==` / `!=` against a float literal in non-test code |
//! | `truncating-cast`   | float-producing expression cast straight to an       |
//! |                     | integer index type                                   |
//! | `parallel-coverage` | a `pub fn` in `deepod_tensor::parallel` without a    |
//! |                     | named `*serial*` regression test                     |
//! | `no-bare-fs-write`  | `fs::write` / `File::create` outside `io_guard.rs`   |
//! |                     | (bypasses the atomic-rename + checksum write path)   |
//! | `no-bare-eprintln`  | `eprintln!` / `eprint!` in library code (bypasses    |
//! |                     | the `deepod_core::obs` level gate + single writer)   |
//! | `no-env-read-in-lib`| `env::var` / `var_os` / `vars` in library code       |
//! |                     | (configuration flows through `RuntimeConfig`,        |
//! |                     | resolved once in the binary)                         |
//! | `no-unchecked-simd` | a `_mm*` intrinsic call site outside a               |
//! |                     | `#[target_feature]` fn, or in a file with no         |
//! |                     | `is_x86_feature_detected!` runtime dispatcher        |
//! | `no-unsupervised-spawn` | a bare `thread::spawn` / `.spawn(` in            |
//! |                     | `deepod-serve` outside `supervisor.rs` (panics would |
//! |                     | strand queued requests behind a dead shard)          |
//! | `no-unbounded-cache`| a cache-named `.insert(` in a file with no capacity  |
//! |                     | bound or eviction in sight (a cache that only grows  |
//! |                     | is a slow memory leak)                               |
//!
//! The workspace-level *audit* rules (call-graph analyses, DESIGN.md §13)
//! live under `crate::audit` but register here so both passes report
//! through one vocabulary.

mod env_read;
mod eprintln_rule;
mod float_eq;
mod fs_write;
pub(crate) mod masks;
mod nondeterminism;
mod panic_rules;
mod parallel_coverage;
mod simd;
mod spawn;
mod truncating_cast;
mod unbounded_cache;

pub use parallel_coverage::check_parallel_coverage;

use crate::lexer::Lexed;
use std::collections::BTreeSet;
use std::fmt;

/// Crates whose library code must be free of ambient nondeterminism: the
/// model forward/backward stack and everything it computes with. A wall
/// clock or OS-entropy RNG anywhere here silently breaks the bit-stable
/// loss-curve contract from DESIGN.md §6.
pub const DETERMINISTIC_CRATES: [&str; 4] = ["core", "nn", "tensor", "graphembed"];

/// All lint rule names, in report order.
pub const ALL_RULES: [&str; 13] = [
    "unwrap",
    "expect",
    "panic",
    "nondeterminism",
    "float-eq",
    "truncating-cast",
    "parallel-coverage",
    "no-bare-fs-write",
    "no-bare-eprintln",
    "no-env-read-in-lib",
    "no-unchecked-simd",
    "no-unsupervised-spawn",
    "no-unbounded-cache",
];

/// All audit rule names, in report order (analyses live in `crate::audit`).
pub const AUDIT_RULES: [&str; 6] = [
    "no-panic",
    "unsafe-safety",
    "simd-dispatch",
    "lock-order",
    "lock-across-send",
    "metrics-consistency",
];

/// Which pass a rule belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Per-file token-level rule (`xtask lint`).
    Lint,
    /// Workspace call-graph analysis (`xtask audit`).
    Audit,
}

/// Default severity of a rule's findings. Both passes currently gate on
/// `deny` findings; `warn` is report-only metadata surfaced in output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate (exit code 1).
    Deny,
    /// Reported but does not fail the gate.
    Warn,
}

impl Severity {
    /// Lower-case name used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One row of the rule registry.
pub struct RuleInfo {
    /// Stable rule id (`unwrap`, `no-panic`, ...).
    pub id: &'static str,
    /// Which pass reports it.
    pub pass: Pass,
    /// Default severity.
    pub severity: Severity,
    /// One-line description for `xtask rules` and JSON output.
    pub description: &'static str,
}

/// The single registry shared by `lint` and `audit`: every rule either
/// pass can report, with its default severity and description.
pub const REGISTRY: [RuleInfo; 19] = [
    RuleInfo {
        id: "unwrap",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "`.unwrap()` in non-test library code",
    },
    RuleInfo {
        id: "expect",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "`.expect(..)` in non-test library code",
    },
    RuleInfo {
        id: "panic",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "`panic!` / `unimplemented!` / `todo!` in non-test library code",
    },
    RuleInfo {
        id: "nondeterminism",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "wall clock or OS-entropy RNG in the deterministic numeric crates",
    },
    RuleInfo {
        id: "float-eq",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "exact `==`/`!=` against a float literal",
    },
    RuleInfo {
        id: "truncating-cast",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "float-producing expression cast straight to an integer type",
    },
    RuleInfo {
        id: "parallel-coverage",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "pub fn in deepod_tensor::parallel without a *serial* regression test",
    },
    RuleInfo {
        id: "no-bare-fs-write",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "fs::write / File::create outside the crash-safe io_guard path",
    },
    RuleInfo {
        id: "no-bare-eprintln",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "eprintln!/eprint! in library code bypassing the obs layer",
    },
    RuleInfo {
        id: "no-env-read-in-lib",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "environment read in library code instead of RuntimeConfig",
    },
    RuleInfo {
        id: "no-unchecked-simd",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "_mm* intrinsic outside #[target_feature] or without runtime detection",
    },
    RuleInfo {
        id: "no-unsupervised-spawn",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "bare thread spawn in deepod-serve outside the supervisor module",
    },
    RuleInfo {
        id: "no-unbounded-cache",
        pass: Pass::Lint,
        severity: Severity::Deny,
        description: "cache-named insert in a file with no capacity bound or eviction evidence",
    },
    RuleInfo {
        id: "no-panic",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "panic source (unwrap/expect/panic!/indexing/assert!) reachable from a \
                      hot-path root",
    },
    RuleInfo {
        id: "unsafe-safety",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "unsafe block or fn without a `// SAFETY:` justification comment",
    },
    RuleInfo {
        id: "simd-dispatch",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "#[target_feature] fn reached from a caller that never consults the \
                      runtime-detection dispatcher",
    },
    RuleInfo {
        id: "lock-order",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "two named locks acquired in both orders on different paths (deadlock)",
    },
    RuleInfo {
        id: "lock-across-send",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "lock guard held across a channel send or queue submit",
    },
    RuleInfo {
        id: "metrics-consistency",
        pass: Pass::Audit,
        severity: Severity::Deny,
        description: "metric name emitted somewhere but absent from the eager registration set",
    },
];

/// Looks up a rule's registry row by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    REGISTRY.iter().find(|r| r.id == id)
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A lexed file with the metadata the rules need.
pub struct FileCtx<'a> {
    /// Workspace-relative path (display only).
    pub rel_path: &'a str,
    /// Crate directory name (`tensor`, `core`, ...).
    pub crate_name: &'a str,
    /// Token stream + allow directives.
    pub lexed: &'a Lexed,
    /// `test_mask[i]` — token `i` is inside test-only code.
    pub test_mask: Vec<bool>,
    /// Binary entry point (`src/bin/*`, `src/main.rs`): exempt from the
    /// panic-safety rules (a CLI/bench top level may crash with a message)
    /// but not from determinism or numeric-hygiene rules.
    pub is_bin: bool,
}

impl<'a> FileCtx<'a> {
    /// Builds the context, computing the test mask.
    pub fn new(
        rel_path: &'a str,
        crate_name: &'a str,
        lexed: &'a Lexed,
        whole_file_is_test: bool,
        is_bin: bool,
    ) -> Self {
        let test_mask = if whole_file_is_test {
            vec![true; lexed.tokens.len()]
        } else {
            masks::compute_test_mask(&lexed.tokens)
        };
        FileCtx {
            rel_path,
            crate_name,
            lexed,
            test_mask,
            is_bin,
        }
    }

    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.lexed
            .allows
            .get(&line)
            .is_some_and(|s| s.contains(rule))
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String) {
        if !self.allowed(rule, line) {
            out.push(Finding {
                rule,
                path: self.rel_path.to_string(),
                line,
                msg,
            });
        }
    }
}

/// Per-file derived state shared by the rules that need more than the
/// test mask (computed once in [`check_file`]).
pub(crate) struct FileState {
    /// `target_feature_mask[i]` — token `i` is inside a
    /// `#[target_feature]` item.
    pub target_feature_mask: Vec<bool>,
    /// `use_mask[i]` — token `i` is inside a `use` item.
    pub use_mask: Vec<bool>,
    /// The file contains an `is_x86_feature_detected!` call: somebody
    /// still has to check the CPU before calling a `#[target_feature]` fn.
    pub has_feature_detect: bool,
}

/// Runs every per-file rule, appending findings to `out`.
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let state = FileState {
        target_feature_mask: masks::compute_target_feature_mask(toks),
        use_mask: masks::compute_use_mask(toks),
        has_feature_detect: toks.iter().any(|t| t.is_ident("is_x86_feature_detected")),
    };
    panic_rules::check(ctx, out);
    eprintln_rule::check(ctx, out);
    env_read::check(ctx, out);
    nondeterminism::check(ctx, out);
    float_eq::check(ctx, out);
    fs_write::check(ctx, out);
    simd::check(ctx, &state, out);
    spawn::check(ctx, out);
    truncating_cast::check(ctx, out);
    unbounded_cache::check(ctx, out);
}

/// Collects the names of `#[test]` functions (and any `fn` defined inside
/// test-masked code) from one file.
pub fn collect_test_fn_names(ctx: &FileCtx<'_>, into: &mut BTreeSet<String>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.test_mask[i]
            && toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == crate::lexer::TokKind::Ident)
        {
            into.insert(toks[i + 1].text.clone());
        }
    }
}

/// Collects `pub fn` names declared in *non-test* code of one file,
/// with the line each was declared on.
pub fn collect_pub_fns(ctx: &FileCtx<'_>) -> Vec<(String, u32)> {
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ctx.test_mask[i] || !toks[i].is_ident("pub") {
            continue;
        }
        // `pub fn name` or `pub(crate) fn name` — skip an optional
        // parenthesized visibility scope.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.is_punct("(")) {
            while j < toks.len() && !toks[j].is_punct(")") {
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|n| n.is_ident("fn"))
            && toks
                .get(j + 1)
                .is_some_and(|n| n.kind == crate::lexer::TokKind::Ident)
        {
            out.push((toks[j + 1].text.clone(), toks[j + 1].line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint_lib_src(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ctx = FileCtx::new("mem.rs", "tensor", &lexed, false, false);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        out
    }

    #[test]
    fn registry_covers_every_rule_exactly_once() {
        for id in ALL_RULES {
            let info = rule_info(id).expect(id);
            assert_eq!(info.pass, Pass::Lint);
        }
        for id in AUDIT_RULES {
            let info = rule_info(id).expect(id);
            assert_eq!(info.pass, Pass::Audit);
        }
        assert_eq!(REGISTRY.len(), ALL_RULES.len() + AUDIT_RULES.len());
        let mut seen = BTreeSet::new();
        for r in &REGISTRY {
            assert!(seen.insert(r.id), "duplicate registry id {}", r.id);
            assert!(!r.description.is_empty());
        }
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
        let lexed = lex(src);
        let ctx = FileCtx::new("mem.rs", "core", &lexed, false, false);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert_eq!(out.len(), 1);

        let ctx = FileCtx::new("mem.rs", "eval", &lexed, false, false);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert!(out.is_empty(), "eval may use wall clocks");
    }

    #[test]
    fn parallel_coverage_names() {
        let lexed = lex("pub fn map_ranges() {}\npub(crate) fn tree_reduce() {}\n");
        let ctx = FileCtx::new("parallel.rs", "tensor", &lexed, false, false);
        let fns = collect_pub_fns(&ctx);
        assert_eq!(fns.len(), 2);
        let mut tests = BTreeSet::new();
        tests.insert("map_ranges_threads1_matches_serial".to_string());
        let mut out = Vec::new();
        check_parallel_coverage("parallel.rs", &fns, &tests, &lexed, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("tree_reduce"));
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
        let lexed = lex(src);
        let ctx = FileCtx::new("crates/core/src/io_guard.rs", "core", &lexed, false, false);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert!(out.is_empty(), "io_guard.rs may write directly: {out:?}");

        let src = "#[test]\nfn t() { std::fs::write(p, b).unwrap(); }\n";
        assert!(lint_lib_src(src).is_empty(), "test code may seed files");
    }

    #[test]
    fn bare_fs_write_fires_in_bins_too() {
        let src = "fn main() { std::fs::write(p, b).ok(); }";
        let lexed = lex(src);
        let ctx = FileCtx::new("crates/cli/src/main.rs", "cli", &lexed, false, true);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
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
        let lexed = lex("fn main() { eprintln!(\"error: x\"); }");
        let ctx = FileCtx::new("crates/cli/src/main.rs", "cli", &lexed, false, true);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
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
        let lexed = lex("fn main() { std::env::var(\"DEEPOD_LOG\").ok(); }");
        let ctx = FileCtx::new("crates/cli/src/main.rs", "cli", &lexed, false, true);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert!(out.is_empty(), "bins may read env: {out:?}");
    }

    #[test]
    fn unchecked_simd_requires_target_feature_and_dispatch() {
        // Naked intrinsic call: undefined behavior on older CPUs.
        let f = lint_lib_src("fn a() { unsafe { _mm256_add_ps(x, y) }; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unchecked-simd");

        // The blessed shape: imports, a runtime dispatcher, and the
        // intrinsic inside a #[target_feature] fn.
        let good = "use core::arch::x86_64::_mm256_add_ps;\n\
                    fn d() -> bool { is_x86_feature_detected!(\"avx\") }\n\
                    #[target_feature(enable = \"avx\")]\n\
                    unsafe fn k() { _mm256_add_ps(x, y); }\n";
        assert!(lint_lib_src(good).is_empty(), "{:?}", lint_lib_src(good));

        // #[target_feature] without any runtime detection in the file
        // still fires: nothing proves the CPU has the feature.
        let undetected = "#[target_feature(enable = \"avx\")]\n\
                          unsafe fn k() { _mm256_add_ps(x, y); }\n";
        assert_eq!(lint_lib_src(undetected).len(), 1);

        // `__m256` is a *type*, not an intrinsic call; test code and
        // allow directives are exempt like every other rule.
        assert!(lint_lib_src("fn a(x: __m256) {}").is_empty());
        assert!(lint_lib_src("#[test]\nfn t() { unsafe { _mm256_add_ps(x, y) }; }\n").is_empty());
        assert!(lint_lib_src(
            "fn a() { unsafe { _mm256_add_ps(x, y) }; } // deepod-lint: allow(no-unchecked-simd)"
        )
        .is_empty());

        // Bins are NOT exempt.
        let lexed = lex("fn main() { unsafe { _mm256_add_ps(x, y) }; }");
        let ctx = FileCtx::new("crates/cli/src/main.rs", "cli", &lexed, false, true);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert!(out.iter().any(|f| f.rule == "no-unchecked-simd"), "{out:?}");
    }

    #[test]
    fn unsupervised_spawn_fires_in_serve_outside_supervisor() {
        let lint_serve = |rel_path: &str, src: &str| {
            let lexed = lex(src);
            let ctx = FileCtx::new(rel_path, "serve", &lexed, false, false);
            let mut out = Vec::new();
            check_file(&ctx, &mut out);
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
        let lexed = lex("fn a() { std::thread::spawn(|| {}); }");
        let ctx = FileCtx::new(
            "crates/tensor/src/parallel.rs",
            "tensor",
            &lexed,
            false,
            false,
        );
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
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
        let lexed = lex(src);
        let ctx = FileCtx::new("main.rs", "cli", &lexed, false, true);
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        assert!(out.iter().all(|f| f.rule != "unwrap"), "{out:?}");
        assert!(out.iter().any(|f| f.rule == "float-eq"), "{out:?}");
    }
}
