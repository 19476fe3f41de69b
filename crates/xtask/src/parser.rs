//! A lightweight item/expression extractor on top of the lexer.
//!
//! The flow rules (DESIGN.md §7) need more structure than the
//! token-level rules: which function a token belongs to, what that
//! function calls, where it can panic, where it enters `unsafe`, which
//! locks it takes and holds. This module recovers exactly that much —
//! function items with their `impl`/`mod` context, call expressions,
//! panic sources, `unsafe` sites, lock acquisitions with guard liveness,
//! and metric emissions — by a single brace-depth scan over the token
//! stream. A [`ParsedFile`] also keeps the tokens and test mask, so every
//! rule reads the file from this one parse. It is *not* a Rust parser:
//! types are never resolved, trait dispatch and closures invoked through
//! parameters are invisible, and the call graph built on top is
//! conservative by name instead.

use crate::lexer::{Allow, Lexed, TokKind, Token};
use crate::rules::masks::{compute_test_mask, matching_open};

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `x.name(..)` — resolved by simple name across the workspace.
    Method,
    /// `Qual::name(..)` — resolved against impl types and module names.
    Path,
    /// `name(..)` — resolved by simple name across the workspace.
    Bare,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee simple name.
    pub name: String,
    /// The path segment before `::` for [`CallKind::Path`] calls
    /// (`Self` already resolved to the enclosing impl type).
    pub qualifier: Option<String>,
    /// Shape of the call expression.
    pub kind: CallKind,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Names of locks whose guards are live at this call.
    pub held_locks: Vec<String>,
}

/// A way a function can panic at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!`.
    Panic,
    /// `unreachable!` / `todo!` / `unimplemented!`.
    OtherPanicMacro,
    /// `assert!` / `assert_eq!` / `assert_ne!` (release-mode asserts;
    /// `debug_assert*` is exempt).
    Assert,
    /// Explicit `expr[index]` / `expr[range]` indexing.
    Index,
}

impl PanicKind {
    /// Stable name used in fingerprints and reports; every panicking
    /// macro shares one.
    pub fn as_str(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::Panic | PanicKind::OtherPanicMacro => "panic-macro",
            PanicKind::Assert => "assert",
            PanicKind::Index => "index",
        }
    }
}

/// One potential panic site.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// What kind of source.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: u32,
}

/// One `unsafe` block or `unsafe fn` body.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// `unsafe fn` (true) vs `unsafe { .. }` block (false).
    pub is_fn: bool,
    /// A `// SAFETY:` (or `# Safety` doc-section) comment covers this
    /// site — same line or within the lookback window above it.
    pub has_safety_comment: bool,
}

/// One `.lock()` / zero-arg `.read()` / zero-arg `.write()` acquisition.
#[derive(Clone, Debug)]
pub struct LockOp {
    /// Last path segment before the lock method (`queue` for
    /// `self.shared.queue.lock()`, `registry` for `registry().lock()`).
    pub name: String,
    /// `lock`, `read`, or `write`.
    pub method: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Names of locks whose guards were already live when this one was
    /// acquired — each (held, this) pair is an ordered acquisition edge.
    pub held_locks: Vec<String>,
}

/// One metric-registry call with a literal name argument.
#[derive(Clone, Debug)]
pub struct MetricUse {
    /// API called (`counter_add`, `gauge_set`, `observe`, ...).
    pub api: String,
    /// The literal metric name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Structurally a *registration*: `counter_add(name, 0)` or any
    /// `register_*` API. Emissions inside a fn whose own name starts
    /// with `register` also count (the analysis checks that).
    pub is_registration: bool,
}

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    /// Module path: file stem followed by inline `mod` names.
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared inside test-only code.
    pub is_test: bool,
    /// Declared `pub fn` or `pub(..) fn`.
    pub is_pub: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// First parameter is (some form of) `self` — i.e. callable as a
    /// method. Used by the call graph: `recv.name(..)` can only target
    /// self-taking fns, bare `name(..)` only self-less ones.
    pub has_self: bool,
    /// Call expressions in the body.
    pub calls: Vec<CallSite>,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// `unsafe` entry points in (or constituting) the body.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockOp>,
    /// Metric-registry calls in the body.
    pub metrics: Vec<MetricUse>,
}

/// One parsed source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Crate directory name (`tensor`, `core`, ...).
    pub crate_name: String,
    /// Binary entry point (`src/bin/*`, `src/main.rs`): exempt from the
    /// panic-safety rules (a CLI/bench top level may crash with a message)
    /// but not from determinism or numeric-hygiene rules.
    pub is_bin: bool,
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` — token `i` is inside test-only code.
    pub test_mask: Vec<bool>,
    /// Function items, each pushed when its body closes (an enclosing fn
    /// comes after the fns nested in it).
    pub functions: Vec<FnItem>,
    /// Panic sites outside any fn body (`static` / `const` initializers).
    pub top_level_panics: Vec<PanicSite>,
    /// Allow directives in the file's comments.
    pub allows: Vec<Allow>,
}

impl ParsedFile {
    /// True when an allow directive covers `rule` on `line`; marks every
    /// such directive used.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in self.allows.iter().filter(|a| a.covers(rule, line)) {
            a.used.set(true);
            hit = true;
        }
        hit
    }
}

/// How far above an `unsafe fn` a `SAFETY:`/`# Safety` comment may sit
/// and still count as covering it (the `# Safety` doc section is
/// separated from the `fn` line by trailing doc lines and attributes).
const SAFETY_FN_LOOKBACK_LINES: u32 = 6;
/// Lookback for `unsafe { .. }` blocks: the justification comment must
/// be adjacent (same line or the one or two directly above), so a
/// neighboring item's comment cannot cover an unrelated block.
const SAFETY_BLOCK_LOOKBACK_LINES: u32 = 2;

const OTHER_PANIC_MACROS: [&str; 3] = ["unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 11] = [
    "if", "while", "for", "match", "return", "fn", "let", "move", "in", "as", "loop",
];
const METRIC_APIS: [&str; 8] = [
    "counter_add",
    "counter_inc",
    "gauge_set",
    "observe",
    "series_push",
    "register_gauge",
    "register_histogram",
    "register_series",
];

/// A guard known to be live at the current scan position.
struct LiveGuard {
    /// Lock name (what was acquired).
    lock: String,
    /// Binding identifier (`let g = ..`), if the guard was bound.
    binding: Option<String>,
    /// Brace depth at the acquisition; a named guard dies when depth
    /// drops below this, a temporary dies at the next `;` at or below it.
    depth: i32,
    /// Statement temporary (no binding): dies at end of statement.
    temp: bool,
}

/// An open function whose body is still being scanned.
struct OpenFn {
    item: FnItem,
    /// Depth the body `{` opened at (the fn ends when this closes).
    body_depth: i32,
    guards: Vec<LiveGuard>,
}

/// Parses one lexed file. `whole_file_is_test` marks every token as
/// test code (`tests/`, `benches/` trees); otherwise the test mask comes
/// from `#[test]` / `#[cfg(test)]` items.
pub fn parse_file(
    rel_path: &str,
    crate_name: &str,
    lexed: Lexed,
    whole_file_is_test: bool,
    is_bin: bool,
) -> ParsedFile {
    let Lexed {
        tokens,
        allows,
        safety_lines,
    } = lexed;
    let toks = &tokens;
    let test_mask = if whole_file_is_test {
        vec![true; toks.len()]
    } else {
        compute_test_mask(toks)
    };
    let covered_by_safety = |line: u32, window: u32| {
        (line.saturating_sub(window)..=line).any(|l| safety_lines.contains(&l))
    };
    let file_stem = rel_path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
        .to_string();

    let mut functions = Vec::new();
    let mut top_level_panics = Vec::new();

    let mut depth: i32 = 0;
    // (impl type, depth its `{` opened at)
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    // (inline mod name, depth)
    let mut mod_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_mod: Option<String> = None;
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    // A declared fn whose body `{` has not opened yet (None body → `;`).
    let mut pending_fn: Option<FnItem> = None;
    let mut pending_unsafe_fn = false;
    // `let <ident> =` binding of the statement currently being scanned.
    let mut stmt_let_ident: Option<String> = None;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];

        // Attributes: skip wholesale (their brackets are not indexing and
        // `#[test]` is captured by the test mask).
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let mut j = i + 2;
            let mut bdepth = 1;
            while j < toks.len() && bdepth > 0 {
                if toks[j].is_punct("[") {
                    bdepth += 1;
                } else if toks[j].is_punct("]") {
                    bdepth -= 1;
                }
                j += 1;
            }
            i = j;
            continue;
        }

        // `debug_assert*!(..)`: debug-only code — not a release panic
        // source and not interesting to the flow analyses. Skip the
        // whole macro argument list.
        if t.kind == TokKind::Ident
            && t.text.starts_with("debug_assert")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let mut j = i + 3;
            let mut pdepth = 1;
            while j < toks.len() && pdepth > 0 {
                if toks[j].is_punct("(") {
                    pdepth += 1;
                } else if toks[j].is_punct(")") {
                    pdepth -= 1;
                }
                j += 1;
            }
            i = j;
            continue;
        }

        // Item headers.
        if t.is_ident("impl") && !test_mask[i] {
            pending_impl = Some(scan_impl_type(toks, i + 1));
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct("{"))
        {
            pending_mod = Some(toks[i + 1].text.clone());
            i += 2; // land on `{` next iteration
            continue;
        }
        if t.is_ident("fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    let mut modules = vec![file_stem.clone()];
                    modules.extend(mod_stack.iter().map(|(m, _)| m.clone()));
                    pending_fn = Some(FnItem {
                        name: name_tok.text.clone(),
                        impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                        modules,
                        line: t.line,
                        is_test: test_mask[i],
                        is_pub: is_pub_fn(toks, i),
                        is_unsafe: pending_unsafe_fn,
                        has_self: fn_takes_self(toks, i + 2),
                        calls: Vec::new(),
                        panics: Vec::new(),
                        unsafe_sites: Vec::new(),
                        locks: Vec::new(),
                        metrics: Vec::new(),
                    });
                    pending_unsafe_fn = false;
                    i += 2;
                    continue;
                }
            }
        }
        if t.is_ident("unsafe") {
            if toks.get(i + 1).is_some_and(|n| n.is_punct("{")) {
                // `unsafe { .. }` block inside the innermost fn.
                if let Some(open) = fn_stack.last_mut() {
                    open.item.unsafe_sites.push(UnsafeSite {
                        line: t.line,
                        is_fn: false,
                        has_safety_comment: covered_by_safety(t.line, SAFETY_BLOCK_LOOKBACK_LINES),
                    });
                }
            } else {
                // `unsafe fn` / `unsafe impl` — remembered until the
                // `fn` keyword (impl consumes it harmlessly).
                pending_unsafe_fn = true;
            }
            i += 1;
            continue;
        }

        // Braces: maintain scopes.
        if t.is_punct("{") {
            depth += 1;
            if let Some(f) = pending_fn.take() {
                let mut item = f;
                if item.is_unsafe {
                    item.unsafe_sites.push(UnsafeSite {
                        line: item.line,
                        is_fn: true,
                        has_safety_comment: covered_by_safety(item.line, SAFETY_FN_LOOKBACK_LINES),
                    });
                }
                fn_stack.push(OpenFn {
                    item,
                    body_depth: depth,
                    guards: Vec::new(),
                });
            } else if let Some(ty) = pending_impl.take() {
                impl_stack.push((ty, depth));
            } else if let Some(m) = pending_mod.take() {
                mod_stack.push((m, depth));
            }
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if fn_stack.last().is_some_and(|f| f.body_depth == depth) {
                if let Some(open) = fn_stack.pop() {
                    functions.push(open.item);
                }
            }
            if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                impl_stack.pop();
            }
            if mod_stack.last().is_some_and(|(_, d)| *d == depth) {
                mod_stack.pop();
            }
            depth -= 1;
            // Named guards bound deeper than the new depth die here.
            if let Some(open) = fn_stack.last_mut() {
                open.guards.retain(|g| g.depth <= depth);
            }
            i += 1;
            continue;
        }

        // Trait method declaration without body: `fn f(..);`.
        if t.is_punct(";") && pending_fn.is_some() {
            if let Some(f) = pending_fn.take() {
                functions.push(f);
            }
            i += 1;
            continue;
        }

        // Statement boundary: temporaries die, `let` binding resets.
        if t.is_punct(";") {
            if let Some(open) = fn_stack.last_mut() {
                open.guards.retain(|g| !(g.temp && g.depth >= depth));
            }
            stmt_let_ident = None;
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            while toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            stmt_let_ident = toks
                .get(j)
                .filter(|n| n.kind == TokKind::Ident)
                .map(|n| n.text.clone());
            i += 1;
            continue;
        }

        // Panic sources; outside any fn body (a `static` or `const`
        // initializer) they are kept per file for the panic rules.
        if let Some(kind) = panic_source(toks, i).filter(|_| !test_mask[i]) {
            let site = PanicSite { kind, line: t.line };
            match fn_stack.last_mut() {
                Some(open) => open.item.panics.push(site),
                None => top_level_panics.push(site),
            }
        }

        // Everything below is body-level extraction.
        let Some(open) = fn_stack.last_mut() else {
            i += 1;
            continue;
        };

        // `drop(g)` releases guard `g` early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let victim = &toks[i + 2].text;
            open.guards.retain(|g| g.binding.as_deref() != Some(victim));
        }

        // Indexing: `expr[..]` — `[` directly after a value-producing
        // token. Attribute and macro brackets never get here (attributes
        // are skipped above, macro brackets follow `!`).
        if t.is_punct("[")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(")")
                || toks[i - 1].is_punct("]"))
            && !test_mask[i]
        {
            open.item.panics.push(PanicSite {
                kind: PanicKind::Index,
                line: t.line,
            });
        }

        // Macros: never calls.
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            i += 2;
            continue;
        }

        // Calls: `ident (` that is not a keyword or macro.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let is_method = prev.is_some_and(|p| p.is_punct("."));
            let (kind, qualifier) = if is_method {
                (CallKind::Method, None)
            } else if prev.is_some_and(|p| p.is_punct("::")) {
                let q = i.checked_sub(2).map(|p| &toks[p]).and_then(|q| {
                    if q.kind == TokKind::Ident {
                        if q.text == "Self" {
                            impl_stack.last().map(|(ty, _)| ty.clone())
                        } else {
                            Some(q.text.clone())
                        }
                    } else {
                        None
                    }
                });
                (CallKind::Path, q)
            } else {
                (CallKind::Bare, None)
            };

            if !test_mask[i] {
                // Lock acquisition: `.lock()` or zero-arg `.read()`/`.write()`.
                let zero_arg = toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
                if is_method
                    && zero_arg
                    && (t.text == "lock" || t.text == "read" || t.text == "write")
                {
                    if let Some(lock_name) = lock_base_name(toks, i) {
                        let held: Vec<String> =
                            open.guards.iter().map(|g| g.lock.clone()).collect();
                        let method: &'static str = match t.text.as_str() {
                            "lock" => "lock",
                            "read" => "read",
                            _ => "write",
                        };
                        if method == "lock" || is_lock_name(&lock_name) {
                            open.item.locks.push(LockOp {
                                name: lock_name.clone(),
                                method,
                                line: t.line,
                                held_locks: held,
                            });
                            open.guards.push(LiveGuard {
                                lock: lock_name,
                                binding: stmt_let_ident.clone(),
                                depth,
                                temp: stmt_let_ident.is_none(),
                            });
                        }
                    }
                }

                // Metric-registry calls with a literal name.
                if METRIC_APIS.contains(&t.text.as_str()) {
                    if let Some(s) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) {
                        let is_reg = t.text.starts_with("register_")
                            || (t.text == "counter_add"
                                && toks.get(i + 3).is_some_and(|n| n.is_punct(","))
                                && toks
                                    .get(i + 4)
                                    .is_some_and(|n| n.kind == TokKind::Int && n.text == "0")
                                && toks.get(i + 5).is_some_and(|n| n.is_punct(")")));
                        open.item.metrics.push(MetricUse {
                            api: t.text.clone(),
                            name: s.text.clone(),
                            line: t.line,
                            is_registration: is_reg,
                        });
                    }
                }

                let held: Vec<String> = open.guards.iter().map(|g| g.lock.clone()).collect();
                open.item.calls.push(CallSite {
                    name: t.text.clone(),
                    qualifier,
                    kind,
                    line: t.line,
                    held_locks: held,
                });
            }
            i += 1;
            continue;
        }

        i += 1;
    }

    // Unterminated trailing fn (malformed input): keep what we saw.
    while let Some(open) = fn_stack.pop() {
        functions.push(open.item);
    }
    if let Some(f) = pending_fn.take() {
        functions.push(f);
    }

    ParsedFile {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        is_bin,
        tokens,
        test_mask,
        functions,
        top_level_panics,
        allows,
    }
}

/// The panic source token `i` starts, if any: a `.unwrap(` / `.expect(`
/// method call or a panicking macro.
fn panic_source(toks: &[Token], i: usize) -> Option<PanicKind> {
    let t = &toks[i];
    let next = toks.get(i + 1)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    if next.is_punct("!") {
        let name = t.text.as_str();
        return if name == "panic" {
            Some(PanicKind::Panic)
        } else if OTHER_PANIC_MACROS.contains(&name) {
            Some(PanicKind::OtherPanicMacro)
        } else if ASSERT_MACROS.contains(&name) {
            Some(PanicKind::Assert)
        } else {
            None
        };
    }
    let method = i > 0 && toks[i - 1].is_punct(".") && next.is_punct("(");
    match t.text.as_str() {
        "unwrap" if method => Some(PanicKind::Unwrap),
        "expect" if method => Some(PanicKind::Expect),
        _ => None,
    }
}

/// Whether the `fn` keyword at `i` follows `pub` or `pub(..)`.
fn is_pub_fn(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1) else {
        return false;
    };
    let vis = if toks[prev].is_punct(")") {
        matching_open(toks, prev).and_then(|open| open.checked_sub(1))
    } else {
        Some(prev)
    };
    vis.is_some_and(|v| toks[v].is_ident("pub"))
}

/// Heuristic for whether a zero-arg `.read()`/`.write()` receiver is
/// actually a named lock and not an io handle: the workspace names its
/// `RwLock`/`Mutex` fields and statics with lock-ish names.
fn is_lock_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    ["lock", "mutex", "rwlock", "guard"]
        .iter()
        .any(|k| lower.contains(k))
}

/// The impl type between `impl` (exclusive) and the opening `{`:
/// the path after `for` if present, else the first ident after the
/// optional `<..>` generic params.
/// Whether the fn whose token stream continues at `j` (just past the
/// name) takes `self`: scan to the parameter list's `(` and look for
/// `self` behind the optional `&`/`&'a`/`mut` prefix.
fn fn_takes_self(toks: &[Token], mut j: usize) -> bool {
    // Generic params contain no parens, so the first `(` opens the list.
    while j < toks.len() && !toks[j].is_punct("(") {
        if toks[j].is_punct("{") || toks[j].is_punct(";") {
            return false; // malformed / bodyless — be safe
        }
        j += 1;
    }
    j += 1;
    while j < toks.len()
        && (toks[j].is_punct("&") || toks[j].kind == TokKind::Lifetime || toks[j].is_ident("mut"))
    {
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_ident("self"))
}

fn scan_impl_type(toks: &[Token], mut j: usize) -> String {
    // Skip leading generic params.
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut adepth = 1;
        j += 1;
        while j < toks.len() && adepth > 0 {
            if toks[j].is_punct("<") || toks[j].is_punct("<<") {
                adepth += 1;
            } else if toks[j].is_punct(">") {
                adepth -= 1;
            } else if toks[j].is_punct(">>") {
                adepth -= 2;
            }
            j += 1;
        }
    }
    let mut first_ident: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_ident("where") {
        let t = &toks[j];
        if t.is_ident("for") {
            saw_for = true;
        } else if t.kind == TokKind::Ident {
            if saw_for {
                after_for = Some(&t.text); // last path segment wins
            } else if first_ident.is_none() {
                first_ident = Some(&t.text);
            }
        }
        j += 1;
    }
    after_for.or(first_ident).unwrap_or("<unknown>").to_string()
}

/// The receiver name of a lock call: walking back from the method's `.`,
/// the nearest field/fn ident (`self.shared.queue.lock()` → `queue`,
/// `registry().lock()` → `registry`).
fn lock_base_name(toks: &[Token], method_idx: usize) -> Option<String> {
    let dot = method_idx.checked_sub(1)?;
    if !toks[dot].is_punct(".") {
        return None;
    }
    let prev = dot.checked_sub(1)?;
    let t = &toks[prev];
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    if t.is_punct(")") {
        let open = matching_open(toks, prev)?;
        let callee = open.checked_sub(1)?;
        if toks[callee].kind == TokKind::Ident {
            return Some(toks[callee].text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/demo/src/demo.rs", "demo", lex(src), false, false)
    }

    fn fn_named<'a>(pf: &'a ParsedFile, name: &str) -> &'a FnItem {
        pf.functions
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {:?}", pf.functions))
    }

    #[test]
    fn extracts_fns_with_impl_and_mod_context() {
        let src = "\
impl Engine {
    pub fn start(&self) { helper(); }
}
mod inner {
    fn helper() {}
}
impl Display for Finding {
    fn fmt(&self) {}
}
";
        let pf = parse(src);
        assert_eq!(pf.functions.len(), 3);
        let start = fn_named(&pf, "start");
        assert_eq!(start.impl_type.as_deref(), Some("Engine"));
        assert_eq!(start.calls.len(), 1);
        assert_eq!(start.calls[0].kind, CallKind::Bare);
        assert!(start.is_pub);
        let helper = fn_named(&pf, "helper");
        assert_eq!(helper.modules, vec!["demo", "inner"]);
        assert!(!helper.is_pub);
        assert_eq!(fn_named(&pf, "fmt").impl_type.as_deref(), Some("Finding"));
    }

    #[test]
    fn classifies_call_kinds_and_resolves_self() {
        let src = "\
impl Engine {
    fn go(&self) {
        self.step();
        Self::boot();
        kernels::matmul(a, b);
        free();
    }
}
";
        let f = &parse(src).functions[0];
        let kinds: Vec<(CallKind, Option<&str>)> = f
            .calls
            .iter()
            .map(|c| (c.kind, c.qualifier.as_deref()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (CallKind::Method, None),
                (CallKind::Path, Some("Engine")),
                (CallKind::Path, Some("kernels")),
                (CallKind::Bare, None),
            ]
        );
    }

    #[test]
    fn collects_panic_sources_but_not_debug_asserts() {
        let src = "\
fn f(v: &[f32], i: usize) -> f32 {
    debug_assert!(i < v.len());
    assert!(i < v.len());
    let x = v[i];
    opt.unwrap();
    res.expect(\"boom\");
    if bad { panic!(\"no\"); }
    unreachable!()
}
";
        let f = &parse(src).functions[0];
        let mut kinds: Vec<PanicKind> = f.panics.iter().map(|p| p.kind).collect();
        kinds.sort();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::Panic,
                PanicKind::OtherPanicMacro,
                PanicKind::Assert,
                PanicKind::Index,
            ]
        );
    }

    #[test]
    fn panic_sources_outside_fns_are_kept_per_file() {
        let pf = parse("static S: Lazy<u8> = Lazy::new(|| x.unwrap());\nfn f() {}\n");
        assert!(pf.functions[0].panics.is_empty());
        let kinds: Vec<PanicKind> = pf.top_level_panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PanicKind::Unwrap]);
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic() {
        let src = "fn f() { x.unwrap_or_else(|| 0); y.unwrap_or(1); z.unwrap_or_default(); }";
        assert!(parse(src).functions[0].panics.is_empty());
    }

    #[test]
    fn vec_macro_bracket_and_types_are_not_indexing() {
        let src = "fn f(a: [f32; 4]) -> Vec<u8> { let v = vec![0u8; 8]; v }";
        let f = &parse(src).functions[0];
        assert!(
            f.panics.is_empty(),
            "array type + vec! literal flagged: {:?}",
            f.panics
        );
    }

    #[test]
    fn slice_indexing_after_call_or_index_is_flagged() {
        let src = "fn f() { rows()[0]; grid[1][2]; }";
        let f = &parse(src).functions[0];
        assert_eq!(
            f.panics
                .iter()
                .filter(|p| p.kind == PanicKind::Index)
                .count(),
            3
        );
    }

    #[test]
    fn unsafe_fn_and_block_with_safety_coverage() {
        let src = "\
fn a() {
    // SAFETY: bounds checked above
    unsafe { ptr.read_volatile() }
}
fn b() {
    unsafe { ptr.read_volatile() }
}
/// # Safety
///
/// Caller must uphold alignment.
#[target_feature(enable = \"avx\")]
unsafe fn kern() {}
";
        let pf = parse(src);
        let a = fn_named(&pf, "a");
        assert!(a.unsafe_sites[0].has_safety_comment);
        let b = fn_named(&pf, "b");
        assert!(!b.unsafe_sites[0].has_safety_comment);
        let k = fn_named(&pf, "kern");
        assert!(k.is_unsafe);
        assert!(k.unsafe_sites[0].is_fn && k.unsafe_sites[0].has_safety_comment);
    }

    #[test]
    fn lock_guard_liveness_tracks_bindings_scopes_and_drop() {
        let src = "\
fn f(&self) {
    let g = self.queue.lock();
    self.registry.lock();
    drop(g);
    self.other.lock();
}
fn scoped(&self) {
    {
        let q = self.queue.lock();
        q.push(1);
    }
    self.registry.lock();
}
";
        let pf = parse(&src.replace("fn f", "fn f_outer"));
        let f = fn_named(&pf, "f_outer");
        assert_eq!(f.locks.len(), 3);
        assert_eq!(f.locks[0].held_locks, Vec::<String>::new());
        assert_eq!(f.locks[1].held_locks, vec!["queue"]);
        // After drop(g) only the registry *temporary* could remain, and
        // it died at its own statement's `;`.
        assert_eq!(f.locks[2].held_locks, Vec::<String>::new());
        let s = fn_named(&pf, "scoped");
        assert_eq!(s.locks[1].held_locks, Vec::<String>::new());
    }

    #[test]
    fn calls_record_held_locks() {
        let src = "\
fn f(&self) {
    let g = self.queue.lock();
    self.tx.send(x);
}
";
        let f = &parse(src).functions[0];
        let send = f
            .calls
            .iter()
            .find(|c| c.name == "send")
            .expect("send call");
        assert_eq!(send.held_locks, vec!["queue"]);
    }

    #[test]
    fn zero_arg_read_write_needs_lockish_name() {
        let src = "\
fn f(&self) {
    self.state_lock.read();
    file.read();
    self.rwlock.write();
}
";
        let f = &parse(src).functions[0];
        let names: Vec<&str> = f.locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["state_lock", "rwlock"]);
    }

    #[test]
    fn metric_calls_classify_registration_vs_emission() {
        let src = "\
fn start() {
    registry::counter_add(\"serve.requests\", 0);
    registry::counter_add(\"serve.requests\", 1);
    registry::counter_inc(\"serve.requests\");
    registry::gauge_set(\"serve.queue_depth\", depth as f64);
    registry::register_histogram(\"serve.batch_size\");
    registry::observe(\"serve.batch_size\", n as f64);
}
";
        let f = &parse(src).functions[0];
        let regs: Vec<(&str, bool)> = f
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.is_registration))
            .collect();
        assert_eq!(
            regs,
            vec![
                ("serve.requests", true),
                ("serve.requests", false),
                ("serve.requests", false),
                ("serve.queue_depth", false),
                ("serve.batch_size", true),
                ("serve.batch_size", false),
            ]
        );
    }

    #[test]
    fn test_fns_are_marked_and_their_sites_skipped() {
        let src = "\
fn lib() { v[0]; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { v.unwrap(); }
}
";
        let pf = parse(src);
        assert!(!fn_named(&pf, "lib").is_test);
        let t = fn_named(&pf, "t");
        assert!(t.is_test);
        assert!(t.panics.is_empty(), "test code sites are not collected");
    }

    #[test]
    fn trait_declarations_without_bodies_parse() {
        let src = "trait T { fn a(&self); fn b(&self) { self.a(); } } fn after() { x[0]; }";
        let pf = parse(src);
        assert_eq!(pf.functions.len(), 3);
        assert_eq!(fn_named(&pf, "after").panics.len(), 1);
    }
}
