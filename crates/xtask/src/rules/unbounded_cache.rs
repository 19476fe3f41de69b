//! `no-unbounded-cache`: an insertion into a cache must be visibly
//! bounded. A cache that only ever grows is a slow memory leak with a
//! good reputation — every insert is locally correct, and the process
//! dies weeks later. This rule fires on a method-call `.insert(` whose
//! receiver chain names a cache (an identifier containing `cache` or
//! `lru`, or any insert in a `*cache*.rs` file) when the surrounding
//! file shows **no bounding evidence**: a capacity field/parameter
//! (`with_capacity`, the growth hint, does not count), an `evict*`
//! identifier, or an ordered-eviction call (`pop_first` / `pop_lru` /
//! `truncate`). Inserts that delegate to a type that enforces its own
//! bound carry a justifying `// deepod-lint: allow(no-unbounded-cache)`.

use super::{push, Finding};
use crate::lexer::TokKind;
use crate::parser::ParsedFile;

/// Evidence that this file bounds what it caches.
fn is_bounding_ident(text: &str) -> bool {
    (text.contains("capacity") && text != "with_capacity")
        || text.contains("evict")
        || text == "pop_first"
        || text == "pop_lru"
        || text == "truncate"
}

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    if toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && is_bounding_ident(&t.text))
    {
        return;
    }
    // A file *named* for caching is a cache wholesale: every insert in it
    // is cache growth, whatever the local receiver is called.
    let file_is_cache = file
        .rel_path
        .rsplit('/')
        .next()
        .is_some_and(|f| f.contains("cache"));
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if !(t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("insert"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("(")))
        {
            continue;
        }
        // Walk the receiver chain backwards (`self.inner.lru_map` →
        // `lru_map`, `inner`, `self`) looking for a cache-ish name.
        let mut cachey = file_is_cache;
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.kind == TokKind::Ident {
                let lower = p.text.to_ascii_lowercase();
                if lower.contains("cache") || lower.contains("lru") {
                    cachey = true;
                }
            } else if !p.is_punct(".") {
                break;
            }
            j -= 1;
        }
        if cachey {
            push(
                file,
                out,
                "no-unbounded-cache",
                t.line,
                "cache insertion with no bounding evidence in this file (a \
                 capacity bound, an evict* identifier, or pop_first/pop_lru/\
                 truncate); an unbounded cache is a slow memory leak — bound \
                 it, or allow-annotate the insert if the callee enforces its \
                 own bound"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::check_src;

    fn lint_as(rel_path: &str, src: &str) -> Vec<super::Finding> {
        let mut out = check_src(rel_path, "serve", src, false);
        out.retain(|f| f.rule == "no-unbounded-cache");
        out
    }

    #[test]
    fn fires_on_cache_named_receivers_without_a_bound() {
        let f = lint_as(
            "crates/serve/src/engine.rs",
            "fn a() { self.cache.insert(k, v); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let f = lint_as(
            "crates/serve/src/engine.rs",
            "fn a() { lru_map.insert(k, v); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn fires_on_any_insert_in_a_cache_file() {
        let f = lint_as(
            "crates/serve/src/cache.rs",
            "fn a() { self.map.insert(k, v); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn bounding_evidence_anywhere_in_the_file_silences() {
        let src = "fn a(&mut self) {\n\
                   while self.map.len() >= self.capacity { self.map.pop_first(); }\n\
                   self.cache.insert(k, v);\n}\n";
        assert!(lint_as("crates/serve/src/cache.rs", src).is_empty());
        let src = "fn evict_oldest(&mut self) {}\nfn a() { self.cache.insert(k, v); }\n";
        assert!(lint_as("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn with_capacity_alone_is_not_a_bound() {
        let src = "fn a() { let mut v = Vec::with_capacity(4); cache.insert(k, v); }";
        assert_eq!(lint_as("crates/serve/src/engine.rs", src).len(), 1);
    }

    #[test]
    fn non_cache_receivers_tests_and_allows_are_exempt() {
        assert!(lint_as(
            "crates/serve/src/engine.rs",
            "fn a() { self.index.insert(k, v); }"
        )
        .is_empty());
        assert!(lint_as(
            "crates/serve/src/engine.rs",
            "#[test]\nfn t() { cache.insert(k, v); }\n"
        )
        .is_empty());
        assert!(lint_as(
            "crates/serve/src/engine.rs",
            "fn a() { cache.insert(k, v); } // deepod-lint: allow(no-unbounded-cache)"
        )
        .is_empty());
    }
}
