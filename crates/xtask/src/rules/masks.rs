//! Token helpers shared by the parser and the per-line rules.
//!
//! The test mask is a simple brace-depth scan over the token stream: no
//! real parsing, but enough structure to know "is this token inside a
//! `#[cfg(test)]` item".

use crate::lexer::{TokKind, Token};

/// Marks tokens that live inside test-only code: the body of any item
/// annotated `#[test]` (any attribute path ending in `test`, so
/// `#[tokio::test]`-style wrappers count) or `#[cfg(test)]` /
/// `#[cfg_attr(..., test)]`. `#[cfg(not(test))]` does *not* count.
pub(crate) fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    let mut test_open_depths: Vec<i32> = Vec::new();
    let mut pending_test = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("#") && tokens.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            // Scan the attribute to its closing bracket.
            let mut j = i + 2;
            let mut bdepth = 1;
            let mut idents: Vec<&str> = Vec::new();
            let mut path_idents: Vec<&str> = Vec::new();
            let mut in_args = false;
            while j < tokens.len() && bdepth > 0 {
                let a = &tokens[j];
                if a.is_punct("[") {
                    bdepth += 1;
                } else if a.is_punct("]") {
                    bdepth -= 1;
                } else if a.is_punct("(") {
                    in_args = true;
                } else if a.kind == TokKind::Ident {
                    idents.push(&a.text);
                    if !in_args {
                        path_idents.push(&a.text);
                    }
                }
                j += 1;
            }
            let is_cfg_like = path_idents
                .first()
                .is_some_and(|f| *f == "cfg" || *f == "cfg_attr");
            let mentions_test = idents.contains(&"test");
            let negated = idents.contains(&"not");
            let is_test_attr = (is_cfg_like && mentions_test && !negated)
                || (!is_cfg_like && path_idents.last().is_some_and(|l| *l == "test"));
            if is_test_attr {
                pending_test = true;
            }
            for m in mask.iter_mut().take(j).skip(i) {
                *m = *m || !test_open_depths.is_empty();
            }
            i = j;
            continue;
        }
        if t.is_punct("{") {
            depth += 1;
            if pending_test {
                test_open_depths.push(depth);
                pending_test = false;
            }
        }
        mask[i] = !test_open_depths.is_empty() || pending_test;
        if t.is_punct("}") {
            if test_open_depths.last() == Some(&depth) {
                test_open_depths.pop();
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == test_open_depths.last().copied().unwrap_or(0) {
            // `#[cfg(test)] use ...;` — the item ends before any brace.
            pending_test = false;
        }
        i += 1;
    }
    mask
}

/// Index of the `(` matching the `)` at `close`, if any.
pub(crate) fn matching_open(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        let t = &tokens[j];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}
