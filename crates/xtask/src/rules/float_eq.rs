//! `float-eq`: exact `==`/`!=` against a float literal. Use a tolerance,
//! an ordering comparison, or an explicit allow for intentional
//! exact-zero tests.

use super::{push, Finding};
use crate::lexer::TokKind;
use crate::parser::ParsedFile;

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_punct("==") || t.is_punct("!=") {
            let float_adjacent = (i > 0 && toks[i - 1].kind == TokKind::Float)
                || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
            if float_adjacent {
                push(
                    file,
                    out,
                    "float-eq",
                    t.line,
                    format!(
                        "exact float comparison `{}`; use a tolerance, an ordering \
                         comparison, or an explicit allow for intentional exact-zero tests",
                        t.text
                    ),
                );
            }
        }
    }
}
