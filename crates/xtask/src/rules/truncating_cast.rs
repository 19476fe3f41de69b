//! `truncating-cast`: a float-producing expression cast straight to an
//! integer index type truncates silently; route index math through a
//! checked helper (or allow on an audited one).

use super::masks::matching_open;
use super::{push, Finding};
use crate::lexer::TokKind;
use crate::parser::ParsedFile;

const INT_TARGETS: [&str; 10] = [
    "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64",
];

/// Method names that always produce a float: a call to one of these cast
/// straight to an integer type is a truncation that deserves a bounds
/// check (or an explicit allow on an audited helper).
const FLOAT_METHODS: [&str; 10] = [
    "floor",
    "ceil",
    "round",
    "trunc",
    "sqrt",
    "powf",
    "exp",
    "ln",
    "to_degrees",
    "to_radians",
];

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && INT_TARGETS.contains(&n.text.as_str()))
            && i > 0
        {
            let prev = &toks[i - 1];
            // Flag `0.5 as usize` and `x as f32 as usize` outright.
            let float_source = prev.kind == TokKind::Float
                || (prev.kind == TokKind::Ident
                    && (prev.text == "f32" || prev.text == "f64")
                    && i >= 2
                    && toks[i - 2].is_ident("as"));
            let flagged = if float_source {
                true
            } else if prev.is_punct(")") {
                // `x.floor() as usize` — the call just before the cast
                // returns a float.
                matching_open(toks, i - 1)
                    .and_then(|open| open.checked_sub(1))
                    .is_some_and(|k| {
                        toks[k].kind == TokKind::Ident
                            && FLOAT_METHODS.contains(&toks[k].text.as_str())
                    })
            } else {
                false
            };
            if flagged {
                push(
                    file,
                    out,
                    "truncating-cast",
                    t.line,
                    format!(
                        "float expression cast straight to `{}` truncates silently; route \
                         index math through a checked helper (or allow on an audited one)",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }
}
