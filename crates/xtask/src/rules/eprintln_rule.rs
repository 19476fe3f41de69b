//! `no-bare-eprintln`: library stderr must flow through the
//! observability layer — bare `eprintln!`s ignore the DEEPOD_LOG level
//! gate and race the single-writer lock, interleaving under threads > 1.

use super::{push, Finding};
use crate::parser::ParsedFile;

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    if file.is_bin {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if (t.is_ident("eprintln") || t.is_ident("eprint"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                file,
                out,
                "no-bare-eprintln",
                t.line,
                format!(
                    "`{}!` in library code bypasses the `deepod_core::obs` level gate \
                     and single-writer lock; emit a leveled event instead",
                    t.text
                ),
            );
        }
    }
}
