//! `nondeterminism`: wall clocks and OS-entropy RNGs are banned from the
//! numeric crates — model code must be a pure function of
//! (input, seed, thread count) or the bit-stable loss-curve contract
//! from DESIGN.md §6 silently breaks.

use super::{push, Finding, DETERMINISTIC_CRATES};
use crate::parser::ParsedFile;

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    if !DETERMINISTIC_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let hit = if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            Some("Instant::now")
        } else if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if t.is_ident("thread_rng") {
            Some("thread_rng")
        } else if t.is_ident("from_entropy") {
            Some("from_entropy")
        } else {
            None
        };
        if let Some(what) = hit {
            push(
                file,
                out,
                "nondeterminism",
                t.line,
                format!(
                    "`{what}` in deterministic crate `{}`: model code must be a pure \
                     function of (input, seed, thread count)",
                    file.crate_name
                ),
            );
        }
    }
}
