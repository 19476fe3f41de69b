//! `no-bare-fs-write`: `fs::write` / `File::create` outside `io_guard.rs`
//! bypasses the atomic-rename + checksum write path (DESIGN.md §8).
//! Applies to bins too: a torn CLI write is exactly the crash-safety hole
//! the guard closes.

use super::{push, Finding};
use crate::parser::ParsedFile;

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    // The one module allowed to touch the filesystem directly: it *is*
    // the crash-safe write path this rule points at.
    if file.rel_path.ends_with("io_guard.rs") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let bare = if t.is_ident("fs")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("write"))
        {
            Some("fs::write")
        } else if t.is_ident("File")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("create"))
        {
            Some("File::create")
        } else {
            None
        };
        if let Some(what) = bare {
            push(
                file,
                out,
                "no-bare-fs-write",
                t.line,
                format!(
                    "`{what}` bypasses the crash-safe write path; use \
                     `deepod_core::io_guard` (temp file + fsync + atomic \
                     rename + checksum) instead"
                ),
            );
        }
    }
}
