//! `no-unsupervised-spawn`: worker threads in `deepod-serve` must be
//! created through `supervisor::spawn_supervised`, which wraps the thread
//! body in `catch_unwind`, rebuilds the model replica, requeues the
//! in-flight batch, and counts the restart. A bare `thread::spawn`
//! anywhere else in the crate is a thread whose panic silently strands
//! every queued request behind a dead shard.

use super::{push, Finding};
use crate::parser::ParsedFile;

pub(super) fn check(file: &ParsedFile, out: &mut Vec<Finding>) {
    // Only the serve crate runs long-lived worker threads; other crates'
    // scoped/parallel helpers are out of scope for this rule.
    if file.crate_name != "serve" {
        return;
    }
    // The one module allowed to spawn: it *is* the supervision layer.
    if file.rel_path.ends_with("supervisor.rs") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        // `thread::spawn(..)` / `std::thread::spawn(..)`.
        let path_spawn = t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("spawn"));
        // `Builder::new()...spawn(..)` — any method-call `.spawn(`.
        let method_spawn = t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("spawn"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("));
        if path_spawn || method_spawn {
            push(
                file,
                out,
                "no-unsupervised-spawn",
                t.line,
                "bare thread spawn in `deepod-serve`; worker threads must go \
                 through `supervisor::spawn_supervised` so panics are caught, \
                 counted, and the shard restarted"
                    .to_string(),
            );
        }
    }
}
