//! `no-env-read-in-lib`: configuration flows through
//! `deepod_core::RuntimeConfig`, resolved once in the binary — an
//! environment read buried in a library makes behavior depend on which
//! module initialized first. (`env::args` and the `env!` macro are not
//! reads of ambient configuration and stay legal.)

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
        if t.is_ident("env")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("var") || n.is_ident("var_os") || n.is_ident("vars"))
        {
            push(
                file,
                out,
                "no-env-read-in-lib",
                t.line,
                format!(
                    "`env::{}` in library code; resolve configuration once at binary \
                     startup via `deepod_core::RuntimeConfig` and pass it in",
                    toks[i + 2].text
                ),
            );
        }
    }
}
