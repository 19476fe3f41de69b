//! `parallel-coverage`: every `pub fn` of `deepod_tensor::parallel` must
//! have a regression test whose name contains both the function name and
//! `serial`, pinning the `threads = 1 == serial` contract by name. A view
//! of the parsed fns: a test fn anywhere in the checked files counts.

use super::{push, Finding};
use crate::parser::ParsedFile;

pub(super) fn check(files: &[ParsedFile], out: &mut Vec<Finding>) {
    let tests: Vec<&str> = files
        .iter()
        .flat_map(|f| &f.functions)
        .filter(|f| f.is_test)
        .map(|f| f.name.as_str())
        .collect();
    let parallel = files.iter().filter(|f| {
        f.crate_name == "tensor" && f.rel_path.rsplit('/').next() == Some("parallel.rs")
    });
    for file in parallel {
        for f in file.functions.iter().filter(|f| f.is_pub && !f.is_test) {
            let name = f.name.as_str();
            if !tests
                .iter()
                .any(|t| t.contains(name) && t.contains("serial"))
            {
                push(
                    file,
                    out,
                    "parallel-coverage",
                    f.line,
                    format!(
                        "pub fn `{name}` has no `*{name}*serial*` regression test pinning \
                         the threads=1 == serial contract"
                    ),
                );
            }
        }
    }
}
