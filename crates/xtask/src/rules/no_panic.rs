//! No-panic certification: transitive reachability from the serving
//! hot-path roots to panic sources, reported as witness call chains.
//!
//! A finding is one (panicking function, source kind) pair, listing every
//! root that reaches it, the panic-site lines, and the shortest witness
//! chain from the first such root with file:line for every hop. The
//! fingerprint deliberately omits line numbers so the checked-in baseline
//! survives ordinary edits; new panic *kinds* in a reachable fn, or newly
//! reachable fns, surface as unbaselined findings.

use super::Finding;
use crate::callgraph::CallGraph;
use std::collections::BTreeMap;

/// The declared hot-path roots: `InferenceModel::estimate_batch` and its
/// `DeepOdModel` delegate, the public kernel dispatchers, the serve engine's worker loop plus its
/// submit entry points, and the serving cache tier's lookup/insert path
/// (consulted before queue admission on every raw request), and the TCP
/// front end's per-connection reader/writer loops. A missing root is
/// itself a finding — the certification must never silently narrow
/// because a function moved.
pub const DEFAULT_ROOTS: [(&str, &str); 12] = [
    ("crates/core/src/model.rs", "estimate_batch"),
    ("crates/core/src/inference.rs", "estimate_batch"),
    ("crates/tensor/src/kernels.rs", "matmul"),
    ("crates/tensor/src/kernels.rs", "matvec_bias_act"),
    ("crates/tensor/src/kernels.rs", "axpy"),
    ("crates/serve/src/worker.rs", "worker_loop"),
    ("crates/serve/src/engine.rs", "submit"),
    ("crates/serve/src/engine.rs", "try_submit"),
    ("crates/serve/src/cache.rs", "lookup"),
    ("crates/serve/src/cache.rs", "insert"),
    ("crates/serve/src/net.rs", "conn_reader_loop"),
    ("crates/serve/src/net.rs", "conn_writer_loop"),
];

struct Accum {
    roots: Vec<String>,
    site_lines: Vec<u32>,
    chain: Vec<String>,
}

/// Runs the certification for `roots` (pairs of path suffix + fn name).
pub fn check(graph: &CallGraph<'_>, roots: &[(&str, &str)], out: &mut Vec<Finding>) {
    // (node, kind name) → accumulated roots/sites/witness.
    let mut found: BTreeMap<(usize, &str), Accum> = BTreeMap::new();

    for (suffix, fn_name) in roots {
        let Some(root) = graph.find(suffix, fn_name) else {
            out.push(Finding {
                rule: "no-panic",
                path: suffix.to_string(),
                line: 0,
                msg: format!(
                    "no-panic root `{fn_name}` not found in `{suffix}`; the no-panic \
                     certification no longer covers it — update DEFAULT_ROOTS"
                ),
                fingerprint: format!("no-panic:missing-root:{suffix}:{fn_name}"),
                chain: Vec::new(),
            });
            continue;
        };
        let root_label = graph.label(root);
        let parents = graph.reachable_from(root);
        for n in 0..graph.nodes.len() {
            if !parents.contains_key(&n) {
                continue;
            }
            let item = graph.item(n);
            let file = graph.file(n);
            for site in &item.panics {
                if file.allowed("no-panic", site.line) {
                    continue;
                }
                let acc = found
                    .entry((n, site.kind.as_str()))
                    .or_insert_with(|| Accum {
                        roots: Vec::new(),
                        site_lines: Vec::new(),
                        chain: witness_chain(graph, &parents, n),
                    });
                if !acc.roots.contains(&root_label) {
                    acc.roots.push(root_label.clone());
                }
                if !acc.site_lines.contains(&site.line) {
                    acc.site_lines.push(site.line);
                }
            }
        }
    }

    for ((n, kind), acc) in found {
        let item = graph.item(n);
        let file = graph.file(n);
        let label = graph.label(n);
        let lines = acc
            .site_lines
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Finding {
            rule: "no-panic",
            path: file.rel_path.clone(),
            line: acc.site_lines.first().copied().unwrap_or(item.line),
            msg: format!(
                "`{label}` has a `{}` panic source (line{} {lines}) reachable from \
                 hot-path root{} {}",
                kind,
                if acc.site_lines.len() > 1 { "s" } else { "" },
                if acc.roots.len() > 1 { "s" } else { "" },
                acc.roots.join(", "),
            ),
            fingerprint: format!("no-panic:{}:{label}:{kind}", file.rel_path),
            chain: acc.chain,
        });
    }
}

/// Formats the witness chain for `target`: root first, each hop as
/// `label (path:line)` where the line is the call site that entered the
/// hop (the root hop shows its declaration line).
fn witness_chain(
    graph: &CallGraph<'_>,
    parents: &std::collections::HashMap<usize, Option<(usize, u32)>>,
    target: usize,
) -> Vec<String> {
    let chain = graph.witness(parents, target);
    let mut hops = Vec::with_capacity(chain.len());
    for (idx, (node, entered_via)) in chain.iter().enumerate() {
        // Each non-root hop is annotated with the call site that entered
        // it, which lives in the *caller's* file; the root hop shows its
        // own declaration line.
        let (path, line) = if idx == 0 {
            (&graph.file(*node).rel_path, graph.item(*node).line)
        } else {
            (&graph.file(chain[idx - 1].0).rel_path, *entered_via)
        };
        hops.push(format!("{} ({path}:{line})", graph.label(*node)));
    }
    hops
}
