//! Metrics/observability consistency.
//!
//! The obs registry (DESIGN.md §11) renders *registered* series even
//! when they are zero, so dashboards distinguish "never fired" from
//! "not wired up". A metric emitted under a name that is never eagerly
//! registered silently re-creates the gap the registry closed: the
//! series exists only after the first event. This pass collects the
//! registration set — uses flagged by the parser (a `register_*` API,
//! or a zero-value `counter_add` priming call) plus any emission inside
//! a fn whose name starts with `register` — and flags every emitted
//! literal name outside that set.

use super::Finding;
use crate::callgraph::CallGraph;
use std::collections::{BTreeMap, BTreeSet};

pub fn check(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let mut registered: BTreeSet<&str> = BTreeSet::new();
    // name → first emission (path, line, api); test emissions don't
    // count — the gate is about production series.
    let mut emitted: BTreeMap<&str, (&str, u32, &str, usize)> = BTreeMap::new();

    for n in 0..graph.nodes.len() {
        let item = graph.item(n);
        let file = graph.file(n);
        for m in &item.metrics {
            if m.name.is_empty() {
                // Dynamic (non-literal) name: nothing checkable.
                continue;
            }
            if m.is_registration || item.name.starts_with("register") {
                registered.insert(&m.name);
            } else if !item.is_test {
                emitted
                    .entry(&m.name)
                    .or_insert((&file.rel_path, m.line, &m.api, n));
            }
        }
    }

    for (name, (path, line, api, node)) in emitted {
        if registered.contains(name) {
            continue;
        }
        if graph.file(node).allowed("metrics-consistency", line) {
            continue;
        }
        out.push(Finding {
            rule: "metrics-consistency",
            path: path.to_string(),
            line,
            msg: format!(
                "metric `{name}` is emitted (via `{api}`) but never eagerly \
                 registered; the series is invisible until the first event"
            ),
            fingerprint: format!("metrics-consistency:{name}"),
            chain: Vec::new(),
        });
    }
}
