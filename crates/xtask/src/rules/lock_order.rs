//! Lock-order and lock-across-send analysis.
//!
//! Lock identity is the *name* of the field/binding the guard came from
//! (`self.queue.lock()` → `queue`), matched across crates — the rule
//! cares about the two named locks in `crates/serve` and
//! `crates/tensor::parallel`, where a both-orders pair is a real
//! deadlock. Acquisition order is tracked two ways: directly (an
//! acquisition while another guard is live in the same body) and
//! transitively (a call made while a guard is live, where the callee —
//! or anything it reaches — acquires a lock). A pair seen in both
//! orders is `lock-order`; a channel send / queue submit performed
//! while a guard is live is `lock-across-send` (the receiver may block
//! on that same lock, and at minimum the critical section inflates by
//! the channel's backpressure).

use super::Finding;
use crate::callgraph::CallGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Call names treated as channel/queue handoffs.
const SEND_METHODS: [&str; 4] = ["send", "try_send", "submit", "try_submit"];

pub fn check(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let n = graph.nodes.len();

    // Transitive acquisition sets by fixpoint (the graph may have cycles).
    let mut acquires: Vec<BTreeSet<String>> = (0..n)
        .map(|i| graph.item(i).locks.iter().map(|l| l.name.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for e in &graph.edges[i] {
                let extra: Vec<String> = acquires[e.to]
                    .iter()
                    .filter(|l| !acquires[i].contains(*l))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    acquires[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // (held, acquired) → first witness site.
    let mut pairs: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let record = |held: &str,
                  acq: &str,
                  path: &str,
                  line: u32,
                  how: String,
                  pairs: &mut BTreeMap<(String, String), (String, u32, String)>| {
        if held != acq {
            pairs.entry((held.to_string(), acq.to_string())).or_insert((
                path.to_string(),
                line,
                how,
            ));
        }
    };

    for i in 0..n {
        let item = graph.item(i);
        let file = graph.file(i);
        if item.is_test {
            continue;
        }
        let label = graph.label(i);

        // Direct nesting within one body.
        for op in &item.locks {
            for held in &op.held_locks {
                record(
                    held,
                    &op.name,
                    &file.rel_path,
                    op.line,
                    format!("`{label}` acquires `{}` while holding `{held}`", op.name),
                    &mut pairs,
                );
            }
        }

        for call in &item.calls {
            if call.held_locks.is_empty() {
                continue;
            }
            // Transitive nesting: callee (or anything it reaches)
            // acquires while our guard is live.
            for e in &graph.edges[i] {
                if e.line != call.line {
                    continue;
                }
                for acq in acquires[e.to].iter() {
                    for held in &call.held_locks {
                        record(
                            held,
                            acq,
                            &file.rel_path,
                            call.line,
                            format!(
                                "`{label}` calls `{}` (which acquires `{acq}`) while \
                                 holding `{held}`",
                                graph.label(e.to)
                            ),
                            &mut pairs,
                        );
                    }
                }
            }
            // Sends under a lock.
            if SEND_METHODS.contains(&call.name.as_str())
                && !file.allowed("lock-across-send", call.line)
            {
                for held in &call.held_locks {
                    out.push(Finding {
                        rule: "lock-across-send",
                        path: file.rel_path.clone(),
                        line: call.line,
                        msg: format!(
                            "`{label}` calls `{}` while holding lock `{held}`; the \
                             handoff can block inside the critical section",
                            call.name
                        ),
                        fingerprint: format!(
                            "lock-across-send:{}:{label}:{held}:{}",
                            file.rel_path, call.name
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    // Both-orders pairs. Canonical (a < b) so each inversion reports once.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (path, line, how_ab)) in &pairs {
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if seen.contains(&key) {
            continue;
        }
        if let Some((path_ba, line_ba, how_ba)) = pairs.get(&(b.clone(), a.clone())) {
            seen.insert(key.clone());
            // Suppressible at either witness site.
            let (fa, fb) = (&key.0, &key.1);
            out.push(Finding {
                rule: "lock-order",
                path: path.clone(),
                line: *line,
                msg: format!(
                    "locks `{a}` and `{b}` are acquired in both orders: {how_ab} \
                     ({path}:{line}) vs {how_ba} ({path_ba}:{line_ba})"
                ),
                fingerprint: format!("lock-order:{fa}<->{fb}"),
                chain: Vec::new(),
            });
        }
    }
}
