//! `unsafe-safety`: every `unsafe` block or `unsafe fn` must carry a
//! `// SAFETY:` (or `/// # Safety` doc) justification within the
//! lookback window the parser enforces. `unsafe_code = "deny"` already
//! confines `unsafe` to the one `#[allow(unsafe_code)]` module (the AVX
//! kernels), and rustc rejects a `#[target_feature]` call outside
//! `unsafe` (E0133); this rule makes each such block say why it is sound.

use super::Finding;
use crate::callgraph::CallGraph;

pub fn check(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    for n in 0..graph.nodes.len() {
        let item = graph.item(n);
        let file = graph.file(n);
        if item.is_test {
            continue;
        }

        // Aggregate uncovered sites per fn so one missing
        // comment on a fn with several blocks is one reviewable finding.
        let uncovered: Vec<u32> = item
            .unsafe_sites
            .iter()
            .filter(|s| !s.has_safety_comment && !file.allowed("unsafe-safety", s.line))
            .map(|s| s.line)
            .collect();
        if let Some(&first) = uncovered.first() {
            let label = graph.label(n);
            let lines = uncovered
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Finding {
                rule: "unsafe-safety",
                path: file.rel_path.clone(),
                line: first,
                msg: format!(
                    "`{label}` has unsafe code (line{} {lines}) without a \
                     `// SAFETY:` justification",
                    if uncovered.len() > 1 { "s" } else { "" },
                ),
                fingerprint: format!("unsafe-safety:{}:{label}", file.rel_path),
                chain: Vec::new(),
            });
        }
    }
}
