//! Workspace call graph over parsed function items.
//!
//! Resolution is *conservative by name* (DESIGN.md §7): a method call
//! `recv.foo(..)` links to every non-test workspace fn named `foo` whose
//! first parameter is `self`; a bare call `foo(..)` to every self-less
//! one; a qualified call `Qual::foo(..)` links to fns named `foo` declared in
//! an `impl Qual` block or in a module named `Qual` (file stem or inline
//! `mod`). Qualified calls whose qualifier matches nothing in the
//! workspace are treated as external (`Vec::new`, `String::from`, ...).
//! Trait-object dispatch and closures passed as values are invisible —
//! the soundness caveat DESIGN.md §7 documents — but every *named* edge the
//! workspace can express is present, which over-approximates reachability
//! rather than missing it.

use crate::parser::{CallKind, FnItem, ParsedFile};
use std::collections::{HashMap, VecDeque};

/// A function node: indices into the parsed files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId {
    /// Index into the file list.
    pub file: usize,
    /// Index into that file's `functions`.
    pub func: usize,
}

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee.
    pub to: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// Parsed files, in the order nodes reference them.
    pub files: Vec<&'a ParsedFile>,
    /// Flattened function nodes.
    pub nodes: Vec<NodeId>,
    /// `edges[n]` — resolved outgoing calls of node `n`.
    pub edges: Vec<Vec<Edge>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph. Test fns get nodes (so their bodies can still
    /// be inspected) but are never resolution *targets*: a lib call
    /// named like a test helper must not link into test code.
    pub fn build(files: impl IntoIterator<Item = &'a ParsedFile>) -> Self {
        let files: Vec<&ParsedFile> = files.into_iter().collect();
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, _) in f.functions.iter().enumerate() {
                nodes.push(NodeId { file: fi, func: gi });
            }
        }

        // Name → candidate targets (split by self-ness: `recv.name(..)`
        // can only land on a self-taking fn, bare `name(..)` only on a
        // self-less one); (qualifier, name) → candidates.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_fns: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (ni, id) in nodes.iter().enumerate() {
            let item = &files[id.file].functions[id.func];
            if item.is_test {
                continue;
            }
            by_name.entry(&item.name).or_default().push(ni);
            if item.has_self {
                methods.entry(&item.name).or_default().push(ni);
            } else {
                free_fns.entry(&item.name).or_default().push(ni);
            }
            if let Some(ty) = &item.impl_type {
                by_qual.entry((ty, &item.name)).or_default().push(ni);
            }
            for m in &item.modules {
                by_qual.entry((m, &item.name)).or_default().push(ni);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (ni, id) in nodes.iter().enumerate() {
            let item = &files[id.file].functions[id.func];
            for call in &item.calls {
                let targets: &[usize] = match call.kind {
                    CallKind::Path => match &call.qualifier {
                        Some(q) => by_qual
                            .get(&(q.as_str(), call.name.as_str()))
                            .map(Vec::as_slice)
                            .unwrap_or(&[]),
                        // `<T>::name(..)` and friends: fall back to name.
                        None => by_name
                            .get(call.name.as_str())
                            .map(Vec::as_slice)
                            .unwrap_or(&[]),
                    },
                    CallKind::Method => methods
                        .get(call.name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                    CallKind::Bare => free_fns
                        .get(call.name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                };
                for &t in targets {
                    if t != ni {
                        edges[ni].push(Edge {
                            to: t,
                            line: call.line,
                        });
                    }
                }
            }
        }

        CallGraph {
            files,
            nodes,
            edges,
        }
    }

    /// The parsed item behind a node.
    pub fn item(&self, n: usize) -> &FnItem {
        let id = self.nodes[n];
        &self.files[id.file].functions[id.func]
    }

    /// The file a node was declared in.
    pub fn file(&self, n: usize) -> &ParsedFile {
        self.files[self.nodes[n].file]
    }

    /// Finds the node for a non-test fn by path suffix and name.
    pub fn find(&self, path_suffix: &str, fn_name: &str) -> Option<usize> {
        (0..self.nodes.len()).find(|&n| {
            let item = self.item(n);
            !item.is_test && item.name == fn_name && self.file(n).rel_path.ends_with(path_suffix)
        })
    }

    /// Display label for a node: `Type::name` or `module::name`.
    pub fn label(&self, n: usize) -> String {
        let item = self.item(n);
        match &item.impl_type {
            Some(ty) => format!("{ty}::{}", item.name),
            None => match item.modules.last() {
                Some(m) => format!("{m}::{}", item.name),
                None => item.name.clone(),
            },
        }
    }

    /// BFS from `root`, returning for every reachable node the
    /// `(parent, call line)` it was first discovered through
    /// (`parents[root] = None`). Unreachable nodes are absent.
    pub fn reachable_from(&self, root: usize) -> HashMap<usize, Option<(usize, u32)>> {
        let mut parents: HashMap<usize, Option<(usize, u32)>> = HashMap::new();
        parents.insert(root, None);
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if let std::collections::hash_map::Entry::Vacant(slot) = parents.entry(e.to) {
                    slot.insert(Some((n, e.line)));
                    queue.push_back(e.to);
                }
            }
        }
        parents
    }

    /// The witness chain root → .. → `target` implied by a `parents`
    /// map from [`Self::reachable_from`], as node/callsite-line pairs.
    /// Each entry is `(node, line of the call that *entered* it)`; the
    /// root's entry has line 0.
    pub fn witness(
        &self,
        parents: &HashMap<usize, Option<(usize, u32)>>,
        target: usize,
    ) -> Vec<(usize, u32)> {
        let mut cur = target;
        let mut rev = vec![(cur, 0u32)];
        while let Some(Some((p, line))) = parents.get(&cur) {
            if let Some(last) = rev.last_mut() {
                last.1 = *line;
            }
            rev.push((*p, 0));
            cur = *p;
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn parse_one(src: &str) -> ParsedFile {
        parse_file("crates/demo/src/demo.rs", "demo", lex(src), false, false)
    }

    #[test]
    fn resolves_bare_method_and_qualified_calls() {
        let files = vec![parse_one(
            "\
impl Engine {
    fn run(&self) { self.step(); helper(); Other::go(); Vec::with_capacity(4); }
    fn step(&self) {}
}
fn helper() {}
impl Other {
    fn go() {}
}
",
        )];
        let g = CallGraph::build(&files);
        let run = g.find("demo.rs", "run").expect("run");
        let callees: Vec<String> = g.edges[run].iter().map(|e| g.label(e.to)).collect();
        assert_eq!(
            callees,
            vec!["Engine::step", "demo::helper", "Other::go"],
            "with_capacity resolves to nothing in the workspace"
        );
    }

    #[test]
    fn qualified_module_calls_resolve_through_inline_mods() {
        let files = vec![parse_one(
            "\
fn dispatch() { x86::kern(); }
mod x86 {
    pub fn kern() {}
}
",
        )];
        let g = CallGraph::build(&files);
        let d = g.find("demo.rs", "dispatch").expect("dispatch");
        assert_eq!(g.edges[d].len(), 1);
        assert_eq!(g.label(g.edges[d][0].to), "x86::kern");
    }

    #[test]
    fn test_fns_are_not_targets() {
        let files = vec![parse_one(
            "\
fn lib() { check(); }
#[cfg(test)]
mod tests {
    fn check() {}
}
",
        )];
        let g = CallGraph::build(&files);
        let lib = g.find("demo.rs", "lib").expect("lib");
        assert!(g.edges[lib].is_empty(), "lib call must not link into tests");
    }

    #[test]
    fn reachability_produces_a_witness_chain_with_lines() {
        let files = vec![parse_one(
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { v[0]; }\nfn d() {}\n",
        )];
        let g = CallGraph::build(&files);
        let (a, c, d) = (
            g.find("demo.rs", "a").expect("a"),
            g.find("demo.rs", "c").expect("c"),
            g.find("demo.rs", "d").expect("d"),
        );
        let parents = g.reachable_from(a);
        assert!(parents.contains_key(&c));
        assert!(!parents.contains_key(&d));
        let chain = g.witness(&parents, c);
        let labels: Vec<(String, u32)> = chain.iter().map(|(n, l)| (g.label(*n), *l)).collect();
        assert_eq!(
            labels,
            vec![
                ("demo::a".to_string(), 0),
                ("demo::b".to_string(), 1),
                ("demo::c".to_string(), 2),
            ],
            "each hop carries the line of the call that entered it"
        );
    }
}
