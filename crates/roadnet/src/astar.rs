//! Goal-directed routing: A* with an admissible Euclidean heuristic, and
//! ALT (A*–Landmarks–Triangle inequality) with landmark distances
//! computed once up front — the production-grade query path a deployed
//! ETA service would use instead of plain Dijkstra.

use crate::graph::{EdgeId, NodeId, RoadNetwork};
use crate::routing::RoutePath;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapItem {
    priority: f64,
    cost: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.priority.total_cmp(&self.priority)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn astar_with_heuristic(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    mut edge_cost: impl FnMut(EdgeId) -> f64,
    mut h: impl FnMut(NodeId) -> f64,
) -> Option<(RoutePath, usize)> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    let mut settled = 0usize;
    dist[from.idx()] = 0.0;
    heap.push(HeapItem {
        priority: h(from),
        cost: 0.0,
        node: from,
    });

    while let Some(HeapItem { cost, node, .. }) = heap.pop() {
        if cost > dist[node.idx()] {
            continue;
        }
        settled += 1;
        if node == to {
            let mut edges = Vec::new();
            let mut cur = to;
            while cur != from {
                let eid = pred[cur.idx()]?;
                edges.push(eid);
                cur = net.edge(eid).from;
            }
            edges.reverse();
            return Some((RoutePath { edges, cost }, settled));
        }
        for &eid in net.out_edges(node) {
            let e = net.edge(eid);
            let c = edge_cost(eid);
            debug_assert!(c >= 0.0);
            let nd = cost + c;
            if nd < dist[e.to.idx()] {
                dist[e.to.idx()] = nd;
                pred[e.to.idx()] = Some(eid);
                heap.push(HeapItem {
                    priority: nd + h(e.to),
                    cost: nd,
                    node: e.to,
                });
            }
        }
    }
    None
}

/// A* shortest path by geometric length with the straight-line heuristic
/// (admissible because edge length ≥ straight-line displacement).
/// Returns the path and the number of settled nodes (for comparisons).
pub fn astar_shortest_path(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> Option<(RoutePath, usize)> {
    let goal = net.node(to).pos;
    astar_with_heuristic(
        net,
        from,
        to,
        |e| net.edge(e).length,
        |v| net.node(v).pos.dist(&goal),
    )
}

/// Precomputed landmark distances for the ALT heuristic.
///
/// For each landmark L we store `d(L, v)` and `d(v, L)` for all v; the
/// triangle inequality then gives the admissible lower bound
/// `max_L |d(L, t) − d(L, v)|, |d(v, L) − d(t, L)|` on `d(v, t)`.
pub struct Landmarks {
    /// `to_lm[l][v]` = distance from v to landmark l.
    to_lm: Vec<Vec<f64>>,
    /// `from_lm[l][v]` = distance from landmark l to v.
    from_lm: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Selects `k` landmarks spread over the network boundary (farthest-
    /// point selection) and runs 2k Dijkstras to fill the tables.
    pub fn build(net: &RoadNetwork, k: usize) -> Self {
        assert!(k >= 1, "need at least one landmark");
        let n = net.num_nodes();
        // Farthest-point selection seeded at node 0.
        let mut landmarks = vec![NodeId(0)];
        while landmarks.len() < k.min(n) {
            let mut best = (0.0, NodeId(0));
            for v in 0..n {
                let p = net.node(NodeId(v as u32)).pos;
                let d = landmarks
                    .iter()
                    .map(|&l| p.dist(&net.node(l).pos))
                    .fold(f64::INFINITY, f64::min);
                if d > best.0 {
                    best = (d, NodeId(v as u32));
                }
            }
            landmarks.push(best.1);
        }

        let mut to_lm = Vec::with_capacity(landmarks.len());
        let mut from_lm = Vec::with_capacity(landmarks.len());
        for &l in &landmarks {
            from_lm.push(Self::sssp(net, l, false));
            to_lm.push(Self::sssp(net, l, true));
        }
        Landmarks { to_lm, from_lm }
    }

    /// Single-source shortest path distances; `reverse` traverses edges
    /// backwards (distances *to* the source).
    fn sssp(net: &RoadNetwork, source: NodeId, reverse: bool) -> Vec<f64> {
        let n = net.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        dist[source.idx()] = 0.0;
        heap.push(HeapItem {
            priority: 0.0,
            cost: 0.0,
            node: source,
        });
        while let Some(HeapItem { cost, node, .. }) = heap.pop() {
            if cost > dist[node.idx()] {
                continue;
            }
            let edges = if reverse {
                net.in_edges(node)
            } else {
                net.out_edges(node)
            };
            for &eid in edges {
                let e = net.edge(eid);
                let next = if reverse { e.from } else { e.to };
                let nd = cost + e.length;
                if nd < dist[next.idx()] {
                    dist[next.idx()] = nd;
                    heap.push(HeapItem {
                        priority: nd,
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        dist
    }

    /// The ALT lower bound on `d(v, t)`.
    pub fn lower_bound(&self, v: NodeId, t: NodeId) -> f64 {
        let mut best: f64 = 0.0;
        for l in 0..self.to_lm.len() {
            // d(v,t) ≥ d(v,L) − d(t,L) and d(v,t) ≥ d(L,t) − d(L,v).
            let a = self.to_lm[l][v.idx()] - self.to_lm[l][t.idx()];
            let b = self.from_lm[l][t.idx()] - self.from_lm[l][v.idx()];
            if a.is_finite() {
                best = best.max(a);
            }
            if b.is_finite() {
                best = best.max(b);
            }
        }
        best
    }
}

/// ALT shortest path: A* with the landmark heuristic. Returns the path and
/// the number of settled nodes.
pub fn alt_shortest_path(
    net: &RoadNetwork,
    landmarks: &Landmarks,
    from: NodeId,
    to: NodeId,
) -> Option<(RoutePath, usize)> {
    astar_with_heuristic(
        net,
        from,
        to,
        |e| net.edge(e).length,
        |v| landmarks.lower_bound(v, to),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::{CityConfig, CityProfile};
    use crate::routing::dijkstra_shortest_path;
    use rand::Rng;

    fn net() -> RoadNetwork {
        CityConfig::profile(CityProfile::SynthChengdu).generate()
    }

    #[test]
    fn astar_matches_dijkstra_costs() {
        let net = net();
        let mut rng = deepod_tensor::rng_from_seed(21);
        let n = net.num_nodes();
        for _ in 0..25 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            let d = dijkstra_shortest_path(&net, a, b, |e| net.edge(e).length).ok();
            let s = astar_shortest_path(&net, a, b);
            match (d, s) {
                (Some(dp), Some((sp, _))) => {
                    assert!(
                        (dp.cost - sp.cost).abs() < 1e-6,
                        "cost mismatch {} vs {}",
                        dp.cost,
                        sp.cost
                    );
                }
                (None, None) => {}
                (d, s) => panic!(
                    "reachability mismatch: {:?} vs {:?}",
                    d.is_some(),
                    s.is_some()
                ),
            }
        }
    }

    #[test]
    fn alt_matches_dijkstra_costs() {
        let net = net();
        let lm = Landmarks::build(&net, 4);
        let mut rng = deepod_tensor::rng_from_seed(22);
        let n = net.num_nodes();
        for _ in 0..25 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            let d = dijkstra_shortest_path(&net, a, b, |e| net.edge(e).length).ok();
            let s = alt_shortest_path(&net, &lm, a, b);
            match (d, s) {
                (Some(dp), Some((sp, _))) => {
                    assert!((dp.cost - sp.cost).abs() < 1e-6);
                }
                (None, None) => {}
                _ => panic!("reachability mismatch"),
            }
        }
    }

    #[test]
    fn heuristics_settle_fewer_nodes_than_dijkstra() {
        // Dijkstra settles ~everything for cross-town queries; A*/ALT must
        // prune. Compare settled counts on average.
        let net = net();
        let lm = Landmarks::build(&net, 4);
        let mut rng = deepod_tensor::rng_from_seed(23);
        let n = net.num_nodes();
        let mut astar_total = 0usize;
        let mut alt_total = 0usize;
        let mut pairs = 0usize;
        for _ in 0..20 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if let (Some((_, sa)), Some((_, sl))) = (
                astar_shortest_path(&net, a, b),
                alt_shortest_path(&net, &lm, a, b),
            ) {
                astar_total += sa;
                alt_total += sl;
                pairs += 1;
            }
        }
        assert!(pairs > 10);
        // ALT's bound is at least as tight as nothing; both should settle
        // well under the full graph on average.
        assert!(astar_total / pairs < n, "A* settles everything");
        assert!(
            alt_total <= astar_total * 2,
            "ALT should be competitive with A*"
        );
    }

    #[test]
    fn landmark_bound_is_admissible() {
        let net = net();
        let lm = Landmarks::build(&net, 4);
        let mut rng = deepod_tensor::rng_from_seed(24);
        let n = net.num_nodes();
        for _ in 0..30 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if let Ok(p) = dijkstra_shortest_path(&net, a, b, |e| net.edge(e).length) {
                let bound = lm.lower_bound(a, b);
                assert!(
                    bound <= p.cost + 1e-6,
                    "inadmissible bound {bound} > true {p:?}",
                );
            }
        }
    }

    #[test]
    fn self_route() {
        let net = net();
        let (p, _) = astar_shortest_path(&net, NodeId(5), NodeId(5)).unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.cost, 0.0);
    }
}
