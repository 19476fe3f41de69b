//! Shortest-path routing over the road network.
//!
//! Two modes back the taxi-order simulator (DESIGN.md §2.2):
//!
//! * [`dijkstra_shortest_path`] — static edge costs (distance or free-flow
//!   time), used for distance features in the STNN/MURAT baselines.
//! * [`time_dependent_route`] — edge traversal cost depends on the clock
//!   time at which the edge is *entered*, which makes routes respect
//!   rush-hour congestion; the simulator perturbs costs per driver to get
//!   realistic route diversity for the same OD pair (the paper's Fig. 1).

use crate::graph::{EdgeId, NodeId, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Typed routing failures. `Unreachable` is the routine outcome callers
/// branch on (disconnected OD pairs are normal on real networks); the
/// other variants are caller or internal contract violations that used to
/// be panics — `xtask check` denies those in library code, so they surface
/// as errors the CLI can turn into messages instead of backtraces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// An endpoint is not a node of this network.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// No path exists from `from` to `to`.
    Unreachable {
        /// Origin node id.
        from: u32,
        /// Destination node id.
        to: u32,
    },
    /// Path reconstruction walked off the predecessor tree — an internal
    /// invariant violation (should never happen on a well-formed search).
    BrokenPredecessorChain {
        /// Node at which the chain broke.
        node: u32,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range (network has {num_nodes} nodes)"
                )
            }
            RoutingError::Unreachable { from, to } => {
                write!(f, "node {to} is unreachable from node {from}")
            }
            RoutingError::BrokenPredecessorChain { node } => {
                write!(f, "internal error: predecessor chain broken at node {node}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// A route: the edge sequence plus total cost (seconds or meters, depending
/// on the cost function).
#[derive(Clone, Debug, PartialEq)]
pub struct RoutePath {
    /// Edges in travel order.
    pub edges: Vec<EdgeId>,
    /// Total accumulated cost.
    pub cost: f64,
}

impl RoutePath {
    /// Total geometric length of the route in meters.
    pub fn length(&self, net: &RoadNetwork) -> f64 {
        self.edges.iter().map(|&e| net.edge(e).length).sum()
    }
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other.cost.total_cmp(&self.cost)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn run_dijkstra(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    mut edge_cost: impl FnMut(EdgeId, f64) -> f64,
) -> Result<RoutePath, RoutingError> {
    let n = net.num_nodes();
    for node in [from, to] {
        if node.idx() >= n {
            return Err(RoutingError::NodeOutOfRange {
                node: node.0,
                num_nodes: n,
            });
        }
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[from.idx()] = 0.0;
    heap.push(HeapItem {
        cost: 0.0,
        node: from,
    });

    while let Some(HeapItem { cost, node }) = heap.pop() {
        if node == to {
            break;
        }
        if cost > dist[node.idx()] {
            continue;
        }
        for &eid in net.out_edges(node) {
            let e = net.edge(eid);
            let c = edge_cost(eid, cost);
            debug_assert!(c >= 0.0, "negative edge cost");
            let nd = cost + c;
            if nd < dist[e.to.idx()] {
                dist[e.to.idx()] = nd;
                pred[e.to.idx()] = Some(eid);
                heap.push(HeapItem {
                    cost: nd,
                    node: e.to,
                });
            }
        }
    }

    if dist[to.idx()].is_infinite() {
        return Err(RoutingError::Unreachable {
            from: from.0,
            to: to.0,
        });
    }
    // Reconstruct.
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        let Some(eid) = pred[cur.idx()] else {
            return Err(RoutingError::BrokenPredecessorChain { node: cur.0 });
        };
        edges.push(eid);
        cur = net.edge(eid).from;
    }
    edges.reverse();
    Ok(RoutePath {
        edges,
        cost: dist[to.idx()],
    })
}

/// Dijkstra with a static per-edge cost. Fails with
/// [`RoutingError::Unreachable`] when no path exists (use `.ok()` where
/// unreachable pairs are routine and should just be skipped).
pub fn dijkstra_shortest_path(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    mut edge_cost: impl FnMut(EdgeId) -> f64,
) -> Result<RoutePath, RoutingError> {
    run_dijkstra(net, from, to, |e, _| edge_cost(e))
}

/// Time-dependent Dijkstra: the cost of an edge is a function of the
/// absolute time (seconds) at which it is entered. `depart` is the start
/// time at `from`; the returned `cost` is the arrival time minus `depart`.
///
/// Correct under the FIFO assumption (leaving later never means arriving
/// earlier), which our congestion model satisfies: speeds change per time
/// slot but traversal ordering is preserved.
pub fn time_dependent_route(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    depart: f64,
    mut edge_time: impl FnMut(EdgeId, f64) -> f64,
) -> Result<RoutePath, RoutingError> {
    run_dijkstra(net, from, to, |e, elapsed| edge_time(e, depart + elapsed))
}

/// Convenience router bundling a network reference with cached distance
/// queries.
pub struct Router<'a> {
    net: &'a RoadNetwork,
}

impl<'a> Router<'a> {
    /// Creates a router over `net`.
    pub fn new(net: &'a RoadNetwork) -> Self {
        Router { net }
    }

    /// Shortest route by geometric distance.
    pub fn shortest_by_distance(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<RoutePath, RoutingError> {
        dijkstra_shortest_path(self.net, from, to, |e| self.net.edge(e).length)
    }

    /// Shortest route by free-flow travel time.
    pub fn fastest_free_flow(&self, from: NodeId, to: NodeId) -> Result<RoutePath, RoutingError> {
        dijkstra_shortest_path(self.net, from, to, |e| {
            let edge = self.net.edge(e);
            edge.length / edge.class.free_flow_speed()
        })
    }

    /// Network (shortest-path) distance in meters.
    pub fn network_distance(&self, from: NodeId, to: NodeId) -> Result<f64, RoutingError> {
        self.shortest_by_distance(from, to).map(|p| p.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadClass;

    /// Line of 4 nodes with a shortcut that is longer but "faster".
    fn diamond() -> (RoadNetwork, Vec<NodeId>) {
        let mut g = RoadNetwork::new();
        let a = g.add_node(Point::new(0.0, 0.0));
        let b = g.add_node(Point::new(100.0, 100.0));
        let c = g.add_node(Point::new(100.0, -100.0));
        let d = g.add_node(Point::new(200.0, 0.0));
        g.add_edge(a, b, RoadClass::Local); // ~141 m
        g.add_edge(b, d, RoadClass::Local); // ~141 m
        g.add_edge(a, c, RoadClass::Highway); // ~141 m
        g.add_edge(c, d, RoadClass::Highway); // ~141 m
        (g, vec![a, b, c, d])
    }

    #[test]
    fn distance_route_ties_broken_consistently() {
        let (g, ns) = diamond();
        let r = Router::new(&g);
        let p = r.shortest_by_distance(ns[0], ns[3]).unwrap();
        assert_eq!(p.edges.len(), 2);
        assert!((p.cost - 2.0 * (100.0f64 * 100.0 * 2.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fastest_route_prefers_highway() {
        let (g, ns) = diamond();
        let r = Router::new(&g);
        let p = r.fastest_free_flow(ns[0], ns[3]).unwrap();
        // Both paths have equal length; the highway one is faster.
        let via: Vec<NodeId> = p.edges.iter().map(|&e| g.edge(e).to).collect();
        assert!(via.contains(&ns[2]), "should route via the highway node");
    }

    #[test]
    fn unreachable_is_a_typed_error() {
        let mut g = RoadNetwork::new();
        let a = g.add_node(Point::new(0.0, 0.0));
        let b = g.add_node(Point::new(10.0, 0.0));
        // Only edge b -> a; a -> b unreachable.
        g.add_edge(b, a, RoadClass::Local);
        assert_eq!(
            dijkstra_shortest_path(&g, a, b, |_| 1.0),
            Err(RoutingError::Unreachable { from: a.0, to: b.0 })
        );
    }

    #[test]
    fn out_of_range_node_is_a_typed_error() {
        let (g, ns) = diamond();
        let ghost = NodeId(999);
        let err = dijkstra_shortest_path(&g, ns[0], ghost, |_| 1.0).unwrap_err();
        assert_eq!(
            err,
            RoutingError::NodeOutOfRange {
                node: 999,
                num_nodes: 4
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn self_route_is_empty() {
        let (g, ns) = diamond();
        let p = dijkstra_shortest_path(&g, ns[0], ns[0], |_| 1.0).unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn time_dependent_switches_route_with_congestion() {
        let (g, ns) = diamond();
        // Congest the highway (edges 2,3) after t = 1000 s.
        let edge_time = |e: EdgeId, t: f64| -> f64 {
            let base = g.edge(e).length / g.edge(e).class.free_flow_speed();
            if (e.idx() == 2 || e.idx() == 3) && t >= 1000.0 {
                base * 10.0
            } else {
                base
            }
        };
        let early = time_dependent_route(&g, ns[0], ns[3], 0.0, edge_time).unwrap();
        let via_early: Vec<NodeId> = early.edges.iter().map(|&e| g.edge(e).to).collect();
        assert!(
            via_early.contains(&ns[2]),
            "early trip should use the highway"
        );

        let late = time_dependent_route(&g, ns[0], ns[3], 2000.0, edge_time).unwrap();
        let via_late: Vec<NodeId> = late.edges.iter().map(|&e| g.edge(e).to).collect();
        assert!(
            via_late.contains(&ns[1]),
            "congested trip should avoid the highway"
        );
        assert!(late.cost > early.cost);
    }

    #[test]
    fn route_length_sums_edges() {
        let (g, ns) = diamond();
        let r = Router::new(&g);
        let p = r.shortest_by_distance(ns[0], ns[3]).unwrap();
        assert!((p.length(&g) - p.cost).abs() < 1e-9);
    }

    #[test]
    fn network_distance_matches_route_cost() {
        let (g, ns) = diamond();
        let r = Router::new(&g);
        assert_eq!(
            r.network_distance(ns[0], ns[3]).unwrap(),
            r.shortest_by_distance(ns[0], ns[3]).unwrap().cost
        );
    }
}
