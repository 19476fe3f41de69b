//! Extensions beyond the paper's evaluation (DESIGN.md §10): the
//! route-based TTE reference predictor and goal-directed routing
//! (A*/ALT vs Dijkstra) — evidence for two design choices the core system
//! makes (OD-only inputs; plain Dijkstra in the simulator).

use crate::methods::TWO_CITIES;
use crate::runs::{Data, Runs};
use deepod_baselines::RouteTtePredictor;
use deepod_bench::city_name;
use deepod_eval::{metric_cell, run_method, TextTable};
use deepod_roadnet::{
    alt_shortest_path, astar_shortest_path, dijkstra_shortest_path, CityProfile, Landmarks, NodeId,
};
use rand::Rng;
use std::time::Instant;

/// RouteTTE vs the OD-only regime (how much of the error comes from not
/// knowing the route: RouteTTE routes at query time over learned
/// per-segment speeds), then settled nodes and wall clock of Dijkstra,
/// A* and ALT on the Beijing-analogue network.
pub fn ext(runs: &mut Runs) -> Vec<TextTable> {
    let mut route_tte = TextTable::new(&["City", "Method", "MAE(s)", "MAPE(%)"]);
    for profile in TWO_CITIES {
        let ds = runs.dataset(Data::standard(profile, runs.scale()));
        let r = run_method(Box::new(RouteTtePredictor::new()), &ds).expect("method runs");
        route_tte.row(&[
            city_name(profile).into(),
            "RouteTTE".into(),
            metric_cell(r.metrics.mae, 1),
            metric_cell(r.metrics.mape_pct, 2),
        ]);
    }

    let net = deepod_roadnet::CityConfig::profile(CityProfile::SynthBeijing).generate();
    let t0 = Instant::now();
    let landmarks = Landmarks::build(&net, 6);
    println!(
        "routing on Beijing-analogue ({} nodes); landmark preprocessing {:.2}s (6 landmarks)",
        net.num_nodes(),
        t0.elapsed().as_secs_f64()
    );
    let mut rng = deepod_tensor::rng_from_seed(0xA57);
    let n = net.num_nodes();
    let queries: Vec<(NodeId, NodeId)> = (0..200)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..n) as u32),
                NodeId(rng.gen_range(0..n) as u32),
            )
        })
        .collect();
    // Each algorithm: (routable queries, settled nodes, milliseconds).
    let run = |route: &dyn Fn(NodeId, NodeId) -> Option<usize>| {
        let t0 = Instant::now();
        let settled: Vec<usize> = queries.iter().filter_map(|&(a, b)| route(a, b)).collect();
        (
            settled.len(),
            settled.iter().sum::<usize>(),
            t0.elapsed().as_secs_f64() * 1e3,
        )
    };
    let dijkstra = run(&|a, b| {
        dijkstra_shortest_path(&net, a, b, |e| net.edge(e).length)
            .ok()
            .map(|_| 0)
    });
    let astar = run(&|a, b| astar_shortest_path(&net, a, b).map(|(_, s)| s));
    let alt = run(&|a, b| alt_shortest_path(&net, &landmarks, a, b).map(|(_, s)| s));
    assert_eq!(dijkstra.0, astar.0);
    assert_eq!(dijkstra.0, alt.0);

    let mut routing = TextTable::new(&["algorithm", "mean_settled", "total_ms"]);
    routing.row(&["dijkstra".into(), "-".into(), format!("{:.1}", dijkstra.2)]);
    for (name, (ok, settled, ms)) in [("astar", astar), ("alt", alt)] {
        routing.row(&[
            name.into(),
            (settled / ok.max(1)).to_string(),
            format!("{ms:.1}"),
        ]);
    }
    vec![route_tte, routing]
}
