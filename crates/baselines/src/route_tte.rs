//! Route-based travel time estimation — the "floating-car data" family of
//! the paper's §7.1, built as an extension beyond its baseline set.
//!
//! The estimator learns per-segment speeds from historical trajectories,
//! bucketed by time-of-week, with a class-level fallback for unobserved
//! (segment, bucket) pairs. Prediction routes the query with a
//! time-dependent shortest path over those learned speeds and integrates
//! per-segment times — i.e. it uses the road network at *prediction* time,
//! which the paper's OD methods deliberately avoid (no route is known),
//! making this a strong "oracle-ish" reference point for EXPERIMENTS.md.

use crate::common::TtePredictor;
use deepod_roadnet::{time_dependent_route, EdgeId, RoadClass, RoadNetwork, SpatialGrid};
use deepod_traffic::SECONDS_PER_WEEK;
use deepod_traj::{CityDataset, OdInput};
use std::collections::HashMap;

/// Number of time-of-week buckets (2-hour resolution).
const BUCKETS: usize = 7 * 12;

/// Route-based TTE via learned per-segment speeds.
pub struct RouteTtePredictor {
    /// Mean speed per (edge, bucket), m/s.
    speeds: HashMap<(u32, u16), f32>,
    /// Fallback: mean speed per (road class, bucket).
    class_speeds: HashMap<(u8, u16), f32>,
    /// Global fallback speed.
    global_speed: f32,
    net: Option<RoadNetwork>,
    grid: Option<SpatialGrid>,
}

fn bucket_of(t: f64) -> u16 {
    ((t.rem_euclid(SECONDS_PER_WEEK)) / (SECONDS_PER_WEEK / BUCKETS as f64)) as u16 % BUCKETS as u16
}

fn class_tag(c: RoadClass) -> u8 {
    match c {
        RoadClass::Highway => 0,
        RoadClass::Arterial => 1,
        RoadClass::Collector => 2,
        RoadClass::Local => 3,
    }
}

impl RouteTtePredictor {
    /// Creates an unfitted predictor.
    pub fn new() -> Self {
        RouteTtePredictor {
            speeds: HashMap::new(),
            class_speeds: HashMap::new(),
            global_speed: 10.0,
            net: None,
            grid: None,
        }
    }

    /// Learned speed for an edge entered at time `t`, with fallbacks.
    pub fn speed(&self, net: &RoadNetwork, e: EdgeId, t: f64) -> f32 {
        let b = bucket_of(t);
        if let Some(&v) = self.speeds.get(&(e.0, b)) {
            return v;
        }
        let tag = class_tag(net.edge(e).class);
        if let Some(&v) = self.class_speeds.get(&(tag, b)) {
            return v;
        }
        self.global_speed
    }

    /// Estimated travel time for `od`, in seconds (`None` when unfitted or
    /// when an endpoint or the route cannot be matched). Reads `self` only,
    /// so one fitted predictor can answer from many threads at once.
    pub fn route_eta(&self, od: &OdInput) -> Option<f32> {
        let net = self.net.as_ref()?;
        let grid = self.grid.as_ref()?;
        let (oe, opr) = grid.nearest_edge(net, &od.origin, 600.0)?;
        let (de, dpr) = grid.nearest_edge(net, &od.destination, 600.0)?;

        // Route on learned time-dependent speeds, then integrate, adding
        // the partial first/last segments.
        let route = time_dependent_route(
            net,
            net.edge(oe).to,
            net.edge(de).from,
            od.depart,
            |e, t| (net.edge(e).length / self.speed(net, e, t) as f64).max(0.5),
        )
        .ok()?;

        let head = net.edge(oe).length * (1.0 - opr.t) / self.speed(net, oe, od.depart) as f64;
        let tail_t = od.depart + head + route.cost;
        let tail = net.edge(de).length * dpr.t / self.speed(net, de, tail_t) as f64;
        Some((head + route.cost + tail) as f32)
    }

    /// Number of (segment, bucket) pairs with direct observations.
    pub fn observed_pairs(&self) -> usize {
        self.speeds.len()
    }
}

impl Default for RouteTtePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl TtePredictor for RouteTtePredictor {
    fn name(&self) -> &'static str {
        "RouteTTE"
    }

    fn fit(&mut self, ds: &CityDataset) {
        let mut sums: HashMap<(u32, u16), (f64, u32)> = HashMap::new();
        let mut class_sums: HashMap<(u8, u16), (f64, u32)> = HashMap::new();
        let mut global = (0.0f64, 0u32);
        for o in &ds.train {
            for step in &o.trajectory.path {
                let dur = step.duration();
                if dur < 1.0 {
                    continue;
                }
                let v = ds.net.edge(step.edge).length / dur;
                if !(0.3..45.0).contains(&v) {
                    continue;
                }
                let b = bucket_of(step.enter);
                let e = sums.entry((step.edge.0, b)).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
                let tag = class_tag(ds.net.edge(step.edge).class);
                let c = class_sums.entry((tag, b)).or_insert((0.0, 0));
                c.0 += v;
                c.1 += 1;
                global.0 += v;
                global.1 += 1;
            }
        }
        self.speeds = sums
            .into_iter()
            .map(|(k, (s, n))| (k, (s / n as f64) as f32))
            .collect();
        self.class_speeds = class_sums
            .into_iter()
            .map(|(k, (s, n))| (k, (s / n as f64) as f32))
            .collect();
        if global.1 > 0 {
            self.global_speed = (global.0 / global.1 as f64) as f32;
        }
        self.grid = Some(SpatialGrid::build(&ds.net, 250.0));
        self.net = Some(ds.net.clone());
    }

    fn predict(&mut self, od: &OdInput) -> Option<f32> {
        self.route_eta(od)
    }

    fn size_bytes(&self) -> usize {
        self.speeds.len() * (6 + 4) + self.class_speeds.len() * (3 + 4) + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    #[test]
    fn beats_mean_predictor_comfortably() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 700));
        let mut p = RouteTtePredictor::new();
        p.fit(&ds);
        assert!(p.observed_pairs() > 100, "too few observations");

        let mean = ds.mean_train_travel_time() as f32;
        let mut mae = 0.0f32;
        let mut mae_mean = 0.0f32;
        let mut n = 0;
        for o in &ds.test {
            if let Some(pred) = p.predict(&o.od) {
                mae += (pred - o.travel_time as f32).abs();
                mae_mean += (mean - o.travel_time as f32).abs();
                n += 1;
            }
        }
        assert!(n > ds.test.len() / 2);
        mae /= n as f32;
        mae_mean /= n as f32;
        assert!(
            mae < mae_mean * 0.92,
            "RouteTTE {mae:.1} should clearly beat mean {mae_mean:.1}"
        );
    }

    #[test]
    fn unfitted_returns_none() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 20));
        let mut p = RouteTtePredictor::new();
        assert!(p.predict(&ds.train[0].od).is_none());
    }

    #[test]
    fn speed_fallback_chain() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 100));
        let mut p = RouteTtePredictor::new();
        p.fit(&ds);
        // Any edge at any time yields a positive, sane speed via fallbacks.
        for i in (0..ds.net.num_edges()).step_by(53) {
            let v = p.speed(&ds.net, EdgeId(i as u32), 1e7);
            assert!((0.3..45.0).contains(&v), "speed {v}");
        }
    }

    #[test]
    fn rush_hour_predictions_longer() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 500));
        let mut p = RouteTtePredictor::new();
        p.fit(&ds);
        // Same OD Tuesday 8 am vs 3 am — learned speeds must reflect rush.
        let mut od = ds.test[0].od;
        let day = 86_400.0;
        od.depart = day + 8.0 * 3600.0;
        let rush = p.predict(&od);
        od.depart = day + 3.0 * 3600.0;
        let night = p.predict(&od);
        if let (Some(r), Some(n)) = (rush, night) {
            assert!(r > n * 0.95, "rush {r:.0}s vs night {n:.0}s");
        }
    }

    #[test]
    fn bucket_wraps_weekly() {
        assert_eq!(bucket_of(100.0), bucket_of(100.0 + SECONDS_PER_WEEK));
        assert_ne!(bucket_of(0.0), bucket_of(3.0 * 7200.0));
    }
}
