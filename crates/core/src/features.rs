//! Feature preparation: everything that turns a [`TaxiOrder`] / [`OdInput`]
//! into the index/scalar inputs the encoders consume.
//!
//! The [`FeatureContext`] owns the per-city state shared by all samples —
//! the spatial index for OD-point matching, the slot discretization, the
//! speed-matrix store (downsampled to a fixed CNN input resolution) — and
//! is reused between training and online estimation, mirroring the paper's
//! split between data preparation and model application.

use crate::timeslot::{TimeSlotError, TimeSlots};
use deepod_roadnet::{RoadNetwork, SpatialGrid};
use deepod_tensor::Tensor;
use deepod_traffic::{SpeedMatrixBuilder, SpeedMatrixStore, NUM_WEATHER_TYPES};
use deepod_traj::{CityDataset, OdInput, TaxiOrder};
use std::sync::{Arc, OnceLock};

/// Encoded OD input: indices and scalars ready for [`crate::OdEncoder`].
#[derive(Clone, Debug)]
pub struct EncodedOd {
    /// Matched origin road segment (index into the embedding table).
    pub origin_edge: usize,
    /// Matched destination road segment.
    pub dest_edge: usize,
    /// Position ratio r\[1\] of the origin on its segment.
    pub r_start: f32,
    /// Position ratio r[-1] of the destination on its segment.
    pub r_end: f32,
    /// Weekly temporal-graph node of the departure slot.
    pub depart_node: usize,
    /// Normalized remainder t_r / Δt of the departure time.
    pub depart_rem: f32,
    /// Raw departure timestamp (used only by the T-stamp ablation).
    pub depart_raw: f32,
    /// Weather one-hot.
    pub weather_onehot: Vec<f32>,
    /// Downsampled speed matrix `[1, h, w]` (shared across samples of the
    /// same slot).
    pub speed_matrix: Arc<Tensor>,
}

/// One encoded trajectory step for [`crate::TrajectoryEncoder`].
#[derive(Clone, Debug)]
pub struct EncodedStep {
    /// Road segment index.
    pub edge: usize,
    /// Weekly nodes of the slots the interval covers (Δd entries).
    pub slot_nodes: Vec<usize>,
    /// Normalized entry remainder.
    pub rem_enter: f32,
    /// Normalized exit remainder.
    pub rem_exit: f32,
}

/// A fully encoded training sample: OD features, trajectory features,
/// label.
#[derive(Clone, Debug)]
pub struct EncodedSample {
    /// The OD-side features.
    pub od: EncodedOd,
    /// The trajectory steps (empty only for corrupt inputs, which the
    /// pipeline filters out).
    pub steps: Vec<EncodedStep>,
    /// Trajectory position ratios (fed to the trajectory encoder's final
    /// MLP).
    pub traj_r_start: f32,
    /// See `traj_r_start`.
    pub traj_r_end: f32,
    /// Ground-truth travel time (seconds).
    pub travel_time: f32,
}

/// Spatial resolution the speed matrices are downsampled to before the CNN
/// (keeps the external encoder's cost independent of city size, like the
/// paper's fixed 200 m grid does for fixed-extent cities).
const TRAF_GRID: usize = 12;

/// Per-city feature state.
pub struct FeatureContext {
    slots: TimeSlots,
    grid: SpatialGrid,
    speeds: SpeedMatrixStore,
    num_edges: usize,
    /// The downsampled matrix of each speed-store slot, made on first use.
    /// One `OnceLock` per slot: no lock on a hit, and every encoding of a
    /// slot shares one `Arc`, even when threads miss it together.
    matrix_cache: Box<[OnceLock<Arc<Tensor>>]>,
}

impl FeatureContext {
    /// Builds the context for a dataset: spatial index, slot grid, and
    /// speed matrices accumulated from the *training* trajectories (test
    /// trips must not leak into the traffic-condition feature). Errors
    /// when `slot_seconds` is not a usable discretization (non-positive
    /// or not a whole-slot divisor of a week).
    pub fn build(ds: &CityDataset, slot_seconds: f64) -> Result<Self, TimeSlotError> {
        let slots = TimeSlots::new(0.0, slot_seconds)?;
        let grid = SpatialGrid::build(&ds.net, 250.0);
        let horizon = ds.horizon();
        // 5-minute speed matrices as in §6.1. The matrices model a *live*
        // probe-vehicle feed: every trip (whatever split it later falls in)
        // contributes observations at the time they physically happened,
        // and a query at time t reads only the matrix before t — so no
        // label information leaks across the train/test boundary.
        let mut builder = SpeedMatrixBuilder::new(&ds.net, 500.0, 300.0, horizon);
        for order in ds.train.iter().chain(&ds.validation).chain(&ds.test) {
            for step in &order.trajectory.path {
                let e = ds.net.edge(step.edge);
                let dt = step.duration().max(1e-6);
                let v = e.length / dt;
                let mid = ds.net.edge_midpoint(step.edge);
                builder.observe(&mid, step.enter, v);
            }
        }
        let speeds = builder.build();
        Ok(FeatureContext {
            slots,
            grid,
            matrix_cache: (0..speeds.num_slots()).map(|_| OnceLock::new()).collect(),
            speeds,
            num_edges: ds.net.num_edges(),
        })
    }

    /// The slot discretization.
    pub fn slots(&self) -> &TimeSlots {
        &self.slots
    }

    /// Number of road segments (embedding vocabulary size).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of temporal-graph nodes (time-slot vocabulary size).
    pub fn num_slot_nodes(&self) -> usize {
        self.slots.slots_per_week()
    }

    /// The speed-matrix CNN input resolution `(h, w)`.
    pub fn traffic_dims(&self) -> (usize, usize) {
        (TRAF_GRID, TRAF_GRID)
    }

    fn downsampled_matrix(&self, t: f64) -> Arc<Tensor> {
        let slot = deepod_tensor::floor_index(t.max(0.0) / self.speeds.slot_len());
        let slot = slot.min(self.speeds.num_slots() - 1);
        match self.matrix_cache.get(slot) {
            Some(cell) => Arc::clone(cell.get_or_init(|| Arc::new(self.downsample(slot)))),
            // Unreachable: the cache has one cell per clamped slot.
            None => Arc::new(self.downsample(slot)),
        }
    }

    /// The speed matrix of store slot `slot`, averaged down to
    /// `[1, TRAF_GRID, TRAF_GRID]` and scaled to roughly unit range.
    fn downsample(&self, slot: usize) -> Tensor {
        let src = self
            .speeds
            .nearest_before(slot as f64 * self.speeds.slot_len() + 1.0);
        let (sh, sw) = (src.dim(0), src.dim(1));
        let mut out = Tensor::zeros(&[1, TRAF_GRID, TRAF_GRID]);
        for y in 0..TRAF_GRID {
            for x in 0..TRAF_GRID {
                // Average the source cells that map into this target cell.
                let y0 = y * sh / TRAF_GRID;
                let y1 = (((y + 1) * sh).div_ceil(TRAF_GRID)).min(sh).max(y0 + 1);
                let x0 = x * sw / TRAF_GRID;
                let x1 = (((x + 1) * sw).div_ceil(TRAF_GRID)).min(sw).max(x0 + 1);
                let mut acc = 0.0f32;
                let mut cnt = 0;
                for yy in y0..y1 {
                    for xx in x0..x1 {
                        acc += src.at(&[yy, xx]);
                        cnt += 1;
                    }
                }
                // Normalize speeds (m/s) to roughly unit scale for the CNN.
                *out.at_mut(&[0, y, x]) = acc / cnt.max(1) as f32 / 15.0;
            }
        }
        out
    }

    /// Encodes a raw OD input; `None` when an endpoint cannot be matched to
    /// any road segment within 600 m.
    pub fn encode_od(&self, net: &RoadNetwork, od: &OdInput) -> Option<EncodedOd> {
        let (oe, opr) = self.grid.nearest_edge(net, &od.origin, 600.0)?;
        let (de, dpr) = self.grid.nearest_edge(net, &od.destination, 600.0)?;
        let mut weather_onehot = vec![0.0f32; NUM_WEATHER_TYPES];
        weather_onehot[od.weather.idx()] = 1.0;
        Some(EncodedOd {
            origin_edge: oe.idx(),
            dest_edge: de.idx(),
            r_start: opr.t as f32,
            r_end: (1.0 - dpr.t) as f32,
            depart_node: self.slots.week_node_of(od.depart),
            depart_rem: self.slots.remainder_norm(od.depart),
            // Scaled so the T-stamp ablation feeds a large-ish raw value,
            // reproducing the feature-domination pathology §6.5 describes.
            depart_raw: (od.depart / 3600.0) as f32,
            weather_onehot,
            speed_matrix: self.downsampled_matrix(od.depart),
        })
    }

    /// Encodes a full taxi order (OD + trajectory + label); `None` when the
    /// OD endpoints don't match or the trajectory is empty.
    pub fn encode_order(&self, net: &RoadNetwork, order: &TaxiOrder) -> Option<EncodedSample> {
        let od = self.encode_od(net, &order.od)?;
        if order.trajectory.path.is_empty() {
            return None;
        }
        let steps = order
            .trajectory
            .path
            .iter()
            .map(|s| EncodedStep {
                edge: s.edge.idx(),
                slot_nodes: self.slots.interval_week_nodes(s.enter, s.exit),
                rem_enter: self.slots.remainder_norm(s.enter),
                rem_exit: self.slots.remainder_norm(s.exit),
            })
            .collect();
        Some(EncodedSample {
            od,
            steps,
            traj_r_start: order.trajectory.r_start as f32,
            traj_r_end: order.trajectory.r_end as f32,
            travel_time: order.travel_time as f32,
        })
    }

    /// Encodes a batch of orders, dropping unmatchable ones.
    pub fn encode_orders(&self, net: &RoadNetwork, orders: &[TaxiOrder]) -> Vec<EncodedSample> {
        orders
            .iter()
            .filter_map(|o| self.encode_order(net, o))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    fn small_ds() -> CityDataset {
        DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60))
    }

    #[test]
    fn encodes_most_orders() {
        let ds = small_ds();
        let ctx = FeatureContext::build(&ds, 300.0).expect("valid slot size");
        let enc = ctx.encode_orders(&ds.net, &ds.train);
        assert!(enc.len() * 10 >= ds.train.len() * 9, "too many dropped");
        for s in &enc {
            assert!(s.od.origin_edge < ctx.num_edges());
            assert!(s.od.dest_edge < ctx.num_edges());
            assert!((0.0..=1.0).contains(&s.od.r_start));
            assert!((0.0..=1.0).contains(&s.od.r_end));
            assert!(s.od.depart_node < ctx.num_slot_nodes());
            assert!((0.0..1.0 + 1e-6).contains(&s.od.depart_rem));
            assert!(!s.steps.is_empty());
            assert!(s.travel_time > 0.0);
            assert_eq!(s.od.weather_onehot.len(), NUM_WEATHER_TYPES);
            assert!((s.od.weather_onehot.iter().sum::<f32>() - 1.0).abs() < 1e-6);
            for step in &s.steps {
                assert!(!step.slot_nodes.is_empty());
                assert!(step.slot_nodes.iter().all(|&n| n < ctx.num_slot_nodes()));
            }
        }
    }

    #[test]
    fn speed_matrix_shape_and_cache() {
        let ds = small_ds();
        let ctx = FeatureContext::build(&ds, 300.0).expect("valid slot size");
        let od = &ds.train[0].od;
        let e1 = ctx.encode_od(&ds.net, od).unwrap();
        let e2 = ctx.encode_od(&ds.net, od).unwrap();
        assert_eq!(e1.speed_matrix.dims(), &[1, TRAF_GRID, TRAF_GRID]);
        // Cached: same Rc.
        assert!(Arc::ptr_eq(&e1.speed_matrix, &e2.speed_matrix));
        // Normalized speeds should be O(1).
        assert!(e1.speed_matrix.max() < 5.0);
        assert!(e1.speed_matrix.min() > 0.0);
    }

    #[test]
    fn threads_that_miss_one_slot_together_share_one_matrix() {
        let ds = small_ds();
        let ctx = FeatureContext::build(&ds, 300.0).expect("valid slot size");
        let od = &ds.train[0].od;
        let start = std::sync::Barrier::new(4);
        let matrices: Vec<Arc<Tensor>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ctx.encode_od(&ds.net, od).unwrap().speed_matrix
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for m in &matrices[1..] {
            assert!(Arc::ptr_eq(&matrices[0], m));
        }
    }

    #[test]
    fn unmatched_point_returns_none() {
        let ds = small_ds();
        let ctx = FeatureContext::build(&ds, 300.0).expect("valid slot size");
        let mut od = ds.train[0].od;
        od.origin = deepod_roadnet::Point::new(-1e6, -1e6);
        assert!(ctx.encode_od(&ds.net, &od).is_none());
    }

    #[test]
    fn interval_slots_cover_duration() {
        let ds = small_ds();
        let ctx = FeatureContext::build(&ds, 300.0).expect("valid slot size");
        let slots = ctx.slots();
        let mut checked = 0;
        for order in ds.train.iter().take(10) {
            let Some(s) = ctx.encode_order(&ds.net, order) else {
                continue;
            };
            assert_eq!(s.steps.len(), order.trajectory.path.len());
            for (step, raw) in s.steps.iter().zip(&order.trajectory.path) {
                // Δd = tp(exit) − tp(enter) + 1 (Eq. 4), against the
                // sample's own order.
                let delta_d = slots.slot(raw.exit) - slots.slot(raw.enter) + 1;
                assert_eq!(step.slot_nodes.len(), delta_d);
                checked += 1;
            }
        }
        assert!(checked > 0, "no step was checked");
    }
}
