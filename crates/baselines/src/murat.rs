//! MURAT (Li et al., KDD 2018): multi-task representation learning for
//! travel time estimation. Origin and destination road segments are
//! embedded (the paper initializes them from an *undirected* road graph —
//! the weakness §4.1 calls out), the departure time slot is embedded from
//! an undirected day-only temporal graph, and a joint network predicts
//! both travel time and travel distance (the multi-task trick). No
//! trajectory information is used.

use crate::common::TtePredictor;
use deepod_core::{TimeSlotError, TimeSlots};
use deepod_graphembed::{EmbedGraph, GraphEmbedder, Node2Vec, WalkConfig};
use deepod_nn::layers::{Embedding, Mlp2};
use deepod_nn::{AdamOptimizer, Graph, ParamStore};
use deepod_roadnet::{RoadNetwork, SpatialGrid};
use deepod_tensor::Tensor;
use deepod_traj::{CityDataset, OdInput};
use rand::Rng;

/// MURAT hyper-parameters.
#[derive(Clone, Debug)]
pub struct MuratConfig {
    /// Road/time embedding width.
    pub emb_dim: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Time-slot size (seconds) for the temporal embedding.
    pub slot_seconds: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the auxiliary distance task.
    pub distance_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MuratConfig {
    fn default() -> Self {
        MuratConfig {
            emb_dim: 16,
            hidden: 32,
            slot_seconds: 300.0,
            epochs: 8,
            batch_size: 16,
            lr: 0.01,
            distance_weight: 0.3,
            seed: 0x3417A7,
        }
    }
}

/// The MURAT predictor.
pub struct MuratPredictor {
    cfg: MuratConfig,
    store: ParamStore,
    road_emb: Option<Embedding>,
    slot_emb: Option<Embedding>,
    trunk: Option<Mlp2>,
    time_head: Option<Mlp2>,
    dist_head: Option<Mlp2>,
    grid: Option<SpatialGrid>,
    slots: TimeSlots,
    /// Cloned road network kept for prediction-time OD matching.
    net: Option<RoadNetwork>,
    y_mean: f32,
    y_std: f32,
}

impl MuratPredictor {
    /// Creates an unfitted predictor. Errors when `cfg.slot_seconds` is
    /// not a usable slot size (non-positive or not a week divisor).
    pub fn new(cfg: MuratConfig) -> Result<Self, TimeSlotError> {
        let slots = TimeSlots::new(0.0, cfg.slot_seconds)?;
        Ok(MuratPredictor {
            cfg,
            store: ParamStore::new(),
            road_emb: None,
            slot_emb: None,
            trunk: None,
            time_head: None,
            dist_head: None,
            grid: None,
            slots,
            net: None,
            y_mean: 0.0,
            y_std: 1.0,
        })
    }

    /// Day-only slot node (MURAT's temporal granularity).
    fn day_node(&self, t: f64) -> usize {
        self.slots.week_node_of(t) % self.slots.slots_per_day()
    }

    /// Encodes an OD input to (origin edge, dest edge, slot node, extras);
    /// `None` if unmatched.
    fn encode(&self, net: &RoadNetwork, od: &OdInput) -> Option<(usize, usize, usize, Vec<f32>)> {
        let grid = self.grid.as_ref()?;
        let (oe, _) = grid.nearest_edge(net, &od.origin, 600.0)?;
        let (de, _) = grid.nearest_edge(net, &od.destination, 600.0)?;
        let extras = vec![
            (od.origin.dist(&od.destination) / 1000.0) as f32,
            self.slots.remainder_norm(od.depart),
        ];
        Some((oe.idx(), de.idx(), self.day_node(od.depart), extras))
    }

    fn forward_encoded(&mut self, enc: (usize, usize, usize, Vec<f32>)) -> f32 {
        let (oe, de, slot, extras) = enc;
        let (road, slot_emb, trunk, time_head) =
            match (&self.road_emb, &self.slot_emb, &self.trunk, &self.time_head) {
                (Some(r), Some(s), Some(t), Some(h)) => (*r, *s, *t, *h),
                _ => return 0.0,
            };
        let mut g = Graph::new();
        let e1 = road.lookup_one(&mut g, &self.store, oe);
        let en = road.lookup_one(&mut g, &self.store, de);
        let ts = slot_emb.lookup_one(&mut g, &self.store, slot);
        let ex = g.input(Tensor::from_vec(extras, &[2]));
        let cat = g.concat(&[e1, en, ts, ex]);
        let h = trunk.forward(&mut g, &self.store, cat);
        let y = time_head.forward(&mut g, &self.store, h);
        g.value(y).item() * self.y_std + self.y_mean
    }

    /// Undirected road graph over segments: links both ways between
    /// consecutive segments (the paper's criticism of MURAT's
    /// initialization — no directionality, no trajectory weighting).
    fn undirected_road_graph(net: &RoadNetwork) -> EmbedGraph {
        let mut g = EmbedGraph::with_nodes(net.num_edges());
        for (i, e) in net.edges().iter().enumerate() {
            for &next in net.out_edges(e.to) {
                if next.idx() != i {
                    g.add_link(i, next.idx(), 1.0);
                    g.add_link(next.idx(), i, 1.0);
                }
            }
        }
        g
    }

    /// Undirected day-ring temporal graph (no neighboring-day edges).
    fn undirected_day_graph(slots: &TimeSlots) -> EmbedGraph {
        let n = slots.slots_per_day();
        let mut g = EmbedGraph::with_nodes(n);
        for i in 0..n {
            let next = (i + 1) % n;
            g.add_link(i, next, 1.0);
            g.add_link(next, i, 1.0);
        }
        g
    }
}

impl TtePredictor for MuratPredictor {
    fn name(&self) -> &'static str {
        "MURAT"
    }

    fn fit(&mut self, ds: &CityDataset) {
        self.fit_with_validation(ds, 0);
    }

    fn predict(&mut self, od: &OdInput) -> Option<f32> {
        let net = self.net.clone()?;
        let enc = self.encode(&net, od)?;
        Some(self.forward_encoded(enc).max(0.0))
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }
}

impl MuratPredictor {
    /// Fits while recording `(step, validation MAE)` points every
    /// `eval_every` optimizer steps — the Fig. 10 training-curve hook.
    pub fn fit_with_validation(
        &mut self,
        ds: &CityDataset,
        eval_every: usize,
    ) -> Vec<(usize, f32)> {
        let mut rng = deepod_tensor::rng_from_seed(self.cfg.seed);
        self.store = ParamStore::new();
        let grid = SpatialGrid::build(&ds.net, 250.0);

        let road_emb = Embedding::new(
            &mut self.store,
            "murat.roads",
            ds.net.num_edges(),
            self.cfg.emb_dim,
            &mut rng,
        );
        let slot_emb = Embedding::new(
            &mut self.store,
            "murat.slots",
            self.slots.slots_per_day(),
            self.cfg.emb_dim,
            &mut rng,
        );
        // Graph-embedding initialization on undirected graphs.
        let walk = WalkConfig {
            walks_per_node: 3,
            walk_length: 10,
            window: 3,
            ..Default::default()
        };
        let rg = Self::undirected_road_graph(&ds.net);
        road_emb.load_pretrained(
            &mut self.store,
            Node2Vec {
                cfg: walk.clone(),
                p: 1.0,
                q: 1.0,
            }
            .embed(&rg, self.cfg.emb_dim, &mut rng),
        );
        let tg = Self::undirected_day_graph(&self.slots);
        slot_emb.load_pretrained(
            &mut self.store,
            Node2Vec {
                cfg: walk,
                p: 1.0,
                q: 1.0,
            }
            .embed(&tg, self.cfg.emb_dim, &mut rng),
        );

        let in_dim = 3 * self.cfg.emb_dim + 2;
        let trunk = Mlp2::new(
            &mut self.store,
            "murat.trunk",
            in_dim,
            self.cfg.hidden,
            self.cfg.hidden,
            &mut rng,
        );
        let time_head = Mlp2::new(
            &mut self.store,
            "murat.time",
            self.cfg.hidden,
            self.cfg.hidden,
            1,
            &mut rng,
        );
        let dist_head = Mlp2::new(
            &mut self.store,
            "murat.dist",
            self.cfg.hidden,
            self.cfg.hidden,
            1,
            &mut rng,
        );
        // Standardize time labels so the network trains in O(1) units.
        let mean_y = ds.mean_train_travel_time() as f32;
        let var_y = ds
            .train
            .iter()
            .map(|o| {
                let d = o.travel_time as f32 - mean_y;
                d * d
            })
            .sum::<f32>()
            / ds.train.len().max(1) as f32;
        self.y_mean = mean_y;
        self.y_std = var_y.sqrt().max(1.0);

        // Pre-encode training samples.
        let encoded: Vec<_> = ds
            .train
            .iter()
            .filter_map(|o| {
                grid.nearest_edge(&ds.net, &o.od.origin, 600.0)
                    .and_then(|(oe, _)| {
                        grid.nearest_edge(&ds.net, &o.od.destination, 600.0)
                            .map(|(de, _)| {
                                let dist_km: f64 = o
                                    .trajectory
                                    .edges()
                                    .iter()
                                    .map(|&e| ds.net.edge(e).length)
                                    .sum::<f64>()
                                    / 1000.0;
                                (
                                    oe.idx(),
                                    de.idx(),
                                    self.day_node(o.od.depart),
                                    vec![
                                        (o.od.origin.dist(&o.od.destination) / 1000.0) as f32,
                                        self.slots.remainder_norm(o.od.depart),
                                    ],
                                    o.travel_time as f32,
                                    dist_km as f32,
                                )
                            })
                    })
            })
            .collect();

        // Publish layers before training so periodic validation works.
        self.grid = Some(grid);
        self.road_emb = Some(road_emb);
        self.slot_emb = Some(slot_emb);
        self.trunk = Some(trunk);
        self.time_head = Some(time_head);
        self.dist_head = Some(dist_head);
        self.net = Some(ds.net.clone());

        let mut curve = Vec::new();
        let mut step = 0usize;
        let mut opt = AdamOptimizer::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for epoch in 0..self.cfg.epochs {
            opt.set_lr(self.cfg.lr / 5.0f32.powi((epoch / 2) as i32));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(self.cfg.batch_size) {
                let mut grads = deepod_nn::Gradients::new();
                for &idx in chunk {
                    let (oe, de, slot, ref extras, y, d) = encoded[idx];
                    let mut g = Graph::new();
                    let e1 = road_emb.lookup_one(&mut g, &self.store, oe);
                    let en = road_emb.lookup_one(&mut g, &self.store, de);
                    let tsv = slot_emb.lookup_one(&mut g, &self.store, slot);
                    let ex = g.input(Tensor::from_vec(extras.clone(), &[2]));
                    let cat = g.concat(&[e1, en, tsv, ex]);
                    let h = trunk.forward(&mut g, &self.store, cat);
                    let yp = time_head.forward(&mut g, &self.store, h);
                    let dp = dist_head.forward(&mut g, &self.store, h);
                    let y_norm = (y - self.y_mean) / self.y_std;
                    let yt = g.input(Tensor::from_vec(vec![y_norm], &[1]));
                    let dt = g.input(Tensor::from_vec(vec![d], &[1]));
                    let l_time = g.mean_abs_error(yp, yt);
                    let l_dist = g.mean_abs_error(dp, dt);
                    let l_dist_w = g.scale(l_dist, self.cfg.distance_weight);
                    let loss = g.add(l_time, l_dist_w);
                    grads.merge(g.backward(loss));
                }
                grads.scale(1.0 / chunk.len() as f32);
                grads.clip_global_norm(5.0);
                opt.step(&mut self.store, &grads);
                step += 1;
                if eval_every > 0 && step.is_multiple_of(eval_every) {
                    let n = ds.validation.len().min(256);
                    if n > 0 {
                        let mut acc = 0.0f32;
                        let mut m = 0usize;
                        for o in &ds.validation[..n] {
                            if let Some(e) = self.encode(&ds.net, &o.od) {
                                acc +=
                                    (self.forward_encoded(e).max(0.0) - o.travel_time as f32).abs();
                                m += 1;
                            }
                        }
                        if m > 0 {
                            curve.push((step, acc / m as f32));
                        }
                    }
                }
            }
        }

        self.road_emb = Some(road_emb);
        self.slot_emb = Some(slot_emb);
        self.trunk = Some(trunk);
        self.time_head = Some(time_head);
        self.dist_head = Some(dist_head);
        // Keep a copy of the network for prediction-time OD matching.
        self.net = Some(ds.net.clone());
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    #[test]
    fn trains_and_beats_mean() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 250));
        let mut murat = MuratPredictor::new(MuratConfig {
            epochs: 16,
            ..Default::default()
        })
        .expect("valid slot size");
        murat.fit(&ds);
        let mean = ds.mean_train_travel_time() as f32;
        let mut mae = 0.0f32;
        let mut mae_mean = 0.0f32;
        let mut n = 0;
        for o in &ds.test {
            if let Some(p) = murat.predict(&o.od) {
                mae += (p - o.travel_time as f32).abs();
                mae_mean += (mean - o.travel_time as f32).abs();
                n += 1;
            }
        }
        assert!(n > 0);
        mae /= n as f32;
        mae_mean /= n as f32;
        assert!(
            mae < mae_mean,
            "MURAT {mae:.1} should beat mean {mae_mean:.1}"
        );
    }

    #[test]
    fn unfitted_returns_none() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 20));
        let mut murat = MuratPredictor::new(MuratConfig::default()).expect("valid slot size");
        assert!(murat.predict(&ds.train[0].od).is_none());
    }

    #[test]
    fn model_size_scales_with_network() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let mut murat = MuratPredictor::new(MuratConfig {
            epochs: 1,
            ..Default::default()
        })
        .expect("valid slot size");
        murat.fit(&ds);
        // Road embedding alone: num_edges × emb_dim × 4 bytes.
        assert!(murat.size_bytes() > ds.net.num_edges() * 16 * 4);
    }
}
