//! The assembled DeepOD model: parameter store, embeddings with
//! graph-embedding initialization (Alg. 1 lines 1–5), the three modules
//! M_O / M_T / M_E, and the online estimation path.

use crate::ablation::EmbeddingInit;
use crate::config::DeepOdConfig;
use crate::external_encoder::ExternalFeaturesEncoder;
use crate::features::{EncodedOd, EncodedSample, FeatureContext};
use crate::inference::InferenceModel;
use crate::interval_encoder::TimeIntervalEncoder;
use crate::od_encoder::OdEncoder;
use crate::temporal_graph::{build_temporal_graph, temporal_graph_day_only};
use crate::trajectory_encoder::TrajectoryEncoder;
use deepod_graphembed::{DeepWalk, EmbedGraph, GraphEmbedder, Line, Node2Vec, WalkConfig};
use deepod_nn::layers::{BatchNorm2d, Embedding, Mlp2};
use deepod_nn::{Gradients, Graph, ParamStore, VarId};
use deepod_roadnet::LineGraph;
use deepod_tensor::Tensor;
use deepod_traj::{CityDataset, OdInput};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed model-lifecycle failures. These used to be panics; `xtask check`
/// denies `unwrap`/`expect` in library code, so they surface as errors the
/// CLI maps to user-facing messages instead of backtraces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// The configuration failed [`DeepOdConfig::validate`].
    InvalidConfig(String),
    /// Model (de)serialization failed.
    Serialization(String),
    /// A guarded filesystem operation failed (missing, truncated, or
    /// corrupt artifact — see [`crate::io_guard::IoGuardError`]).
    Io(crate::io_guard::IoGuardError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidConfig(why) => write!(f, "invalid config: {why}"),
            ModelError::Serialization(why) => write!(f, "model serialization failed: {why}"),
            ModelError::Io(err) => write!(f, "model io failed: {err}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<crate::io_guard::IoGuardError> for ModelError {
    fn from(err: crate::io_guard::IoGuardError) -> Self {
        ModelError::Io(err)
    }
}

/// Why one [`PredictRequest`] could not be answered. Per slot of a batch
/// ([`InferenceModel::estimate_batch`]): the rest of the batch is
/// unaffected. Its `Display` text is the wire `msg` of a `model` reject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimateError {
    /// The origin or destination could not be matched to any road segment.
    UnmatchedEndpoints,
    /// A [`PredictRequest::Encoded`] carried an index outside an embedding
    /// table or a feature of the wrong shape; names the offending field.
    MalformedEncoding(&'static str),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::UnmatchedEndpoints => write!(
                f,
                "origin or destination could not be matched to the road network"
            ),
            EstimateError::MalformedEncoding(what) => {
                write!(f, "malformed encoded request: {what}")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// One unit of inference work for [`InferenceModel::estimate_batch`] (and
/// its [`DeepOdModel::estimate_batch`] delegate). Both the raw form (an
/// OD query that still needs road-network matching) and the pre-encoded
/// form (features already extracted, e.g. validation samples) flow through
/// the same batched path.
#[derive(Clone, Debug)]
pub enum PredictRequest {
    /// A raw OD query; matched against the road network per request, which
    /// can fail with [`EstimateError::UnmatchedEndpoints`].
    Raw(OdInput),
    /// An already-encoded OD (skips feature extraction); an index or shape
    /// the model cannot consume fails with [`EstimateError::MalformedEncoding`].
    Encoded(EncodedOd),
}

impl From<OdInput> for PredictRequest {
    fn from(od: OdInput) -> Self {
        PredictRequest::Raw(od)
    }
}

/// The answer to one [`PredictRequest`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictResponse {
    /// Estimated travel time in seconds (clamped non-negative).
    pub eta_seconds: f32,
}

/// The DeepOD model (all three modules plus shared embeddings).
///
/// `Clone` is shallow where it matters: the parameter store holds
/// `Arc<Tensor>` values with copy-on-write semantics, so per-worker clones
/// in the data-parallel trainer share storage until a write occurs.
#[derive(Clone, Serialize, Deserialize)]
pub struct DeepOdModel {
    /// All trainable parameters.
    pub store: ParamStore,
    /// Road-segment embedding table W_s.
    pub road_emb: Embedding,
    /// Time-slot embedding table W_t.
    pub slot_emb: Embedding,
    /// Time Interval Encoder (shared between M_T steps).
    pub interval_enc: TimeIntervalEncoder,
    /// Trajectory encoder M_T.
    pub traj_enc: TrajectoryEncoder,
    /// External-features encoder.
    pub external_enc: ExternalFeaturesEncoder,
    /// OD encoder M_O.
    pub od_enc: OdEncoder,
    /// M_E: MLP2 regressing travel time from `code` (Eq. 20).
    pub head: Mlp2,
    /// Train-only head supervising `stcode` (anti-collapse for the
    /// auxiliary binding; discarded at estimation time). Present unless
    /// the config disables stcode supervision.
    pub st_head: Mlp2,
    /// Config the model was built with.
    pub config: DeepOdConfig,
    /// Mean of the training travel times (labels are standardized so the
    /// network trains in O(1) units; predictions are de-standardized).
    pub y_mean: f32,
    /// Std-dev of the training travel times.
    pub y_std: f32,
}

/// Forward outputs for one training sample.
pub struct SampleForward {
    /// Predicted travel time node.
    pub prediction: VarId,
    /// `code` node (M_O output).
    pub code: VarId,
    /// `stcode` node (M_T output), absent for the N-st variant.
    pub stcode: Option<VarId>,
}

/// Tape nodes of one sample's training loss and its components.
pub struct SampleLossNodes {
    /// The combined loss node that gradients flow from.
    pub loss: VarId,
    /// The main MAE term `|ŷ − y|` on the standardized label.
    pub main: VarId,
    /// The scaled code-binding term `‖code − stcode‖ / √d`, absent when
    /// the variant has no trajectory branch or the sample has no steps.
    pub aux: Option<VarId>,
}

/// A sample loss decomposed for observability (values, not nodes).
#[derive(Clone, Copy, Debug)]
pub struct LossParts {
    /// The combined training loss (what the optimizer minimizes).
    pub total: f32,
    /// Main MAE component.
    pub main: f32,
    /// Auxiliary code-binding component (0 when absent).
    pub aux: f32,
}

impl DeepOdModel {
    /// Builds the model and initializes both embedding tables per the
    /// configured policy, pre-training on the road line graph and the
    /// temporal graph where applicable (Alg. 1 lines 1–5).
    pub fn new(
        cfg: &DeepOdConfig,
        ds: &CityDataset,
        ctx: &FeatureContext,
    ) -> Result<Self, ModelError> {
        cfg.validate().map_err(ModelError::InvalidConfig)?;
        let mut rng = deepod_tensor::rng_from_seed(cfg.seed);
        let mut store = ParamStore::new();

        let road_emb = Embedding::new(&mut store, "W_s", ctx.num_edges(), cfg.ds, &mut rng);
        // T-day uses a one-day slot vocabulary wrapped at day boundaries;
        // all other inits use the weekly vocabulary. We keep the weekly
        // table size in every case (lookup stays uniform) but pre-train on
        // the chosen graph.
        let slot_emb = Embedding::new(
            &mut store,
            "W_t",
            ctx.num_slot_nodes(),
            cfg.dt_dim,
            &mut rng,
        );

        if cfg.init.pretrains_road() {
            let trajs: Vec<Vec<deepod_roadnet::EdgeId>> =
                ds.train.iter().map(|o| o.trajectory.edges()).collect();
            let lg = LineGraph::from_trajectories(&ds.net, trajs.iter().map(|t| t.as_slice()), 1.0);
            let eg = line_graph_to_embed(&lg);
            let mut vectors = run_embedder(cfg.init, &eg, cfg.ds, &mut rng);
            // Seed the first two dimensions with the segment midpoint in a
            // normalized city frame. With the paper's data volume the
            // fine-tuned embeddings converge to position-aware vectors;
            // at laptop scale we inject that geometry at initialization
            // (the dimensions remain fully trainable). See DESIGN.md.
            if cfg.ds >= 2 {
                let (min, max) = ds.net.bounding_box();
                let sx = (max.x - min.x).max(1.0);
                let sy = (max.y - min.y).max(1.0);
                for i in 0..ds.net.num_edges() {
                    let mid = ds.net.edge_midpoint(deepod_roadnet::EdgeId(i as u32));
                    let row = vectors.row_mut(i);
                    row[0] = (2.0 * (mid.x - min.x) / sx - 1.0) as f32;
                    row[1] = (2.0 * (mid.y - min.y) / sy - 1.0) as f32;
                }
            }
            road_emb.load_pretrained(&mut store, vectors);
        }
        if cfg.init.pretrains_time() {
            // The context was built from the same config, so its (already
            // validated) discretization is authoritative — no fallible
            // reconstruction from `cfg.slot_seconds` needed here.
            let slots = *ctx.slots();
            let tg = if cfg.init == EmbeddingInit::TimeDayGraph {
                temporal_graph_day_only(&slots)
            } else {
                build_temporal_graph(&slots)
            };
            let vec_small = run_embedder(cfg.init, &tg, cfg.dt_dim, &mut rng);
            // T-day: tile the one-day embedding across the week.
            let vectors = if cfg.init == EmbeddingInit::TimeDayGraph {
                let per_day = slots.slots_per_day();
                let mut data = Vec::with_capacity(ctx.num_slot_nodes() * cfg.dt_dim);
                for node in 0..ctx.num_slot_nodes() {
                    data.extend_from_slice(vec_small.row(node % per_day));
                }
                Tensor::from_vec(data, &[ctx.num_slot_nodes(), cfg.dt_dim])
            } else {
                vec_small
            };
            slot_emb.load_pretrained(&mut store, vectors);
        }

        let interval_enc =
            TimeIntervalEncoder::new(&mut store, cfg.dt_dim, cfg.d1m, cfg.d2m, &mut rng);
        let traj_enc = TrajectoryEncoder::new(
            &mut store,
            cfg.ds,
            cfg.d2m,
            cfg.dh,
            cfg.d3m,
            cfg.d4m,
            cfg.variant,
            &mut rng,
        );
        let external_enc =
            ExternalFeaturesEncoder::new(&mut store, cfg.dtraf, cfg.d5m, cfg.d6m, &mut rng);
        let od_enc = OdEncoder::new(
            &mut store,
            cfg.ds,
            cfg.dt_dim,
            cfg.d6m,
            cfg.d7m,
            cfg.code_dim(),
            cfg.variant,
            cfg.init,
            &mut rng,
        );
        let head = Mlp2::new(&mut store, "me.mlp2", cfg.code_dim(), cfg.d9m, 1, &mut rng);
        let st_head = Mlp2::new(&mut store, "st.head", cfg.code_dim(), cfg.d9m, 1, &mut rng);

        // Label standardization: the head is trained on (y - mean)/std so
        // every layer works in O(1) units (raw seconds would need weight
        // magnitudes far beyond what lr = 0.01 can reach).
        let y_mean = ds.mean_train_travel_time() as f32;
        let y_var = if ds.train.is_empty() {
            1.0
        } else {
            ds.train
                .iter()
                .map(|o| {
                    let d = o.travel_time as f32 - y_mean;
                    d * d
                })
                .sum::<f32>()
                / ds.train.len() as f32
        };
        let y_std = y_var.sqrt().max(1.0);

        Ok(DeepOdModel {
            store,
            road_emb,
            slot_emb,
            interval_enc,
            traj_enc,
            external_enc,
            od_enc,
            head,
            st_head,
            config: cfg.clone(),
            y_mean,
            y_std,
        })
    }

    /// Standardizes a label into training units.
    pub fn normalize_y(&self, y: f32) -> f32 {
        (y - self.y_mean) / self.y_std
    }

    /// Converts a network output back to seconds.
    pub fn denormalize_y(&self, y: f32) -> f32 {
        y * self.y_std + self.y_mean
    }

    /// Full training forward pass for one sample: prediction, `code`, and
    /// (unless N-st) `stcode`.
    pub fn forward_sample(
        &mut self,
        g: &mut Graph,
        sample: &EncodedSample,
        training: bool,
    ) -> SampleForward {
        let code = self.od_enc.encode(
            g,
            &self.store,
            &self.road_emb,
            &self.slot_emb,
            &mut self.external_enc,
            &sample.od,
            training,
        );
        let stcode = if self.config.variant.uses_trajectory() && !sample.steps.is_empty() {
            Some(self.traj_enc.encode(
                g,
                &self.store,
                &mut self.interval_enc,
                &self.road_emb,
                &self.slot_emb,
                &sample.steps,
                sample.traj_r_start,
                sample.traj_r_end,
                training,
            ))
        } else {
            None
        };
        let prediction = self.head.forward(g, &self.store, code);
        SampleForward {
            prediction,
            code,
            stcode,
        }
    }

    /// Training loss for one sample:
    /// `w · ‖code − stcode‖ + (1 − w) · |ŷ − y|` (Alg. 1 lines 10–12).
    pub fn sample_loss(&mut self, g: &mut Graph, sample: &EncodedSample) -> VarId {
        self.sample_loss_nodes(g, sample).loss
    }

    /// Like [`Self::sample_loss`], but also exposes the component nodes so
    /// callers can *read* the M_O/M_T balance (the `w` mix the paper's
    /// §4.4 tunes) without perturbing the tape: reading a node's value is
    /// side-effect free, so the combined loss and its gradients stay
    /// bit-identical whether or not the components are observed.
    pub fn sample_loss_nodes(&mut self, g: &mut Graph, sample: &EncodedSample) -> SampleLossNodes {
        let fwd = self.forward_sample(g, sample, true);
        self.loss_nodes(g, fwd, sample)
    }

    /// The loss terms of Alg. 1 lines 10–12 on top of a training forward
    /// pass `fwd` of `sample`.
    pub(crate) fn loss_nodes(
        &self,
        g: &mut Graph,
        fwd: SampleForward,
        sample: &EncodedSample,
    ) -> SampleLossNodes {
        let y_norm = self.normalize_y(sample.travel_time);
        let target = g.input(Tensor::from_vec(vec![y_norm], &[1]));
        let main = g.mean_abs_error(fwd.prediction, target);
        let loss = match fwd.stcode {
            Some(st) => {
                // Per-dimension RMS distance: the paper's Euclidean binding
                // rescaled to O(1) so it mixes with the standardized main
                // loss the way the raw-seconds formulation mixes in the
                // paper (see DESIGN.md on label standardization).
                let aux = g.euclidean_distance(fwd.code, st);
                let aux = g.scale(aux, 1.0 / (self.config.code_dim() as f32).sqrt());
                let w = self.config.loss_weight;
                let aux_w = g.scale(aux, w);
                let main_w = g.scale(main, 1.0 - w);
                let combined = g.add(aux_w, main_w);
                let combined = if self.config.stcode_supervision {
                    // Anti-collapse term: the trivial minimizer of the
                    // auxiliary distance is a constant stcode. A dedicated
                    // train-only head supervises stcode so the trajectory
                    // representation stays informative about travel time
                    // without tearing M_E between two input distributions;
                    // the binding then pulls `code` toward something worth
                    // matching.
                    let st_pred = self.st_head.forward(g, &self.store, st);
                    let st_main = g.mean_abs_error(st_pred, target);
                    let st_w = g.scale(st_main, 1.0 - w);
                    g.add(combined, st_w)
                } else {
                    combined
                };
                return SampleLossNodes {
                    loss: combined,
                    main,
                    aux: Some(aux),
                };
            }
            None => main,
        };
        SampleLossNodes {
            loss,
            main,
            aux: None,
        }
    }

    /// Gradients for one sample (builds and differentiates a fresh tape).
    pub fn sample_gradients(&mut self, sample: &EncodedSample) -> (f32, Gradients) {
        let (parts, grads) = self.sample_gradients_traced(sample);
        (parts.total, grads)
    }

    /// Like [`Self::sample_gradients`], but the loss comes back decomposed
    /// into its main (MAE) and auxiliary (code-binding) components for the
    /// observability layer. The extra values are plain node reads, so the
    /// gradients — and the total — match [`Self::sample_gradients`] bit
    /// for bit.
    pub fn sample_gradients_traced(&mut self, sample: &EncodedSample) -> (LossParts, Gradients) {
        let mut g = Graph::new();
        let nodes = self.sample_loss_nodes(&mut g, sample);
        let parts = LossParts {
            total: g.value(nodes.loss).item(),
            main: g.value(nodes.main).item(),
            aux: nodes.aux.map_or(0.0, |a| g.value(a).item()),
        };
        (parts, g.backward(nodes.loss))
    }

    /// Batched online estimation (Alg. 1, `Estimation`: only M_O and M_E
    /// run) — **the** public inference entry point on a trained model.
    ///
    /// A thin delegate: it derives the f32 [`InferenceModel`] view of the
    /// current weights (`Arc` clones, no weight copy, never cached) and
    /// runs [`InferenceModel::estimate_batch`], which documents the
    /// per-request error and `(threads, batch size)` bit-identity contract.
    pub fn estimate_batch(
        &self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> Vec<Result<PredictResponse, EstimateError>> {
        InferenceModel::from_model(self).estimate_batch(ctx, net, reqs, threads)
    }

    /// The model's batch-norm layers in a fixed order (interval encoder,
    /// then external encoder), so per-worker running statistics can be
    /// merged deterministically.
    fn batch_norms(&self) -> [&BatchNorm2d; 5] {
        [
            &self.interval_enc.bn1,
            &self.interval_enc.bn2,
            &self.external_enc.bn1,
            &self.external_enc.bn2,
            &self.external_enc.bn3,
        ]
    }

    fn batch_norms_mut(&mut self) -> [&mut BatchNorm2d; 5] {
        [
            &mut self.interval_enc.bn1,
            &mut self.interval_enc.bn2,
            &mut self.external_enc.bn1,
            &mut self.external_enc.bn2,
            &mut self.external_enc.bn3,
        ]
    }

    /// Adopts batch-norm running statistics from data-parallel workers:
    /// the weighted average of the worker EMAs, weights being the fraction
    /// of the minibatch each worker processed (accumulated in worker
    /// order, so the result is bit-stable for a fixed worker count). The
    /// sum starts at the first worker's term, so one worker (weight 1)
    /// hands its statistics over verbatim.
    pub(crate) fn merge_bn_stats(&mut self, workers: &[(f32, DeepOdModel)]) {
        let Some(((w0, first), rest)) = workers.split_first() else {
            return;
        };
        for (b, bn) in self.batch_norms_mut().into_iter().enumerate() {
            let src0 = first.batch_norms()[b];
            for c in 0..bn.channels {
                let mut mean = w0 * src0.running_mean[c];
                let mut var = w0 * src0.running_var[c];
                for (w, worker) in rest {
                    let src = worker.batch_norms()[b];
                    mean += w * src.running_mean[c];
                    var += w * src.running_var[c];
                }
                bn.running_mean[c] = mean;
                bn.running_var[c] = var;
            }
        }
    }

    /// Serialized model size in bytes (Table 5's memory column).
    pub fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Saves the model as JSON.
    pub fn save_json(&self) -> Result<String, ModelError> {
        serde_json::to_string(self).map_err(|e| ModelError::Serialization(e.to_string()))
    }

    /// Loads a model from JSON. A file is outside input: a model whose
    /// parameters do not fit the estimation forward (an id outside the
    /// store, a width that does not chain) is a typed error here, not a
    /// panic at its first estimate.
    pub fn load_json(json: &str) -> Result<Self, ModelError> {
        let model: DeepOdModel =
            serde_json::from_str(json).map_err(|e| ModelError::Serialization(e.to_string()))?;
        InferenceModel::check_shapes(&model).map_err(ModelError::Serialization)?;
        Ok(model)
    }
}

fn line_graph_to_embed(lg: &LineGraph) -> EmbedGraph {
    let mut g = EmbedGraph::with_nodes(lg.num_nodes());
    for i in 0..lg.num_nodes() {
        for l in lg.neighbors(deepod_roadnet::EdgeId(i as u32)) {
            g.add_link(i, l.to.idx(), l.weight.max(1e-6));
        }
    }
    g
}

fn run_embedder(
    init: EmbeddingInit,
    graph: &EmbedGraph,
    dim: usize,
    rng: &mut rand::rngs::StdRng,
) -> Tensor {
    // Light walk settings: initialization only needs coarse structure; the
    // supervised phase fine-tunes (§4.1 "initialize or pre-train ... then
    // fine-tune").
    let cfg = WalkConfig {
        walks_per_node: 4,
        walk_length: 12,
        window: 3,
        ..Default::default()
    };
    match init {
        EmbeddingInit::DeepWalk => DeepWalk { cfg }.embed(graph, dim, rng),
        EmbeddingInit::Line => Line::default().embed(graph, dim, rng),
        // Node2Vec is both the paper default and what T-one/R-one/T-day
        // variants use for whichever table they do pre-train.
        _ => Node2Vec {
            cfg,
            p: 1.0,
            q: 0.5,
        }
        .embed(graph, dim, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Variant;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    fn tiny_setup() -> (CityDataset, FeatureContext, DeepOdConfig) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
        // Shrink for test speed and skip pre-training by default.
        let cfg = DeepOdConfig {
            init: EmbeddingInit::Random,
            ds: 6,
            dt_dim: 6,
            d1m: 8,
            d2m: 6,
            d3m: 8,
            d4m: 6,
            d5m: 8,
            d6m: 6,
            d7m: 8,
            d9m: 8,
            dh: 8,
            dtraf: 4,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
        (ds, ctx, cfg)
    }

    #[test]
    fn model_builds_and_forwards() {
        let (ds, ctx, cfg) = tiny_setup();
        let mut model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let samples = ctx.encode_orders(&ds.net, &ds.train[..5.min(ds.train.len())]);
        assert!(!samples.is_empty());
        let mut g = Graph::new();
        let fwd = model.forward_sample(&mut g, &samples[0], false);
        assert_eq!(g.value(fwd.prediction).numel(), 1);
        assert_eq!(g.value(fwd.code).numel(), cfg.code_dim());
        let st = fwd.stcode.expect("full model produces stcode");
        assert_eq!(g.value(st).numel(), cfg.code_dim());
    }

    #[test]
    fn label_standardization_round_trip() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        assert!(model.y_std >= 1.0);
        let y = 777.0;
        let back = model.denormalize_y(model.normalize_y(y));
        assert!((back - y).abs() < 1e-3);
        // Untrained predictions start near the mean (output layer ~ 0 in
        // normalized units).
        let mean = ds.mean_train_travel_time() as f32;
        let enc = ctx.encode_od(&ds.net, &ds.train[0].od).unwrap();
        let pred = model
            .estimate_batch(&ctx, &ds.net, &[PredictRequest::Encoded(enc)], 1)
            .remove(0)
            .expect("encoded request cannot fail")
            .eta_seconds;
        assert!(
            (pred - mean).abs() < 2.0 * model.y_std,
            "pred {pred} vs mean {mean}"
        );
    }

    #[test]
    fn loss_and_gradients_produced() {
        let (ds, ctx, cfg) = tiny_setup();
        let mut model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let samples = ctx.encode_orders(&ds.net, &ds.train[..3.min(ds.train.len())]);
        let (loss, grads) = model.sample_gradients(&samples[0]);
        assert!(loss.is_finite() && loss > 0.0);
        assert!(
            grads.len() > 10,
            "only {} params received grads",
            grads.len()
        );
    }

    #[test]
    fn nst_variant_has_no_stcode_and_no_traj_grads() {
        let (ds, ctx, mut cfg) = tiny_setup();
        cfg.variant = Variant::NoTrajectory;
        let mut model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let samples = ctx.encode_orders(&ds.net, &ds.train[..2]);
        let mut g = Graph::new();
        let fwd = model.forward_sample(&mut g, &samples[0], true);
        assert!(fwd.stcode.is_none());
        let (_, grads) = model.sample_gradients(&samples[0]);
        assert!(
            grads.get(model.traj_enc.lstm.wf).is_none(),
            "N-st must not train the LSTM"
        );
    }

    fn eta_of(
        model: &DeepOdModel,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        od: &OdInput,
    ) -> f32 {
        model
            .estimate_batch(ctx, net, &[PredictRequest::Raw(*od)], 1)
            .remove(0)
            .expect("test OD matches the network")
            .eta_seconds
    }

    #[test]
    fn estimation_is_deterministic_and_nonnegative() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let od = &ds.test.first().unwrap_or(&ds.train[0]).od;
        let a = eta_of(&model, &ctx, &ds.net, od);
        let b = eta_of(&model, &ctx, &ds.net, od);
        assert_eq!(a, b);
        assert!(a >= 0.0);
    }

    #[test]
    fn estimate_batch_matches_per_request_calls_for_any_thread_count() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let reqs: Vec<PredictRequest> = ds
            .train
            .iter()
            .take(9)
            .map(|o| PredictRequest::Raw(o.od))
            .collect();
        let serial = model.estimate_batch(&ctx, &ds.net, &reqs, 1);
        for threads in [2usize, 3, 8] {
            let parallel = model.estimate_batch(&ctx, &ds.net, &reqs, threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                let (a, b) = (a.as_ref().expect("matched"), b.as_ref().expect("matched"));
                assert_eq!(
                    a.eta_seconds.to_bits(),
                    b.eta_seconds.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn unmatched_endpoints_fail_per_request_not_per_batch() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let good = ds.train[0].od;
        let mut bad = good;
        // Far outside any road segment's 600 m matching radius.
        bad.origin = deepod_roadnet::Point::new(-1e7, -1e7);
        let out = model.estimate_batch(
            &ctx,
            &ds.net,
            &[
                PredictRequest::Raw(good),
                PredictRequest::Raw(bad),
                PredictRequest::Raw(good),
            ],
            1,
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(EstimateError::UnmatchedEndpoints));
        assert!(out[2].is_ok());
        assert_eq!(
            out[0].as_ref().map(|r| r.eta_seconds.to_bits()),
            out[2].as_ref().map(|r| r.eta_seconds.to_bits()),
            "a failing neighbor must not perturb other requests"
        );
    }

    #[test]
    fn malformed_encodings_fail_per_request_not_per_batch() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let good = ctx.encode_od(&ds.net, &ds.train[0].od).expect("matched");
        let broken: [fn(&mut EncodedOd, &FeatureContext); 5] = [
            |e, ctx| e.origin_edge = ctx.num_edges(),
            |e, _| e.dest_edge = usize::MAX,
            |e, ctx| e.depart_node = ctx.num_slot_nodes(),
            |e, _| e.weather_onehot.truncate(3),
            |e, _| e.speed_matrix = std::sync::Arc::new(Tensor::zeros(&[4, 4])),
        ];
        let mut reqs = vec![PredictRequest::Encoded(good.clone())];
        for breaker in broken {
            let mut bad = good.clone();
            breaker(&mut bad, &ctx);
            reqs.push(PredictRequest::Encoded(bad));
            reqs.push(PredictRequest::Encoded(good.clone()));
        }
        let out = model.estimate_batch(&ctx, &ds.net, &reqs, 2);
        let want = out[0].as_ref().expect("well-formed").eta_seconds.to_bits();
        for (i, r) in out.iter().enumerate() {
            if i % 2 == 0 {
                let eta = r.as_ref().expect("well-formed neighbor").eta_seconds;
                assert_eq!(eta.to_bits(), want, "slot {i} perturbed");
            } else {
                assert!(
                    matches!(r, Err(EstimateError::MalformedEncoding(_))),
                    "slot {i}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn node2vec_init_changes_embeddings() {
        let (ds, ctx, mut cfg) = tiny_setup();
        cfg.init = EmbeddingInit::Node2Vec;
        let model_init = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        cfg.init = EmbeddingInit::Random;
        let model_rand = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let a = model_init.store.value(model_init.road_emb.table);
        let b = model_rand.store.value(model_rand.road_emb.table);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let od = &ds.train[0].od;
        let before = eta_of(&model, &ctx, &ds.net, od);
        let json = model.save_json().expect("serializable model");
        let loaded = DeepOdModel::load_json(&json).unwrap();
        let after = eta_of(&loaded, &ctx, &ds.net, od);
        assert_eq!(before, after);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let (ds, ctx, mut cfg) = tiny_setup();
        cfg.lr = 0.0;
        let err = DeepOdModel::new(&cfg, &ds, &ctx).map(|_| ()).unwrap_err();
        assert_eq!(err, ModelError::InvalidConfig("lr must be positive".into()));
        assert!(err.to_string().contains("invalid config"));
    }

    #[test]
    fn garbage_json_is_a_serialization_error() {
        let err = DeepOdModel::load_json("{not json").map(|_| ()).unwrap_err();
        assert!(matches!(err, ModelError::Serialization(_)), "got {err:?}");
    }

    /// A dataset on a 3×3 block city and a trained model on it with every
    /// width at 2–4 and one slot a day: the smallest model JSON (a few
    /// KB) that still carries every tensor kind, so decode properties can
    /// afford to parse every prefix of it.
    fn micro_trained() -> (CityDataset, DeepOdModel) {
        use deepod_roadnet::CityConfig;
        use deepod_traffic::{CongestionModel, IncidentModel, TrafficModel, WeatherProcess};
        use deepod_traj::OrderSimulator;
        let config = DatasetConfig::for_profile(CityProfile::SynthChengdu, 40);
        let net = CityConfig {
            grid_x: 3,
            grid_y: 3,
            river_row: None,
            ..CityConfig::profile(CityProfile::SynthChengdu)
        }
        .generate();
        let days = config.train_days + config.val_days + config.test_days;
        let mut rng = deepod_tensor::rng_from_seed(config.sim.seed);
        let weather = WeatherProcess::sample(days as f64 * 86_400.0, 1800.0, &mut rng);
        let traffic = TrafficModel::new(&net, CongestionModel::default(), weather, &mut rng)
            .with_incidents(IncidentModel::none());
        let orders = OrderSimulator::new(&net, &traffic, config.sim.clone()).simulate_orders(
            config.num_orders,
            0.0,
            days,
        );
        let split = orders.len() / 2;
        let ds = CityDataset {
            validation: orders[split..].to_vec(),
            test: orders[split..].to_vec(),
            train: orders[..split].to_vec(),
            net,
            traffic,
            config,
        };
        let cfg = DeepOdConfig {
            init: EmbeddingInit::Random,
            slot_seconds: 86_400.0,
            ds: 2,
            dt_dim: 2,
            d1m: 2,
            d2m: 2,
            d3m: 2,
            d4m: 2,
            d5m: 2,
            d6m: 2,
            d7m: 2,
            d9m: 2,
            dh: 2,
            dtraf: 2,
            epochs: 1,
            batch_size: 8,
            ..DeepOdConfig::default()
        };
        let mut trainer = crate::Trainer::new(&ds, cfg, crate::TrainOptions::default())
            .expect("trainer on the micro city");
        trainer.train();
        let model = trainer.into_model();
        (ds, model)
    }

    /// The model reader as a decoder of untrusted bytes: a trained model
    /// round-trips, every strict prefix of its JSON is a typed error, and
    /// damaged bytes never panic it. Every model it accepts lowers to an
    /// `InferenceModel` that answers a raw request without panicking.
    #[test]
    fn model_reader_decoder_properties() {
        let (ds, model) = micro_trained();
        let ctx = FeatureContext::build(&ds, model.config.slot_seconds).expect("valid slot size");
        let od = PredictRequest::Raw(ds.test[0].od);
        // One seed: the strict-prefix pass parses every prefix of the
        // JSON, which dominates the cost and does not depend on the seed.
        let checked = crate::decode_props::check_decoder(
            7,
            &model,
            |m| m.save_json().expect("serializable model").into_bytes(),
            |bytes| {
                let json = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                DeepOdModel::load_json(json).map_err(|e| e.to_string())
            },
            |m| {
                let answers = InferenceModel::from_model(m).estimate_batch(
                    &ctx,
                    &ds.net,
                    std::slice::from_ref(&od),
                    1,
                );
                match answers.len() {
                    1 => Ok(()),
                    n => Err(format!("{n} answers to one request")),
                }
            },
        );
        assert!(checked.is_ok(), "{checked:?}");
    }

    #[test]
    fn a_model_that_does_not_fit_the_forward_is_a_load_error() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let mut swapped = model.clone();
        swapped.head.l1.w = swapped.road_emb.table;
        let mut emptied = model;
        emptied.store = ParamStore::new();
        for (bad, want) in [
            (swapped, "M_E head: weight shape"),
            (emptied, "parameter 0 is not in the store"),
        ] {
            let json = bad.save_json().expect("serializable model");
            let err = DeepOdModel::load_json(&json).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, ModelError::Serialization(why) if why.contains(want)),
                "{err}"
            );
        }
    }

    #[test]
    fn model_size_scales_with_network() {
        let (ds, ctx, cfg) = tiny_setup();
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        // W_s alone: num_edges × ds floats.
        assert!(model.size_bytes() > ctx.num_edges() * cfg.ds * 4);
        assert!(model.num_parameters() > 0);
    }
}
