//! The estimation forward of Alg. 1 (`Estimation`: only M_O and M_E run),
//! tape-free and immutable — the one inference path for every precision.
//!
//! [`InferenceModel`] is lowered from a trained [`DeepOdModel`]:
//! embedding row lookup → external CNN (conv + eval-mode batch norm + ReLU
//! ×3 → average pool → MLP) → Z⁹ concat → MLP1 → M_E head →
//! de-standardise. Its dense layers are the only thing that differs
//! between precisions. [`InferenceModel::from_model`] shares the
//! `ParamStore`'s f32 `Arc<Tensor>` weights (no copy) and evaluates them
//! through [`kernels::matvec_bias_act`], the kernel behind the training
//! tape's `linear_act` node, so its answers are `to_bits`-identical to
//! the training forward in eval mode (pinned by
//! `tests/inference_differential.rs`). [`InferenceModel::quantized`]
//! packs the same layers per row to int8 for
//! [`kernels::matvec_i8_bias_act`]; embeddings, conv kernels, batch-norm
//! statistics and the pool stay f32. Whether int8 may *serve* is decided
//! by `deepod-eval`'s precision gate, not here (DESIGN.md §12).
//!
//! Every accumulation is ascending-`k` f32 regardless of ISA and requests
//! never share state, so answers are bit-stable across machines, thread
//! counts and batch compositions at either precision.

use crate::features::{EncodedOd, FeatureContext};
use crate::model::{DeepOdModel, ModelError, PredictRequest, PredictResponse};
use deepod_nn::layers::{BatchNorm2d, Linear, Mlp2};
use deepod_nn::{conv2d_forward, ParamId, ParamStore};
use deepod_tensor::{kernels, Activation, Tensor};
use deepod_traffic::NUM_WEATHER_TYPES;
use std::sync::Arc;

/// One fully-connected layer's weights, at the precision it serves.
enum Dense {
    /// The trained `[out, in]` weight and `[out]` bias, shared with the
    /// `ParamStore`.
    F32 { w: Arc<Tensor>, b: Arc<Tensor> },
    /// Per-row int8 weights in the [`kernels::pack_quantized`] panel
    /// layout; the f32 scale and bias are fused into the epilogue.
    Int8 {
        packed: Vec<i8>,
        scales: Vec<f32>,
        bias: Vec<f32>,
    },
}

impl Dense {
    fn lower(store: &ParamStore, l: &Linear) -> Dense {
        Dense::F32 {
            w: store.value_rc(l.w),
            b: store.value_rc(l.b),
        }
    }

    /// Repacks f32 weights per row to int8 (done once, at lowering).
    fn quantize(&mut self) {
        let Dense::F32 { w, b } = self else { return };
        let &[rows, cols] = w.dims() else { return };
        let qr = kernels::quantize_rows(w.as_slice(), rows, cols);
        *self = Dense::Int8 {
            packed: kernels::pack_quantized(&qr),
            scales: qr.scales,
            bias: b.as_slice().to_vec(),
        };
    }

    /// `act(W x + b)`.
    fn apply(&self, x: &[f32], act: Activation) -> Vec<f32> {
        match self {
            Dense::F32 { w, b } => {
                let mut out = vec![0.0f32; b.numel()];
                kernels::matvec_bias_act(w.as_slice(), x, b.as_slice(), act, &mut out);
                out
            }
            Dense::Int8 {
                packed,
                scales,
                bias,
            } => {
                let mut out = vec![0.0f32; bias.len()];
                kernels::matvec_i8_bias_act(packed, scales, bias, x, act, &mut out);
                out
            }
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Dense::F32 { w, b } => (w.numel() + b.numel()) * 4,
            Dense::Int8 {
                packed,
                scales,
                bias,
            } => packed.len() + (scales.len() + bias.len()) * 4,
        }
    }
}

/// The paper's two-layer MLP, `W2 · ReLU(W1 x + b1) + b2`.
struct Mlp {
    l1: Dense,
    l2: Dense,
}

impl Mlp {
    fn lower(store: &ParamStore, mlp: &Mlp2) -> Mlp {
        Mlp {
            l1: Dense::lower(store, &mlp.l1),
            l2: Dense::lower(store, &mlp.l2),
        }
    }

    fn apply(&self, x: &[f32]) -> Vec<f32> {
        let hidden = self.l1.apply(x, Activation::Relu);
        self.l2.apply(&hidden, Activation::Identity)
    }

    fn size_bytes(&self) -> usize {
        self.l1.size_bytes() + self.l2.size_bytes()
    }
}

/// One Conv → BatchNorm (running statistics) → ReLU block of the
/// external-features CNN.
struct ConvBnRelu {
    kernel: Arc<Tensor>,
    gamma: Arc<Tensor>,
    beta: Arc<Tensor>,
    mean: Vec<f32>,
    /// `1 / sqrt(var + eps)` per channel, exactly as `Graph::batch_norm`
    /// computes it.
    inv_std: Vec<f32>,
}

impl ConvBnRelu {
    fn lower(store: &ParamStore, kernel: ParamId, bn: &BatchNorm2d) -> ConvBnRelu {
        ConvBnRelu {
            kernel: store.value_rc(kernel),
            gamma: store.value_rc(bn.gamma),
            beta: store.value_rc(bn.beta),
            mean: bn.running_mean.clone(),
            // `f32::sqrt(x)`, not `x.sqrt()`: the audit's by-name call graph
            // would link the method form to `Graph::sqrt`.
            inv_std: bn
                .running_var
                .iter()
                .map(|v| 1.0 / f32::sqrt(v + bn.eps))
                .collect(),
        }
    }

    /// `relu(batch_norm(conv(x)))` over a `[c, h, w]` input with `h·w > 0`.
    /// The normalization is the tape's eval formula term for term; fusing
    /// the ReLU is exact (`max` of the identical value).
    fn apply(&self, x: &Tensor) -> Tensor {
        let mut z = conv2d_forward(x, &self.kernel);
        let hw = z.dims().iter().skip(1).product::<usize>().max(1);
        let affine = self.gamma.as_slice().iter().zip(self.beta.as_slice());
        let stats = self.mean.iter().zip(&self.inv_std);
        for ((plane, (g, b)), (mean, inv_std)) in
            z.as_mut_slice().chunks_exact_mut(hw).zip(affine).zip(stats)
        {
            for v in plane {
                *v = (g * ((*v - mean) * inv_std) + b).max(0.0);
            }
        }
        z
    }
}

/// Row `i` of a `[rows, dim]` embedding table; an index that is not a row
/// of it is a malformed encoding (`what` names the offending field).
fn table_row<'t>(table: &'t Tensor, i: usize, what: &'static str) -> Result<&'t [f32], ModelError> {
    let dim = table.dims().last().copied().unwrap_or(0).max(1);
    let mut rows = table.as_slice().chunks_exact(dim);
    rows.nth(i).ok_or(ModelError::MalformedEncoding(what))
}

/// The immutable estimation model (M_O + M_E) at one weight precision.
pub struct InferenceModel {
    road_emb: Arc<Tensor>,
    slot_emb: Arc<Tensor>,
    conv1: ConvBnRelu,
    conv2: ConvBnRelu,
    conv3: ConvBnRelu,
    ext_mlp: Mlp,
    od_mlp: Mlp,
    head: Mlp,
    uses_external: bool,
    embeds_time: bool,
    int8: bool,
    y_mean: f32,
    y_std: f32,
}

impl InferenceModel {
    /// The f32 view of `m`'s current weights: `Arc` clones of the
    /// parameter tensors plus the (per-channel) batch-norm statistics, so
    /// deriving it per call is cheap and can never go stale.
    pub fn from_model(m: &DeepOdModel) -> InferenceModel {
        let (store, ext) = (&m.store, &m.external_enc);
        InferenceModel {
            road_emb: store.value_rc(m.road_emb.table),
            slot_emb: store.value_rc(m.slot_emb.table),
            conv1: ConvBnRelu::lower(store, ext.k1, &ext.bn1),
            conv2: ConvBnRelu::lower(store, ext.k2, &ext.bn2),
            conv3: ConvBnRelu::lower(store, ext.k3, &ext.bn3),
            ext_mlp: Mlp::lower(store, &ext.mlp),
            od_mlp: Mlp::lower(store, &m.od_enc.mlp),
            head: Mlp::lower(store, &m.head),
            uses_external: m.od_enc.uses_external(),
            embeds_time: m.od_enc.embeds_time(),
            int8: false,
            y_mean: m.y_mean,
            y_std: m.y_std,
        }
    }

    /// `m`'s estimation path with the three MLPs quantized per row to
    /// int8. The source model is unchanged.
    pub fn quantized(m: &DeepOdModel) -> InferenceModel {
        let mut q = InferenceModel::from_model(m);
        for mlp in [&mut q.ext_mlp, &mut q.od_mlp, &mut q.head] {
            mlp.l1.quantize();
            mlp.l2.quantize();
        }
        q.int8 = true;
        q
    }

    /// `"f32"` or `"int8"` (logs and the `serve.precision` metric).
    pub fn precision_name(&self) -> &'static str {
        if self.int8 {
            "int8"
        } else {
            "f32"
        }
    }

    /// Bytes of weights the estimation path holds (serving logs).
    pub fn size_bytes(&self) -> usize {
        let convs = [&self.conv1, &self.conv2, &self.conv3].map(|c| &c.kernel);
        let f32_tensors = [&self.road_emb, &self.slot_emb].into_iter().chain(convs);
        f32_tensors.map(|t| t.numel() * 4).sum::<usize>()
            + self.ext_mlp.size_bytes()
            + self.od_mlp.size_bytes()
            + self.head.size_bytes()
    }

    /// `ocode` (Eq. 18): the speed matrix through the CNN, averaged per
    /// channel, concatenated with the weather one-hot, through the MLP.
    fn ocode(&self, od: &EncodedOd) -> Result<Vec<f32>, ModelError> {
        if od.weather_onehot.len() != NUM_WEATHER_TYPES {
            return Err(ModelError::MalformedEncoding("weather one-hot width"));
        }
        let hw = match *od.speed_matrix.dims() {
            [1, h, w] if h * w > 0 => h * w,
            _ => return Err(ModelError::MalformedEncoding("speed matrix shape")),
        };
        let z = self.conv1.apply(&od.speed_matrix);
        let z = self.conv3.apply(&self.conv2.apply(&z));
        // Global average pool per channel: the `[c, h·w] × [h·w, 1]`
        // product against a constant 1/(h·w) column the tape records.
        let ones = vec![1.0 / hw as f32; hw];
        let mut z8 = od.weather_onehot.clone();
        z8.resize(NUM_WEATHER_TYPES + z.numel() / hw, 0.0);
        if let Some(pooled) = z8.get_mut(NUM_WEATHER_TYPES..) {
            kernels::matmul(z.as_slice(), &ones, pooled, hw, 1);
        }
        Ok(self.ext_mlp.apply(&z8))
    }

    /// Estimates one pre-encoded OD in seconds: Z⁹ → MLP1 → `code` → M_E
    /// (Eq. 19–20), de-standardised and clamped non-negative. The encoding
    /// is public input, so every index and shape it carries is checked
    /// before use.
    pub fn eval_encoded(&self, od: &EncodedOd) -> Result<f32, ModelError> {
        let mut z9 = table_row(&self.road_emb, od.origin_edge, "origin edge")?.to_vec();
        z9.extend_from_slice(table_row(&self.road_emb, od.dest_edge, "destination edge")?);
        if self.embeds_time {
            z9.extend_from_slice(table_row(&self.slot_emb, od.depart_node, "departure slot")?);
        } else {
            z9.push(od.depart_raw);
        }
        if self.uses_external {
            z9.extend(self.ocode(od)?);
        }
        z9.extend([od.r_start, od.r_end, od.depart_rem]);

        let code = self.od_mlp.apply(&z9);
        let y = self.head.apply(&code).first().copied().unwrap_or(f32::NAN);
        Ok((y * self.y_std + self.y_mean).max(0.0))
    }

    fn answer(
        &self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        req: &PredictRequest,
    ) -> Result<PredictResponse, ModelError> {
        let matched;
        let enc = match req {
            PredictRequest::Raw(od) => {
                matched = ctx
                    .encode_od(net, od)
                    .ok_or(ModelError::UnmatchedEndpoints)?;
                &matched
            }
            PredictRequest::Encoded(enc) => enc,
        };
        let eta_seconds = self.eval_encoded(enc)?;
        Ok(PredictResponse { eta_seconds })
    }

    /// Batched online estimation. Requests are answered independently: one
    /// that cannot be matched to the road network, or whose encoding is
    /// malformed, yields its error in its slot without affecting its
    /// neighbors. With `threads > 1` the batch is split into contiguous
    /// spans via [`deepod_tensor::parallel::map_ranges`], all sharing
    /// `self`, and the per-span outputs are re-concatenated in span order,
    /// so predictions are bit-identical for any `(threads, batch size)`
    /// (DESIGN.md §6). `threads == 0` defers to the process-wide default.
    pub fn estimate_batch(
        &self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> Vec<Result<PredictResponse, ModelError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut t = deepod_tensor::parallel::resolve_threads(threads)
            .min(reqs.len())
            .max(1);
        if threads == 0 {
            // Default-threaded serving never fans out wider than the
            // machine; explicit thread counts are honored as requested.
            t = t.min(deepod_tensor::parallel::hardware_parallelism());
        }
        deepod_tensor::parallel::map_ranges(reqs.len(), t, |span| {
            // `map_ranges` only hands out in-bounds spans; an empty
            // slice (rather than a panic) is the right degradation if
            // that contract ever breaks.
            reqs.get(span)
                .unwrap_or(&[])
                .iter()
                .map(|r| self.answer(ctx, net, r))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::EmbeddingInit;
    use crate::config::DeepOdConfig;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};

    fn tiny_setup() -> (CityDataset, FeatureContext, DeepOdModel) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
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
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        (ds, ctx, model)
    }

    fn raw_requests(ds: &CityDataset, n: usize) -> Vec<PredictRequest> {
        let ods = ds.train.iter().take(n);
        ods.map(|o| PredictRequest::Raw(o.od)).collect()
    }

    #[test]
    fn quantized_predictions_track_f32_closely() {
        let (ds, ctx, model) = tiny_setup();
        let reqs = raw_requests(&ds, 8);
        let f32_out = InferenceModel::from_model(&model).estimate_batch(&ctx, &ds.net, &reqs, 1);
        let i8_out = InferenceModel::quantized(&model).estimate_batch(&ctx, &ds.net, &reqs, 1);
        assert_eq!(f32_out.len(), i8_out.len());
        for (a, b) in f32_out.iter().zip(&i8_out) {
            let (a, b) = (a.as_ref().expect("matched"), b.as_ref().expect("matched"));
            let rel = (a.eta_seconds - b.eta_seconds).abs() / a.eta_seconds.max(1.0);
            assert!(
                rel < 0.05,
                "int8 drifted {rel:.4} ({} vs {})",
                a.eta_seconds,
                b.eta_seconds
            );
            assert!(b.eta_seconds >= 0.0);
        }
    }

    #[test]
    fn quantized_is_bit_deterministic_across_threads_and_batches() {
        let (ds, ctx, model) = tiny_setup();
        let qm = InferenceModel::quantized(&model);
        let reqs = raw_requests(&ds, 9);
        let serial = qm.estimate_batch(&ctx, &ds.net, &reqs, 1);
        for threads in [2usize, 3, 8] {
            let par = qm.estimate_batch(&ctx, &ds.net, &reqs, threads);
            for (a, b) in serial.iter().zip(&par) {
                let (a, b) = (a.as_ref().expect("matched"), b.as_ref().expect("matched"));
                assert_eq!(a.eta_seconds.to_bits(), b.eta_seconds.to_bits());
            }
        }
        // One-by-one equals batched.
        for (i, req) in reqs.iter().enumerate() {
            let one = qm.estimate_batch(&ctx, &ds.net, std::slice::from_ref(req), 1);
            assert_eq!(
                one[0].as_ref().expect("matched").eta_seconds.to_bits(),
                serial[i].as_ref().expect("matched").eta_seconds.to_bits()
            );
        }
    }

    #[test]
    fn unmatched_endpoints_fail_per_request() {
        let (ds, ctx, model) = tiny_setup();
        let good = ds.train[0].od;
        let mut bad = good;
        bad.origin = deepod_roadnet::Point::new(-1e7, -1e7);
        let out = InferenceModel::quantized(&model).estimate_batch(
            &ctx,
            &ds.net,
            &[PredictRequest::Raw(good), PredictRequest::Raw(bad)],
            1,
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(ModelError::UnmatchedEndpoints));
    }

    #[test]
    fn size_is_smaller_than_f32_mlps() {
        let (_ds, _ctx, model) = tiny_setup();
        let (qm, fm) = (
            InferenceModel::quantized(&model),
            InferenceModel::from_model(&model),
        );
        assert_eq!((qm.precision_name(), fm.precision_name()), ("int8", "f32"));
        assert!(qm.size_bytes() > 0);
        assert!(qm.size_bytes() < fm.size_bytes());
        assert!(fm.size_bytes() < model.size_bytes());
    }
}
