//! The estimation forward of Alg. 1 (`Estimation`: only M_O and M_E run),
//! tape-free and immutable — the one inference path.
//!
//! [`InferenceModel`] is lowered from a trained [`DeepOdModel`]:
//! embedding row lookup → external CNN (conv + eval-mode batch norm + ReLU
//! ×3 → average pool → MLP) → Z⁹ concat → MLP1 → M_E head →
//! de-standardise. [`InferenceModel::from_model`] shares the
//! `ParamStore`'s f32 `Arc<Tensor>` weights (no copy) and evaluates its
//! dense layers through [`kernels::matvec_bias_act`], the kernel behind
//! the training tape's `linear_act` node, so its answers are
//! `to_bits`-identical to the training forward in eval mode (pinned by
//! `tests/inference_differential.rs`, DESIGN.md §12).
//!
//! Every accumulation is ascending-`k` f32 regardless of ISA and requests
//! never share state, so answers are bit-stable across machines, thread
//! counts and batch compositions.

use crate::features::{EncodedOd, FeatureContext};
use crate::model::{DeepOdModel, ModelError, PredictRequest, PredictResponse};
use deepod_nn::layers::{BatchNorm2d, Linear, Mlp2};
use deepod_nn::{conv2d_forward, ParamId, ParamStore};
use deepod_tensor::{kernels, Activation, Tensor};
use deepod_traffic::NUM_WEATHER_TYPES;
use std::sync::Arc;

/// One fully-connected layer: the trained `[out, in]` weight and `[out]`
/// bias, shared with the `ParamStore`.
struct Dense {
    w: Arc<Tensor>,
    b: Arc<Tensor>,
}

impl Dense {
    fn lower(store: &ParamStore, l: &Linear) -> Dense {
        Dense {
            w: store.value_rc(l.w),
            b: store.value_rc(l.b),
        }
    }

    /// `act(W x + b)`.
    fn apply(&self, x: &[f32], act: Activation) -> Vec<f32> {
        let mut out = vec![0.0f32; self.b.numel()];
        kernels::matvec_bias_act(self.w.as_slice(), x, self.b.as_slice(), act, &mut out);
        out
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

/// The immutable estimation model (M_O + M_E).
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
    y_mean: f32,
    y_std: f32,
}

impl InferenceModel {
    /// The view of `m`'s current weights: `Arc` clones of the
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
            y_mean: m.y_mean,
            y_std: m.y_std,
        }
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

    #[test]
    fn unmatched_endpoints_fail_per_request() {
        let (ds, ctx, model) = tiny_setup();
        let good = ds.train[0].od;
        let mut bad = good;
        bad.origin = deepod_roadnet::Point::new(-1e7, -1e7);
        let out = InferenceModel::from_model(&model).estimate_batch(
            &ctx,
            &ds.net,
            &[PredictRequest::Raw(good), PredictRequest::Raw(bad)],
            1,
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(ModelError::UnmatchedEndpoints));
    }
}
