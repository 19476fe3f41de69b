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
//! The CNN half of `ocode` (Eq. 18) reads only the speed matrix, never the
//! OD pair, so a batch runs as a staged pass: encode and check every
//! request, group the requests by speed matrix, run each distinct matrix
//! through the CNN once, then finish every request on its group's result.
//!
//! Every accumulation is ascending-`k` f32 regardless of ISA, and requests
//! share only the read-only CNN result of one speed matrix, so answers are
//! bit-stable across machines, thread counts and batch compositions.

use crate::features::{EncodedOd, FeatureContext};
use crate::model::{DeepOdModel, EstimateError, PredictRequest, PredictResponse};
use crate::obs::registry;
use deepod_nn::layers::{BatchNorm2d, Linear, Mlp2};
use deepod_nn::{conv2d_forward, ParamId, ParamStore};
use deepod_tensor::{kernels, parallel, Activation, Tensor};
use deepod_traffic::NUM_WEATHER_TYPES;
use std::borrow::Cow;
use std::collections::HashMap;
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
fn table_row<'t>(
    table: &'t Tensor,
    i: usize,
    what: &'static str,
) -> Result<&'t [f32], EstimateError> {
    let dim = table.dims().last().copied().unwrap_or(0).max(1);
    let mut rows = table.as_slice().chunks_exact(dim);
    rows.nth(i).ok_or(EstimateError::MalformedEncoding(what))
}

/// The dims of parameter `id`; an id that is not in the store is an error
/// naming `what` reads it.
fn dims_of<'s>(store: &'s ParamStore, id: ParamId, what: &str) -> Result<&'s [usize], String> {
    store
        .get(id)
        .map(Tensor::dims)
        .ok_or_else(|| format!("{what}: parameter {} is not in the store", id.index()))
}

/// Checks a two-layer MLP reading `input` values: `l1.w` is `[h, input]`,
/// `l1.b` is `[h]`, `l2.w` is `[o, h]` and `l2.b` is `[o]`. Returns `o`.
fn check_mlp(store: &ParamStore, mlp: &Mlp2, input: usize, what: &str) -> Result<usize, String> {
    let mut width = input;
    for l in [&mlp.l1, &mlp.l2] {
        let out = match *dims_of(store, l.b, what)? {
            [out] => out,
            ref b => return Err(format!("{what}: bias shape {b:?} is not a vector")),
        };
        let w = dims_of(store, l.w, what)?;
        if *w != [out, width] {
            return Err(format!(
                "{what}: weight shape {w:?}, expected [{out}, {width}]"
            ));
        }
        width = out;
    }
    Ok(width)
}

/// Checks one conv + batch-norm block reading `channels` channels: the
/// kernel is `[out, channels, kh, kw]` and every per-channel vector of
/// the batch norm holds `out` values. Returns `out`.
fn check_conv(
    store: &ParamStore,
    kernel: ParamId,
    bn: &BatchNorm2d,
    channels: usize,
    what: &str,
) -> Result<usize, String> {
    let out = match *dims_of(store, kernel, what)? {
        [out, c, _, _] if c == channels => out,
        ref k => {
            return Err(format!(
                "{what}: kernel shape {k:?} does not read {channels} channels"
            ))
        }
    };
    let per_channel = [
        dims_of(store, bn.gamma, what)?.to_vec(),
        dims_of(store, bn.beta, what)?.to_vec(),
        vec![bn.running_mean.len()],
        vec![bn.running_var.len()],
    ];
    if per_channel.iter().any(|d| *d != [out]) {
        return Err(format!(
            "{what}: batch-norm widths {per_channel:?}, expected [{out}]"
        ));
    }
    Ok(out)
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

    /// Checks what [`Self::from_model`] and the estimation forward read of
    /// `m`: every parameter they lower is in the store, and every shape
    /// chains into the next layer's input width. A model built in process
    /// passes by construction; [`DeepOdModel::load_json`] runs this on every
    /// file, so a model that loads is one that can answer without a panic.
    pub(crate) fn check_shapes(m: &DeepOdModel) -> Result<(), String> {
        let store = &m.store;
        let ds = match *dims_of(store, m.road_emb.table, "road embedding")? {
            [_, ds] => ds,
            ref d => return Err(format!("road embedding shape {d:?} is not a matrix")),
        };
        let dt = match *dims_of(store, m.slot_emb.table, "slot embedding")? {
            [_, dt] => dt,
            ref d => return Err(format!("slot embedding shape {d:?} is not a matrix")),
        };
        let ext = &m.external_enc;
        let mut channels = 1;
        for (kernel, bn, what) in [
            (ext.k1, &ext.bn1, "external conv1"),
            (ext.k2, &ext.bn2, "external conv2"),
            (ext.k3, &ext.bn3, "external conv3"),
        ] {
            channels = check_conv(store, kernel, bn, channels, what)?;
        }
        let ocode = check_mlp(
            store,
            &ext.mlp,
            NUM_WEATHER_TYPES + channels,
            "external MLP",
        )?;
        // Z⁹: both edge embeddings, the slot embedding (or the raw
        // departure), `ocode` when used, and the three scalar features.
        let time = if m.od_enc.embeds_time() { dt } else { 1 };
        let external = if m.od_enc.uses_external() { ocode } else { 0 };
        let code = check_mlp(store, &m.od_enc.mlp, 2 * ds + time + external + 3, "MLP1")?;
        check_mlp(store, &m.head, code, "M_E head").map(|_| ())
    }

    /// The per-request checks, in the order the forward reads its inputs:
    /// origin edge, destination edge, departure slot and (with external
    /// features) the weather one-hot width. The encoding is public input,
    /// so every index it carries is checked before use.
    fn check_od(&self, od: &EncodedOd) -> Result<(), EstimateError> {
        table_row(&self.road_emb, od.origin_edge, "origin edge")?;
        table_row(&self.road_emb, od.dest_edge, "destination edge")?;
        if self.embeds_time {
            table_row(&self.slot_emb, od.depart_node, "departure slot")?;
        }
        if self.uses_external && od.weather_onehot.len() != NUM_WEATHER_TYPES {
            return Err(EstimateError::MalformedEncoding("weather one-hot width"));
        }
        Ok(())
    }

    /// The OD-independent half of `ocode` (Eq. 18): the speed matrix
    /// through the CNN, averaged per channel into a `[d_traf]` vector.
    fn traffic_code(&self, input: TrafficInput<'_>) -> Vec<f32> {
        let z = self.conv1.apply(input.matrix);
        let z = self.conv3.apply(&self.conv2.apply(&z));
        // Global average pool per channel: the `[c, h·w] × [h·w, 1]`
        // product against a constant 1/(h·w) column the tape records.
        let ones = vec![1.0 / input.hw as f32; input.hw];
        let mut pooled = vec![0.0f32; z.numel() / input.hw];
        kernels::matmul(z.as_slice(), &ones, &mut pooled, input.hw, 1);
        pooled
    }

    /// Estimates one checked encoding in seconds: Z⁹ → MLP1 → `code` → M_E
    /// (Eq. 19–20), de-standardised and clamped non-negative. `traffic` is
    /// the [`Self::traffic_code`] of the encoding's speed matrix (empty
    /// without external features); `ocode` is its weather one-hot ++
    /// `traffic` through the external MLP.
    fn tail(&self, od: &EncodedOd, traffic: &[f32]) -> Result<f32, EstimateError> {
        let mut z9 = table_row(&self.road_emb, od.origin_edge, "origin edge")?.to_vec();
        z9.extend_from_slice(table_row(&self.road_emb, od.dest_edge, "destination edge")?);
        if self.embeds_time {
            z9.extend_from_slice(table_row(&self.slot_emb, od.depart_node, "departure slot")?);
        } else {
            z9.push(od.depart_raw);
        }
        if self.uses_external {
            let mut z8 = od.weather_onehot.clone();
            z8.extend_from_slice(traffic);
            z9.extend(self.ext_mlp.apply(&z8));
        }
        z9.extend([od.r_start, od.r_end, od.depart_rem]);

        let code = self.od_mlp.apply(&z9);
        let y = self.head.apply(&code).first().copied().unwrap_or(f32::NAN);
        Ok((y * self.y_std + self.y_mean).max(0.0))
    }

    /// Estimates one pre-encoded OD in seconds: the one-request case of
    /// the staged pass ([`Self::estimate_batch`]), with the same checks in
    /// the same order.
    pub fn eval_encoded(&self, od: &EncodedOd) -> Result<f32, EstimateError> {
        self.check_od(od)?;
        let traffic = if self.uses_external {
            self.traffic_code(TrafficInput::check(&od.speed_matrix)?)
        } else {
            Vec::new()
        };
        self.tail(od, &traffic)
    }

    /// The staged pass behind [`Self::estimate_batch`] and validation:
    ///
    /// 1. **encode** — one fan-out over `items`: `encode` yields each
    ///    item's encoding (owned or borrowed), then [`Self::check_od`] runs;
    /// 2. **distinct matrices** — one serial pass groups the checked
    ///    requests by speed-matrix `Arc` identity, in order of first
    ///    appearance, and checks each matrix's shape once (a bad shape is
    ///    the error of every request that reads it);
    /// 3. **CNN and tail** (stages 3 and 4, fused) — one fan-out over the
    ///    groups: each group's matrix goes through the CNN once, then every
    ///    member runs [`Self::tail`] on the shared result.
    ///
    /// Without external features every request is its own group and no
    /// CNN runs. Each answer is the same kernel calls on the same inputs
    /// as [`Self::eval_encoded`], so it is `to_bits`-identical to it for
    /// any `threads` and any grouping. Answers come back in `items` order.
    pub(crate) fn staged<'r, R, F>(
        &self,
        items: &'r [R],
        threads: usize,
        encode: F,
    ) -> (Vec<Result<f32, EstimateError>>, CnnRuns)
    where
        R: Sync,
        F: Fn(&'r R) -> Result<Cow<'r, EncodedOd>, EstimateError> + Sync,
    {
        // Stage 1: encode (or borrow) and check.
        let encoded: Vec<Result<Cow<'r, EncodedOd>, EstimateError>> =
            parallel::map_ranges(items.len(), threads, |span| {
                // `map_ranges` only hands out in-bounds spans; an empty
                // slice (rather than a panic) is the right degradation if
                // that contract ever breaks.
                items
                    .get(span)
                    .unwrap_or(&[])
                    .iter()
                    .map(|item| encode(item).and_then(|od| self.check_od(&od).map(|()| od)))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // Stage 2: one group per distinct speed matrix. The key is the
        // matrix's address; `encoded` holds every `Arc` until the call
        // returns, so no address is reused while its key is live.
        let mut answers: Vec<(usize, Result<f32, EstimateError>)> = Vec::with_capacity(items.len());
        let mut groups: Vec<Group<'_>> = Vec::new();
        let mut group_of: HashMap<*const Tensor, Result<usize, EstimateError>> = HashMap::new();
        for (i, enc) in encoded.iter().enumerate() {
            let od = match enc {
                Ok(od) => od.as_ref(),
                Err(e) => {
                    answers.push((i, Err(*e)));
                    continue;
                }
            };
            if !self.uses_external {
                groups.push(Group {
                    traffic: None,
                    members: vec![(i, od)],
                });
                continue;
            }
            let matrix: &Tensor = &od.speed_matrix;
            let slot = group_of.entry(matrix as *const Tensor).or_insert_with(|| {
                TrafficInput::check(matrix).map(|input| {
                    groups.push(Group {
                        traffic: Some(input),
                        members: Vec::new(),
                    });
                    groups.len() - 1
                })
            });
            match slot {
                Ok(g) => {
                    if let Some(group) = groups.get_mut(*g) {
                        group.members.push((i, od));
                    }
                }
                Err(e) => answers.push((i, Err(*e))),
            }
        }
        let runs = CnnRuns {
            runs: groups.iter().filter(|g| g.traffic.is_some()).count(),
            requests: groups
                .iter()
                .filter(|g| g.traffic.is_some())
                .map(|g| g.members.len())
                .sum(),
        };
        registry::counter_add("model.external_cnn_runs", runs.runs as u64);
        registry::counter_add("model.external_requests", runs.requests as u64);

        // Stages 3 + 4: one CNN run per group, then its members' tails.
        let tails = parallel::map_ranges(groups.len(), threads, |span| {
            let mut out = Vec::new();
            for group in groups.get(span).unwrap_or(&[]) {
                let traffic = group
                    .traffic
                    .map(|input| self.traffic_code(input))
                    .unwrap_or_default();
                out.extend(
                    group
                        .members
                        .iter()
                        .map(|&(i, od)| (i, self.tail(od, &traffic))),
                );
            }
            out
        });
        answers.extend(tails.into_iter().flatten());
        // Every index appears exactly once; restore request order.
        answers.sort_unstable_by_key(|&(i, _)| i);
        (answers.into_iter().map(|(_, eta)| eta).collect(), runs)
    }

    /// Batched online estimation. Requests are answered independently: one
    /// that cannot be matched to the road network, or whose encoding is
    /// malformed, yields its error in its slot without affecting its
    /// neighbors. The batch runs as one staged pass ([`Self::staged`]):
    /// requests that share a speed matrix share its one CNN run, and every
    /// fan-out goes through [`parallel::map_ranges`] with all spans
    /// sharing `self`, so predictions are bit-identical for any
    /// `(threads, batch size)` (DESIGN.md §6). `threads == 0` defers to the
    /// process-wide default.
    pub fn estimate_batch(
        &self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> Vec<Result<PredictResponse, EstimateError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut t = parallel::resolve_threads(threads).min(reqs.len()).max(1);
        if threads == 0 {
            // Default-threaded serving never fans out wider than the
            // machine; explicit thread counts are honored as requested.
            t = t.min(parallel::hardware_parallelism());
        }
        let (etas, _) = self.staged(reqs, t, |req| encode_request(ctx, net, req));
        etas.into_iter()
            .map(|eta| eta.map(|eta_seconds| PredictResponse { eta_seconds }))
            .collect()
    }
}

/// Stage 1's encoding of one request: a raw OD is map-matched and encoded
/// (or fails as unmatched); an encoded one is borrowed as is.
fn encode_request<'r>(
    ctx: &FeatureContext,
    net: &deepod_roadnet::RoadNetwork,
    req: &'r PredictRequest,
) -> Result<Cow<'r, EncodedOd>, EstimateError> {
    match req {
        PredictRequest::Raw(od) => ctx
            .encode_od(net, od)
            .map(Cow::Owned)
            .ok_or(EstimateError::UnmatchedEndpoints),
        PredictRequest::Encoded(enc) => Ok(Cow::Borrowed(enc)),
    }
}

/// A speed matrix checked to be a `[1, h, w]` CNN input with `h·w > 0`.
#[derive(Clone, Copy)]
struct TrafficInput<'m> {
    matrix: &'m Tensor,
    hw: usize,
}

impl TrafficInput<'_> {
    fn check(matrix: &Tensor) -> Result<TrafficInput<'_>, EstimateError> {
        match *matrix.dims() {
            [1, h, w] if h * w > 0 => Ok(TrafficInput { matrix, hw: h * w }),
            _ => Err(EstimateError::MalformedEncoding("speed matrix shape")),
        }
    }
}

/// The checked requests of one staged pass that read one speed matrix.
struct Group<'e> {
    /// The shared CNN input; `None` without external features.
    traffic: Option<TrafficInput<'e>>,
    /// `(request index, encoding)` of each member, in request order.
    members: Vec<(usize, &'e EncodedOd)>,
}

/// What one staged pass spent on the external CNN (the
/// `model.external_cnn_runs` / `model.external_requests` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CnnRuns {
    /// Distinct speed matrices run through the CNN.
    pub runs: usize,
    /// Requests answered from those runs.
    pub requests: usize,
}

/// Eagerly registers the staged pass's counters, so a snapshot carries
/// them before the first estimate. Both are thread-invariant: they count
/// distinct speed matrices and the requests that read them.
pub(crate) fn register_metrics() {
    registry::counter_add("model.external_cnn_runs", 0);
    registry::counter_add("model.external_requests", 0);
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

    /// Counts one staged pass over `reqs` at `threads`.
    fn cnn_runs(
        model: &DeepOdModel,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> CnnRuns {
        let view = InferenceModel::from_model(model);
        view.staged(reqs, threads, |req| encode_request(ctx, net, req))
            .1
    }

    #[test]
    fn one_cnn_run_per_distinct_speed_matrix_at_any_thread_count() {
        let (ds, ctx, model) = tiny_setup();
        // 12 distinct ODs over three departure slots an hour apart.
        let reqs: Vec<PredictRequest> = ds
            .train
            .iter()
            .take(12)
            .enumerate()
            .map(|(i, o)| {
                let mut od = o.od;
                od.depart = 3_600.0 * (1 + i % 3) as f64 + 7.0 * i as f64;
                PredictRequest::Raw(od)
            })
            .collect();
        assert_eq!(reqs.len(), 12);
        for threads in [1, 2, 4] {
            assert_eq!(
                cnn_runs(&model, &ctx, &ds.net, &reqs, threads),
                CnnRuns {
                    runs: 3,
                    requests: 12
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn the_no_external_variant_runs_no_cnn() {
        let (ds, ctx, model) = tiny_setup();
        let cfg = DeepOdConfig {
            variant: crate::ablation::Variant::NoExternal,
            ..model.config.clone()
        };
        let noext = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        let reqs: Vec<PredictRequest> = ds
            .train
            .iter()
            .take(6)
            .map(|o| PredictRequest::Raw(o.od))
            .collect();
        assert_eq!(
            cnn_runs(&noext, &ctx, &ds.net, &reqs, 2),
            CnnRuns::default()
        );
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
        assert_eq!(out[1], Err(EstimateError::UnmatchedEndpoints));
    }
}
