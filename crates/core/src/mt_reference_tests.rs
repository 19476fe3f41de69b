//! The per-step trajectory encoder M_T that the step-batched
//! [`crate::TrajectoryEncoder::encode`] replaced: one interval-encoder pass
//! and one LSTM cell step per matched segment, about fifty tape nodes per
//! step. Kept, test-only, as the bit-reference of the differential test
//! below: the batched encoder must reproduce its loss, codes, every
//! parameter gradient and every batch-norm running statistic `to_bits`.

use crate::ablation::{EmbeddingInit, Variant};
use crate::config::DeepOdConfig;
use crate::features::{EncodedSample, EncodedStep, FeatureContext};
use crate::interval_encoder::TimeIntervalEncoder;
use crate::model::{DeepOdModel, SampleForward};
use deepod_nn::layers::{Embedding, LstmCell};
use deepod_nn::{GradSlot, Graph, ParamStore, VarId};
use deepod_roadnet::CityProfile;
use deepod_tensor::{Activation, Tensor};
use deepod_traj::{DatasetBuilder, DatasetConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One interval's `tcode` (`[d²_m]`).
#[allow(clippy::too_many_arguments)]
fn interval_code(
    enc: &mut TimeIntervalEncoder,
    g: &mut Graph,
    store: &ParamStore,
    slot_emb: &Embedding,
    slot_nodes: &[usize],
    rem_enter: f32,
    rem_exit: f32,
    training: bool,
) -> VarId {
    let dt_matrix = slot_emb.lookup_many(g, store, slot_nodes, &[slot_nodes.len()]);
    let dd = slot_nodes.len();
    let x = g.reshape(dt_matrix, &[1, dd, enc.dt_dim]);
    let k1 = g.param(store, enc.k1);
    let z1 = g.conv2d(x, k1);
    let z1 = enc.bn1.forward(g, store, z1, training);
    let z1 = g.relu(z1);
    let k2 = g.param(store, enc.k2);
    let z2 = g.conv2d(z1, k2);
    let z2 = enc.bn2.forward(g, store, z2, training);
    let z2 = g.relu(z2);
    let k3 = g.param(store, enc.k3);
    let z3 = g.conv2d(z2, k3);
    let z4 = g.add(x, z3);
    let z4m = g.reshape(z4, &[dd, enc.dt_dim]);
    let z5 = g.mean_rows(z4m, &[dd]);
    let z5 = g.reshape(z5, &[enc.dt_dim]);
    let dd_feat = (1.0 + dd as f32).ln();
    let rems = g.input(Tensor::from_vec(vec![rem_enter, rem_exit, dd_feat], &[3]));
    let z6 = g.concat(&[z5, rems]);
    enc.mlp.forward(g, store, z6)
}

/// One LSTM step: `(h_j, c_j)` from `x_j` and `(h_{j−1}, c_{j−1})`.
fn lstm_step(
    cell: &LstmCell,
    g: &mut Graph,
    store: &ParamStore,
    x: VarId,
    h_prev: VarId,
    c_prev: VarId,
) -> (VarId, VarId) {
    let xh = g.concat(&[x, h_prev]);
    let mut gate = |w, b, act| {
        let (w, b) = (g.param(store, w), g.param(store, b));
        g.linear_act(w, xh, b, act)
    };
    let f = gate(cell.wf, cell.bf, Activation::Sigmoid);
    let i = gate(cell.wi, cell.bi, Activation::Sigmoid);
    let o = gate(cell.wo, cell.bo, Activation::Sigmoid);
    let c_cand = gate(cell.wc, cell.bc, Activation::Tanh);
    let fc = g.mul(f, c_prev);
    let ic = g.mul(i, c_cand);
    let c = g.add(fc, ic);
    let ct = g.tanh(c);
    let h = g.mul(o, ct);
    (h, c)
}

/// `stcode` of `steps`, one step at a time.
fn stcode(
    model: &mut DeepOdModel,
    g: &mut Graph,
    steps: &[EncodedStep],
    r_start: f32,
    r_end: f32,
    training: bool,
) -> VarId {
    let variant = model.config.variant;
    let mut inputs = Vec::with_capacity(steps.len());
    for s in steps {
        let mut parts = Vec::with_capacity(2);
        if variant.traj_uses_temporal() {
            parts.push(interval_code(
                &mut model.interval_enc,
                g,
                &model.store,
                &model.slot_emb,
                &s.slot_nodes,
                s.rem_enter,
                s.rem_exit,
                training,
            ));
        }
        if variant.traj_uses_spatial() {
            parts.push(model.road_emb.lookup_one(g, &model.store, s.edge));
        }
        inputs.push(if parts.len() == 1 {
            parts[0]
        } else {
            g.concat(&parts)
        });
    }
    let cell = model.traj_enc.lstm;
    let mut h = g.input(Tensor::zeros(&[cell.hidden_dim]));
    let mut c = g.input(Tensor::zeros(&[cell.hidden_dim]));
    for x in inputs {
        (h, c) = lstm_step(&cell, g, &model.store, x, h, c);
    }
    let ratios = g.input(Tensor::from_vec(vec![r_start, r_end], &[2]));
    let z7 = g.concat(&[h, ratios]);
    model.traj_enc.mlp.forward(g, &model.store, z7)
}

/// [`DeepOdModel::forward_sample`] with the per-step M_T.
fn forward_sample(
    model: &mut DeepOdModel,
    g: &mut Graph,
    sample: &EncodedSample,
    training: bool,
) -> SampleForward {
    let code = model.od_enc.encode(
        g,
        &model.store,
        &model.road_emb,
        &model.slot_emb,
        &mut model.external_enc,
        &sample.od,
        training,
    );
    let stcode = (model.config.variant.uses_trajectory() && !sample.steps.is_empty()).then(|| {
        stcode(
            model,
            g,
            &sample.steps,
            sample.traj_r_start,
            sample.traj_r_end,
            training,
        )
    });
    let prediction = model.head.forward(g, &model.store, code);
    SampleForward {
        prediction,
        code,
        stcode,
    }
}

const VARIANTS: [Variant; 3] = [
    Variant::Full,
    Variant::NoSpatialPath,
    Variant::NoTemporalPath,
];

/// A freshly initialized model per variant, with the embedding rows
/// the generated steps draw from partly set to `±0`, and one encoded
/// sample whose OD side the generated trajectories reuse.
fn fixture() -> &'static (Vec<DeepOdModel>, EncodedSample) {
    static FIXTURE: OnceLock<(Vec<DeepOdModel>, EncodedSample)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
        let base = DeepOdConfig {
            init: EmbeddingInit::Random,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, base.slot_seconds).expect("valid slot size");
        let models = VARIANTS
            .iter()
            .map(|&variant| {
                let cfg = DeepOdConfig {
                    variant,
                    ..base.clone()
                };
                let mut model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
                for (table, row, zero) in [
                    (model.slot_emb.table, 0, -0.0),
                    (model.slot_emb.table, 1, 0.0),
                    (model.road_emb.table, 0, -0.0),
                ] {
                    model.store.value_mut(table).row_mut(row).fill(zero);
                }
                model
            })
            .collect();
        let sample = ctx.encode_orders(&ds.net, &ds.train).remove(0);
        (models, sample)
    })
}

#[derive(Debug, PartialEq)]
enum GradBits {
    Dense(Vec<u32>),
    Sparse(BTreeMap<usize, Vec<u32>>),
}

/// Everything the two encoders must agree on, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    loss: u32,
    code: Vec<u32>,
    stcode: Option<Vec<u32>>,
    grads: BTreeMap<usize, GradBits>,
    bn_stats: Vec<Vec<u32>>,
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// One sample's loss and gradients through the batched (`reference ==
/// false`) or per-step M_T; returns the outcome and the tape length.
fn run(
    model: &mut DeepOdModel,
    sample: &EncodedSample,
    training: bool,
    reference: bool,
) -> (Outcome, usize) {
    let mut g = Graph::new();
    let fwd = if reference {
        forward_sample(model, &mut g, sample, training)
    } else {
        model.forward_sample(&mut g, sample, training)
    };
    let code = bits(g.value(fwd.code).as_slice());
    let stcode = fwd.stcode.map(|s| bits(g.value(s).as_slice()));
    let nodes = model.loss_nodes(&mut g, fwd, sample);
    let loss = g.value(nodes.loss).item().to_bits();
    let grads = g
        .backward(nodes.loss)
        .iter()
        .map(|(id, slot)| {
            let slot = match slot {
                GradSlot::Dense(t) => GradBits::Dense(bits(t.as_slice())),
                GradSlot::SparseRows { entries, .. } => {
                    GradBits::Sparse(entries.iter().map(|(&r, row)| (r, bits(row))).collect())
                }
            };
            (id.index(), slot)
        })
        .collect();
    let bn_stats = [
        &model.interval_enc.bn1,
        &model.interval_enc.bn2,
        &model.external_enc.bn1,
        &model.external_enc.bn2,
        &model.external_enc.bn3,
    ]
    .iter()
    .flat_map(|bn| [bits(&bn.running_mean), bits(&bn.running_var)])
    .collect();
    let outcome = Outcome {
        loss,
        code,
        stcode,
        grads,
        bn_stats,
    };
    (outcome, g.len())
}

/// `+0`, `-0` or a uniform value in `[-1, 1)`.
fn value() -> impl Strategy<Value = f32> {
    (0u32..4, -1.0f32..1.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    })
}

/// Steps over a small pool of edges and slot nodes (rows 0 and 1 of
/// the tables are `±0`), so lookups repeat within and across steps.
fn steps() -> impl Strategy<Value = Vec<EncodedStep>> {
    let step = (
        0usize..6,
        proptest::collection::vec(0usize..6, 1..=4),
        value(),
        value(),
    )
        .prop_map(|(edge, slot_nodes, rem_enter, rem_exit)| EncodedStep {
            edge,
            slot_nodes,
            rem_enter,
            rem_exit,
        });
    proptest::collection::vec(step, 1..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The step-batched M_T is `to_bits`-identical to the per-step
    /// tape: loss, `code`, `stcode`, every parameter gradient
    /// (including each sparse embedding row) and all five batch-norm
    /// running statistics.
    #[test]
    fn step_batched_mt_is_bit_identical_to_per_step(
        variant in 0usize..VARIANTS.len(),
        steps in steps(),
        r_start in value(),
        r_end in value(),
        training in any::<bool>(),
    ) {
        let (models, base) = fixture();
        let sample = EncodedSample {
            steps,
            traj_r_start: r_start,
            traj_r_end: r_end,
            ..base.clone()
        };
        let (batched, batched_nodes) = run(&mut models[variant].clone(), &sample, training, false);
        let (per_step, per_step_nodes) = run(&mut models[variant].clone(), &sample, training, true);
        prop_assert!(batched.stcode.is_some());
        prop_assert_eq!(batched, per_step, "{:?}, {} steps", VARIANTS[variant], sample.steps.len());
        prop_assert!(batched_nodes < per_step_nodes);
    }
}

#[test]
fn batched_mt_tape_length_does_not_grow_with_the_trajectory() {
    let (models, base) = fixture();
    let step = |edge| EncodedStep {
        edge,
        slot_nodes: vec![2, 3],
        rem_enter: 0.25,
        rem_exit: 0.75,
    };
    for model in models {
        let len = |steps: usize, reference: bool| {
            let sample = EncodedSample {
                steps: (0..steps).map(step).collect(),
                ..base.clone()
            };
            run(&mut model.clone(), &sample, true, reference).1
        };
        assert_eq!(len(1, false), len(12, false), "{:?}", model.config.variant);
        assert!(len(12, true) > len(1, true), "{:?}", model.config.variant);
    }
}
