//! The Time Interval Encoder of §4.3 (Fig. 6): a time interval
//! `[t[1], t[-1]]` covering Δd slots is embedded slot-by-slot, stacked into
//! a `Δd × d_t` matrix, passed through a ResNet block whose residual branch
//! is three convolutions (3×1 ×4 channels → 3×1 ×8 → 1×1 ×1, each with
//! BatchNorm+ReLU except the last), average-pooled over Δd (Eq. 10), then
//! concatenated with the two normalized remainders and encoded by a
//! two-layer MLP into `tcode` (Eq. 11).

use crate::features::EncodedStep;
use deepod_nn::layers::{BatchNorm2d, Embedding, Mlp2};
use deepod_nn::{Graph, ParamId, ParamStore, VarId};
use deepod_tensor::Tensor;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The interval encoder's parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeIntervalEncoder {
    /// Conv kernel K¹ `[4, 1, 3, 1]`.
    pub k1: ParamId,
    /// Conv kernel K² `[8, 4, 3, 1]`.
    pub k2: ParamId,
    /// Conv kernel K³ `[1, 8, 1, 1]`.
    pub k3: ParamId,
    /// BatchNorm after conv 1.
    pub bn1: BatchNorm2d,
    /// BatchNorm after conv 2.
    pub bn2: BatchNorm2d,
    /// The final two-layer MLP (d_t + 2 → d¹_m → d²_m).
    pub mlp: Mlp2,
    /// Slot embedding width d_t.
    pub dt_dim: usize,
}

impl TimeIntervalEncoder {
    /// Registers all parameters. `dt_dim` is the slot-embedding width,
    /// `d1m`/`d2m` the MLP widths of Eq. 11.
    pub fn new(
        store: &mut ParamStore,
        dt_dim: usize,
        d1m: usize,
        d2m: usize,
        rng: &mut StdRng,
    ) -> Self {
        // Kaiming-ish kernel init scaled by fan-in.
        let kinit = |store: &mut ParamStore, name: &str, dims: &[usize], rng: &mut StdRng| {
            let fan_in: usize = dims[1] * dims[2] * dims[3];
            let bound = (2.0 / fan_in as f32).sqrt();
            store.register(name, Tensor::rand_uniform(dims, -bound, bound, rng))
        };
        TimeIntervalEncoder {
            k1: kinit(store, "tie.k1", &[4, 1, 3, 1], rng),
            k2: kinit(store, "tie.k2", &[8, 4, 3, 1], rng),
            k3: kinit(store, "tie.k3", &[1, 8, 1, 1], rng),
            bn1: BatchNorm2d::new(store, "tie.bn1", 4),
            bn2: BatchNorm2d::new(store, "tie.bn2", 8),
            // + 3: the two remainders of Eq. 11 plus ln(1+Δd). The paper's
            // Z⁶ has only the remainders, but its average pooling (Eq. 10)
            // discards the slot count Δd computed in Eq. 4, leaving the
            // encoder blind to interval length; reinjecting Δd restores the
            // quantity Eq. 4 derives. Documented in DESIGN.md.
            mlp: Mlp2::new(store, "tie.mlp", dt_dim + 3, d1m, d2m, rng),
            dt_dim,
        }
    }

    /// Output width of `tcode` (= d²_m).
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Encodes the interval of every step of a trajectory into a
    /// `[steps, d²_m]` matrix whose row `s` is step `s`'s `tcode`. A step's
    /// `slot_nodes` are its Δd weekly slot indices and `rem_enter` /
    /// `rem_exit` its normalized remainders; `slot_emb` is the shared
    /// time-slot embedding table W_t.
    ///
    /// Each layer is one tape node for all steps: the steps are segments
    /// (`deepod_nn::Graph` module docs), so every row is computed exactly
    /// as a lone interval would be, and the batch norms update their
    /// running statistics step by step, in step order.
    pub fn encode(
        &mut self,
        g: &mut Graph,
        store: &ParamStore,
        slot_emb: &Embedding,
        steps: &[EncodedStep],
        training: bool,
    ) -> VarId {
        assert!(!steps.is_empty(), "cannot encode an empty trajectory");
        let segs: Vec<usize> = steps.iter().map(|s| s.slot_nodes.len()).collect();
        assert!(segs.iter().all(|&dd| dd > 0), "interval covers no slots");
        let nodes: Vec<usize> = steps
            .iter()
            .flat_map(|s| s.slot_nodes.iter().copied())
            .collect();
        // Dt: each step's [Δd, d_t] stacked slot embeddings, viewed as
        // [1, Δd, d_t].
        let dt_matrix = slot_emb.lookup_many(g, store, &nodes, &segs);
        let x = g.reshape(dt_matrix, &[1, nodes.len(), self.dt_dim]);

        // Residual branch: conv(3×1,4) → BN → ReLU → conv(3×1,8) → BN →
        // ReLU → conv(1×1,1)  (Eq. 5–7).
        let k1 = g.param(store, self.k1);
        let z1 = g.conv2d_segments(x, k1, &segs);
        let z1 = self.bn1.forward_segments(g, store, z1, &segs, training);
        let z1 = g.relu(z1);
        let k2 = g.param(store, self.k2);
        let z2 = g.conv2d_segments(z1, k2, &segs);
        let z2 = self.bn2.forward_segments(g, store, z2, &segs, training);
        let z2 = g.relu(z2);
        let k3 = g.param(store, self.k3);
        let z3 = g.conv2d_segments(z2, k3, &segs);

        // Z⁴ = Dt ⊕ Z³ (Eq. 8): the identity shortcut.
        let z4 = g.add(x, z3);

        // Average pooling over each step's Δd (Eq. 10).
        let z4m = g.reshape(z4, &[nodes.len(), self.dt_dim]);
        let z5 = g.mean_rows(z4m, &segs);

        // Z⁶ = concat(Z⁵, t_r[1], t_r[-1], ln(1+Δd)) → MLP (Eq. 11 plus the
        // Δd scalar of Eq. 4; see the constructor comment).
        let scalars: Vec<f32> = steps
            .iter()
            .flat_map(|s| {
                let dd_feat = (1.0 + s.slot_nodes.len() as f32).ln();
                [s.rem_enter, s.rem_exit, dd_feat]
            })
            .collect();
        let rems = g.input(Tensor::from_vec(scalars, &[steps.len(), 3]));
        let z6 = g.concat(&[z5, rems]);
        self.mlp.forward(g, store, z6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_tensor::rng_from_seed;

    fn setup(dt_dim: usize) -> (ParamStore, TimeIntervalEncoder, Embedding) {
        let mut rng = rng_from_seed(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "slots", 50, dt_dim, &mut rng);
        let enc = TimeIntervalEncoder::new(&mut store, dt_dim, 24, 12, &mut rng);
        (store, enc, emb)
    }

    fn interval(slot_nodes: &[usize], rem_enter: f32, rem_exit: f32) -> EncodedStep {
        EncodedStep {
            edge: 0,
            slot_nodes: slot_nodes.to_vec(),
            rem_enter,
            rem_exit,
        }
    }

    #[test]
    fn output_width_fixed_across_interval_lengths() {
        let (store, mut enc, emb) = setup(8);
        for nodes in [vec![3], vec![3, 4], vec![3, 4, 5, 6, 7, 8, 9]] {
            let mut g = Graph::new();
            let out = enc.encode(&mut g, &store, &emb, &[interval(&nodes, 0.2, 0.8)], false);
            assert_eq!(g.value(out).dims(), &[1, 12], "Δd = {}", nodes.len());
            assert!(!g.value(out).has_non_finite());
        }
    }

    #[test]
    fn one_row_per_step_independent_of_its_neighbours() {
        // Segments never mix: a step's row is the same alone or batched
        // with intervals of other lengths (eval mode: no EMA drift).
        let (store, mut enc, emb) = setup(8);
        let steps = [
            interval(&[1], 0.1, 0.9),
            interval(&[2, 3, 4], 0.5, 0.0),
            interval(&[4, 5], 0.3, 0.3),
        ];
        let mut g = Graph::new();
        let all = enc.encode(&mut g, &store, &emb, &steps, false);
        assert_eq!(g.value(all).dims(), &[3, 12]);
        for (s, step) in steps.iter().enumerate() {
            let one = enc.encode(&mut g, &store, &emb, std::slice::from_ref(step), false);
            assert_eq!(g.value(all).row(s), g.value(one).as_slice(), "step {s}");
        }
    }

    #[test]
    fn deterministic_in_eval_mode() {
        let (store, mut enc, emb) = setup(8);
        let steps = [interval(&[1, 2, 3], 0.1, 0.9)];
        let mut g1 = Graph::new();
        let a = enc.encode(&mut g1, &store, &emb, &steps, false);
        let mut g2 = Graph::new();
        let b = enc.encode(&mut g2, &store, &emb, &steps, false);
        assert_eq!(g1.value(a).as_slice(), g2.value(b).as_slice());
    }

    #[test]
    fn different_slots_different_codes() {
        let (store, mut enc, emb) = setup(8);
        let mut g = Graph::new();
        let steps = [interval(&[1, 2], 0.0, 0.5), interval(&[30, 31], 0.0, 0.5)];
        let out = enc.encode(&mut g, &store, &emb, &steps, false);
        let (da, db) = (g.value(out).row(0), g.value(out).row(1));
        assert!(da.iter().zip(db).any(|(x, y)| (x - y).abs() > 1e-6));
    }

    #[test]
    fn remainders_affect_output() {
        let (store, mut enc, emb) = setup(8);
        let mut g = Graph::new();
        let steps = [interval(&[5], 0.0, 0.1), interval(&[5], 0.9, 1.0)];
        let out = enc.encode(&mut g, &store, &emb, &steps, false);
        assert_ne!(g.value(out).row(0), g.value(out).row(1));
    }

    #[test]
    fn gradients_flow_to_all_parts() {
        let (mut store, mut enc, emb) = setup(8);
        let steps = [interval(&[2, 3, 4], 0.3, 0.7)];
        let mut g = Graph::new();
        let out = enc.encode(&mut g, &store, &emb, &steps, true);
        let s = g.sum_all(out);
        let grads = g.backward(s);
        // Embedding rows, all three kernels, BN affine and MLP must all
        // receive gradient.
        assert!(grads.get(emb.table).is_some(), "no grad to slot embedding");
        assert!(grads.get(enc.k1).is_some());
        assert!(grads.get(enc.k2).is_some());
        assert!(grads.get(enc.k3).is_some());
        assert!(grads.get(enc.bn1.gamma).is_some());
        assert!(grads.get(enc.mlp.l1.w).is_some());
        // And an optimizer step must change the output.
        let before = g.value(out).as_slice().to_vec();
        let mut opt = deepod_nn::AdamOptimizer::new(0.05);
        opt.step(&mut store, &grads);
        let mut g2 = Graph::new();
        let out2 = enc.encode(&mut g2, &store, &emb, &steps, false);
        assert_ne!(before, g2.value(out2).as_slice());
    }

    #[test]
    #[should_panic(expected = "no slots")]
    fn empty_interval_panics() {
        let (store, mut enc, emb) = setup(8);
        let mut g = Graph::new();
        let _ = enc.encode(&mut g, &store, &emb, &[interval(&[], 0.0, 0.0)], false);
    }
}
