//! The Trajectory Encoder M_T of §4.4 (Fig. 7): each spatio-temporal step
//! `⟨e_i, [t_i[1], t_i[-1]]⟩` becomes the concatenation of its Time
//! Interval Encoder output `tcode_i` and its road-segment embedding
//! `D^s_i`; the resulting sequence runs through an LSTM (Eq. 12–16), whose
//! final state is concatenated with the position ratios `r[1], r[-1]` and
//! encoded by a two-layer MLP into `stcode` (Eq. 17).

use crate::ablation::Variant;
use crate::features::EncodedStep;
use crate::interval_encoder::TimeIntervalEncoder;
use deepod_nn::layers::{Embedding, LstmCell, Mlp2};
use deepod_nn::{Graph, ParamStore, VarId};
use deepod_tensor::Tensor;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The trajectory encoder's parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrajectoryEncoder {
    /// Sequence model over per-step representations.
    pub lstm: LstmCell,
    /// Final MLP (d_h + 2 → d³_m → d⁴_m), producing stcode.
    pub mlp: Mlp2,
    /// Road-embedding width the encoder was built for.
    ds: usize,
    /// Interval-code width the encoder was built for.
    d2m: usize,
    /// Which parts of the per-step representation are active (ablations
    /// N-sp / N-tp).
    variant: Variant,
}

impl TrajectoryEncoder {
    /// Registers all parameters. The LSTM input width follows the active
    /// variant: `d2m + ds` for the full model, `d2m` for N-sp, `ds` for
    /// N-tp.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's module signature
    pub fn new(
        store: &mut ParamStore,
        ds: usize,
        d2m: usize,
        dh: usize,
        d3m: usize,
        d4m: usize,
        variant: Variant,
        rng: &mut StdRng,
    ) -> Self {
        let input_dim = match (variant.traj_uses_temporal(), variant.traj_uses_spatial()) {
            (true, true) => d2m + ds,
            (true, false) => d2m,
            (false, true) => ds,
            // No Variant disables both modalities (N-st drops the encoder
            // entirely), so this arm is unreachable by construction.
            (false, false) => unreachable!("trajectory encoder needs at least one modality"),
        };
        TrajectoryEncoder {
            lstm: LstmCell::new(store, "traj.lstm", input_dim, dh, rng),
            mlp: Mlp2::new(store, "traj.mlp", dh + 2, d3m, d4m, rng),
            ds,
            d2m,
            variant,
        }
    }

    /// Output width of stcode (= d⁴_m).
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Encodes a trajectory into `stcode`.
    ///
    /// The whole trajectory is a handful of tape nodes, not a set per
    /// step: the steps' interval codes are one `[steps, d²_m]` batch, their
    /// road embeddings one `[steps, d_s]` gather, and the LSTM one sequence
    /// node. Values and gradients are bit-identical to running the interval
    /// encoder and the LSTM cell once per step (DESIGN.md §12).
    #[allow(clippy::too_many_arguments)]
    pub fn encode(
        &mut self,
        g: &mut Graph,
        store: &ParamStore,
        interval_enc: &mut TimeIntervalEncoder,
        road_emb: &Embedding,
        slot_emb: &Embedding,
        steps: &[EncodedStep],
        r_start: f32,
        r_end: f32,
        training: bool,
    ) -> VarId {
        assert!(!steps.is_empty(), "cannot encode an empty trajectory");
        let mut parts: Vec<VarId> = Vec::with_capacity(2);
        if self.variant.traj_uses_temporal() {
            let tcode = interval_enc.encode(g, store, slot_emb, steps, training);
            debug_assert_eq!(g.value(tcode).dims(), &[steps.len(), self.d2m]);
            parts.push(tcode);
        }
        if self.variant.traj_uses_spatial() {
            let edges: Vec<usize> = steps.iter().map(|s| s.edge).collect();
            let demb = road_emb.lookup_many(g, store, &edges, &vec![1; steps.len()]);
            debug_assert_eq!(g.value(demb).dims(), &[steps.len(), self.ds]);
            parts.push(demb);
        }
        let x = if parts.len() == 1 {
            parts[0]
        } else {
            g.concat(&parts)
        };
        let hn = self.lstm.run_sequence(g, store, x);
        let ratios = g.input(Tensor::from_vec(vec![r_start, r_end], &[2]));
        let z7 = g.concat(&[hn, ratios]);
        self.mlp.forward(g, store, z7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_tensor::rng_from_seed;

    fn setup(
        variant: Variant,
    ) -> (
        ParamStore,
        TrajectoryEncoder,
        TimeIntervalEncoder,
        Embedding,
        Embedding,
    ) {
        let mut rng = rng_from_seed(3);
        let mut store = ParamStore::new();
        let road = Embedding::new(&mut store, "roads", 40, 6, &mut rng);
        let slot = Embedding::new(&mut store, "slots", 60, 8, &mut rng);
        let tie = TimeIntervalEncoder::new(&mut store, 8, 16, 10, &mut rng);
        let traj = TrajectoryEncoder::new(&mut store, 6, 10, 12, 16, 8, variant, &mut rng);
        (store, traj, tie, road, slot)
    }

    fn steps() -> Vec<EncodedStep> {
        vec![
            EncodedStep {
                edge: 1,
                slot_nodes: vec![10],
                rem_enter: 0.1,
                rem_exit: 0.9,
            },
            EncodedStep {
                edge: 5,
                slot_nodes: vec![10, 11],
                rem_enter: 0.9,
                rem_exit: 0.2,
            },
            EncodedStep {
                edge: 9,
                slot_nodes: vec![11],
                rem_enter: 0.2,
                rem_exit: 0.6,
            },
        ]
    }

    #[test]
    fn stcode_shape_all_variants() {
        for v in [
            Variant::Full,
            Variant::NoSpatialPath,
            Variant::NoTemporalPath,
        ] {
            let (store, mut traj, mut tie, road, slot) = setup(v);
            let mut g = Graph::new();
            let code = traj.encode(
                &mut g,
                &store,
                &mut tie,
                &road,
                &slot,
                &steps(),
                0.3,
                0.6,
                false,
            );
            assert_eq!(g.value(code).dims(), &[8], "variant {v:?}");
            assert!(!g.value(code).has_non_finite());
        }
    }

    #[test]
    fn order_sensitivity() {
        // LSTMs are order-aware: reversing the step sequence must change
        // stcode.
        let (store, mut traj, mut tie, road, slot) = setup(Variant::Full);
        let fwd = steps();
        let mut rev = steps();
        rev.reverse();
        let mut g = Graph::new();
        let a = traj.encode(
            &mut g, &store, &mut tie, &road, &slot, &fwd, 0.3, 0.6, false,
        );
        let b = traj.encode(
            &mut g, &store, &mut tie, &road, &slot, &rev, 0.3, 0.6, false,
        );
        let (va, vb) = (g.value(a).as_slice(), g.value(b).as_slice());
        assert!(va.iter().zip(vb).any(|(x, y)| (x - y).abs() > 1e-7));
    }

    #[test]
    fn ratios_affect_stcode() {
        let (store, mut traj, mut tie, road, slot) = setup(Variant::Full);
        let mut g = Graph::new();
        let a = traj.encode(
            &mut g,
            &store,
            &mut tie,
            &road,
            &slot,
            &steps(),
            0.0,
            0.0,
            false,
        );
        let b = traj.encode(
            &mut g,
            &store,
            &mut tie,
            &road,
            &slot,
            &steps(),
            1.0,
            1.0,
            false,
        );
        assert_ne!(g.value(a).as_slice(), g.value(b).as_slice());
    }

    #[test]
    fn gradients_reach_embeddings_per_variant() {
        // Full: both tables. N-sp: only slots. N-tp: only roads.
        let cases = [
            (Variant::Full, true, true),
            (Variant::NoSpatialPath, false, true),
            (Variant::NoTemporalPath, true, false),
        ];
        for (v, want_road, want_slot) in cases {
            let (store, mut traj, mut tie, road, slot) = setup(v);
            let mut g = Graph::new();
            let code = traj.encode(
                &mut g,
                &store,
                &mut tie,
                &road,
                &slot,
                &steps(),
                0.5,
                0.5,
                true,
            );
            let s = g.sum_all(code);
            let grads = g.backward(s);
            assert_eq!(grads.get(road.table).is_some(), want_road, "roads, {v:?}");
            assert_eq!(grads.get(slot.table).is_some(), want_slot, "slots, {v:?}");
            assert!(grads.get(traj.lstm.wf).is_some());
            assert!(grads.get(traj.mlp.l2.w).is_some());
        }
    }

    #[test]
    fn single_step_trajectory_works() {
        let (store, mut traj, mut tie, road, slot) = setup(Variant::Full);
        let one = vec![EncodedStep {
            edge: 0,
            slot_nodes: vec![0],
            rem_enter: 0.0,
            rem_exit: 1.0,
        }];
        let mut g = Graph::new();
        let code = traj.encode(
            &mut g, &store, &mut tie, &road, &slot, &one, 0.0, 1.0, false,
        );
        assert_eq!(g.value(code).numel(), 8);
    }

    #[test]
    #[should_panic(expected = "empty trajectory")]
    fn empty_trajectory_panics() {
        let (store, mut traj, mut tie, road, slot) = setup(Variant::Full);
        let mut g = Graph::new();
        let _ = traj.encode(&mut g, &store, &mut tie, &road, &slot, &[], 0.0, 0.0, false);
    }
}
