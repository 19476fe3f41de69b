//! The OD encoding module M_O of §4.6: the origin and destination road
//! segments are embedded, the departure time slot is embedded (plus its
//! remainder), external features become `ocode`, and everything is
//! concatenated with the position ratios into Z⁹ and encoded by MLP1 into
//! `code` (Eq. 19).

use crate::ablation::{EmbeddingInit, Variant};
use crate::external_encoder::ExternalFeaturesEncoder;
use crate::features::EncodedOd;
use deepod_nn::layers::{Embedding, Mlp2};
use deepod_nn::{Graph, ParamStore, VarId};
use deepod_tensor::Tensor;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The OD encoder's parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OdEncoder {
    /// MLP1: Z⁹ → d⁷_m → d⁸_m (= d⁴_m) producing `code`.
    pub mlp: Mlp2,
    /// Structural variant (N-other drops the external part).
    variant: Variant,
    /// Embedding-init policy (T-stamp feeds raw timestamps instead of slot
    /// embeddings).
    init: EmbeddingInit,
}

impl OdEncoder {
    /// Registers MLP1. The input width depends on the variant and init:
    /// `2·d_s + d_t + d⁶_m + 3` in the full model (Eq. 19);
    /// without external features the `d⁶_m` part disappears (N-other);
    /// T-stamp replaces the `d_t` slot embedding by one scalar.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        ds: usize,
        dt_dim: usize,
        d6m: usize,
        d7m: usize,
        d8m: usize,
        variant: Variant,
        init: EmbeddingInit,
        rng: &mut StdRng,
    ) -> Self {
        let time_dim = if init.embeds_time() { dt_dim } else { 1 };
        let ext_dim = if variant.uses_external() { d6m } else { 0 };
        let in_dim = 2 * ds + time_dim + ext_dim + 3;
        OdEncoder {
            mlp: Mlp2::new(store, "od.mlp1", in_dim, d7m, d8m, rng),
            variant,
            init,
        }
    }

    /// Output width of `code` (= d⁸_m = d⁴_m).
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Whether Z⁹ includes the external-features `ocode` (false for the
    /// N-other ablation). Exposed for lowering to `InferenceModel`.
    pub fn uses_external(&self) -> bool {
        self.variant.uses_external()
    }

    /// Whether the temporal part is a slot embedding (true) or the raw
    /// timestamp scalar of the T-stamp ablation (false).
    pub fn embeds_time(&self) -> bool {
        self.init.embeds_time()
    }

    /// Encodes an OD input into `code`.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's module signature
    pub fn encode(
        &mut self,
        g: &mut Graph,
        store: &ParamStore,
        road_emb: &Embedding,
        slot_emb: &Embedding,
        external: &mut ExternalFeaturesEncoder,
        od: &EncodedOd,
        training: bool,
    ) -> VarId {
        // D^s_1, D^s_n: origin/destination segment embeddings.
        let e1 = road_emb.lookup_one(g, store, od.origin_edge);
        let en = road_emb.lookup_one(g, store, od.dest_edge);

        // Temporal part: slot embedding + remainder, or raw timestamp for
        // the T-stamp ablation.
        let time_part = if self.init.embeds_time() {
            slot_emb.lookup_one(g, store, od.depart_node)
        } else {
            g.input(Tensor::from_vec(vec![od.depart_raw], &[1]))
        };

        // Scalars: r[1], r[-1], t_r.
        let scalars = g.input(Tensor::from_vec(
            vec![od.r_start, od.r_end, od.depart_rem],
            &[3],
        ));

        let z9 = if self.variant.uses_external() {
            let ocode = external.encode(g, store, &od.weather_onehot, &od.speed_matrix, training);
            g.concat(&[e1, en, time_part, ocode, scalars])
        } else {
            g.concat(&[e1, en, time_part, scalars])
        };
        self.mlp.forward(g, store, z9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_tensor::rng_from_seed;
    use deepod_traffic::NUM_WEATHER_TYPES;
    use std::sync::Arc;

    fn setup(
        variant: Variant,
        init: EmbeddingInit,
    ) -> (
        ParamStore,
        OdEncoder,
        Embedding,
        Embedding,
        ExternalFeaturesEncoder,
    ) {
        let mut rng = rng_from_seed(4);
        let mut store = ParamStore::new();
        let road = Embedding::new(&mut store, "roads", 30, 6, &mut rng);
        let slot = Embedding::new(&mut store, "slots", 50, 8, &mut rng);
        let ext = ExternalFeaturesEncoder::new(&mut store, 4, 16, 10, &mut rng);
        let od = OdEncoder::new(&mut store, 6, 8, 10, 24, 12, variant, init, &mut rng);
        (store, od, road, slot, ext)
    }

    fn sample_od() -> EncodedOd {
        let mut onehot = vec![0.0; NUM_WEATHER_TYPES];
        onehot[2] = 1.0;
        EncodedOd {
            origin_edge: 3,
            dest_edge: 17,
            r_start: 0.25,
            r_end: 0.5,
            depart_node: 42,
            depart_rem: 0.3,
            depart_raw: 55.5,
            weather_onehot: onehot,
            speed_matrix: Arc::new(Tensor::full(&[1, 6, 6], 0.9)),
        }
    }

    #[test]
    fn code_shape_full_and_ablations() {
        for (v, i) in [
            (Variant::Full, EmbeddingInit::Node2Vec),
            (Variant::NoExternal, EmbeddingInit::Node2Vec),
            (Variant::Full, EmbeddingInit::TimeStamp),
        ] {
            let (store, mut enc, road, slot, mut ext) = setup(v, i);
            let mut g = Graph::new();
            let code = enc.encode(&mut g, &store, &road, &slot, &mut ext, &sample_od(), false);
            assert_eq!(g.value(code).dims(), &[12], "{v:?}/{i:?}");
            assert!(!g.value(code).has_non_finite());
        }
    }

    #[test]
    fn different_od_different_code() {
        let (store, mut enc, road, slot, mut ext) = setup(Variant::Full, EmbeddingInit::Node2Vec);
        let mut g = Graph::new();
        let a = enc.encode(&mut g, &store, &road, &slot, &mut ext, &sample_od(), false);
        let mut other = sample_od();
        other.origin_edge = 9;
        other.depart_node = 7;
        let b = enc.encode(&mut g, &store, &road, &slot, &mut ext, &other, false);
        assert_ne!(g.value(a).as_slice(), g.value(b).as_slice());
    }

    #[test]
    fn n_other_ignores_external_features() {
        let (store, mut enc, road, slot, mut ext) =
            setup(Variant::NoExternal, EmbeddingInit::Node2Vec);
        let mut g = Graph::new();
        let a = enc.encode(&mut g, &store, &road, &slot, &mut ext, &sample_od(), false);
        let mut stormy = sample_od();
        stormy.weather_onehot = {
            let mut v = vec![0.0; NUM_WEATHER_TYPES];
            v[11] = 1.0;
            v
        };
        stormy.speed_matrix = Arc::new(Tensor::full(&[1, 6, 6], 0.1));
        let b = enc.encode(&mut g, &store, &road, &slot, &mut ext, &stormy, false);
        assert_eq!(g.value(a).as_slice(), g.value(b).as_slice());
    }

    #[test]
    fn tstamp_ignores_slot_embedding_but_uses_raw_time() {
        let (store, mut enc, road, slot, mut ext) = setup(Variant::Full, EmbeddingInit::TimeStamp);
        let mut g = Graph::new();
        let a = enc.encode(&mut g, &store, &road, &slot, &mut ext, &sample_od(), false);
        let mut later = sample_od();
        later.depart_raw = 1000.0;
        later.depart_node = 13; // must have no effect
        let b = enc.encode(&mut g, &store, &road, &slot, &mut ext, &later, false);
        let (va, vb) = (g.value(a).as_slice(), g.value(b).as_slice());
        assert!(va.iter().zip(vb).any(|(x, y)| (x - y).abs() > 1e-6));

        let mut same_time_diff_node = sample_od();
        same_time_diff_node.depart_node = 13;
        let c = enc.encode(
            &mut g,
            &store,
            &road,
            &slot,
            &mut ext,
            &same_time_diff_node,
            false,
        );
        assert_eq!(g.value(a).as_slice(), g.value(c).as_slice());
    }

    #[test]
    fn gradients_flow_to_embeddings() {
        let (store, mut enc, road, slot, mut ext) = setup(Variant::Full, EmbeddingInit::Node2Vec);
        let mut g = Graph::new();
        let code = enc.encode(&mut g, &store, &road, &slot, &mut ext, &sample_od(), true);
        let s = g.sum_all(code);
        let grads = g.backward(s);
        assert!(grads.get(road.table).is_some());
        assert!(grads.get(slot.table).is_some());
        assert!(grads.get(enc.mlp.l1.w).is_some());
        assert!(grads.get(ext.k1).is_some());
    }
}
