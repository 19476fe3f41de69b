//! Property test: [`DeepOdModel::estimate_batch`] is bit-identical to
//! answering the same requests one at a time (single-request calls at one
//! thread), for any thread count and any batch composition (raw / encoded
//! / unmatchable, in any order).
//!
//! This is the contract that lets the serving layer coalesce arbitrary
//! micro-batches without changing a single answer (DESIGN.md §11).

use std::sync::{Arc, OnceLock};

use deepod_core::{
    DeepOdConfig, DeepOdModel, EmbeddingInit, FeatureContext, ModelError, PredictRequest,
};
use deepod_roadnet::{CityProfile, Point};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig, OdInput};
use proptest::prelude::*;

struct Fixture {
    ds: Arc<CityDataset>,
    ctx: FeatureContext,
    model: DeepOdModel,
}

/// Built once per test process: dataset synthesis and model construction
/// dominate the runtime, while each proptest case only reshuffles requests.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        Fixture {
            ds: Arc::new(ds),
            ctx,
            model,
        }
    })
}

/// Sequential reference: one single-request `estimate_batch` call per
/// request, in order, at one thread — the degenerate batching that any
/// batched/threaded configuration must match bit for bit.
fn sequential_answers(fx: &Fixture, reqs: &[PredictRequest]) -> Vec<Result<f32, ModelError>> {
    reqs.iter()
        .flat_map(|req| {
            fx.model
                .estimate_batch(&fx.ctx, &fx.ds.net, std::slice::from_ref(req), 1)
        })
        .map(|r| r.map(|resp| resp.eta_seconds))
        .collect()
}

/// One request drawn from the fixture: a raw train-order OD, the same OD
/// pre-encoded, or a raw OD far outside the network (unmatchable).
fn request_strategy() -> impl Strategy<Value = PredictRequest> {
    let fx = fixture();
    let n = fx.ds.train.len();
    (0..n, 0..3u8).prop_map(|(i, kind)| {
        let fx = fixture();
        let od = fx.ds.train[i].od;
        match kind {
            0 => PredictRequest::Raw(od),
            1 => {
                let enc = fx
                    .ctx
                    .encode_od(&fx.ds.net, &od)
                    .expect("train ods match the network");
                PredictRequest::Encoded(enc)
            }
            _ => PredictRequest::Raw(OdInput {
                origin: Point::new(-9.9e6, -9.9e6),
                destination: Point::new(9.9e6, 9.9e6),
                ..od
            }),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_matches_sequential_bit_for_bit(
        reqs in proptest::collection::vec(request_strategy(), 1..12),
        threads in 1..5usize,
    ) {
        let fx = fixture();
        let batched = fx.model.estimate_batch(&fx.ctx, &fx.ds.net, &reqs, threads);
        let sequential = sequential_answers(fx, &reqs);
        prop_assert_eq!(batched.len(), reqs.len());
        for (got, want) in batched.iter().zip(&sequential) {
            match (got, want) {
                (Ok(resp), Ok(eta)) => {
                    prop_assert_eq!(resp.eta_seconds.to_bits(), eta.to_bits());
                }
                (Err(e), Err(w)) => prop_assert_eq!(e, w),
                (got, want) => prop_assert!(
                    false,
                    "batched {:?} disagrees with sequential {:?}",
                    got,
                    want
                ),
            }
        }
    }
}

#[test]
fn empty_batch_yields_empty_answers() {
    let fx = fixture();
    assert!(fx
        .model
        .estimate_batch(&fx.ctx, &fx.ds.net, &[], 4)
        .is_empty());
}
