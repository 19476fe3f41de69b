//! Property test: [`DeepOdModel::estimate_batch`] is bit-identical to
//! answering the same requests one at a time (single-request calls at one
//! thread), for any thread count and any batch composition: raw, encoded,
//! unmatchable, several in one departure slot (one shared CNN run), an
//! encoding whose speed matrix is an equal copy in a fresh `Arc`, a
//! wrong-shape matrix shared by several requests, and a 3-wide weather
//! one-hot, in any order, on the full model and on the N-other variant.
//!
//! This is the contract that lets the serving layer coalesce arbitrary
//! micro-batches without changing a single answer (DESIGN.md §11).

use std::sync::{Arc, OnceLock};

use deepod_core::{
    DeepOdConfig, DeepOdModel, EmbeddingInit, EstimateError, FeatureContext, PredictRequest,
    Variant,
};
use deepod_roadnet::{CityProfile, Point};
use deepod_tensor::Tensor;
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig, OdInput};
use proptest::prelude::*;

struct Fixture {
    ds: Arc<CityDataset>,
    ctx: FeatureContext,
    model: DeepOdModel,
    /// The same widths with [`Variant::NoExternal`]: no CNN stage at all.
    noext: DeepOdModel,
    /// One wrong-shape speed matrix, shared by every request that uses it.
    bad_matrix: Arc<Tensor>,
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
        let noext_cfg = DeepOdConfig {
            variant: Variant::NoExternal,
            ..cfg
        };
        let noext = DeepOdModel::new(&noext_cfg, &ds, &ctx).expect("valid test config");
        Fixture {
            ds: Arc::new(ds),
            ctx,
            model,
            noext,
            bad_matrix: Arc::new(Tensor::zeros(&[1, 0, 12])),
        }
    })
}

/// Sequential reference: one single-request `estimate_batch` call per
/// request, in order, at one thread — the degenerate batching that any
/// batched/threaded configuration must match bit for bit.
fn sequential_answers(
    fx: &Fixture,
    model: &DeepOdModel,
    reqs: &[PredictRequest],
) -> Vec<Result<f32, EstimateError>> {
    reqs.iter()
        .flat_map(|req| model.estimate_batch(&fx.ctx, &fx.ds.net, std::slice::from_ref(req), 1))
        .map(|r| r.map(|resp| resp.eta_seconds))
        .collect()
}

/// The encoding of a train-order OD.
fn encoded(fx: &Fixture, od: &OdInput) -> deepod_core::EncodedOd {
    fx.ctx
        .encode_od(&fx.ds.net, od)
        .expect("train ods match the network")
}

/// One request drawn from the fixture: a raw train-order OD, the same OD
/// pre-encoded, a raw OD far outside the network (unmatchable), a raw OD
/// departing in one shared slot, an encoding whose speed matrix is an
/// equal copy in a fresh `Arc`, an encoding with the shared wrong-shape
/// matrix, or an encoding with a 3-wide weather one-hot (with a good or
/// the wrong-shape matrix, so the width check is seen to come first).
fn request_strategy() -> impl Strategy<Value = PredictRequest> {
    let fx = fixture();
    let n = fx.ds.train.len();
    (0..n, 0..7u8).prop_map(|(i, kind)| {
        let fx = fixture();
        let od = fx.ds.train[i].od;
        match kind {
            0 => PredictRequest::Raw(od),
            1 => PredictRequest::Encoded(encoded(fx, &od)),
            2 => PredictRequest::Raw(OdInput {
                origin: Point::new(-9.9e6, -9.9e6),
                destination: Point::new(9.9e6, 9.9e6),
                ..od
            }),
            // Departures 0..=40 s past one slot start: all one matrix.
            3 => PredictRequest::Raw(OdInput {
                depart: 7_200.0 + (i % 5) as f64 * 10.0,
                ..od
            }),
            4 => {
                let mut enc = encoded(fx, &od);
                enc.speed_matrix = Arc::new((*enc.speed_matrix).clone());
                PredictRequest::Encoded(enc)
            }
            5 => {
                let mut enc = encoded(fx, &od);
                enc.speed_matrix = Arc::clone(&fx.bad_matrix);
                PredictRequest::Encoded(enc)
            }
            _ => {
                let mut enc = encoded(fx, &od);
                enc.weather_onehot.truncate(3);
                if i % 2 == 0 {
                    enc.speed_matrix = Arc::clone(&fx.bad_matrix);
                }
                PredictRequest::Encoded(enc)
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_matches_sequential_bit_for_bit(
        reqs in proptest::collection::vec(request_strategy(), 1..16),
        threads in 1..5usize,
    ) {
        let fx = fixture();
        for model in [&fx.model, &fx.noext] {
            let batched = model.estimate_batch(&fx.ctx, &fx.ds.net, &reqs, threads);
            let sequential = sequential_answers(fx, model, &reqs);
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
}

/// The shared wrong-shape matrix fails every request that reaches the
/// shape check with the same error, and never reaches the CNN; a request
/// that fails an earlier check keeps that check's error.
#[test]
fn a_shared_wrong_shape_matrix_fails_each_request_that_reads_it() {
    let fx = fixture();
    let good = encoded(fx, &fx.ds.train[0].od);
    let mut bad = good.clone();
    bad.speed_matrix = Arc::clone(&fx.bad_matrix);
    let mut narrow = bad.clone();
    narrow.weather_onehot.truncate(3);
    let reqs = [
        PredictRequest::Encoded(bad.clone()),
        PredictRequest::Encoded(good),
        PredictRequest::Encoded(narrow),
        PredictRequest::Encoded(bad),
    ];
    let out = fx.model.estimate_batch(&fx.ctx, &fx.ds.net, &reqs, 2);
    let shape = Err(EstimateError::MalformedEncoding("speed matrix shape"));
    assert_eq!(out[0], shape);
    assert!(out[1].is_ok());
    assert_eq!(
        out[2],
        Err(EstimateError::MalformedEncoding("weather one-hot width"))
    );
    assert_eq!(out[3], shape);
    // N-other reads neither the weather nor the matrix.
    let noext = fx.noext.estimate_batch(&fx.ctx, &fx.ds.net, &reqs, 2);
    assert!(noext.iter().all(Result::is_ok), "{noext:?}");
}

#[test]
fn empty_batch_yields_empty_answers() {
    let fx = fixture();
    assert!(fx
        .model
        .estimate_batch(&fx.ctx, &fx.ds.net, &[], 4)
        .is_empty());
}
