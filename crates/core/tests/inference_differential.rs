//! Differential forward tests (ROADMAP 4c): training and serving compute
//! one function.
//!
//! The tape-free [`InferenceModel`] is what every prediction runs through;
//! the autodiff tape survives for training only. This suite pins the two
//! together: the f32 inference forward must be `to_bits`-equal to the
//! *training* forward in eval mode (`OdEncoder::encode(.., training =
//! false)` + the M_E head, de-standardised, clamped), on models whose
//! batch-norm running statistics have moved off their initial values.

use std::sync::OnceLock;

use deepod_core::{
    DeepOdConfig, DeepOdModel, EmbeddingInit, EncodedOd, FeatureContext, InferenceModel,
    PredictRequest, TrainOptions, Trainer, Variant,
};
use deepod_nn::Graph;
use deepod_roadnet::CityProfile;
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use proptest::prelude::*;

fn dataset() -> &'static CityDataset {
    static DS: OnceLock<CityDataset> = OnceLock::new();
    DS.get_or_init(|| {
        DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40))
    })
}

fn tiny_config(variant: Variant, init: EmbeddingInit) -> DeepOdConfig {
    DeepOdConfig {
        variant,
        init,
        epochs: 1,
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
    }
}

fn trainer(variant: Variant, init: EmbeddingInit) -> Trainer<'static> {
    Trainer::new(
        dataset(),
        tiny_config(variant, init),
        TrainOptions::default(),
    )
    .expect("tiny config trains")
}

/// One model per variant/init combination, each after one training epoch,
/// plus the shared feature context.
struct Fixture {
    ctx: FeatureContext,
    models: Vec<DeepOdModel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut models = Vec::new();
        for variant in [Variant::Full, Variant::NoExternal] {
            for init in [EmbeddingInit::Random, EmbeddingInit::TimeStamp] {
                let mut t = trainer(variant, init);
                t.train();
                let model = t.into_model();
                if variant == Variant::Full {
                    assert!(
                        model
                            .external_enc
                            .bn1
                            .running_mean
                            .iter()
                            .any(|&m| m != 0.0),
                        "an epoch of training must move the batch-norm statistics"
                    );
                }
                models.push(model);
            }
        }
        let slot_seconds = DeepOdConfig::default().slot_seconds;
        let ctx = FeatureContext::build(dataset(), slot_seconds).expect("valid slot size");
        Fixture { ctx, models }
    })
}

/// The training tape's forward in eval mode, as seconds.
fn tape_eval(model: &DeepOdModel, od: &EncodedOd) -> f32 {
    let mut m = model.clone();
    let mut g = Graph::new();
    let code = m.od_enc.encode(
        &mut g,
        &m.store,
        &m.road_emb,
        &m.slot_emb,
        &mut m.external_enc,
        od,
        false,
    );
    let y = m.head.forward(&mut g, &m.store, code);
    m.denormalize_y(g.value(y).item()).max(0.0)
}

fn train_od(fx: &Fixture, i: usize) -> EncodedOd {
    let ds = dataset();
    fx.ctx
        .encode_od(&ds.net, &ds.train[i % ds.train.len()].od)
        .expect("train ods match the network")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_inference_is_bit_identical_to_the_eval_mode_tape(i in 0..1000usize) {
        let fx = fixture();
        let od = train_od(fx, i);
        for model in &fx.models {
            let want = tape_eval(model, &od);
            let got = InferenceModel::from_model(model)
                .eval_encoded(&od)
                .expect("well-formed encoding");
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{:?}/{:?}: tape-free {} vs tape {}",
                model.config.variant, model.config.init, got, want
            );
        }
    }
}

/// `DeepOdModel::estimate_batch` derives its inference view per call, so a
/// further training epoch is visible in the very next answer.
#[test]
fn estimate_batch_reflects_weights_trained_since_the_last_call() {
    let ds = dataset();
    let mut t = trainer(Variant::Full, EmbeddingInit::Random);
    t.train();
    let reqs: Vec<PredictRequest> = ds
        .train
        .iter()
        .take(6)
        .map(|o| PredictRequest::Raw(o.od))
        .collect();
    let etas = |t: &Trainer<'_>| -> Vec<u32> {
        let (ctx, net) = t.context();
        t.model_ref()
            .estimate_batch(ctx, net, &reqs, 1)
            .into_iter()
            .map(|r| r.expect("train ods match").eta_seconds.to_bits())
            .collect()
    };
    let before = etas(&t);
    assert_eq!(before, etas(&t), "no training, no change");
    t.train();
    let after = etas(&t);
    assert_ne!(before, after, "another epoch must change the answers");
    let (ctx, net) = t.context();
    let fresh: Vec<u32> = InferenceModel::from_model(t.model_ref())
        .estimate_batch(ctx, net, &reqs, 1)
        .into_iter()
        .map(|r| r.expect("train ods match").eta_seconds.to_bits())
        .collect();
    assert_eq!(after, fresh, "the delegate serves the live weights");
}
