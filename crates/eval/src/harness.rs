//! The evaluation harness: one call fits a baseline ([`run_method`]) or
//! trains a DeepOD config ([`run_deepod`]) and produces a full row of the
//! paper's Tables 4 and 5, with timing and size accounting.

use crate::metrics::{Metrics, MetricsError, PredPair};
use deepod_baselines::{
    GbmConfig, GbmPredictor, LinearRegression, MuratConfig, MuratPredictor, StnnConfig,
    StnnPredictor, TempConfig, TempPredictor, TtePredictor,
};
use deepod_core::{
    DeepOdConfig, EstimateError, ModelError, PredictRequest, TrainOptions, TrainReport, Trainer,
};
use deepod_tensor::Tensor;
use deepod_traj::CityDataset;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Why [`run_method`] or [`run_deepod`] failed: either DeepOD refused its
/// config or an estimate, or the method produced a pair set over which the
/// paper metrics are undefined (e.g. zero encodable test orders).
#[derive(Debug)]
pub enum HarnessError {
    /// DeepOD config validation or training failed.
    Model(ModelError),
    /// DeepOD could not answer a validation request.
    Estimate(EstimateError),
    /// The metric computation over the produced pairs failed.
    Metrics(MetricsError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Model(e) => write!(f, "model error: {e}"),
            HarnessError::Estimate(e) => write!(f, "estimate error: {e}"),
            HarnessError::Metrics(e) => write!(f, "metrics error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<ModelError> for HarnessError {
    fn from(e: ModelError) -> Self {
        HarnessError::Model(e)
    }
}

impl From<EstimateError> for HarnessError {
    fn from(e: EstimateError) -> Self {
        HarnessError::Estimate(e)
    }
}

impl From<MetricsError> for HarnessError {
    fn from(e: MetricsError) -> Self {
        HarnessError::Metrics(e)
    }
}

/// One full evaluation row: metrics + efficiency numbers + raw pairs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// Table 4 metrics on the test split.
    pub metrics: Metrics,
    /// Offline training wall-clock seconds (Table 5).
    pub train_time_s: f64,
    /// Online estimation seconds per 1 000 queries (Table 5).
    pub est_time_s_per_k: f64,
    /// Model size in bytes (Table 5).
    pub model_size_bytes: usize,
    /// Per-test-sample prediction pairs (Figs. 11–13).
    pub pairs: Vec<PredPair>,
}

/// One trained DeepOD model: its test-split row plus what the paper's
/// curve and sweep experiments read from the training run. Of the model
/// only the slot table is kept, so a cache can hold many runs.
pub struct DeepOdRun {
    /// The test-split row (Tables 4–6, Figs. 11–13).
    pub result: MethodResult,
    /// The trainer's report: validation curve and times (Fig. 10, Table 3).
    pub report: TrainReport,
    /// Predictions for the encoded validation samples, in order
    /// (Figs. 8–9 tune on validation data).
    pub val_pairs: Vec<PredPair>,
    /// The learned time-slot embedding table W_t (Fig. 14b).
    pub slot_emb: Tensor,
}

/// Collects prediction pairs from any closure that maps an order index to
/// a prediction.
fn collect_pairs(ds: &CityDataset, mut predict: impl FnMut(usize) -> Option<f32>) -> Vec<PredPair> {
    ds.test
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            predict(i).map(|p| PredPair {
                actual: o.travel_time as f32,
                predicted: p,
            })
        })
        .collect()
}

/// Fits a baseline on a dataset's training split and scores it on the
/// test split. Fails when the baseline yields a pair set the paper
/// metrics are undefined over.
pub fn run_method(
    mut p: Box<dyn TtePredictor>,
    ds: &CityDataset,
) -> Result<MethodResult, HarnessError> {
    crate::metrics::register_metrics();
    let t0 = Instant::now();
    p.fit(ds);
    let train_time_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let pairs = collect_pairs(ds, |i| p.predict(&ds.test[i].od));
    let est_time_s_per_k = per_thousand(t1.elapsed().as_secs_f64(), ds);

    Ok(MethodResult {
        name: p.name().to_string(),
        metrics: Metrics::from_pairs(&pairs)?,
        train_time_s,
        est_time_s_per_k,
        model_size_bytes: p.size_bytes(),
        pairs,
    })
}

/// Trains DeepOD with `config` and `options`, scores it on the test split
/// like [`run_method`] (row name "DeepOD") and predicts the encoded
/// validation samples. Fails when the config does not validate, a
/// validation estimate fails, or the metrics are undefined over the test
/// pairs.
pub fn run_deepod(
    ds: &CityDataset,
    config: DeepOdConfig,
    options: TrainOptions,
) -> Result<DeepOdRun, HarnessError> {
    crate::metrics::register_metrics();
    let t0 = Instant::now();
    let mut trainer = Trainer::new(ds, config, options)?;
    let report = trainer.train();
    let train_time_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let preds = trainer.predict_orders(&ds.test);
    let est_time_s_per_k = per_thousand(t1.elapsed().as_secs_f64(), ds);
    let pairs = collect_pairs(ds, |i| preds[i]);

    let samples = trainer.validation_samples();
    let reqs: Vec<PredictRequest> = samples
        .iter()
        .map(|s| PredictRequest::Encoded(s.od.clone()))
        .collect();
    let (ctx, net) = trainer.context();
    let model = trainer.model_ref();
    let val_pairs = samples
        .iter()
        .zip(model.estimate_batch(ctx, net, &reqs, 0))
        .map(|(s, p)| {
            Ok(PredPair {
                actual: s.travel_time,
                predicted: p?.eta_seconds,
            })
        })
        .collect::<Result<_, EstimateError>>()?;

    Ok(DeepOdRun {
        result: MethodResult {
            name: "DeepOD".into(),
            metrics: Metrics::from_pairs(&pairs)?,
            train_time_s,
            est_time_s_per_k,
            model_size_bytes: model.size_bytes(),
            pairs,
        },
        report,
        val_pairs,
        slot_emb: model.store.value(model.slot_emb.table).clone(),
    })
}

/// Estimation seconds per 1 000 test orders.
fn per_thousand(elapsed_s: f64, ds: &CityDataset) -> f64 {
    elapsed_s / ds.test.len().max(1) as f64 * 1000.0
}

/// The five baselines of §6.1 with laptop-scale settings.
pub fn all_baselines() -> Vec<Box<dyn TtePredictor>> {
    vec![
        Box::new(TempPredictor::new(TempConfig::default())),
        Box::new(LinearRegression::new(1e-3)),
        Box::new(GbmPredictor::new(GbmConfig::default())),
        Box::new(StnnPredictor::new(StnnConfig::default())),
        // MuratConfig::default uses 300 s slots, a week divisor — cannot fail.
        Box::new(
            MuratPredictor::new(MuratConfig::default()).expect("default murat slot size"), // deepod-lint: allow(expect)
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    #[test]
    fn baseline_row_complete() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 120));
        let res = run_method(Box::new(LinearRegression::new(1e-3)), &ds).expect("baseline runs");
        assert_eq!(res.name, "LR");
        assert!(res.metrics.mae.is_finite());
        assert!(res.metrics.mape_pct > 0.0);
        assert!(res.train_time_s >= 0.0);
        assert!(res.est_time_s_per_k >= 0.0);
        assert!(res.model_size_bytes > 0);
        assert!(!res.pairs.is_empty());
    }

    #[test]
    fn deepod_row_has_curve() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 100));
        let cfg = DeepOdConfig {
            epochs: 1,
            init: deepod_core::EmbeddingInit::Random,
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
        let run = run_deepod(&ds, cfg, TrainOptions::default()).expect("deepod runs");
        assert_eq!(run.result.name, "DeepOD");
        assert!(run.result.metrics.mae.is_finite());
        assert!(
            !run.report.curve.is_empty(),
            "deep methods must expose a curve"
        );
        assert!(!run.val_pairs.is_empty());
        assert!(run.val_pairs.iter().all(|p| p.predicted.is_finite()));
        assert_eq!(run.slot_emb.dim(1), 6, "one dt_dim-wide row per slot");
    }

    #[test]
    fn route_tte_extension_runs_through_harness() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 120));
        let r = run_method(Box::new(deepod_baselines::RouteTtePredictor::new()), &ds)
            .expect("extension runs");
        assert_eq!(r.name, "RouteTTE");
        assert!(r.metrics.mae.is_finite());
        assert!(r.model_size_bytes > 0);
    }

    #[test]
    fn all_baselines_present() {
        let names: Vec<&str> = all_baselines().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["TEMP", "LR", "GBM", "STNN", "MURAT"]);
    }
}
