//! The serving precision gate: int8 is allowed to serve only when its
//! accuracy cost, measured as a MAPE delta against the f32 model on held
//! out orders, stays within a configured bound (DESIGN.md §12).
//!
//! The gate is deliberately one-sided: an int8 model that happens to score
//! *better* than f32 (quantization noise can cut either way on a finite
//! sample) always passes; only a MAPE regression beyond the bound fails.

use crate::metrics::{Metrics, MetricsError, PredPair};
use deepod_core::{DeepOdModel, FeatureContext, InferenceModel, PredictRequest};
use deepod_traj::{CityDataset, TaxiOrder};

/// Accuracy bound for selecting the int8 serving path.
#[derive(Clone, Copy, Debug)]
pub struct PrecisionGate {
    /// Largest tolerated `int8 MAPE − f32 MAPE` in percentage points.
    pub max_mape_delta_pct: f32,
}

impl Default for PrecisionGate {
    fn default() -> Self {
        PrecisionGate {
            max_mape_delta_pct: Self::DEFAULT_MAPE_DELTA_PCT,
        }
    }
}

/// The gate's verdict, with both metric rows for reporting.
#[derive(Clone, Copy, Debug)]
pub struct PrecisionReport {
    /// Metrics of the f32 reference model on the evaluated orders.
    pub f32_metrics: Metrics,
    /// Metrics of the quantized model on the same orders.
    pub int8_metrics: Metrics,
    /// `int8 MAPE − f32 MAPE` in percentage points (negative = int8 won).
    pub mape_delta_pct: f32,
    /// The bound the delta was checked against.
    pub bound_pct: f32,
    /// Whether int8 may serve.
    pub passed: bool,
}

impl std::fmt::Display for PrecisionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "f32 MAPE {:.3}% | int8 MAPE {:.3}% | delta {:+.3}pp (bound {:.3}pp) -> {}",
            self.f32_metrics.mape_pct,
            self.int8_metrics.mape_pct,
            self.mape_delta_pct,
            self.bound_pct,
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

impl PrecisionGate {
    /// Default bound: one percentage point of MAPE.
    pub const DEFAULT_MAPE_DELTA_PCT: f32 = 1.0;

    /// A gate with an explicit bound (percentage points).
    pub fn new(max_mape_delta_pct: f32) -> Self {
        PrecisionGate { max_mape_delta_pct }
    }

    /// Checks pre-computed pair sets (both against the same ground truth).
    pub fn check(
        &self,
        f32_pairs: &[PredPair],
        int8_pairs: &[PredPair],
    ) -> Result<PrecisionReport, MetricsError> {
        let f32_metrics = Metrics::from_pairs(f32_pairs)?;
        let int8_metrics = Metrics::from_pairs(int8_pairs)?;
        let mape_delta_pct = int8_metrics.mape_pct - f32_metrics.mape_pct;
        Ok(PrecisionReport {
            f32_metrics,
            int8_metrics,
            mape_delta_pct,
            bound_pct: self.max_mape_delta_pct,
            passed: mape_delta_pct <= self.max_mape_delta_pct,
        })
    }

    /// Runs both models over `orders` and checks the gate. Orders whose
    /// endpoints do not match the network are skipped for both models, so
    /// the two pair sets always cover the same trips.
    pub fn evaluate(
        &self,
        model: &DeepOdModel,
        quantized: &InferenceModel,
        ctx: &FeatureContext,
        ds: &CityDataset,
        orders: &[TaxiOrder],
        threads: usize,
    ) -> Result<PrecisionReport, MetricsError> {
        let reqs: Vec<PredictRequest> = orders.iter().map(|o| PredictRequest::Raw(o.od)).collect();
        let f32_out = model.estimate_batch(ctx, &ds.net, &reqs, threads);
        let int8_out = quantized.estimate_batch(ctx, &ds.net, &reqs, threads);
        let mut f32_pairs = Vec::with_capacity(orders.len());
        let mut int8_pairs = Vec::with_capacity(orders.len());
        for ((order, a), b) in orders.iter().zip(&f32_out).zip(&int8_out) {
            let (Ok(a), Ok(b)) = (a, b) else { continue };
            let actual = order.travel_time as f32;
            f32_pairs.push(PredPair {
                actual,
                predicted: a.eta_seconds,
            });
            int8_pairs.push(PredPair {
                actual,
                predicted: b.eta_seconds,
            });
        }
        self.check(&f32_pairs, &int8_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_core::{DeepOdConfig, EmbeddingInit};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    fn close_pairs(shift: f32) -> Vec<PredPair> {
        (1..=20)
            .map(|i| PredPair {
                actual: 100.0 * i as f32,
                predicted: 100.0 * i as f32 * (1.0 + shift),
            })
            .collect()
    }

    #[test]
    fn small_delta_passes_large_delta_fails() {
        let gate = PrecisionGate::new(1.0);
        let f32_pairs = close_pairs(0.02);
        // ~0.5pp worse than f32: inside a 1pp bound.
        let ok = gate.check(&f32_pairs, &close_pairs(0.025)).expect("pairs");
        assert!(ok.passed, "{ok}");
        assert!(ok.mape_delta_pct > 0.0);
        // ~8pp worse: out of bounds.
        let bad = gate.check(&f32_pairs, &close_pairs(0.10)).expect("pairs");
        assert!(!bad.passed, "{bad}");
    }

    #[test]
    fn int8_better_than_f32_always_passes() {
        let gate = PrecisionGate::new(0.0);
        let rep = gate
            .check(&close_pairs(0.05), &close_pairs(0.01))
            .expect("pairs");
        assert!(rep.mape_delta_pct < 0.0);
        assert!(rep.passed);
    }

    #[test]
    fn untrained_model_quantizes_within_default_gate() {
        // End-to-end: quantizing a freshly initialized model must cost far
        // less accuracy than the default bound on synthetic orders.
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
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
        let qm = InferenceModel::quantized(&model);
        let rep = PrecisionGate::default()
            .evaluate(&model, &qm, &ctx, &ds, &ds.test, 1)
            .expect("gate evaluates");
        assert!(rep.passed, "{rep}");
    }
}
