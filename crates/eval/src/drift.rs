//! The cache-vs-fresh drift gate: a precomputed [`OdOracle`] may serve
//! only while every entry is **bit-identical** to what a fresh
//! [`DeepOdModel::estimate_batch`] run answers for the same canonical
//! request (DESIGN.md §15).
//!
//! The gate tolerates nothing: the oracle stores the model's own answers, so
//! any difference means the artifact and the model have diverged — a
//! retrained model behind a stale oracle, a corrupted entry that slipped
//! past the checksum, or a nondeterminism bug in the inference path. All
//! three are serving incidents, not noise.

use deepod_core::oracle::OdOracle;
use deepod_core::{DeepOdModel, FeatureContext, PredictRequest};
use deepod_traj::CityDataset;

/// The drift gate's verdict over one oracle artifact.
#[derive(Clone, Copy, Debug)]
pub struct DriftReport {
    /// Oracle entries compared against a fresh run.
    pub checked: usize,
    /// Entries whose fresh answer differs in any bit (or can no longer be
    /// answered at all).
    pub drifted: usize,
    /// Whether the artifact's embedded model fingerprint matches the
    /// model file under evaluation.
    pub fingerprint_match: bool,
    /// Largest `|oracle − fresh|` over the drifted entries, in seconds
    /// (0.0 when nothing drifted).
    pub max_abs_delta_s: f32,
    /// `true` iff the fingerprint matches and no entry drifted.
    pub passed: bool,
}

impl std::fmt::Display for DriftReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries checked | {} drifted | fingerprint {} | max |delta| {:.3}s -> {}",
            self.checked,
            self.drifted,
            if self.fingerprint_match {
                "match"
            } else {
                "MISMATCH"
            },
            self.max_abs_delta_s,
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

/// Verifies an oracle artifact against a freshly loaded model: every
/// entry's canonical request is re-answered through `estimate_batch` (any
/// `threads` — the batch path is bit-identical by contract) and compared
/// bit-for-bit. `model_fingerprint` is the fingerprint of the model file
/// the caller loaded, from [`deepod_core::oracle::model_fingerprint`].
pub fn check_drift(
    oracle: &OdOracle,
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    model_fingerprint: &str,
    threads: usize,
) -> DriftReport {
    let reqs: Vec<PredictRequest> = oracle
        .entries
        .iter()
        .map(|e| PredictRequest::Raw(oracle.keyer.canonical_od(e.key, ds)))
        .collect();
    let fresh = model.estimate_batch(ctx, &ds.net, &reqs, threads);
    let mut drifted = 0usize;
    let mut max_abs_delta_s = 0.0f32;
    for (entry, res) in oracle.entries.iter().zip(&fresh) {
        match res {
            Ok(resp) if resp.eta_seconds.to_bits() == entry.eta_seconds.to_bits() => {}
            Ok(resp) => {
                drifted += 1;
                max_abs_delta_s = max_abs_delta_s.max((resp.eta_seconds - entry.eta_seconds).abs());
            }
            // The entry existed at precompute time but is unanswerable
            // now: the dataset or network changed under the oracle.
            Err(_) => drifted += 1,
        }
    }
    let fingerprint_match = oracle.model_fingerprint == model_fingerprint;
    DriftReport {
        checked: oracle.entries.len(),
        drifted,
        fingerprint_match,
        max_abs_delta_s,
        passed: fingerprint_match && drifted == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_core::oracle::{precompute, PrecomputeSpec};
    use deepod_core::{DeepOdConfig, EmbeddingInit};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    fn fixture() -> (CityDataset, FeatureContext, DeepOdModel) {
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
        (ds, ctx, model)
    }

    #[test]
    fn fresh_oracle_passes_bit_identity() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 3,
            slots: 3,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "fp".into(), 1);
        assert!(!oracle.entries.is_empty());
        // Verify with a different thread count than the precompute pass
        // used — bit-identity must hold across parallelism.
        let rep = check_drift(&oracle, &model, &ctx, &ds, "fp", 3);
        assert!(rep.passed, "{rep}");
        assert_eq!(rep.drifted, 0);
        assert!(rep.fingerprint_match);
    }

    #[test]
    fn tampered_entry_fails_the_gate() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 2,
            slots: 2,
            cell_meters: 500.0,
        };
        let mut oracle = precompute(&model, &ctx, &ds, &spec, "fp".into(), 1);
        assert!(!oracle.entries.is_empty());
        oracle.entries[0].eta_seconds += 0.5;
        let rep = check_drift(&oracle, &model, &ctx, &ds, "fp", 1);
        assert!(!rep.passed, "{rep}");
        assert_eq!(rep.drifted, 1);
        assert!(rep.max_abs_delta_s > 0.0);
    }

    #[test]
    fn fingerprint_mismatch_fails_even_without_value_drift() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 2,
            slots: 2,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "old-model".into(), 1);
        let rep = check_drift(&oracle, &model, &ctx, &ds, "new-model", 1);
        assert!(!rep.fingerprint_match);
        assert!(!rep.passed, "{rep}");
        assert_eq!(rep.drifted, 0, "values did not drift; the model id did");
    }
}
