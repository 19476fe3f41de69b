//! Durable training-state snapshots for crash-safe training.
//!
//! A [`TrainingCheckpoint`] captures *everything* the training loop in
//! [`crate::Trainer`] needs to continue as if it had never stopped: the
//! live model, the best-validation parameter snapshot, the Adam moment
//! estimates, the position inside the epoch/step structure, the validation
//! curve so far, and — crucially — the RNG stream. It is the loop's one
//! state value plus the model: the trainer makes every checkpoint with a
//! single snapshot function, at mid-epoch and epoch-boundary saves alike.
//!
//! Resuming is a constructor, [`crate::Trainer::resume`]: it takes the
//! config and the model from the checkpoint (nothing is rebuilt), checks
//! the config and the thread count, and the next `train` call continues
//! the run. That produces **bit-identical** loss and validation curves to
//! the uninterrupted run for the same `(seed, threads)` pair; the
//! kill/resume integration suite (`crates/cli/tests/crash_resume.rs`)
//! enforces this by comparing `f32::to_bits` across a real crash.
//!
//! On disk a checkpoint is JSON wrapped in the [`crate::io_guard`]
//! checksummed container and written atomically, so a crash mid-save
//! leaves the previous checkpoint intact and any torn or bit-flipped file
//! is rejected with a typed error at load time — never parsed into a
//! silently wrong training state.
//!
//! ## What makes the resume exact
//!
//! * `rng_state` is the xoshiro256** state captured at the **start** of
//!   the epoch (before the shuffle). Resume re-runs the Fisher–Yates
//!   shuffle from that state — regenerating the epoch's sample order
//!   exactly — then skips the `batches_done` minibatches that were already
//!   applied. The stream position afterwards matches the original run's.
//! * `epoch_loss` / `epoch_batches` carry the partial epoch-loss
//!   accumulators, so `final_train_loss` is bit-identical even when the
//!   crash lands mid-epoch.
//! * The optimizer snapshot restores Adam's per-parameter first/second
//!   moments and step counters (including the lazily-updated sparse
//!   embedding rows), so update `t+1` after resume equals update `t+1`
//!   of the uninterrupted run.
//! * `threads` records the worker count the run was started with; resume
//!   refuses a different count, because gradient tree-reduction shape (and
//!   therefore floating-point rounding) depends on it.

use crate::io_guard;
use crate::model::{DeepOdModel, ModelError};
use crate::train::CurvePoint;
use deepod_nn::{AdamSnapshot, ParamStore};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// On-disk checkpoint format version; bump on incompatible changes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Position and bookkeeping of a training run at a checkpoint boundary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainProgress {
    /// Epoch the run is inside (the epoch to *resume*, 0-based).
    pub epoch: usize,
    /// Minibatches of that epoch already applied (0 = epoch boundary).
    pub batches_done: usize,
    /// Global optimizer steps executed.
    pub step: usize,
    /// RNG state at the start of `epoch`, *before* its shuffle. Resume
    /// reruns the shuffle from here to regenerate the sample order.
    pub rng_state: [u64; 4],
    /// Validation-MAE curve accumulated so far.
    pub curve: Vec<CurvePoint>,
    /// Best validation MAE observed so far.
    pub best_val_mae: f32,
    /// Evaluations since the best (early-stopping counter).
    pub since_best: usize,
    /// Mean training loss of the last completed epoch.
    pub final_train_loss: f32,
    /// Partial loss accumulator of the in-progress epoch.
    pub epoch_loss: f32,
    /// Minibatch count behind `epoch_loss`.
    pub epoch_batches: usize,
    /// Wall-clock seconds consumed before this checkpoint (so resumed
    /// curve timestamps continue rather than restart; informational only —
    /// determinism assertions exclude wall time).
    pub elapsed_s: f64,
    /// Resolved worker-thread count of the run. Gradient merge order — and
    /// therefore floating-point rounding — depends on it, so resume
    /// requires the same count.
    pub threads: usize,
}

/// A complete, durable snapshot of an in-flight training run.
#[derive(Clone, Serialize, Deserialize)]
pub struct TrainingCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The live model (parameters, embeddings, config, label stats).
    pub model: DeepOdModel,
    /// Parameter snapshot of the best validation point so far (what
    /// model selection restores at the end of training).
    pub best_store: ParamStore,
    /// Adam moments and step counters.
    pub optimizer: AdamSnapshot,
    /// Loop position and bookkeeping.
    pub progress: TrainProgress,
}

// Manual Debug: the model holds megabytes of weights; printing the loop
// position and sizes is what error messages actually need.
impl std::fmt::Debug for TrainingCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingCheckpoint")
            .field("version", &self.version)
            .field("progress", &self.progress)
            .field("params", &self.model.store.len())
            .field("optimizer_states", &self.optimizer.states.len())
            .finish()
    }
}

/// Eagerly materializes the checkpoint counters so "no save happened" is
/// an observed zero rather than a missing key. Called once per process
/// from `RuntimeConfig::apply`.
pub fn register_metrics() {
    crate::obs::registry::counter_add("checkpoint.saves", 0);
    crate::obs::registry::counter_add("checkpoint.loads", 0);
}

impl TrainingCheckpoint {
    /// Serializes and writes the checkpoint atomically with a checksum
    /// footer. A crash at any point leaves either the previous checkpoint
    /// or the new one on disk — never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        let span = crate::obs::TimingSpan::start("checkpoint", "checkpoint.save_ms");
        let json =
            serde_json::to_string(self).map_err(|e| ModelError::Serialization(e.to_string()))?;
        io_guard::write_checksummed(path, json.as_bytes())?;
        crate::obs::registry::counter_inc("checkpoint.saves");
        crate::obs::debug(
            "checkpoint",
            "checkpoint saved",
            &[
                ("path", path.display().to_string().into()),
                ("step", self.progress.step.into()),
                ("epoch", self.progress.epoch.into()),
                ("ms", span.elapsed_ms().into()),
            ],
        );
        Ok(())
    }

    /// Reads a checkpoint back, verifying the checksum footer and the
    /// format version. Corruption (truncation, bit flips, wrong magic)
    /// surfaces as [`ModelError::Io`]; a parseable file of the wrong
    /// version as [`ModelError::Serialization`].
    pub fn load(path: &Path) -> Result<Self, ModelError> {
        let _span = crate::obs::TimingSpan::start("checkpoint", "checkpoint.load_ms");
        crate::obs::registry::counter_inc("checkpoint.loads");
        let bytes = io_guard::read_checksummed(path)?;
        let json = std::str::from_utf8(&bytes)
            .map_err(|e| ModelError::Serialization(format!("checkpoint is not UTF-8 JSON: {e}")))?;
        let ckpt: TrainingCheckpoint =
            serde_json::from_str(json).map_err(|e| ModelError::Serialization(e.to_string()))?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(ModelError::Serialization(format!(
                "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepOdConfig;
    use crate::features::FeatureContext;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("deepod_checkpoint_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!(
            "{tag}_{}_{}.ckpt",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_model() -> DeepOdModel {
        fn build() -> (CityDataset, DeepOdModel) {
            let ds =
                DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 30));
            let cfg = DeepOdConfig {
                init: crate::ablation::EmbeddingInit::Random,
                ds: 4,
                dt_dim: 4,
                d1m: 4,
                d2m: 4,
                d3m: 4,
                d4m: 4,
                d5m: 4,
                d6m: 4,
                d7m: 4,
                d9m: 4,
                dh: 4,
                dtraf: 4,
                ..DeepOdConfig::default()
            };
            let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
            let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("tiny config is valid");
            (ds, model)
        }
        static MODEL: std::sync::OnceLock<DeepOdModel> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| build().1).clone()
    }

    fn checkpoint_with(progress: TrainProgress, optimizer: AdamSnapshot) -> TrainingCheckpoint {
        let model = tiny_model();
        TrainingCheckpoint {
            version: CHECKPOINT_VERSION,
            best_store: model.store.clone(),
            model,
            optimizer,
            progress,
        }
    }

    fn empty_snapshot() -> AdamSnapshot {
        deepod_nn::AdamOptimizer::new(0.01).snapshot()
    }

    fn default_progress() -> TrainProgress {
        TrainProgress {
            epoch: 1,
            batches_done: 3,
            step: 17,
            rng_state: [1, 2, 3, 4],
            curve: vec![CurvePoint {
                step: 0,
                val_mae: 123.5,
                elapsed_s: 0.0,
            }],
            best_val_mae: 123.5,
            since_best: 1,
            final_train_loss: 0.75,
            epoch_loss: 1.5,
            epoch_batches: 3,
            elapsed_s: 2.25,
            threads: 2,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ckpt = checkpoint_with(default_progress(), empty_snapshot());
        let p = temp_ckpt("round_trip");
        ckpt.save(&p).expect("save");
        let back = TrainingCheckpoint::load(&p).expect("load");
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back.progress.rng_state, ckpt.progress.rng_state);
        assert_eq!(back.progress.step, ckpt.progress.step);
        assert_eq!(
            back.progress.best_val_mae.to_bits(),
            ckpt.progress.best_val_mae.to_bits()
        );
        // Model parameters must survive bit-for-bit.
        assert_eq!(ckpt.model.store.len(), back.model.store.len());
        for id in ckpt.model.store.ids().collect::<Vec<_>>() {
            let a = ckpt.model.store.value(id);
            let b = back.model.store.value(id);
            assert_eq!(
                a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_version_rejected() {
        let mut ckpt = checkpoint_with(default_progress(), empty_snapshot());
        ckpt.version = CHECKPOINT_VERSION + 9;
        let p = temp_ckpt("version");
        ckpt.save(&p).expect("save");
        let err = TrainingCheckpoint::load(&p).expect_err("version mismatch");
        assert!(matches!(err, ModelError::Serialization(_)), "got {err:?}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err =
            TrainingCheckpoint::load(Path::new("/nonexistent/run.ckpt")).expect_err("missing file");
        match err {
            ModelError::Io(io) => assert!(!io.is_corruption()),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    // Strategy for finite f32 values (JSON cannot represent NaN/Inf, and
    // training state never legitimately contains them).
    fn finite_f32() -> impl Strategy<Value = f32> {
        any::<i32>().prop_map(|bits| {
            let v = f32::from_bits(bits as u32);
            if v.is_finite() {
                v
            } else {
                (bits % 1_000_003) as f32 / 7.0
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary (finite) progress + optimizer scalar state survives a
        /// save → load cycle bit-exactly.
        #[test]
        fn arbitrary_state_round_trips(
            rng_parts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            step in any::<u32>(),
            best in finite_f32(),
            epoch_loss in finite_f32(),
            lr in finite_f32(),
            curve_vals in proptest::collection::vec(finite_f32(), 0..8),
        ) {
            let rng_state = [rng_parts.0, rng_parts.1, rng_parts.2, rng_parts.3];
            let mut progress = default_progress();
            progress.rng_state = rng_state;
            progress.step = step as usize;
            progress.best_val_mae = best;
            progress.epoch_loss = epoch_loss;
            progress.curve = curve_vals
                .iter()
                .enumerate()
                .map(|(i, &v)| CurvePoint { step: i, val_mae: v, elapsed_s: 0.0 })
                .collect();
            let optimizer = AdamSnapshot { lr, ..empty_snapshot() };
            let ckpt = checkpoint_with(progress, optimizer);
            let p = temp_ckpt("prop_rt");
            ckpt.save(&p).expect("save");
            let back = TrainingCheckpoint::load(&p).expect("load");
            std::fs::remove_file(&p).ok();
            prop_assert_eq!(back.progress.rng_state, rng_state);
            prop_assert_eq!(back.progress.step, step as usize);
            prop_assert_eq!(back.progress.best_val_mae.to_bits(), best.to_bits());
            prop_assert_eq!(back.progress.epoch_loss.to_bits(), epoch_loss.to_bits());
            prop_assert_eq!(back.optimizer.lr.to_bits(), lr.to_bits());
            prop_assert_eq!(back.progress.curve.len(), curve_vals.len());
            for (pt, v) in back.progress.curve.iter().zip(&curve_vals) {
                prop_assert_eq!(pt.val_mae.to_bits(), v.to_bits());
            }
        }

        /// Any single-byte truncation of a checkpoint file is rejected
        /// with a typed corruption error — never a panic, never a
        /// successfully-loaded wrong state.
        #[test]
        fn any_truncation_rejected(cut_frac in 0.0f64..1.0) {
            let ckpt = checkpoint_with(default_progress(), empty_snapshot());
            let p = temp_ckpt("prop_trunc");
            ckpt.save(&p).expect("save");
            let full = std::fs::read(&p).expect("read");
            let cut = ((full.len() as f64 * cut_frac) as usize).min(full.len() - 1);
            std::fs::write(&p, &full[..cut]).expect("truncate");
            let err = TrainingCheckpoint::load(&p).expect_err("truncated");
            std::fs::remove_file(&p).ok();
            match err {
                ModelError::Io(io) => prop_assert!(io.is_corruption(), "{io}"),
                other => prop_assert!(false, "expected Io corruption, got {other:?}"),
            }
        }

        /// Any single-bit flip anywhere in the file is rejected with a
        /// typed corruption error.
        #[test]
        fn any_bit_flip_rejected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
            let ckpt = checkpoint_with(default_progress(), empty_snapshot());
            let p = temp_ckpt("prop_flip");
            ckpt.save(&p).expect("save");
            let mut bytes = std::fs::read(&p).expect("read");
            let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
            bytes[pos] ^= 1 << bit;
            std::fs::write(&p, &bytes).expect("corrupt");
            let err = TrainingCheckpoint::load(&p).expect_err("bit flip");
            std::fs::remove_file(&p).ok();
            match err {
                ModelError::Io(io) => prop_assert!(io.is_corruption(), "{io}"),
                other => prop_assert!(false, "expected Io corruption, got {other:?}"),
            }
        }
    }
}
