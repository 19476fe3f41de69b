//! DeepOD — origin–destination travel time estimation that exploits
//! historical trajectories over road networks (reproduction of the SIGMOD
//! 2020 paper).
//!
//! The model has three modules (Fig. 3 of the paper):
//!
//! * **M_O** ([`OdEncoder`]) encodes the OD input — origin/destination road
//!   segments with position ratios, departure time slot + remainder,
//!   external features — into a hidden representation `code`.
//! * **M_T** ([`TrajectoryEncoder`]) encodes the affiliated trajectory (a
//!   spatio-temporal path) into `stcode`.
//! * **M_E** (inside [`DeepOdModel`]) regresses travel time from `code`.
//!
//! Training minimizes `w · ‖code − stcode‖₂ + (1 − w) · MAE(ŷ, y)` so the
//! OD representation is pulled toward the representation of the route the
//! trip actually took; at prediction time only M_O and M_E run.
//!
//! # Quick start
//!
//! ```no_run
//! use deepod_core::{DeepOdConfig, Trainer, TrainOptions};
//! use deepod_traj::{DatasetBuilder, DatasetConfig};
//! use deepod_roadnet::CityProfile;
//!
//! let ds = DatasetBuilder::build(&DatasetConfig::for_profile(
//!     CityProfile::SynthChengdu, 2_000));
//! let cfg = DeepOdConfig::default();
//! let mut trainer = Trainer::new(&ds, cfg, TrainOptions::default())
//!     .expect("config validates and the dataset is non-empty");
//! let report = trainer.train();
//! println!("validation MAE: {:.1}s", report.best_val_mae);
//! let preds = trainer.predict_orders(&ds.test);
//! ```

mod ablation;
pub mod checkpoint;
mod config;
#[cfg(test)]
mod decode_props;
mod external_encoder;
mod features;
mod inference;
mod interval_encoder;
pub mod io_guard;
mod model;
#[cfg(test)]
mod mt_reference_tests;
pub mod obs;
mod od_encoder;
pub mod oracle;
mod runtime;
mod temporal_graph;
mod timeslot;
mod train;
mod trajectory_encoder;

pub use ablation::{EmbeddingInit, Variant};
pub use checkpoint::{TrainProgress, TrainingCheckpoint, CHECKPOINT_VERSION};
pub use config::DeepOdConfig;
pub use external_encoder::ExternalFeaturesEncoder;
pub use features::{EncodedOd, EncodedSample, FeatureContext};
pub use inference::InferenceModel;
pub use interval_encoder::TimeIntervalEncoder;
pub use io_guard::IoGuardError;
pub use model::{DeepOdModel, ModelError, PredictRequest, PredictResponse};
pub use od_encoder::OdEncoder;
pub use oracle::{
    model_fingerprint, precompute, OdKeyer, OdOracle, OracleEntry, OracleError, OracleKey,
    PrecomputeSpec, ORACLE_VERSION,
};
pub use runtime::{RuntimeConfig, RuntimeError, RuntimeOverrides};
pub use temporal_graph::{build_temporal_graph, temporal_graph_day_only};
pub use timeslot::{TimeSlotError, TimeSlots};
pub use train::{
    convergence_point, CheckpointPolicy, CurvePoint, TrainOptions, TrainReport, Trainer,
};
pub use trajectory_encoder::TrajectoryEncoder;
