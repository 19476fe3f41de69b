//! Evaluation harness for the DeepOD reproduction: the three paper metrics
//! (MAE / MAPE / MARE, §6.1), a uniform method registry covering every
//! baseline and DeepOD variant, distribution and case-study utilities, and
//! plain-text/CSV reporting used by the per-table/figure binaries in
//! `deepod-bench`.

mod drift;
mod harness;
mod metrics;
mod report;

pub use drift::{check_drift, DriftReport};
pub use harness::{all_baselines, run_method, DeepOdMethod, HarnessError, Method, MethodResult};
pub use metrics::{histogram, mae, mape, mare, Metrics, MetricsError, PredPair, MAPE_MIN_ACTUAL};
pub use report::{metric_cell, write_csv, TextTable};
