//! Evaluation harness for the DeepOD reproduction: the three paper metrics
//! (MAE / MAPE / MARE, §6.1), a harness that fits any baseline or trains
//! any DeepOD config into one result row, distribution utilities, and
//! plain-text/CSV reporting used by the paper runner in `deepod-bench`.

mod harness;
mod metrics;
mod report;

pub use harness::{all_baselines, run_deepod, run_method, DeepOdRun, HarnessError, MethodResult};
pub use metrics::{histogram, mae, mape, mare, Metrics, MetricsError, PredPair, MAPE_MIN_ACTUAL};
pub use report::{metric_cell, write_csv, TextTable};
