//! Shared harness for the per-table/figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They all share the same dataset
//! construction, the same tuned DeepOD configuration, and the same
//! reporting conventions (a rendered text table on stdout, a CSV under
//! `results/`).
//!
//! # Scale
//!
//! Two scales are supported, selected by the first CLI argument or the
//! `DEEPOD_SCALE` environment variable (resolved in each binary via
//! [`startup`]):
//!
//! * `quick` (default) — minutes-per-experiment settings used by CI.
//! * `full` — larger datasets and longer training, closer to the paper's
//!   regime, for overnight runs.

use deepod_core::{DeepOdConfig, EmbeddingInit, TrainOptions};
use deepod_roadnet::CityProfile;
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// CI-friendly: small datasets, short training.
    Quick,
    /// Paper-regime: larger datasets, longer training.
    Full,
}

impl Scale {
    /// Resolves a scale choice string: exactly `quick` or `full`, absent
    /// meaning quick. Any other value is an error naming it, so a typo
    /// never runs the wrong experiment. The caller supplies the choice —
    /// typically `argv[1]` falling back to `DEEPOD_SCALE` via [`startup`] —
    /// so this library never reads the environment.
    pub fn resolve(choice: Option<&str>) -> Result<Scale, String> {
        match choice {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "unknown scale {other:?} (expected \"quick\" or \"full\")"
            )),
        }
    }
}

/// One-stop startup for a benchmark binary: applies the process
/// [`deepod_core::RuntimeConfig`] (thread count, log gate, metrics keys)
/// from the provided environment lookup, then resolves the scale from
/// `argv[1]` falling back to `DEEPOD_SCALE`. A malformed runtime config or
/// an unknown scale prints `fatal: …` and exits with
/// [`deepod_tensor::failpoint::CONFIG_EXIT_CODE`]. Bench binaries call
/// `deepod_bench::startup(std::env::args().nth(1), |k| std::env::var(k).ok())`
/// as their first line — the env closures keep all environment reads in
/// the binaries themselves (deepod-lint rule `no-env-read-in-lib`).
pub fn startup(argv1: Option<String>, env: impl Fn(&str) -> Option<String>) -> Scale {
    let runtime =
        deepod_core::RuntimeConfig::resolve(deepod_core::RuntimeOverrides::default(), &env);
    if let Err(e) = runtime.apply() {
        config_fatal(e);
    }
    Scale::resolve(argv1.or_else(|| env("DEEPOD_SCALE")).as_deref())
        .unwrap_or_else(|e| config_fatal(e))
}

/// Benchmarks have no fault-injection story; a malformed spec in the
/// environment or an unknown scale is a configuration error worth dying
/// over.
fn config_fatal(e: impl std::fmt::Display) -> ! {
    // deepod-lint: allow(no-bare-eprintln)
    eprintln!("fatal: {e}");
    std::process::exit(deepod_tensor::failpoint::CONFIG_EXIT_CODE);
}

/// The three city profiles in the paper's order.
pub const CITIES: [CityProfile; 3] = [
    CityProfile::SynthChengdu,
    CityProfile::SynthXian,
    CityProfile::SynthBeijing,
];

/// Display name of a profile.
pub fn city_name(p: CityProfile) -> &'static str {
    match p {
        CityProfile::SynthChengdu => "Chengdu",
        CityProfile::SynthXian => "Xi'an",
        CityProfile::SynthBeijing => "Beijing",
    }
}

/// Number of simulated orders per city and scale. The ratios mirror the
/// paper (Chengdu > Xi'an; Beijing the largest).
pub fn num_orders(p: CityProfile, scale: Scale) -> usize {
    let base = match p {
        CityProfile::SynthChengdu => 2500,
        CityProfile::SynthXian => 1800,
        CityProfile::SynthBeijing => 3200,
    };
    match scale {
        Scale::Quick => base,
        Scale::Full => base * 3,
    }
}

/// Builds the standard dataset for a city at a scale.
pub fn dataset(p: CityProfile, scale: Scale) -> CityDataset {
    DatasetBuilder::build(&DatasetConfig::for_profile(p, num_orders(p, scale)))
}

/// The paper's per-city tuned auxiliary-loss weight (§6.3: 0.7 Chengdu,
/// 0.3 Xi'an, 0.5 Beijing). Our Fig. 9 reproduction re-derives the tuned
/// value on the synthetic data; this accessor carries the defaults used by
/// the other experiments.
pub fn tuned_loss_weight(p: CityProfile) -> f32 {
    match p {
        CityProfile::SynthChengdu => 0.3,
        CityProfile::SynthXian => 0.3,
        CityProfile::SynthBeijing => 0.3,
    }
}

/// The tuned DeepOD configuration for a city at a scale (the result of our
/// Fig. 8-style sweep on the synthetic substrate: d_s = 32, d_t = 16,
/// d⁴_m = d⁸_m = 32, d⁷_m = d⁹_m = 64, d_h = 32).
pub fn tuned_config(p: CityProfile, scale: Scale) -> DeepOdConfig {
    let mut cfg = DeepOdConfig {
        ds: 32,
        dt_dim: 16,
        d1m: 32,
        d2m: 16,
        d3m: 32,
        d4m: 32,
        d5m: 16,
        d6m: 8,
        d7m: 64,
        d9m: 64,
        dh: 32,
        dtraf: 8,
        batch_size: 16,
        loss_weight: tuned_loss_weight(p),
        init: EmbeddingInit::Node2Vec,
        stcode_supervision: false,
        ..DeepOdConfig::default()
    };
    cfg.epochs = match scale {
        Scale::Quick => 18,
        Scale::Full => 30,
    };
    cfg
}

/// A down-scaled DeepOD config for the many-runs sweeps (Fig. 8/9, Table 7,
/// Fig. 14) where dozens of trainings must finish in minutes.
pub fn sweep_config(p: CityProfile, scale: Scale) -> DeepOdConfig {
    let mut cfg = tuned_config(p, scale);
    cfg.epochs = match scale {
        Scale::Quick => 6,
        Scale::Full => 16,
    };
    cfg
}

/// Smaller datasets for the sweeps.
pub fn sweep_dataset(p: CityProfile, scale: Scale) -> CityDataset {
    let n = match scale {
        Scale::Quick => num_orders(p, Scale::Quick) / 3,
        Scale::Full => num_orders(p, Scale::Quick),
    };
    DatasetBuilder::build(&DatasetConfig::for_profile(p, n))
}

/// Standard training options for harness runs. `threads: 0` defers to the
/// process-wide configured count (installed by [`startup`] from
/// `DEEPOD_THREADS`, or the machine's available parallelism).
pub fn train_options() -> TrainOptions {
    TrainOptions {
        eval_every: 25,
        patience: 20,
        max_eval_samples: 256,
        clip_norm: 5.0,
        weight_decay: 1e-3,
        threads: 0,
        verbose: false,
    }
}

/// The worker-thread count harness runs will use (as installed by
/// [`startup`], or the machine's available parallelism).
pub fn threads() -> usize {
    deepod_tensor::parallel::configured_threads()
}

/// Prints a header line for an experiment binary.
pub fn banner(experiment: &str, scale: Scale) {
    println!(
        "== DeepOD reproduction :: {experiment} (scale: {scale:?}, threads: {}) ==",
        threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_quick() {
        assert_eq!(Scale::resolve(None), Ok(Scale::Quick));
        assert_eq!(Scale::resolve(Some("full")), Ok(Scale::Full));
        let err = Scale::resolve(Some("FULL")).expect_err("case-sensitive: FULL is rejected");
        assert!(err.contains("\"FULL\""), "error names the value: {err}");
        assert_eq!(Scale::resolve(Some("quick")), Ok(Scale::Quick));
    }

    #[test]
    fn order_counts_follow_paper_ratios() {
        assert!(
            num_orders(CityProfile::SynthBeijing, Scale::Quick)
                > num_orders(CityProfile::SynthChengdu, Scale::Quick)
        );
        assert!(
            num_orders(CityProfile::SynthChengdu, Scale::Quick)
                > num_orders(CityProfile::SynthXian, Scale::Quick)
        );
        assert_eq!(
            num_orders(CityProfile::SynthChengdu, Scale::Full),
            3 * num_orders(CityProfile::SynthChengdu, Scale::Quick)
        );
    }

    #[test]
    fn tuned_configs_validate() {
        for p in CITIES {
            tuned_config(p, Scale::Quick).validate().unwrap();
            sweep_config(p, Scale::Full).validate().unwrap();
        }
    }

    #[test]
    fn city_names() {
        assert_eq!(city_name(CityProfile::SynthChengdu), "Chengdu");
        assert_eq!(city_name(CityProfile::SynthXian), "Xi'an");
        assert_eq!(city_name(CityProfile::SynthBeijing), "Beijing");
    }
}
