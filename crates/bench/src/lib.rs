//! Shared settings of the paper runner (`src/bin/paper/`).
//!
//! One binary regenerates every table and figure of the paper (see
//! DESIGN.md §4 for the index): `cargo run --release -p deepod-bench --bin
//! paper -- <name>…|all [quick|full]`. Its entries share the dataset sizes,
//! the tuned DeepOD configuration and the training options defined here,
//! and they share trained runs through the runner's run cache, so a
//! (dataset, config, options) key trains once per process.
//!
//! # Scale
//!
//! Two scales, picked by the runner's last argument:
//!
//! * `quick` (default) — minutes-per-experiment settings used by CI.
//! * `full` — larger datasets and longer training, closer to the paper's
//!   regime, for overnight runs.

use deepod_core::{DeepOdConfig, EmbeddingInit, TrainOptions};
use deepod_roadnet::CityProfile;

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
    /// never runs the wrong experiment.
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

/// Applies the process [`deepod_core::RuntimeConfig`] (thread count, log
/// gate, metrics keys) from the provided environment lookup. A malformed
/// runtime config prints `fatal: …` and exits with
/// [`deepod_tensor::failpoint::CONFIG_EXIT_CODE`]. The runner calls
/// `deepod_bench::startup(|k| std::env::var(k).ok())` first — the env
/// closure keeps every environment read in the binary itself (deepod-lint
/// rule `no-env-read-in-lib`).
pub fn startup(env: impl Fn(&str) -> Option<String>) {
    let runtime =
        deepod_core::RuntimeConfig::resolve(deepod_core::RuntimeOverrides::default(), &env);
    if let Err(e) = runtime.apply() {
        config_fatal(e);
    }
}

/// Benchmarks have no fault-injection story; a malformed spec in the
/// environment, an unknown experiment or an unknown scale is a
/// configuration error worth dying over.
pub fn config_fatal(e: impl std::fmt::Display) -> ! {
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

/// Smaller order counts for the many-runs sweeps (Figs. 8/9/14, Table 7).
pub fn sweep_orders(p: CityProfile, scale: Scale) -> usize {
    match scale {
        Scale::Quick => num_orders(p, Scale::Quick) / 3,
        Scale::Full => num_orders(p, Scale::Quick),
    }
}

/// The auxiliary-loss weight w of every experiment except Fig. 9, which
/// sweeps it. The paper tunes w per city (§6.3: 0.7 Chengdu, 0.3 Xi'an,
/// 0.5 Beijing). Ours is 0.3 for every city, so a city's runs differ only
/// in their data; Fig. 9 measures where the optimum falls on the synthetic
/// substrate (EXPERIMENTS.md).
pub const TUNED_LOSS_WEIGHT: f32 = 0.3;

/// The tuned DeepOD configuration at a scale, the same for every city (the
/// result of our Fig. 8-style sweep on the synthetic substrate: d_s = 32,
/// d_t = 16, d⁴_m = d⁸_m = 32, d⁷_m = d⁹_m = 64, d_h = 32).
pub fn tuned_config(scale: Scale) -> DeepOdConfig {
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
        loss_weight: TUNED_LOSS_WEIGHT,
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
pub fn sweep_config(scale: Scale) -> DeepOdConfig {
    let mut cfg = tuned_config(scale);
    cfg.epochs = match scale {
        Scale::Quick => 6,
        Scale::Full => 16,
    };
    cfg
}

/// Standard training options for runner runs. `threads: 0` defers to the
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

/// Prints a header line for one experiment of the runner.
pub fn banner(experiment: &str, scale: Scale) {
    println!(
        "== DeepOD reproduction :: {experiment} (scale: {scale:?}, threads: {}) ==",
        deepod_tensor::parallel::configured_threads()
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
        for scale in [Scale::Quick, Scale::Full] {
            tuned_config(scale).validate().unwrap();
            sweep_config(scale).validate().unwrap();
        }
    }

    #[test]
    fn city_names() {
        assert_eq!(city_name(CityProfile::SynthChengdu), "Chengdu");
        assert_eq!(city_name(CityProfile::SynthXian), "Xi'an");
        assert_eq!(city_name(CityProfile::SynthBeijing), "Beijing");
    }
}
