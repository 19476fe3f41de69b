//! The run cache: every trained method the views read, keyed by (dataset,
//! method config, training options) and trained at most once per process.
//!
//! Training is a function of (config, dataset, thread count), so a view
//! that reuses another view's run prints exactly the numbers it would
//! have printed after training its own. The cache never evicts: its keys
//! are the registry's finite set of experiments at one scale.

use deepod_baselines::{MuratConfig, MuratPredictor, StnnConfig, StnnPredictor};
use deepod_bench::{num_orders, sweep_orders, Scale};
use deepod_core::{CurvePoint, DeepOdConfig, TrainOptions};
use deepod_eval::{all_baselines, run_deepod, run_method, DeepOdRun, MethodResult};
use deepod_roadnet::CityProfile;
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use std::rc::Rc;
use std::time::Instant;

/// Which dataset a run trains on: a city simulated with `orders` orders,
/// its training split cut to the most recent `train_pct` percent.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Data {
    pub profile: CityProfile,
    pub orders: usize,
    pub train_pct: usize,
}

impl Data {
    /// The city's standard dataset (Tables 3–6, Figs. 10–13).
    pub fn standard(profile: CityProfile, scale: Scale) -> Data {
        let orders = num_orders(profile, scale);
        Data {
            profile,
            orders,
            train_pct: 100,
        }
    }

    /// The city's smaller dataset for the sweeps (Figs. 8/9/14, Table 7).
    pub fn sweep(profile: CityProfile, scale: Scale) -> Data {
        let orders = sweep_orders(profile, scale);
        Data {
            profile,
            orders,
            train_pct: 100,
        }
    }
}

/// A validation-MAE curve plus the run's total seconds (Table 3, Fig. 10).
#[derive(Clone)]
pub struct Curve {
    pub method: &'static str,
    pub points: Vec<CurvePoint>,
    pub total_s: f64,
}

/// Trained records of one kind, with how often each was trained or reused.
struct Memo<K, V> {
    entries: Vec<(K, Rc<V>)>,
    trained: usize,
    reused: usize,
}

impl<K: PartialEq, V> Memo<K, V> {
    fn new() -> Self {
        Memo {
            entries: Vec::new(),
            trained: 0,
            reused: 0,
        }
    }

    fn get_or(&mut self, key: K, train: impl FnOnce() -> V) -> Rc<V> {
        if let Some((_, v)) = self.entries.iter().find(|(k, _)| *k == key) {
            self.reused += 1;
            return Rc::clone(v);
        }
        let v = Rc::new(train());
        self.trained += 1;
        self.entries.push((key, Rc::clone(&v)));
        v
    }

    fn tally(&self, kind: &str) -> String {
        format!("{kind} trained {}, reused {}", self.trained, self.reused)
    }
}

/// The per-process run cache the views share.
pub struct Runs {
    scale: Scale,
    datasets: Memo<Data, CityDataset>,
    baselines: Memo<Data, Vec<MethodResult>>,
    curves: Memo<Data, Vec<Curve>>,
    deepod: Memo<(Data, DeepOdConfig, TrainOptions), DeepOdRun>,
}

impl Runs {
    pub fn new(scale: Scale) -> Runs {
        Runs {
            scale,
            datasets: Memo::new(),
            baselines: Memo::new(),
            curves: Memo::new(),
            deepod: Memo::new(),
        }
    }

    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The dataset of `data`; a training-split cut is taken from the
    /// city's full dataset, which is itself cached.
    pub fn dataset(&mut self, data: Data) -> Rc<CityDataset> {
        let full = (data.train_pct != 100).then(|| {
            self.dataset(Data {
                train_pct: 100,
                ..data
            })
        });
        self.datasets.get_or(data, || match full {
            None => DatasetBuilder::build(&DatasetConfig::for_profile(data.profile, data.orders)),
            Some(full) => {
                let frac = data.train_pct as f64 / 100.0;
                let keep = deepod_tensor::round_count(full.train.len() as f64 * frac);
                // The split is chronological: keep the orders closest to
                // the test period.
                CityDataset {
                    net: full.net.clone(),
                    traffic: full.traffic.clone(),
                    train: full.train[full.train.len() - keep..].to_vec(),
                    validation: full.validation.clone(),
                    test: full.test.clone(),
                    config: full.config.clone(),
                }
            }
        })
    }

    /// The five baselines of `all_baselines()`, fit on `data` and scored on
    /// its test split.
    pub fn baselines(&mut self, data: Data) -> Rc<Vec<MethodResult>> {
        let ds = self.dataset(data);
        self.baselines.get_or(data, || {
            all_baselines()
                .into_iter()
                .map(|m| run_method(m, &ds).expect("method runs"))
                .collect()
        })
    }

    /// STNN and MURAT (12 epochs) with a validation curve every 10 steps.
    pub fn baseline_curves(&mut self, data: Data) -> Rc<Vec<Curve>> {
        let ds = self.dataset(data);
        self.curves.get_or(data, || {
            let stnn = timed_curve("STNN", || {
                StnnPredictor::new(StnnConfig {
                    epochs: 12,
                    ..Default::default()
                })
                .fit_with_validation(&ds, 10)
            });
            let murat = timed_curve("MURAT", || {
                MuratPredictor::new(MuratConfig {
                    epochs: 12,
                    ..Default::default()
                })
                .expect("valid slot size")
                .fit_with_validation(&ds, 10)
            });
            vec![stnn, murat]
        })
    }

    /// DeepOD trained with `cfg` and `opts` on `data`.
    pub fn deepod(&mut self, data: Data, cfg: DeepOdConfig, opts: TrainOptions) -> Rc<DeepOdRun> {
        let ds = self.dataset(data);
        let key = (data, cfg.clone(), opts.clone());
        self.deepod
            .get_or(key, || run_deepod(&ds, cfg, opts).expect("DeepOD runs"))
    }

    /// How many runs were trained and how many reused, per kind.
    pub fn summary(&self) -> String {
        let deepod = self.deepod.tally("DeepOD");
        let baselines = self.baselines.tally("baseline sets");
        format!(
            "{deepod} | {baselines} | {}",
            self.curves.tally("curve sets")
        )
    }
}

/// Times `fit` and spreads its wall clock over the curve's steps.
fn timed_curve(method: &'static str, fit: impl FnOnce() -> Vec<(usize, f32)>) -> Curve {
    let t0 = Instant::now();
    let raw = fit();
    let total_s = t0.elapsed().as_secs_f64();
    let last = raw.last().map_or(1, |c| c.0).max(1) as f64;
    let points = raw.iter().map(|&(step, val_mae)| CurvePoint {
        step,
        val_mae,
        elapsed_s: total_s * step as f64 / last,
    });
    Curve {
        method,
        points: points.collect(),
        total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_bench::sweep_config;
    use deepod_core::EmbeddingInit;

    #[test]
    fn a_key_trains_once_and_is_then_reused() {
        let mut runs = Runs::new(Scale::Quick);
        let data = Data {
            orders: 100,
            ..Data::standard(CityProfile::SynthChengdu, Scale::Quick)
        };
        let cfg = DeepOdConfig {
            epochs: 1,
            init: EmbeddingInit::Random,
            ..sweep_config(Scale::Quick)
        };
        let opts = TrainOptions {
            threads: 1,
            ..TrainOptions::default()
        };
        let first = runs.deepod(data, cfg.clone(), opts.clone());
        let second = runs.deepod(data, cfg.clone(), opts.clone());
        assert!(
            Rc::ptr_eq(&first, &second),
            "the second request returns the same record"
        );
        assert_eq!((runs.deepod.trained, runs.deepod.reused), (1, 1));
        assert!(!first.val_pairs.is_empty() && !first.result.pairs.is_empty());

        // Any part of the key that differs is another run.
        let other = TrainOptions {
            eval_every: 10,
            ..opts
        };
        let third = runs.deepod(data, cfg, other);
        assert!(!Rc::ptr_eq(&first, &third));
        assert_eq!((runs.deepod.trained, runs.deepod.reused), (2, 1));
    }
}
