//! Views over the per-city method comparison: the five baselines and
//! tuned DeepOD on each city's standard dataset (Tables 4–6, Figs. 11–13).

use crate::runs::{Data, Runs};
use deepod_bench::{city_name, sweep_config, train_options, tuned_config, CITIES};
use deepod_core::{DeepOdConfig, Variant};
use deepod_eval::{histogram, metric_cell, MethodResult, TextTable};
use deepod_roadnet::CityProfile;
use rand::Rng;

/// The cities of Figs. 11–13 (and Fig. 10, Table 3).
pub const TWO_CITIES: [CityProfile; 2] = [CityProfile::SynthChengdu, CityProfile::SynthXian];

/// The five baselines on `data`, then a DeepOD run per `(name, config)`.
fn methods(runs: &mut Runs, data: Data, deepod: Vec<(&str, DeepOdConfig)>) -> Vec<MethodResult> {
    let mut all = runs.baselines(data).to_vec();
    for (name, cfg) in deepod {
        let mut result = runs.deepod(data, cfg, train_options()).result.clone();
        result.name = name.into();
        all.push(result);
    }
    all
}

/// The five baselines, then tuned DeepOD, on a city's standard dataset.
fn standard_methods(runs: &mut Runs, profile: CityProfile) -> Vec<MethodResult> {
    let data = Data::standard(profile, runs.scale());
    methods(runs, data, vec![("DeepOD", tuned_config(runs.scale()))])
}

/// Table 4 — test MAE / MAPE / MARE of every baseline, every DeepOD
/// ablation and full DeepOD on the three cities.
pub fn table4(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["City", "Method", "MAE(s)", "MAPE(%)", "MARE(%)"]);
    let variants = [
        (Variant::NoTrajectory, "N-st"),
        (Variant::NoSpatialPath, "N-sp"),
        (Variant::NoTemporalPath, "N-tp"),
        (Variant::NoExternal, "N-other"),
        (Variant::Full, "DeepOD"),
    ];
    for profile in CITIES {
        let mut deepod = Vec::new();
        for (variant, name) in variants {
            let mut cfg = tuned_config(runs.scale());
            cfg.variant = variant;
            deepod.push((name, cfg));
        }
        let data = Data::standard(profile, runs.scale());
        for r in methods(runs, data, deepod) {
            let m = r.metrics;
            table.row(&[
                city_name(profile).into(),
                r.name,
                metric_cell(m.mae, 1),
                metric_cell(m.mape_pct, 2),
                metric_cell(m.mare_pct, 2),
            ]);
        }
    }
    vec![table]
}

fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2}M", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2}K", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Table 5 — model size, offline training time and online estimation
/// time per 1 000 queries of every method on the three cities.
pub fn table5(runs: &mut Runs) -> Vec<TextTable> {
    let header = [
        "City",
        "Method",
        "size_bytes",
        "size",
        "train_s",
        "est_s_per_1k",
    ];
    let mut table = TextTable::new(&header);
    for profile in CITIES {
        for r in standard_methods(runs, profile) {
            table.row(&[
                city_name(profile).into(),
                r.name,
                r.model_size_bytes.to_string(),
                human_size(r.model_size_bytes),
                format!("{:.2}", r.train_time_s),
                format!("{:.4}", r.est_time_s_per_k),
            ]);
        }
    }
    vec![table]
}

/// Table 6 — test MAPE of every method trained on the most recent 20–100 %
/// of the Beijing training split. DeepOD uses the sweep config: five
/// fractions × six methods must finish in minutes, and the trend over the
/// fraction is what the table reports.
pub fn table6(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["scale", "Method", "MAPE(%)", "MAE(s)"]);
    let full = Data::standard(CityProfile::SynthBeijing, runs.scale());
    for train_pct in [20, 40, 60, 80, 100] {
        let data = Data { train_pct, ..full };
        let deepod = vec![("DeepOD", sweep_config(runs.scale()))];
        for r in methods(runs, data, deepod) {
            table.row(&[
                format!("{train_pct}%"),
                r.name,
                metric_cell(r.metrics.mape_pct, 2),
                metric_cell(r.metrics.mae, 1),
            ]);
        }
    }
    vec![table]
}

/// Fig. 11 — the empirical PDF of per-trip APE on the test split for every
/// method, plus its mean and standard deviation. The paper's claim:
/// DeepOD's distribution has both a smaller mean and a smaller variance.
pub fn fig11(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["City", "Method", "bin_center", "density"]);
    let mut summary = TextTable::new(&["City", "Method", "mean_ape(%)", "std_ape(%)"]);
    for profile in TWO_CITIES {
        let city = city_name(profile);
        for r in standard_methods(runs, profile) {
            let apes: Vec<f32> = r.pairs.iter().map(|p| 100.0 * p.ape()).collect();
            let n = apes.len().max(1) as f32;
            let mean = apes.iter().sum::<f32>() / n;
            let var = apes.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / n;
            let std = format!("{:.2}", var.sqrt());
            summary.row(&[city.into(), r.name.clone(), format!("{mean:.2}"), std]);
            let (centers, density) = histogram(&apes, 0.0, 120.0, 24);
            for (c, d) in centers.iter().zip(&density) {
                table.row(&[
                    city.into(),
                    r.name.clone(),
                    format!("{c:.1}"),
                    format!("{d:.5}"),
                ]);
            }
        }
    }
    vec![table, summary]
}

/// Fig. 12 — estimated vs. actual travel time on 50 random test trips
/// (under 1 h) per city, the same trips for every method.
pub fn fig12(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["City", "Method", "actual_s", "estimated_s"]);
    for profile in TWO_CITIES {
        let city = city_name(profile);
        let ds = runs.dataset(Data::standard(profile, runs.scale()));
        let mut rng = deepod_tensor::rng_from_seed(0x000F_1612);
        let eligible: Vec<usize> = (0..ds.test.len())
            .filter(|&i| ds.test[i].travel_time < 3600.0)
            .collect();
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < 50.min(eligible.len()) {
            chosen.insert(eligible[rng.gen_range(0..eligible.len())]);
        }
        for r in standard_methods(runs, profile) {
            // Every method predicts every test order, so pair i is order i.
            let picked: Vec<_> = chosen.iter().filter_map(|&i| r.pairs.get(i)).collect();
            let close = picked.iter().filter(|p| p.ape() < 0.2).count();
            println!(
                "{city} {:8}: {close}/{} within 20% of y=x",
                r.name,
                chosen.len()
            );
            for p in picked {
                let (actual, est) = (format!("{:.0}", p.actual), format!("{:.0}", p.predicted));
                table.row(&[city.into(), r.name.clone(), actual, est]);
            }
        }
    }
    vec![table]
}

/// Fig. 13 — the 50 test trips with the highest APE per method. The paper
/// finds them at short actual / long estimate, and TEMP's reaching
/// 200–300 %.
pub fn fig13(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["City", "Method", "actual_s", "estimated_s", "ape(%)"]);
    let mut summary = TextTable::new(&["City", "Method", "worst50_mean_ape(%)", "max_ape(%)"]);
    for profile in TWO_CITIES {
        let city = city_name(profile);
        for r in standard_methods(runs, profile) {
            let mut ranked = r.pairs.clone();
            ranked.sort_by(|a, b| b.ape().total_cmp(&a.ape()));
            ranked.truncate(50);
            let n = ranked.len().max(1) as f32;
            let mean_ape = 100.0 * ranked.iter().map(|p| p.ape()).sum::<f32>() / n;
            let max_ape = 100.0 * ranked.first().map(|p| p.ape()).unwrap_or(0.0);
            let (mean_ape, max_ape) = (format!("{mean_ape:.1}"), format!("{max_ape:.1}"));
            summary.row(&[city.into(), r.name.clone(), mean_ape, max_ape]);
            for p in &ranked {
                table.row(&[
                    city.into(),
                    r.name.clone(),
                    format!("{:.0}", p.actual),
                    format!("{:.0}", p.predicted),
                    format!("{:.1}", 100.0 * p.ape()),
                ]);
            }
        }
    }
    vec![table, summary]
}
