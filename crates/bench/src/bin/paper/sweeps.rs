//! Views over DeepOD sweeps around the sweep default (`sweep_config` on
//! each city's sweep dataset): Figs. 8, 9, 14a, 14b and Table 7. Each
//! sweep's default point is one shared run.

use crate::runs::{Data, Runs};
use deepod_bench::{city_name, sweep_config, train_options, Scale, CITIES};
use deepod_core::{DeepOdConfig, EmbeddingInit};
use deepod_eval::{mape, mare, TextTable};
use deepod_graphembed::{tsne_1d, TsneConfig};
use deepod_roadnet::CityProfile;

/// Picks one layer width out of a config.
type Width = fn(&mut DeepOdConfig) -> &mut usize;

/// The twelve layer widths Fig. 8 varies (d⁸_m is tied to d⁴_m).
const PARAMS: [(&str, Width); 12] = [
    ("ds", |c| &mut c.ds),
    ("dt", |c| &mut c.dt_dim),
    ("d1m", |c| &mut c.d1m),
    ("d2m", |c| &mut c.d2m),
    ("d3m", |c| &mut c.d3m),
    ("d4m_d8m", |c| &mut c.d4m),
    ("d5m", |c| &mut c.d5m),
    ("d6m", |c| &mut c.d6m),
    ("d7m", |c| &mut c.d7m),
    ("d9m", |c| &mut c.d9m),
    ("dh", |c| &mut c.dh),
    ("dtraf", |c| &mut c.dtraf),
];

/// Fig. 8 — validation MAPE and MARE when varying each layer width on its
/// own around the sweep default, on Chengdu (the paper also sweeps
/// Xi'an). Quick scale sweeps {8, 16, 32, 64}, full scale the paper's
/// {32, 64, 128, 256}; each set holds every width's default once.
pub fn fig8(runs: &mut Runs) -> Vec<TextTable> {
    let values = match runs.scale() {
        Scale::Quick => [8, 16, 32, 64],
        Scale::Full => [32, 64, 128, 256],
    };
    let profile = CityProfile::SynthChengdu;
    let data = Data::sweep(profile, runs.scale());
    let mut table = TextTable::new(&["City", "param", "value", "MAPE(%)", "MARE(%)"]);
    for (name, width) in PARAMS {
        for v in values {
            let mut cfg = sweep_config(runs.scale());
            *width(&mut cfg) = v;
            // Validation metrics: the paper tunes on validation data.
            let pairs = &runs.deepod(data, cfg, train_options()).val_pairs;
            table.row(&[
                city_name(profile).into(),
                name.into(),
                v.to_string(),
                format!("{:.2}", 100.0 * mape(pairs).expect("validation MAPE")),
                format!("{:.2}", 100.0 * mare(pairs).expect("validation MARE")),
            ]);
        }
    }
    vec![table]
}

/// Quartile summary (min, Q1, median, Q3, max) of a sample.
fn quartiles(mut v: Vec<f32>) -> [f32; 5] {
    v.sort_by(f32::total_cmp);
    [0.0, 0.25, 0.5, 0.75, 1.0].map(|p: f64| match v.len() {
        0 => f32::NAN,
        n => v[deepod_tensor::round_count((n - 1) as f64 * p)],
    })
}

/// Fig. 9 — validation MAPE vs. the auxiliary-loss weight w on the three
/// cities, as box-plot statistics over minibatches of 64 like the
/// paper's per-minibatch boxes.
pub fn fig9(runs: &mut Runs) -> Vec<TextTable> {
    let weights: Vec<f32> = match runs.scale() {
        Scale::Quick => vec![0.1, 0.3, 0.5, 0.7, 0.9],
        Scale::Full => (1..=9).map(|i| i as f32 / 10.0).collect(),
    };
    let header = ["City", "w", "min", "q1", "median", "q3", "max", "mean"];
    let mut table = TextTable::new(&header);
    for profile in CITIES {
        let data = Data::sweep(profile, runs.scale());
        let mut best = (f32::INFINITY, 0.0f32);
        for &w in &weights {
            let cfg = DeepOdConfig {
                loss_weight: w,
                ..sweep_config(runs.scale())
            };
            let run = runs.deepod(data, cfg, train_options());
            let batch_mapes: Vec<f32> = run
                .val_pairs
                .chunks(64)
                .map(|batch| 100.0 * mape(batch).expect("minibatch MAPE"))
                .collect();
            let mean = batch_mapes.iter().sum::<f32>() / batch_mapes.len().max(1) as f32;
            if mean < best.0 {
                best = (mean, w);
            }
            let mut row = vec![city_name(profile).into(), format!("{w:.1}")];
            row.extend(quartiles(batch_mapes).iter().map(|q| format!("{q:.2}")));
            row.push(format!("{mean:.2}"));
            table.row(&row);
        }
        println!("  -> best w for {}: {:.1}", city_name(profile), best.1);
    }
    vec![table]
}

/// Fig. 14(a) — test MAPE on Chengdu for time-slot sizes Δt of 1–60
/// minutes. The paper finds a U-shape with the optimum at 5 minutes.
pub fn fig14a(runs: &mut Runs) -> Vec<TextTable> {
    let data = Data::sweep(CityProfile::SynthChengdu, runs.scale());
    let mut table = TextTable::new(&["slot_minutes", "MAPE(%)", "MAE(s)"]);
    for m in [1.0f64, 5.0, 10.0, 30.0, 60.0] {
        let cfg = DeepOdConfig {
            slot_seconds: m * 60.0,
            ..sweep_config(runs.scale())
        };
        let metrics = runs.deepod(data, cfg, train_options()).result.metrics;
        let (mape, mae) = (
            format!("{:.2}", metrics.mape_pct),
            format!("{:.1}", metrics.mae),
        );
        table.row(&[format!("{m}"), mape, mae]);
    }
    vec![table]
}

/// Fig. 14(b) — heat map of the learned time-slot embeddings of the
/// Chengdu sweep default: t-SNE to 1-D, averaged over (day, 2-hour
/// bucket), scaled to [-10, 10] like the paper's colorbar. The paper's
/// findings: neighboring slots are smooth and weekdays resemble each
/// other.
pub fn fig14b(runs: &mut Runs) -> Vec<TextTable> {
    let cfg = sweep_config(runs.scale());
    let slot_seconds = cfg.slot_seconds;
    let data = Data::sweep(CityProfile::SynthChengdu, runs.scale());
    let emb = &runs.deepod(data, cfg, train_options()).slot_emb;
    println!("slot embedding table: {} x {}", emb.dim(0), emb.dim(1));
    let mut rng = deepod_tensor::rng_from_seed(0xF16_14B);
    let coords = tsne_1d(emb, &TsneConfig::default(), &mut rng);

    let slots_per_day = deepod_tensor::round_count(86_400.0 / slot_seconds);
    let buckets_per_day = 12;
    let per_bucket = slots_per_day / buckets_per_day;
    let mut grid = vec![vec![0.0f64; buckets_per_day]; 7];
    for (day, row) in grid.iter_mut().enumerate() {
        for (b, cell) in row.iter_mut().enumerate() {
            let start = day * slots_per_day + b * per_bucket;
            let vals = &coords[start..(start + per_bucket).min(coords.len())];
            *cell = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        }
    }
    let maxabs = grid
        .iter()
        .flatten()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-9);
    let mut table = TextTable::new(&["day", "hour_bucket", "tsne_value"]);
    let days = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
    for (day, row) in days.iter().zip(&grid) {
        for (b, &v) in row.iter().enumerate() {
            let scaled = format!("{:.3}", 10.0 * v / maxabs);
            table.row(&[day.to_string(), format!("{}", b * 2), scaled]);
        }
    }

    // The paper's two qualitative claims as numbers.
    let n = coords.len();
    let mean_gap = |offset: usize| {
        (0..n)
            .map(|i| (coords[i] - coords[(i + offset) % n]).abs())
            .sum::<f64>()
            / n as f64
    };
    println!(
        "neighbor-slot mean |Δtsne| {:.3} vs antipodal {:.3} (smooth ⇔ smaller)",
        mean_gap(1),
        mean_gap(n / 2)
    );
    let day_gap: f64 = grid
        .windows(2)
        .flat_map(|pair| pair[0].iter().zip(&pair[1]).map(|(a, b)| (a - b).abs()))
        .sum();
    println!(
        "mean |adjacent-day difference| per bucket: {:.3} (daily periodicity ⇔ small)",
        day_gap / (6 * buckets_per_day) as f64
    );
    vec![table]
}

/// Table 7 — embedding-initialization ablations (T-one: random slot init,
/// T-day: day-only temporal graph, T-stamp: raw timestamps, R-one: random
/// road init) vs. DeepOD: test MAPE and its increase over DeepOD.
pub fn table7(runs: &mut Runs) -> Vec<TextTable> {
    let variants = [
        (EmbeddingInit::Node2Vec, "DeepOD"),
        (EmbeddingInit::TimeRandom, "T-one"),
        (EmbeddingInit::TimeDayGraph, "T-day"),
        (EmbeddingInit::TimeStamp, "T-stamp"),
        (EmbeddingInit::RoadRandom, "R-one"),
    ];
    let mut table = TextTable::new(&["City", "Variant", "MAPE(%)", "vs_DeepOD(%)"]);
    for profile in CITIES {
        let data = Data::sweep(profile, runs.scale());
        let mut base = f32::NAN;
        for (init, name) in variants {
            let cfg = DeepOdConfig {
                init,
                ..sweep_config(runs.scale())
            };
            let mape = runs
                .deepod(data, cfg, train_options())
                .result
                .metrics
                .mape_pct;
            if init == EmbeddingInit::Node2Vec {
                base = mape;
            }
            let delta = format!("{:+.1}", 100.0 * (mape - base) / base);
            table.row(&[
                city_name(profile).into(),
                name.into(),
                format!("{mape:.2}"),
                delta,
            ]);
        }
    }
    vec![table]
}
