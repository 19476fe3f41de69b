//! Views over one curve run per city: STNN, MURAT and DeepOD trained with
//! a validation-MAE point every 10 steps and no early stop (Fig. 10,
//! Table 3).

use crate::methods::TWO_CITIES;
use crate::runs::{Curve, Data, Runs};
use deepod_bench::{city_name, train_options, tuned_config};
use deepod_core::{convergence_point, TrainOptions};
use deepod_eval::TextTable;
use deepod_roadnet::CityProfile;

/// The training options of the curve runs: a point every 10 steps, the
/// full curve with no early stop.
fn curve_options() -> TrainOptions {
    TrainOptions {
        eval_every: 10,
        patience: 0,
        ..train_options()
    }
}

/// STNN, MURAT and DeepOD curves on a city's standard dataset.
fn curves(runs: &mut Runs, profile: CityProfile) -> Vec<Curve> {
    let data = Data::standard(profile, runs.scale());
    let mut curves = runs.baseline_curves(data).to_vec();
    let deepod = runs.deepod(data, tuned_config(runs.scale()), curve_options());
    curves.push(Curve {
        method: "DeepOD",
        points: deepod.report.curve.clone(),
        total_s: deepod.report.total_time_s,
    });
    curves
}

/// Table 3 — convergence steps and wall-clock time of the three deep
/// methods on Chengdu and Xi'an.
pub fn table3(runs: &mut Runs) -> Vec<TextTable> {
    let header = [
        "City",
        "Method",
        "conv_steps",
        "conv_time_s",
        "total_time_s",
    ];
    let mut table = TextTable::new(&header);
    for profile in TWO_CITIES {
        for c in curves(runs, profile) {
            let (step, time) =
                convergence_point(&c.points).map_or((0, f64::NAN), |p| (p.step, p.elapsed_s));
            table.row(&[
                city_name(profile).into(),
                c.method.into(),
                step.to_string(),
                format!("{time:.1}"),
                format!("{:.1}", c.total_s),
            ]);
        }
    }
    vec![table]
}

/// Fig. 10 — validation MAE vs. training steps of the three deep methods
/// on Chengdu and Xi'an.
pub fn fig10(runs: &mut Runs) -> Vec<TextTable> {
    let mut table = TextTable::new(&["City", "Method", "step", "val_mae", "elapsed_s"]);
    for profile in TWO_CITIES {
        for c in curves(runs, profile) {
            for p in &c.points {
                table.row(&[
                    city_name(profile).into(),
                    c.method.into(),
                    p.step.to_string(),
                    format!("{:.1}", p.val_mae),
                    format!("{:.2}", p.elapsed_s),
                ]);
            }
        }
    }
    vec![table]
}
