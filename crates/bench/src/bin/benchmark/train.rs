//! `train_epoch`: closed loop, in process — `Trainer::new`, `train()` at
//! a pinned thread count, then `predict_orders` on the test split. The
//! tape, backward pass, interval encoder, LSTM and Adam do all the work.

use std::time::Instant;

use deepod_core::{DeepOdConfig, TrainOptions, TrainReport, Trainer};
use deepod_traj::{CityDataset, DatasetBuilder};

use crate::layers;
use crate::report::{peak_rss_mb, Outcome};
use crate::stack::{build_context, dataset_config, SetupTimes, THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{quality, Opts};

/// Epochs per second of `--seconds`: fixed, not measured, so the epoch
/// count (and with it the trained model and its MAPE) depends only on
/// the arguments. An epoch takes about 2 s at two threads here.
const EPOCHS_PER_SECOND: f64 = 0.55;

fn epochs_for(seconds: f64) -> usize {
    deepod_tensor::floor_index(seconds * EPOCHS_PER_SECOND).max(1)
}

fn trainer(ds: &CityDataset, epochs: usize) -> Result<Trainer<'_>, String> {
    let cfg = DeepOdConfig {
        epochs,
        ..DeepOdConfig::default()
    };
    let opts = TrainOptions {
        threads: THREADS,
        eval_every: 0,
        ..TrainOptions::default()
    };
    Trainer::new(ds, cfg, opts).map_err(|e| format!("Trainer::new: {e}"))
}

/// Seconds of each epoch, from the per-epoch points of the validation
/// curve `train()` returns.
fn epoch_seconds(report: &TrainReport) -> Vec<f64> {
    report
        .curve
        .windows(2)
        .filter(|w| w[1].step > w[0].step)
        .map(|w| w[1].elapsed_s - w[0].elapsed_s)
        .collect()
}

/// Trains, predicts the test split and checks the result: finite loss,
/// one finite prediction per test order, and a test MAPE below the
/// mean predictor's. Returns the epoch times and the MAPE.
fn train_and_check(
    ds: &CityDataset,
    trainer: &mut Trainer<'_>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let report = trainer.train();
    let end = Instant::now();
    let root = tracer.record("train.train", start, end, None, None);
    let mut at = start;
    let epochs = epoch_seconds(&report);
    for secs in &epochs {
        let next = at + std::time::Duration::from_secs_f64(*secs);
        tracer.record("train.epoch", at, next, root, None);
        at = next;
    }
    let (preds, _) = tracer.time("train.predict_orders", None, || {
        trainer.predict_orders(&ds.test)
    });
    let missing = preds
        .iter()
        .filter(|p| !p.is_some_and(f32::is_finite))
        .count()
        + ds.test.len().saturating_sub(preds.len());
    let mape = quality::mape_pct(preds.into_iter().zip(ds.test.iter().map(|o| o.travel_time)));
    let baseline = quality::mean_predictor_mape_pct(ds);
    let sound = report.final_train_loss.is_finite() && mape < baseline;
    if !sound {
        println!(
            "  training unsound: final loss {}, test MAPE {mape:.3} % vs mean predictor {baseline:.3} %",
            report.final_train_loss
        );
    }
    // One operation per test prediction, plus the training run itself.
    out.count(ds.test.len() + 1, missing + usize::from(!sound));
    (epochs, mape)
}

/// One set-up (data set and `Trainer::new`), for a `--setup-only`
/// child: its seconds.
pub fn setup_seconds(opts: &Opts) -> Result<f64, String> {
    let t = Instant::now();
    let ds = DatasetBuilder::build(&dataset_config());
    trainer(&ds, epochs_for(opts.seconds))?;
    Ok(t.elapsed().as_secs_f64())
}

/// The untraced run. The training inputs are the fixed city and the
/// default initialisation seed (README, "What the seed drives").
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut out = Outcome::default();
    let epochs = epochs_for(opts.seconds);
    let mut setup_s = crate::setups_in_children(opts)?;
    let t = Instant::now();
    let ds = DatasetBuilder::build(&dataset_config());
    let mut tr = trainer(&ds, epochs)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let samples = tr.train_samples().len();
    let (epoch_s, mape) = train_and_check(&ds, &mut tr, &mut tracer, &mut out);
    let ms: Vec<f64> = epoch_s.iter().map(|s| s * 1e3).collect();
    out.set_setup(&setup_s);
    out.set_op_times(&ms, samples, "training samples", "epochs")?;
    out.set("mape_pct", mape);
    out.note("mape_pct", format!("test split, after {epochs} epochs"));
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    Ok(out)
}

/// The traced run: set-up calls as spans, an untraced and a traced
/// training of a third of the epochs, and the `train`, `features` and
/// `tensor` unit costs.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let root = tracer.open("setup", None);
    let mut times = SetupTimes::default();
    let (ds, s) = tracer.time("setup.dataset_build", root, || {
        DatasetBuilder::build(&dataset_config())
    });
    times.dataset_build_s = s;
    // `Trainer::new` builds its own context and model; these two calls
    // replay those steps in isolation.
    let (ctx, s) = tracer.time("setup.context_build", root, || build_context(&ds));
    times.context_build_s = s;
    let (_, s) = tracer.time("setup.model_new", root, || {
        deepod_core::DeepOdModel::new(&DeepOdConfig::default(), &ds, &ctx)
    });
    times.model_new_s = s;
    times.record(&mut out);
    tracer.close(root);

    let epochs = (epochs_for(opts.seconds) / 3).max(1);
    let mut rates = Vec::new();
    let mut quiet = Tracer::new(false);
    for traced in [false, true] {
        let (built, _) = tracer.time("train.trainer_new", None, || trainer(&ds, epochs));
        let mut tr = built?;
        let samples = tr.train_samples().len();
        let t = if traced { &mut tracer } else { &mut quiet };
        let (epoch_s, _) = train_and_check(&ds, &mut tr, t, &mut out);
        rates.push(samples as f64 / median(&epoch_s).ok_or("train() reported no epoch")?);
    }
    out.set(
        "trace.overhead_pct",
        100.0 * (rates[0] - rates[1]) / rates[0],
    );
    layers::train(&mut out, &ds);
    let ods: Vec<_> = ds.train.iter().map(|o| o.od).collect();
    layers::features(&mut out, &ds, &ods, true);
    layers::tensor(&mut out);
    tracer.report(opts.workload);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_count_depends_only_on_the_seconds_argument() {
        assert_eq!(epochs_for(20.0), 11);
        assert_eq!(epochs_for(1.5), 1);
        assert_eq!(epochs_for(0.0), 1);
    }
}
