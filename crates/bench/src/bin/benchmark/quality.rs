//! The quality metric: mean absolute percentage error of travel-time
//! answers against the dataset's recorded travel times.

use deepod_core::PredictRequest;
use deepod_traj::CityDataset;

use crate::stack::Reference;

/// MAPE in percent over `(prediction, truth)` pairs; a missing or
/// non-finite prediction counts as a 100 % error.
pub fn mape_pct(pairs: impl Iterator<Item = (Option<f32>, f64)>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for (pred, truth) in pairs {
        sum += match pred {
            Some(p) if p.is_finite() => (f64::from(p) - truth).abs() / truth,
            _ => 1.0,
        };
        n += 1;
    }
    100.0 * sum / n.max(1) as f64
}

/// MAPE of always answering the training split's mean travel time.
pub fn mean_predictor_mape_pct(ds: &CityDataset) -> f64 {
    let mean = ds.mean_train_travel_time() as f32;
    mape_pct(ds.test.iter().map(|o| (Some(mean), o.travel_time)))
}

/// Test-split MAPE of the answers the reference's model gives — the
/// answers a serving or batch workload returned, since each of those was
/// checked against the same model bit for bit.
pub fn model_mape_pct(ds: &CityDataset, reference: &Reference) -> f64 {
    let (_, ctx, model) = reference.parts();
    let reqs: Vec<PredictRequest> = ds.test.iter().map(|o| PredictRequest::Raw(o.od)).collect();
    let answers = model.estimate_batch(ctx, &ds.net, &reqs, 1);
    mape_pct(
        answers
            .into_iter()
            .map(|r| r.ok().map(|resp| resp.eta_seconds))
            .zip(ds.test.iter().map(|o| o.travel_time)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_averages_relative_errors_and_penalises_missing_answers() {
        let pairs = [(Some(110.0f32), 100.0), (Some(50.0), 100.0), (None, 100.0)];
        let got = mape_pct(pairs.into_iter());
        assert!((got - (10.0 + 50.0 + 100.0) / 3.0).abs() < 1e-9, "{got}");
        assert!((mape_pct([(Some(f32::NAN), 5.0)].into_iter()) - 100.0).abs() < 1e-9);
    }
}
