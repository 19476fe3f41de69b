//! `batch_offline`: closed loop, in process, no serving stack —
//! `DeepOdModel::estimate_batch` over raw ODs at a pinned thread count
//! (the `deepod precompute` / `eval` path).

use std::time::Instant;

use deepod_core::PredictRequest;
use deepod_traj::OdInput;

use crate::layers;
use crate::report::{peak_rss_mb, Outcome};
use crate::stack::{one_thread_answers, City, Reference, SetupTimes, THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{gen, quality, Opts};

/// Jittered departures per dataset OD (4 000 ODs × 5 = 20 000 requests).
const DEPARTURES: usize = 5;
/// ODs per timed pass: one bulk call as `deepod precompute` makes them
/// (`parallel::map_ranges` hands each thread 5 000 requests), and some
/// 25 passes per run — too few for any tail percentile to have ten
/// samples beyond it, so this workload's `lat_p95_ms` is its median.
/// (The p90 of 170 shorter passes moved 18 % between runs of the same
/// code: a slow pass is a host hiccup, not the program.)
const PASS: usize = 10_000;

struct Ready {
    city: City,
    times: SetupTimes,
}

fn setup(tracer: &mut Tracer) -> Ready {
    let root = tracer.open("setup", None);
    let mut times = SetupTimes::default();
    let city = City::build(tracer, root, &mut times);
    let warm: Vec<PredictRequest> = city
        .ds
        .train
        .iter()
        .take(256)
        .map(|o| o.od.into())
        .collect();
    let (_, s) = tracer.time("setup.warmup", root, || {
        city.model
            .estimate_batch(&city.ctx, &city.ds.net, &warm, THREADS)
    });
    times.warmup_s = s;
    tracer.close(root);
    Ready { city, times }
}

/// The 1-thread answer bits of every input, computed on the workload's
/// own context (which also warms every speed-matrix slot the timed
/// passes touch, as a long-running precompute would have).
fn reference_bits(city: &City, inputs: &[PredictRequest]) -> Vec<Option<u32>> {
    one_thread_answers(&city.model, &city.ctx, &city.ds, inputs)
        .into_iter()
        .map(|eta| eta.map(f32::to_bits))
        .collect()
}

/// Timed passes of [`PASS`] requests at [`THREADS`] threads until
/// `seconds` have elapsed; every output is compared with the 1-thread
/// reference, bit for bit. Returns each pass's seconds.
fn passes(
    city: &City,
    inputs: &[PredictRequest],
    want: &[Option<u32>],
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    let pass = PASS.min(inputs.len()).max(1);
    let chunks = inputs
        .chunks_exact(pass)
        .zip(want.chunks_exact(pass))
        .cycle();
    for (reqs, want) in chunks {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (answers, s) = tracer.time("model.estimate_batch", None, || {
            city.model
                .estimate_batch(&city.ctx, &city.ds.net, reqs, THREADS)
        });
        times.push(s);
        let wrong = answers
            .iter()
            .zip(want)
            .filter(|(got, want)| {
                want.is_none() || got.as_ref().ok().map(|r| r.eta_seconds.to_bits()) != **want
            })
            .count();
        out.count(reqs.len(), wrong + reqs.len().saturating_sub(answers.len()));
    }
    times
}

fn requests(city_inputs: &[OdInput]) -> Vec<PredictRequest> {
    city_inputs
        .iter()
        .map(|od| PredictRequest::Raw(*od))
        .collect()
}

/// One set-up, for a `--setup-only` child: its seconds.
pub fn setup_seconds() -> f64 {
    setup(&mut Tracer::new(false)).times.total_s()
}

/// The untraced run.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut out = Outcome::default();
    let mut setup_s = crate::setups_in_children(opts)?;
    let Ready { city, times } = setup(&mut tracer);
    setup_s.push(times.total_s());
    let copies = if opts.smoke { 1 } else { DEPARTURES };
    let inputs = requests(&gen::jittered_copies(&city.ds, opts.seed, copies));
    let want = reference_bits(&city, &inputs);
    let times = passes(&city, &inputs, &want, opts.seconds, &mut tracer, &mut out);
    let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    out.set_setup(&setup_s);
    out.set_op_times(&ms, PASS.min(inputs.len()), "ODs", "passes")?;
    let reference = Reference::new(&city.ds, &city.model);
    out.set("mape_pct", quality::model_mape_pct(&city.ds, &reference));
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    Ok(out)
}

/// The traced run: one set-up with spans, untraced then traced passes,
/// and the inputs replayed through `roadnet`, `features`, `model` and
/// the `tensor` kernels.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let Ready { city, times } = setup(&mut tracer);
    let ods = gen::jittered_copies(&city.ds, opts.seed, DEPARTURES);
    let inputs = requests(&ods);
    let want = reference_bits(&city, &inputs);
    let mut quiet = Tracer::new(false);
    let untraced = passes(
        &city,
        &inputs,
        &want,
        opts.seconds * 0.3,
        &mut quiet,
        &mut out,
    );
    let traced = passes(
        &city,
        &inputs,
        &want,
        opts.seconds * 0.3,
        &mut tracer,
        &mut out,
    );
    let rate = |times: &[f64]| PASS as f64 / median(times).unwrap_or(f64::INFINITY);
    out.set(
        "trace.overhead_pct",
        100.0 * (rate(&untraced) - rate(&traced)) / rate(&untraced),
    );
    let reference = Reference::new(&city.ds, &city.model);
    layers::tensor(&mut out);
    layers::roadnet(&mut out, &city.ds, &ods[..2_048]);
    layers::features(&mut out, &city.ds, &ods[..8_192], false);
    layers::model(&mut out, &reference, &ods);
    times.record(&mut out);
    tracer.report(opts.workload);
    Ok(out)
}
