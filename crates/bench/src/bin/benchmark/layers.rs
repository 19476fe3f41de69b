//! Per-layer unit costs for the traced run: the workload's own inputs
//! replayed through each layer's public functions in isolation. Every
//! figure is the median of [`REPS`] timed repetitions.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepod_core::{
    DeepOdConfig, DeepOdModel, FeatureContext, PredictRequest, PredictResponse, TrainOptions,
    Trainer, Variant,
};
use deepod_roadnet::{Point, SpatialGrid};
use deepod_serve::net::{decode_line, render_reply};
use deepod_serve::{Backend, EngineReply, InferenceEngine, ServeCache, WireResponse};
use deepod_tensor::{kernels, Activation};
use deepod_traj::{CityDataset, OdInput};

use crate::gen::Od;
use crate::report::Outcome;
use crate::stack::{self, build_context, engine_config, Reference, CACHE, THREADS};
use crate::stats::median;

/// Repetitions behind every unit cost.
pub const REPS: usize = 3;

/// Seconds per operation: `f` performs `ops` operations and is timed
/// [`REPS`] times.
fn per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() / ops.max(1) as f64
        })
        .collect();
    median(&reps).unwrap_or(0.0)
}

fn ramp(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 13) as f32 - 6.0) / 16.0).collect()
}

/// `tensor`: the two kernels under every forward and backward pass.
pub fn tensor(out: &mut Outcome) {
    const ITERS: usize = 400;
    let (a, b) = (ramp(64 * 96), ramp(96 * 64));
    let mut c = vec![0.0f32; 64 * 64];
    let s = per_op(ITERS, || {
        for _ in 0..ITERS {
            c.fill(0.0);
            kernels::matmul(black_box(&a), black_box(&b), &mut c, 96, 64);
            black_box(&c);
        }
    });
    out.set("tensor.matmul_64x96x64_us", s * 1e6);
    let (w, x, bias) = (ramp(512 * 512), ramp(512), ramp(512));
    let mut y = vec![0.0f32; 512];
    let s = per_op(ITERS, || {
        for _ in 0..ITERS {
            kernels::matvec_bias_act(
                black_box(&w),
                black_box(&x),
                &bias,
                Activation::Relu,
                &mut y,
            );
            black_box(&y);
        }
    });
    out.set("tensor.matvec_512_us", s * 1e6);
}

/// `roadnet`: one map-match lookup (a request needs two).
pub fn roadnet(out: &mut Outcome, ds: &CityDataset, inputs: &[OdInput]) {
    let grid = SpatialGrid::build(&ds.net, 250.0);
    let points: Vec<Point> = inputs.iter().map(|od| od.origin).collect();
    let s = per_op(points.len(), || {
        for p in &points {
            black_box(grid.nearest_edge(&ds.net, p, 600.0));
        }
    });
    out.set("roadnet.nearest_edge_us", s * 1e6);
}

/// `features`: OD encoding on a warm and on a first-touched speed-matrix
/// slot, and full order encoding (the training set-up path).
pub fn features(out: &mut Outcome, ds: &CityDataset, inputs: &[OdInput], orders: bool) {
    // One request per distinct 5-minute slot, so every encode on a fresh
    // context is a first touch.
    let mut slots = std::collections::HashSet::new();
    let cold: Vec<&OdInput> = inputs
        .iter()
        .filter(|od| slots.insert((od.depart / 300.0).floor().to_bits()))
        .collect();
    let encode_all = |ctx: &FeatureContext| {
        for od in &cold {
            black_box(ctx.encode_od(&ds.net, od));
        }
    };
    let mut last = None;
    let cold_s: Vec<f64> = (0..REPS)
        .map(|_| {
            let ctx = build_context(ds);
            let t = Instant::now();
            encode_all(&ctx);
            let s = t.elapsed().as_secs_f64() / cold.len().max(1) as f64;
            last = Some(ctx);
            s
        })
        .collect();
    let ctx = last.unwrap_or_else(|| build_context(ds));
    out.set(
        "features.encode_od_cold_us",
        median(&cold_s).unwrap_or(0.0) * 1e6,
    );
    let warm = per_op(cold.len(), || encode_all(&ctx));
    out.set("features.encode_od_us", warm * 1e6);
    if orders {
        let s = per_op(ds.train.len(), || {
            black_box(ctx.encode_orders(&ds.net, &ds.train));
        });
        out.set("features.encode_order_us", s * 1e6);
    }
}

/// `model`: forward cost alone (pre-encoded inputs), its batch slope,
/// the external-features encoder's share, and bulk thread scaling.
pub fn model(out: &mut Outcome, reference: &Reference, inputs: &[OdInput]) {
    let (ds, ctx, model) = reference.parts();
    let encoded: Vec<PredictRequest> = inputs
        .iter()
        .take(1024)
        .filter_map(|od| ctx.encode_od(&ds.net, od))
        .map(PredictRequest::Encoded)
        .collect();
    let forward = |m: &DeepOdModel, chunk: usize, n: usize| {
        per_op(n, || {
            for reqs in encoded[..n.min(encoded.len())].chunks(chunk) {
                black_box(m.estimate_batch(ctx, &ds.net, reqs, 1));
            }
        })
    };
    let b1 = forward(model, 1, 256);
    let b64 = forward(model, 64, encoded.len());
    out.set("model.forward_b1_us", b1 * 1e6);
    out.set("model.forward_b64_us_per_req", b64 * 1e6);
    out.set("model.batch_slope", b64 / b1);
    let noext_cfg = DeepOdConfig {
        variant: Variant::NoExternal,
        ..DeepOdConfig::default()
    };
    let noext = DeepOdModel::new(&noext_cfg, ds, ctx).expect("the N-other config validates");
    let ne = forward(&noext, 64, encoded.len());
    out.set("model.forward_noext_us", ne * 1e6);
    out.set("model.external_share", 1.0 - ne / b64);
    let raw: Vec<PredictRequest> = inputs
        .iter()
        .take(1536)
        .map(|od| PredictRequest::Raw(*od))
        .collect();
    let bulk = |threads: usize| {
        1.0 / per_op(raw.len(), || {
            black_box(model.estimate_batch(ctx, &ds.net, &raw, threads));
        })
    };
    let (t1, t2) = (bulk(1), bulk(THREADS));
    out.set("model.batch_t1_ods_per_s", t1);
    out.set("model.batch_t2_ods_per_s", t2);
    out.set("model.thread_scaling", t2 / t1);
}

fn now_epoch_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// `cache` (with `oracle::OdKeyer`): keying, a hit, a miss, and an insert
/// that evicts, on a private cache configured like the workload's.
/// `inputs` must carry pairwise-distinct keys: the first 1 024 play the
/// resident set, the rest are never-seen.
pub fn cache(out: &mut Outcome, ds: &CityDataset, ctx: &FeatureContext, inputs: &[OdInput]) {
    let cache = ServeCache::new(stack::keyer(ds, ctx), None, CACHE).expect("valid TTL");
    let s = per_op(inputs.len(), || {
        for od in inputs {
            black_box(cache.key_of(od));
        }
    });
    out.set("cache.key_of_ns", s * 1e9);
    let keys: Vec<_> = inputs.iter().filter_map(|od| cache.key_of(od)).collect();
    let now = now_epoch_s();
    let (resident, unseen) = keys.split_at(keys.len().min(1024));
    for k in resident {
        cache.insert(*k, 1.0, now);
    }
    let s = per_op(resident.len(), || {
        for k in resident {
            black_box(cache.lookup(*k, now));
        }
    });
    out.set("cache.lookup_hit_ns", s * 1e9);
    // Misses first (nothing of `unseen` is resident yet), then fill to
    // capacity so that every further insert evicts.
    let s = per_op(unseen.len(), || {
        for k in unseen {
            black_box(cache.lookup(*k, now));
        }
    });
    out.set("cache.lookup_miss_ns", s * 1e9);
    let (fill, fresh) = unseen.split_at(unseen.len().min(2 * CACHE.capacity));
    for k in fill {
        cache.insert(*k, 1.0, now);
    }
    let before = cache.stats().evictions;
    let per_rep = fresh.len() / REPS;
    let mut chunks = fresh.chunks(per_rep.max(1));
    let s = per_op(per_rep, || {
        for k in chunks.next().unwrap_or(&[]) {
            cache.insert(*k, 1.0, now);
        }
    });
    if cache.stats().evictions - before >= (per_rep * REPS) as u64 {
        out.set("cache.insert_evict_ns", s * 1e9);
    }
}

/// `protocol`: server-side decode and render, client-side parse.
pub fn protocol(out: &mut Outcome, ds: &CityDataset, ods: &[Od]) {
    let lines: Vec<String> = ods
        .iter()
        .enumerate()
        .map(|(i, od)| od.wire(i as u64).to_line())
        .collect();
    let s = per_op(lines.len(), || {
        for line in &lines {
            black_box(decode_line(ds, line).is_some());
        }
    });
    out.set("protocol.decode_line_ns", s * 1e9);
    let reply = |i: usize| {
        Ok(EngineReply {
            result: Ok(PredictResponse {
                eta_seconds: 300.0 + (i % 977) as f32 * 0.7,
            }),
            degraded: false,
        })
    };
    let s = per_op(lines.len(), || {
        for i in 0..lines.len() {
            black_box(render_reply(i as u64, reply(i)));
        }
    });
    out.set("protocol.render_reply_ns", s * 1e9);
    let replies: Vec<String> = (0..lines.len())
        .map(|i| render_reply(i as u64, reply(i)))
        .collect();
    let s = per_op(replies.len(), || {
        for line in &replies {
            black_box(WireResponse::parse(line).is_ok());
        }
    });
    out.set("protocol.client_parse_ns", s * 1e9);
}

/// `engine`, in process (no TCP): the round trip of a lone request
/// (coalescing wait + forward) and the saturation rate with 64
/// outstanding.
pub fn engine(out: &mut Outcome, reference: &Reference, ods: &[Od]) {
    let (ds, _, model) = reference.parts();
    let engine = InferenceEngine::start_with_cache(
        Backend::Model(Box::new(model.clone())),
        None,
        None,
        build_context(ds),
        Arc::clone(ds),
        engine_config(),
    );
    let reqs: Vec<PredictRequest> = ods.iter().map(|od| reference.decode(od)).collect();
    let mut next = reqs.iter().cycle();
    let mut submit = || {
        engine
            .submit(next.next().expect("cycle never ends").clone())
            .expect("a running engine accepts blocking submits")
    };
    let rtts: Vec<f64> = (0..120)
        .map(|_| {
            let t = Instant::now();
            let ok = submit().recv().is_ok_and(|r| r.result.is_ok());
            black_box(ok);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("engine.rtt_w1_ms", median(&rtts).unwrap_or(0.0));
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut window: VecDeque<_> = (0..64).map(|_| submit()).collect();
            let start = Instant::now();
            let deadline = start + Duration::from_millis(400);
            let mut done = 0usize;
            while let Some(handle) = window.pop_front() {
                done += usize::from(handle.recv().is_ok_and(|r| r.result.is_ok()));
                if Instant::now() < deadline {
                    window.push_back(submit());
                }
            }
            done as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    out.set("engine.sat_rps_w64", median(&rates).unwrap_or(0.0));
    engine.shutdown();
}

/// `train`: one sample's tape + backward pass, one validation sweep, and
/// one epoch at one and at [`THREADS`] threads.
pub fn train(out: &mut Outcome, ds: &CityDataset) {
    let epoch = |threads: usize| {
        let cfg = DeepOdConfig {
            epochs: 1,
            ..DeepOdConfig::default()
        };
        let opts = TrainOptions {
            threads,
            eval_every: 0,
            ..TrainOptions::default()
        };
        let mut trainer = Trainer::new(ds, cfg, opts).expect("the default config trains");
        let t = Instant::now();
        black_box(trainer.train());
        (
            trainer.train_samples().len() as f64 / t.elapsed().as_secs_f64(),
            trainer,
        )
    };
    let (t1, mut trainer) = epoch(1);
    let samples: Vec<_> = trainer.train_samples().iter().take(96).cloned().collect();
    let s = per_op(samples.len(), || {
        for sample in &samples {
            black_box(trainer.model().sample_gradients(sample));
        }
    });
    out.set("train.sample_gradients_us", s * 1e6);
    let s = per_op(1, || {
        black_box(trainer.validation_mae());
    });
    out.set("train.validation_mae_ms", s * 1e3);
    let (t2, _) = epoch(THREADS);
    out.set("train.t1_samples_per_s", t1);
    out.set("train.t2_samples_per_s", t2);
    out.set("train.thread_scaling", t2 / t1);
}
