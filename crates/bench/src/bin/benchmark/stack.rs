//! Common set-up: the city, the model, the serving stack, and the
//! reference answers every output is checked against.

use std::sync::Arc;

use deepod_core::oracle::OdKeyer;
use deepod_core::{DeepOdConfig, DeepOdModel, FeatureContext, PredictRequest};
use deepod_roadnet::CityProfile;
use deepod_serve::net::{decode_line, render_reply};
use deepod_serve::{
    Backend, CacheConfig, EngineConfig, EngineReply, InferenceEngine, NetConfig, NetServer,
    ServeCache, ServeClient, WireResponse,
};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};

use crate::gen::Od;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Simulated orders in the city (before the train/validation/test split).
pub const ORDERS: usize = 4_000;
/// Thread count of every parallel path: this sandbox's `nproc`, pinned
/// so a larger host measures the same program.
pub const THREADS: usize = 2;
/// `serve_hot` cache: entries, shards, and a one-week TTL so wall-clock
/// expiry cannot land inside a run.
pub const CACHE: CacheConfig = CacheConfig {
    capacity: 2_048,
    ttl_seconds: 604_800.0,
    shards: 4,
};
/// Requests the engine queue and the one connection may hold before the
/// server sheds: more than a run ever has waiting. The TCP front end always
/// sheds rather than blocks, and at the `deepod serve` defaults (queue 256,
/// 32 in flight per connection) a host that stalls the server's threads for
/// an eighth of a second while the generator stays on schedule turns into
/// refused requests. Here a stall must show as latency, never as a failed
/// operation, so both caps are out of reach.
pub const BACKLOG: usize = 1 << 16;
/// Cache-key grid cell, as `deepod precompute` uses.
const CELL_METERS: f64 = 500.0;

/// The fixed city: its history does not depend on `--seed`, which draws
/// the traffic offered to it (README, "What the seed drives").
pub fn dataset_config() -> DatasetConfig {
    DatasetConfig::for_profile(CityProfile::SynthChengdu, ORDERS)
}

/// Dataset, feature context and (untrained, Node2Vec-initialised) model.
pub struct City {
    /// The dataset, shared with the engine and the server.
    pub ds: Arc<CityDataset>,
    /// Feature context.
    pub ctx: FeatureContext,
    /// The model.
    pub model: DeepOdModel,
}

/// Seconds spent in each set-up call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `DatasetBuilder::build`.
    pub dataset_build_s: f64,
    /// `FeatureContext::build`.
    pub context_build_s: f64,
    /// `DeepOdModel::new`.
    pub model_new_s: f64,
    /// Cache, engine and listener start.
    pub engine_start_s: f64,
    /// Connect plus the first checked reply.
    pub first_reply_s: f64,
    /// Warm-up requests.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// Reports each call as its `setup.*` per-layer metric.
    pub fn record(&self, out: &mut Outcome) {
        out.set("setup.dataset_build_s", self.dataset_build_s);
        out.set("setup.context_build_s", self.context_build_s);
        out.set("setup.model_new_s", self.model_new_s);
        out.set("setup.engine_start_ms", self.engine_start_s * 1e3);
        out.set("setup.first_reply_ms", self.first_reply_s * 1e3);
    }

    /// Wall time from workload start to ready.
    pub fn total_s(&self) -> f64 {
        self.dataset_build_s
            + self.context_build_s
            + self.model_new_s
            + self.engine_start_s
            + self.first_reply_s
            + self.warmup_s
    }
}

/// Builds the context a second consumer needs (the engine takes its own
/// by value).
pub fn build_context(ds: &CityDataset) -> FeatureContext {
    FeatureContext::build(ds, DeepOdConfig::default().slot_seconds)
        .expect("the default slot size divides a week")
}

impl City {
    /// Builds the city, recording one span per call under `parent`.
    pub fn build(tracer: &mut Tracer, parent: Option<usize>, times: &mut SetupTimes) -> City {
        let (ds, s) = tracer.time("setup.dataset_build", parent, || {
            DatasetBuilder::build(&dataset_config())
        });
        times.dataset_build_s = s;
        let (ctx, s) = tracer.time("setup.context_build", parent, || build_context(&ds));
        times.context_build_s = s;
        let (model, s) = tracer.time("setup.model_new", parent, || {
            DeepOdModel::new(&DeepOdConfig::default(), &ds, &ctx)
                .expect("the default config validates")
        });
        times.model_new_s = s;
        City {
            ds: Arc::new(ds),
            ctx,
            model,
        }
    }
}

/// Engine configuration of both serve workloads: the `deepod serve`
/// defaults (max-batch 64, max-wait 5 ms, one worker) with the batch
/// fan-out pinned and the queue deep enough never to shed.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        queue_capacity: BACKLOG,
        ..EngineConfig::default()
    }
}

/// The cache key scheme of `serve_hot`.
pub fn keyer(ds: &CityDataset, ctx: &FeatureContext) -> OdKeyer {
    OdKeyer::for_network(&ds.net, CELL_METERS, *ctx.slots())
}

/// A running engine + TCP listener.
pub struct ServeStack {
    server: NetServer,
    engine: Arc<InferenceEngine>,
    /// The cache tier, when the workload has one.
    pub cache: Option<Arc<ServeCache>>,
    /// Where the listener is bound.
    pub addr: std::net::SocketAddr,
}

impl ServeStack {
    /// Starts cache (optional), engine and listener. The engine takes
    /// the context and a copy-on-write clone of the model.
    pub fn start(
        ds: &Arc<CityDataset>,
        model: &DeepOdModel,
        ctx: FeatureContext,
        with_cache: bool,
    ) -> ServeStack {
        let cache = with_cache.then(|| {
            Arc::new(
                ServeCache::new(keyer(ds, &ctx), None, CACHE)
                    .expect("a one-week TTL divides a week"),
            )
        });
        let engine = Arc::new(InferenceEngine::start_with_cache(
            Backend::Model(Box::new(model.clone())),
            None,
            cache.clone(),
            ctx,
            Arc::clone(ds),
            engine_config(),
        ));
        // One connection stands for a gateway multiplexing many users.
        let net = NetConfig {
            max_in_flight: BACKLOG,
            ..NetConfig::default()
        };
        let server = NetServer::start(Arc::clone(&engine), Arc::clone(ds), "127.0.0.1:0", net)
            .expect("binding an ephemeral loopback port");
        let addr = server.local_addr();
        ServeStack {
            server,
            engine,
            cache,
            addr,
        }
    }

    /// Stops the listener (draining owed replies), then the engine.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Ok(engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
    }
}

/// Reference answers: every request answered by
/// `estimate_batch(threads = 1)` on a context of its own, then passed
/// through the wire rendering so the expected value is the `f32` a
/// client parses.
pub struct Reference {
    ds: Arc<CityDataset>,
    ctx: FeatureContext,
    model: DeepOdModel,
}

impl Reference {
    /// A reference over `model` (a copy-on-write clone sharing its
    /// weights) with a private context.
    pub fn new(ds: &Arc<CityDataset>, model: &DeepOdModel) -> Reference {
        Reference {
            ds: Arc::clone(ds),
            ctx: build_context(ds),
            model: model.clone(),
        }
    }

    /// The reference's dataset, context and model, for in-process use.
    pub fn parts(&self) -> (&Arc<CityDataset>, &FeatureContext, &DeepOdModel) {
        (&self.ds, &self.ctx, &self.model)
    }

    /// The engine-level request a wire frame decodes to.
    pub fn decode(&self, od: &Od) -> PredictRequest {
        match decode_line(&self.ds, &od.wire(0).to_line()) {
            Some(Ok(decoded)) => decoded.req,
            _ => unreachable!("generated frames are valid"),
        }
    }

    /// Expected reply bits per request (`None`: the reference itself
    /// could not answer, which the generator's inputs never cause).
    pub fn expected(&self, ods: &[Od]) -> Vec<Option<u32>> {
        let reqs: Vec<PredictRequest> = ods.iter().map(|od| self.decode(od)).collect();
        one_thread_answers(&self.model, &self.ctx, &self.ds, &reqs)
            .into_iter()
            .map(|eta| eta.and_then(wire_bits))
            .collect()
    }
}

/// The reference path: `estimate_batch(threads = 1)`, as two halves on
/// two threads so the oracle uses both cores of the sandbox while every
/// answer still comes from the 1-thread code. `None` where the model
/// could not answer.
pub fn one_thread_answers(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    reqs: &[PredictRequest],
) -> Vec<Option<f32>> {
    let run = |part: &[PredictRequest]| {
        model
            .estimate_batch(ctx, &ds.net, part, 1)
            .into_iter()
            .map(|r| r.ok().map(|resp| resp.eta_seconds))
            .collect::<Vec<_>>()
    };
    let (a, b) = reqs.split_at(reqs.len() / 2);
    std::thread::scope(|s| {
        let second = s.spawn(|| run(b));
        let mut answers = run(a);
        answers.extend(second.join().expect("reference pass does not panic"));
        answers
    })
}

/// The bits of `eta` after one trip through the reply rendering and the
/// client's parser.
pub fn wire_bits(eta_seconds: f32) -> Option<u32> {
    let line = render_reply(
        0,
        Ok(EngineReply {
            result: Ok(deepod_core::PredictResponse { eta_seconds }),
            degraded: false,
        }),
    );
    match WireResponse::parse(&line) {
        Ok(WireResponse::Ok { eta_seconds, .. }) => Some(eta_seconds.to_bits()),
        _ => None,
    }
}

/// Connects and exchanges one request, checking the reply against
/// `want`.
pub fn first_reply(stack: &ServeStack, probe: &Od, want: Option<u32>) -> Result<(), String> {
    let mut client = ServeClient::connect(stack.addr).map_err(|e| format!("connect: {e}"))?;
    client
        .send(&probe.wire(0))
        .map_err(|e| format!("send: {e}"))?;
    match client.recv().map_err(|e| format!("recv: {e}"))? {
        WireResponse::Ok {
            id: 0,
            eta_seconds,
            degraded: false,
        } if want == Some(eta_seconds.to_bits()) => Ok(()),
        other => Err(format!("first reply {other:?} is not the reference answer")),
    }
}
