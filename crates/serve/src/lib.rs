//! deepod-serve — long-lived batched inference for DeepOD (DESIGN.md §11,
//! §14, §15).
//!
//! The training-side crates answer one query per call; serving wants the
//! opposite shape: load the model **once**, then answer a stream of
//! queries with bounded latency and bounded memory — and keep answering
//! through worker panics, slow batches, and overload. This crate provides:
//!
//! * [`InferenceEngine`] — one bounded MPSC queue drained by
//!   [`EngineConfig::workers`] supervised worker threads: an idle worker
//!   takes the oldest queued request, coalesces a micro-batch behind it
//!   (closing the batch at [`EngineConfig::max_batch`] requests or after
//!   the oldest request has waited [`EngineConfig::max_wait_ms`]) and
//!   runs it through [`deepod_core::InferenceModel::estimate_batch`] on
//!   the one read-only backend every worker shares.
//! * Supervision — a per-worker supervisor catches worker panics, restarts
//!   the worker (`serve.worker_restarts`), and either requeues or fails
//!   the in-flight batch it keeps in its own stash with a typed
//!   [`ServeError::WorkerCrashed`]; a [`ReplyHandle`] can therefore never
//!   block forever on a dead worker.
//! * Deadlines and retries — [`EngineConfig::deadline_ms`] sheds requests
//!   that expire before batch admission
//!   ([`ServeError::DeadlineExceeded`]); [`EngineConfig::retry_budget`]
//!   bounds crash and queue-full retries on a deterministic
//!   `[1, 4, 16, 64]` ms backoff schedule.
//! * Backpressure and one overload decision — [`InferenceEngine::submit`]
//!   blocks producers while the queue is full;
//!   [`InferenceEngine::try_submit`] rejects with
//!   [`ServeError::QueueFull`] once the queue stays full through the
//!   retry budget. A full queue is the engine's only queue-depth reject.
//! * Graceful degradation — [`Backend::RouteTte`] serves baseline answers
//!   (marked `degraded`) when the model file is unusable, instead of
//!   taking the process down.
//! * [`cache`] — the serving cache (DESIGN.md §15): a bounded in-process
//!   LRU ([`ServeCache`]) keyed on the exact request ([`CacheKey`]),
//!   consulted **before queue admission** — a hit replies immediately
//!   with the answer the miss path would have produced and never
//!   consumes worker capacity; entries expire on wall-clock time-slot
//!   boundaries, and degraded answers are never cached.
//! * [`protocol`] — the versioned newline-delimited JSON wire format
//!   (`"v":2`) the `deepod serve` subcommand speaks, identically over
//!   stdin/stdout and TCP; pre-epoch departures are rejected per request
//!   at this layer ([`protocol::validate_depart`]) instead of aliasing
//!   slot 0, and every error is one structured frame carrying a typed
//!   [`protocol::ErrorKind`].
//! * [`net`] — the TCP front end (`deepod serve --listen`): std-only
//!   listener, one reader/writer pair per connection, per-client
//!   admission control (per-connection in-flight caps plus a
//!   max-connections gate) so a greedy client sheds itself, not everyone.
//! * [`client`] — the blocking [`ServeClient`], the single client-side
//!   implementation of the wire protocol, shared by the repo benchmark
//!   and the integration tests.
//!
//! Everything is instrumented through `deepod_core::obs`: queue depth
//! gauge, batch-size and request-latency histograms, request / degraded /
//! rejected / restart / deadline / retry counters — all registered
//! eagerly so metric snapshots carry the keys even for an idle engine.

pub mod cache;
pub mod client;
mod engine;
pub mod net;
pub mod protocol;
mod supervisor;
mod worker;

pub use cache::{CacheConfig, CacheKey, CacheStats, ServeCache};
pub use client::ServeClient;
pub use engine::{Backend, EngineConfig, EngineReply, InferenceEngine, ReplyHandle, ServeError};
pub use net::{NetConfig, NetServer};
pub use protocol::{ErrorKind, WireError, WireRequest, WireResponse};

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_core::oracle::OdKeyer;
    use deepod_core::{
        DeepOdConfig, DeepOdModel, EmbeddingInit, FeatureContext, InferenceModel, PredictRequest,
    };
    use deepod_roadnet::CityProfile;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig, OdInput};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn tiny_setup() -> (Arc<CityDataset>, FeatureContext, DeepOdModel) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
        let cfg = DeepOdConfig {
            init: EmbeddingInit::Random,
            ds: 6,
            dt_dim: 6,
            d1m: 8,
            d2m: 6,
            d3m: 8,
            d4m: 6,
            d5m: 8,
            d6m: 6,
            d7m: 8,
            d9m: 8,
            dh: 8,
            dtraf: 4,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        (Arc::new(ds), ctx, model)
    }

    fn od_of(ds: &CityDataset, i: usize) -> OdInput {
        ds.train[i % ds.train.len()].od
    }

    #[test]
    fn engine_answers_batched_requests_bit_identically_to_direct_calls() {
        let (ds, ctx, model) = tiny_setup();
        let reqs: Vec<PredictRequest> = (0..10)
            .map(|i| PredictRequest::Raw(od_of(&ds, i)))
            .collect();
        let direct = model.estimate_batch(&ctx, &ds.net, &reqs, 1);

        // Both model arms — the one `deepod serve` uses and the one the
        // engine lowers itself — must answer with the direct call's bits.
        let inference = Arc::new(InferenceModel::from_model(&model));
        let ctx2 = FeatureContext::build(&ds, model.config.slot_seconds).expect("valid slot size");
        for (backend, ctx) in [
            (Backend::Model(Box::new(model)), ctx),
            (Backend::Inference(inference), ctx2),
        ] {
            let engine = InferenceEngine::start(
                backend,
                ctx,
                Arc::clone(&ds),
                EngineConfig {
                    max_batch: 4,
                    max_wait_ms: 1,
                    ..EngineConfig::default()
                },
            );
            let rxs: Vec<_> = reqs
                .iter()
                .map(|r| engine.submit(r.clone()).expect("queue accepts"))
                .collect();
            for (rx, expect) in rxs.into_iter().zip(&direct) {
                let reply = rx.recv().expect("engine answers before shutdown");
                assert!(!reply.degraded);
                let got = reply.result.expect("encoded od resolves");
                let want = expect.as_ref().expect("direct call resolves");
                assert_eq!(got.eta_seconds.to_bits(), want.eta_seconds.to_bits());
            }
            engine.shutdown();
        }
    }

    #[test]
    fn multi_worker_engine_answers_every_request() {
        let (ds, ctx, model) = tiny_setup();
        let reqs: Vec<PredictRequest> = (0..16)
            .map(|i| PredictRequest::Raw(od_of(&ds, i)))
            .collect();
        let direct = model.estimate_batch(&ctx, &ds.net, &reqs, 1);

        let engine = InferenceEngine::start(
            Backend::Model(Box::new(model)),
            ctx,
            Arc::clone(&ds),
            EngineConfig {
                max_batch: 4,
                max_wait_ms: 1,
                workers: 3,
                ..EngineConfig::default()
            },
        );
        let rxs: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue accepts"))
            .collect();
        // Every worker reads the one shared model, so whichever worker
        // takes a request answers it bit-identically to the direct call.
        for (rx, expect) in rxs.into_iter().zip(direct) {
            let reply = rx.recv().expect("engine answers before shutdown");
            assert!(!reply.degraded);
            let got = reply.result.expect("encoded od resolves");
            let want = expect.expect("direct call resolves");
            assert_eq!(got.eta_seconds.to_bits(), want.eta_seconds.to_bits());
        }
        engine.shutdown();
    }

    #[test]
    fn try_submit_rejects_when_full_and_submit_blocks_until_drained() {
        let (ds, ctx, model) = tiny_setup();
        let engine = InferenceEngine::start(
            Backend::Model(Box::new(model)),
            ctx,
            Arc::clone(&ds),
            EngineConfig {
                max_batch: 1,
                max_wait_ms: 0,
                queue_capacity: 1,
                threads: 1,
                ..EngineConfig::default()
            },
        );
        // Flood try_submit: with capacity 1 at least one rejection must
        // surface (the worker can drain between calls, so we only bound
        // the outcome, not pin an exact count). A full queue is the only
        // queue-depth rejection.
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for i in 0..64 {
            match engine.try_submit(PredictRequest::Raw(od_of(&ds, i))) {
                Ok(rx) => accepted.push(rx),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(other) => unreachable!("engine is not shutting down: {other}"),
            }
        }
        assert_eq!(accepted.len() + rejected, 64, "every request got a verdict");
        // Blocking submit succeeds even under load — it waits for space.
        let rx = engine
            .submit(PredictRequest::Raw(od_of(&ds, 0)))
            .expect("blocking submit waits instead of failing");
        for rx in accepted {
            rx.recv()
                .expect("accepted requests are answered")
                .result
                .expect("resolves");
        }
        rx.recv()
            .expect("blocked submit answered too")
            .result
            .expect("resolves");
        engine.shutdown();
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_clamped() {
        use crate::engine::backoff_ms;
        assert_eq!(backoff_ms(0), 1);
        assert_eq!(backoff_ms(1), 4);
        assert_eq!(backoff_ms(2), 16);
        assert_eq!(backoff_ms(3), 64);
        assert_eq!(backoff_ms(4), 64, "past the table reuses the last entry");
        assert_eq!(backoff_ms(u32::MAX), 64);
    }

    #[test]
    fn lru_cache_answers_repeat_requests_bit_identically() {
        let (ds, ctx, model) = tiny_setup();
        let od = od_of(&ds, 0);
        let direct = model
            .estimate_batch(&ctx, &ds.net, &[PredictRequest::Raw(od)], 1)
            .pop()
            .expect("one answer")
            .expect("train od resolves");
        let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
        let cache = Arc::new(
            ServeCache::new(
                keyer,
                None,
                CacheConfig {
                    capacity: 16,
                    ttl_seconds: 300.0,
                    shards: 2,
                },
            )
            .expect("valid ttl"),
        );
        let engine = InferenceEngine::start_with_cache(
            Backend::Model(Box::new(model)),
            None,
            Some(Arc::clone(&cache)),
            ctx,
            Arc::clone(&ds),
            EngineConfig {
                max_batch: 1,
                max_wait_ms: 1,
                ..EngineConfig::default()
            },
        );
        // First pass: a miss that the worker's answer populates.
        let first = engine
            .submit(PredictRequest::Raw(od))
            .expect("queue accepts")
            .recv()
            .expect("answered");
        assert!(!first.degraded);
        let first_eta = first.result.expect("resolves").eta_seconds;
        assert_eq!(first_eta.to_bits(), direct.eta_seconds.to_bits());
        assert_eq!(cache.stats().misses, 1);
        // Second pass: served from cache, still bit-identical.
        let second = engine
            .submit(PredictRequest::Raw(od))
            .expect("hit bypasses the queue")
            .recv()
            .expect("answered");
        assert!(!second.degraded);
        assert_eq!(
            second.result.expect("resolves").eta_seconds.to_bits(),
            first_eta.to_bits()
        );
        assert_eq!(cache.stats().hits, 1);
        engine.shutdown();
    }

    /// Training ODs followed by their cell-mates — distinct requests that
    /// share a 500 m origin cell, destination cell and weekly slot, which
    /// a cell-grid cache key would answer with whichever came first — and
    /// the cacheless engine a cached one is compared against.
    struct Equivalence {
        ds: Arc<CityDataset>,
        model: Arc<InferenceModel>,
        slot_seconds: f64,
        pool: Vec<OdInput>,
        plain: InferenceEngine,
    }

    /// One request at a time, each answered before the next is sent, so a
    /// repeat finds its original's answer already cached.
    fn one_at_a_time() -> EngineConfig {
        EngineConfig {
            max_batch: 1,
            max_wait_ms: 0,
            threads: 1,
            ..EngineConfig::default()
        }
    }

    fn equivalence() -> &'static Equivalence {
        static FIXTURE: OnceLock<Equivalence> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (ds, ctx, model) = tiny_setup();
            let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
            let bases: Vec<OdInput> = (0..6).map(|i| od_of(&ds, i)).collect();
            let mut pool = bases.clone();
            for base in &bases {
                for (dx, dy, wait) in [(3.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.0, -5.0, 7.0)] {
                    let mut mate = *base;
                    mate.origin.x += dx;
                    mate.destination.y += dy;
                    mate.depart += wait;
                    mate.weather = ds.traffic.weather().at(mate.depart);
                    if keyer.key_of(&mate) == keyer.key_of(base) {
                        pool.push(mate);
                    }
                }
            }
            assert!(pool.len() >= bases.len() + 6, "the pool needs cell-mates");
            let slot_seconds = model.config.slot_seconds;
            let model = Arc::new(InferenceModel::from_model(&model));
            let plain = InferenceEngine::start(
                Backend::Inference(Arc::clone(&model)),
                ctx,
                Arc::clone(&ds),
                one_at_a_time(),
            );
            Equivalence {
                ds,
                model,
                slot_seconds,
                pool,
                plain,
            }
        })
    }

    /// The engine's answer to one raw request, as bits (`None` if the
    /// model could not answer it).
    fn answer(engine: &InferenceEngine, od: OdInput) -> Option<u32> {
        let reply = engine
            .submit(PredictRequest::Raw(od))
            .expect("queue accepts")
            .recv()
            .expect("answered");
        assert!(!reply.degraded);
        reply.result.ok().map(|r| r.eta_seconds.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any sequence of raw requests, cell-mates included, gets
        /// `to_bits`-equal replies from an engine with an LRU and from the
        /// cacheless engine.
        #[test]
        fn cached_replies_equal_cacheless_replies(
            capacity in 1usize..8,
            picks in proptest::collection::vec(any::<usize>(), 1..40),
        ) {
            let f = equivalence();
            let ctx = FeatureContext::build(&f.ds, f.slot_seconds).expect("valid slot size");
            let keyer = OdKeyer::for_network(&f.ds.net, 500.0, *ctx.slots());
            let cache = Arc::new(
                ServeCache::new(
                    keyer,
                    None,
                    CacheConfig {
                        capacity,
                        ttl_seconds: 604_800.0,
                        shards: 1,
                    },
                )
                .expect("a week divides a week"),
            );
            let cached = InferenceEngine::start_with_cache(
                Backend::Inference(Arc::clone(&f.model)),
                None,
                Some(Arc::clone(&cache)),
                ctx,
                Arc::clone(&f.ds),
                one_at_a_time(),
            );
            for pick in &picks {
                let od = f.pool[pick % f.pool.len()];
                prop_assert_eq!(answer(&cached, od), answer(&f.plain, od), "request {:?}", od);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, picks.len() as u64);
            cached.shutdown();
        }
    }

    #[test]
    fn fallback_backend_marks_every_reply_degraded() {
        use deepod_baselines::{RouteTtePredictor, TtePredictor};
        let (ds, ctx, _model) = tiny_setup();
        let mut fallback = RouteTtePredictor::new();
        fallback.fit(&ds);
        let engine = InferenceEngine::start(
            Backend::RouteTte(Box::new(fallback)),
            ctx,
            Arc::clone(&ds),
            EngineConfig::default(),
        );
        let rx = engine
            .submit(PredictRequest::Raw(od_of(&ds, 1)))
            .expect("queue accepts");
        let reply = rx.recv().expect("answered");
        assert!(reply.degraded, "fallback answers are flagged");
        assert!(reply.result.is_ok(), "train od resolves on the baseline");
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work_then_refuses_new_work() {
        let (ds, ctx, model) = tiny_setup();
        let engine = InferenceEngine::start(
            Backend::Model(Box::new(model)),
            ctx,
            Arc::clone(&ds),
            EngineConfig {
                max_batch: 64,
                max_wait_ms: 50,
                ..EngineConfig::default()
            },
        );
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                engine
                    .submit(PredictRequest::Raw(od_of(&ds, i)))
                    .expect("queue accepts")
            })
            .collect();
        engine.shutdown();
        for rx in rxs {
            let reply = rx.recv().expect("accepted requests answered before join");
            reply.result.expect("resolves");
        }
    }

    #[test]
    fn expired_requests_are_shed_with_a_typed_error() {
        let (ds, ctx, model) = tiny_setup();
        let engine = InferenceEngine::start(
            Backend::Model(Box::new(model)),
            ctx,
            Arc::clone(&ds),
            EngineConfig {
                max_batch: 64,
                // The batch only closes after 200ms, but every request
                // expires after 1ms — all of them must be swept, none
                // may reach the model.
                max_wait_ms: 200,
                deadline_ms: 1,
                ..EngineConfig::default()
            },
        );
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                engine
                    .submit(PredictRequest::Raw(od_of(&ds, i)))
                    .expect("queue accepts")
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        for rx in rxs {
            let got = rx.recv();
            assert!(
                matches!(got, Err(ServeError::DeadlineExceeded)),
                "expected a deadline shed, got {got:?}"
            );
        }
        engine.shutdown();
    }
}
