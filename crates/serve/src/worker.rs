//! The batching worker: one per shard, draining its bounded queue into
//! micro-batches (DESIGN.md §11, §14).
//!
//! The loop is the historical single-worker engine loop, unchanged where
//! it matters for bit-identity: wait for work, coalesce a batch anchored
//! on the *oldest* request's wait time, run it through the backend, reply
//! in order. The fault-tolerance additions wrap around that core:
//!
//! * expired requests are swept out *before* the batch runs and answered
//!   with [`ServeError::DeadlineExceeded`];
//! * the batch is stashed in the shard's `in_flight` slot while it runs,
//!   so a panic mid-batch leaves the supervisor something to recover
//!   (retry or fail with [`ServeError::WorkerCrashed`]) instead of
//!   silently dropping reply slots;
//! * `serve::slow_batch` / `serve::worker_batch` / `serve::drop_reply`
//!   failpoints fire between those steps for the chaos harness.
//!
//! This module never spawns threads — that is [`crate::supervisor`]'s
//! job, and the `no-unsupervised-spawn` lint keeps it that way.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use deepod_baselines::{RouteTtePredictor, TtePredictor};
use deepod_core::obs::registry;
use deepod_core::{FeatureContext, ModelError, PredictRequest, PredictResponse};
use deepod_tensor::failpoint;
use deepod_traj::CityDataset;

use crate::engine::{EngineReply, Pending, Replica, ServeError, Shard, Shared};

/// The batching loop for shard `shard_idx`: wait for work, coalesce a
/// micro-batch (size- or deadline-triggered), sweep expired requests, run
/// the batch, reply, repeat — until the queue is closed *and* drained, so
/// shutdown never drops an accepted request. Returns normally only on
/// clean shutdown; a panic (model bug or injected fault) unwinds into the
/// supervisor's `catch_unwind`.
pub(crate) fn worker_loop(
    shared: &Shared,
    shard_idx: usize,
    backend: &mut Replica,
    ctx: &FeatureContext,
    ds: &CityDataset,
) {
    let Some(shard) = shared.shards.get(shard_idx) else {
        return;
    };
    let config = shared.config;
    loop {
        let mut batch = {
            let mut q = shard.lock_queue();
            // Wait for work; the oldest request anchors the coalescing
            // deadline. The batch closes at max_batch requests, or when
            // the *oldest* request has waited max_wait_ms (its latency
            // bound), or at shutdown (drain immediately).
            let deadline = loop {
                if let Some(first) = q.items.front() {
                    break first.enqueued + Duration::from_millis(config.max_wait_ms);
                }
                if q.closed {
                    return;
                }
                q = shard.work.wait(q).unwrap_or_else(|p| p.into_inner());
            };
            while q.items.len() < config.max_batch && !q.closed {
                let now = Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now) else {
                    break; // deadline already passed
                };
                if remaining.is_zero() {
                    break;
                }
                let (guard, timeout) = shard
                    .work
                    .wait_timeout(q, remaining)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let take = q.items.len().min(config.max_batch);
            let batch: Vec<Pending> = q.items.drain(..take).collect();
            shared.depth.fetch_sub(take, Ordering::Relaxed);
            registry::gauge_set(
                "serve.queue_depth",
                shared.depth.load(Ordering::Relaxed) as f64,
            );
            batch
        };
        // Producers blocked on a full queue can move again.
        shard.space.notify_all();

        // Shed expired requests before admitting the rest into a batch —
        // running a model on an answer nobody will wait for only delays
        // the requests behind it.
        for expired in sweep_expired(&mut batch, Instant::now()) {
            registry::counter_inc("serve.deadline_expired");
            let _ = expired.tx.send(Err(ServeError::DeadlineExceeded));
        }
        if batch.is_empty() {
            continue;
        }
        let env = BatchEnv {
            shard,
            cache: shared.cache.as_deref(),
            ctx,
            ds,
            threads: config.threads,
        };
        process_batch(&env, backend, batch);
    }
}

/// Removes every request whose deadline is at or before `now`, preserving
/// the order of the survivors. Pure — no clocks, no metrics, no channels —
/// so the shed policy is unit-testable without threads.
pub(crate) fn sweep_expired(batch: &mut Vec<Pending>, now: Instant) -> Vec<Pending> {
    let mut expired = Vec::new();
    let mut keep = Vec::with_capacity(batch.len());
    for p in batch.drain(..) {
        match p.deadline {
            Some(d) if d <= now => expired.push(p),
            _ => keep.push(p),
        }
    }
    *batch = keep;
    expired
}

/// Everything immutable a worker hands `process_batch` alongside the
/// batch itself, bundled so the compute path has one environment rather
/// than a parade of loose parameters.
struct BatchEnv<'a> {
    shard: &'a Shard,
    cache: Option<&'a crate::cache::ServeCache>,
    ctx: &'a FeatureContext,
    ds: &'a CityDataset,
    threads: usize,
}

/// Runs one swept batch: stash it as in-flight (crash recovery), hit the
/// chaos failpoints, compute, take the batch back, reply in order.
fn process_batch(env: &BatchEnv<'_>, backend: &mut Replica, batch: Vec<Pending>) {
    registry::observe("serve.batch_size", batch.len() as f64);
    registry::counter_add("serve.requests", batch.len() as u64);
    let reqs: Vec<PredictRequest> = batch.iter().map(|p| p.req.clone()).collect();

    // Stash the batch before anything can panic: if the compute below
    // unwinds, the supervisor takes this slot and either requeues the
    // requests (retry budget left) or fails them with a typed error.
    {
        let mut slot = env
            .shard
            .in_flight
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *slot = Some(batch);
    }

    // Chaos failpoints sit after the stash so an injected panic exercises
    // the same recovery path a real model bug would.
    failpoint::hit("serve::slow_batch");
    failpoint::hit("serve::worker_batch");

    let results = compute_results(backend, env.ctx, env.ds, env.threads, &reqs);

    let batch: Vec<Pending> = {
        let mut slot = env
            .shard
            .in_flight
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        slot.take().unwrap_or_default()
    };
    for (pending, (result, degraded)) in batch.into_iter().zip(results) {
        registry::observe(
            "serve.request_latency_ms",
            pending.enqueued.elapsed().as_secs_f64() * 1e3,
        );
        if degraded {
            registry::counter_inc("serve.degraded");
        }
        // Populate the cache from a clean model answer. Degraded (fallback)
        // answers are deliberately not cached: a cache must only ever
        // replay the model's own bits.
        if let (Some(cache), Some(key), false, Ok(resp)) =
            (env.cache, pending.cache_key, degraded, &result)
        {
            // Bounded by ServeCache's own LRU capacity + TTL eviction.
            // deepod-lint: allow(no-unbounded-cache)
            cache.insert(key, resp.eta_seconds, crate::cache::now_epoch_s());
        }
        if failpoint::should_fire("serve::drop_reply") {
            // Poisoned-reply injection: drop the slot instead of sending,
            // so the chaos suite can prove the caller still gets a typed
            // `WorkerCrashed` from the closed channel — never a hang.
            continue;
        }
        // A producer that dropped its receiver no longer wants the
        // answer; that is not the engine's problem.
        let _ = pending.tx.send(Ok(EngineReply { result, degraded }));
    }
}

/// Computes one `(result, degraded)` per request, in slot order: the
/// model answers the whole batch in a single `estimate_batch` call (the
/// bit-identity path); the route-tte backend answers request by request,
/// every answer degraded.
fn compute_results(
    backend: &mut Replica,
    ctx: &FeatureContext,
    ds: &CityDataset,
    threads: usize,
    reqs: &[PredictRequest],
) -> Vec<(Result<PredictResponse, ModelError>, bool)> {
    match backend {
        Replica::Model(model) => model
            .estimate_batch(ctx, &ds.net, reqs, threads)
            .into_iter()
            .map(|r| (r, false))
            .collect(),
        Replica::RouteTte(predictor) => reqs
            .iter()
            .map(|r| (fallback_answer(predictor, r), true))
            .collect(),
    }
}

/// Answers one request through the route-tte fallback. Encoded requests
/// carry model-specific features the baseline cannot consume, so they get
/// the same per-request error an unmatchable raw request would.
fn fallback_answer(
    predictor: &mut RouteTtePredictor,
    req: &PredictRequest,
) -> Result<PredictResponse, ModelError> {
    match req {
        // Named by type so the call graph audit sees the one `predict`
        // a worker can reach, not every baseline's.
        PredictRequest::Raw(od) => RouteTtePredictor::predict(predictor, od)
            .map(|eta_seconds| PredictResponse { eta_seconds })
            .ok_or(ModelError::UnmatchedEndpoints),
        PredictRequest::Encoded(_) => Err(ModelError::UnmatchedEndpoints),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn pending(deadline: Option<Instant>) -> Pending {
        let (tx, _rx) = mpsc::channel();
        Pending {
            req: PredictRequest::Raw(deepod_traj::OdInput {
                origin: deepod_roadnet::Point::new(0.0, 0.0),
                destination: deepod_roadnet::Point::new(1.0, 1.0),
                depart: 0.0,
                weather: deepod_traffic::WeatherType(0),
            }),
            tx,
            enqueued: Instant::now(),
            deadline,
            attempts: 0,
            cache_key: None,
        }
    }

    #[test]
    fn sweep_keeps_undeadlined_and_future_requests_in_order() {
        let now = Instant::now();
        let later = now + Duration::from_secs(5);
        let mut batch = vec![pending(None), pending(Some(later)), pending(None)];
        let expired = sweep_expired(&mut batch, now);
        assert!(expired.is_empty());
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn sweep_removes_expired_requests_and_preserves_survivor_order() {
        let now = Instant::now();
        let past = now - Duration::from_millis(1);
        let later = now + Duration::from_secs(5);
        let mut batch = vec![
            pending(Some(past)),
            pending(Some(later)),
            pending(Some(past)),
            pending(None),
        ];
        let expired = sweep_expired(&mut batch, now);
        assert_eq!(expired.len(), 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.first().map(|p| p.deadline), Some(Some(later)));
        assert_eq!(batch.get(1).map(|p| p.deadline), Some(None));
    }

    #[test]
    fn sweep_treats_exactly_now_as_expired() {
        let now = Instant::now();
        let mut batch = vec![pending(Some(now))];
        let expired = sweep_expired(&mut batch, now);
        assert_eq!(expired.len(), 1);
        assert!(batch.is_empty());
    }
}
