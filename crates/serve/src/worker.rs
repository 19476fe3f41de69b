//! The batching worker: every worker drains the engine's one bounded
//! queue into micro-batches (DESIGN.md §11, §14).
//!
//! The loop is the historical single-worker engine loop, unchanged where
//! it matters for bit-identity: wait for work, coalesce a batch anchored
//! on the *oldest* request's wait time, run it through the backend, reply
//! in order. The fault-tolerance additions wrap around that core:
//!
//! * expired requests are swept out *before* the batch runs and answered
//!   with [`ServeError::DeadlineExceeded`];
//! * the batch is stashed in the supervisor's `in_flight` slot while it
//!   runs, so a panic mid-batch leaves the supervisor something to
//!   recover (retry or fail with [`ServeError::WorkerCrashed`]) instead
//!   of silently dropping reply slots;
//! * `serve::slow_batch` / `serve::worker_batch` / `serve::drop_reply`
//!   failpoints fire between those steps for the chaos harness.
//!
//! This module never spawns threads — that is [`crate::supervisor`]'s
//! job, and the `no-unsupervised-spawn` lint keeps it that way.

use std::time::{Duration, Instant};

use deepod_baselines::RouteTtePredictor;
use deepod_core::obs::registry;
use deepod_core::{EstimateError, PredictRequest, PredictResponse};
use deepod_tensor::failpoint;

use crate::engine::{EngineReply, Pending, Replica, ServeError, Shared};

/// The batching loop: wait for work, coalesce a micro-batch (size- or
/// deadline-triggered), sweep expired requests, run the batch, reply,
/// repeat — until the queue is closed *and* drained, so shutdown never
/// drops an accepted request. Returns normally only on clean shutdown; a
/// panic (model bug or injected fault) unwinds into the supervisor's
/// `catch_unwind`, which then finds the doomed batch in `in_flight`.
pub(crate) fn worker_loop(shared: &Shared, in_flight: &mut Option<Vec<Pending>>) {
    let config = shared.config;
    loop {
        let (mut batch, depth) = {
            let mut q = shared.lock_queue();
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
                q = shared.work.wait(q).unwrap_or_else(|p| p.into_inner());
            };
            while q.items.len() < config.max_batch && !q.closed {
                let now = Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now) else {
                    break; // deadline already passed
                };
                if remaining.is_zero() {
                    break;
                }
                let (guard, timeout) = shared
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
            (batch, q.items.len())
        };
        registry::gauge_set("serve.queue_depth", depth as f64);
        // Producers blocked on a full queue can move again, and what this
        // batch left behind is an idle worker's to take.
        shared.space.notify_all();
        if depth > 0 {
            shared.work.notify_one();
        }

        // Shed expired requests before admitting the rest into a batch —
        // running a model on an answer nobody will wait for only delays
        // the requests behind it.
        for expired in sweep_expired(&mut batch, config.deadline_ms, Instant::now()) {
            registry::counter_inc("serve.deadline_expired");
            let _ = expired.tx.send(Err(ServeError::DeadlineExceeded));
        }
        if batch.is_empty() {
            continue;
        }
        process_batch(shared, in_flight, batch);
    }
}

/// Removes every request that has waited `deadline_ms` or longer by `now`
/// (none when `deadline_ms` is 0, the deadlines-off setting), preserving
/// the order of the survivors. Pure — no clocks, no metrics, no channels —
/// so the shed policy is unit-testable without threads.
pub(crate) fn sweep_expired(
    batch: &mut Vec<Pending>,
    deadline_ms: u64,
    now: Instant,
) -> Vec<Pending> {
    if deadline_ms == 0 {
        return Vec::new();
    }
    let ttl = Duration::from_millis(deadline_ms);
    let (expired, keep) = batch.drain(..).partition(|p| p.enqueued + ttl <= now);
    *batch = keep;
    expired
}

/// Runs one swept batch: stash it in `in_flight` (crash recovery), hit the
/// chaos failpoints, compute, take the batch back, reply in order.
fn process_batch(shared: &Shared, in_flight: &mut Option<Vec<Pending>>, batch: Vec<Pending>) {
    registry::observe("serve.batch_size", batch.len() as f64);
    registry::counter_add("serve.requests", batch.len() as u64);
    let reqs: Vec<PredictRequest> = batch.iter().map(|p| p.req.clone()).collect();

    // Stash the batch before anything can panic: if the compute below
    // unwinds, the supervisor takes this slot and either requeues the
    // requests (retry budget left) or fails them with a typed error.
    *in_flight = Some(batch);

    // Chaos failpoints sit after the stash so an injected panic exercises
    // the same recovery path a real model bug would.
    failpoint::hit("serve::slow_batch");
    failpoint::hit("serve::worker_batch");

    let results = compute_results(shared, &reqs);

    let cache = shared.cache.as_deref();
    for (pending, (result, degraded)) in in_flight
        .take()
        .unwrap_or_default()
        .into_iter()
        .zip(results)
    {
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
            (cache, pending.cache_key, degraded, &result)
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
    shared: &Shared,
    reqs: &[PredictRequest],
) -> Vec<(Result<PredictResponse, EstimateError>, bool)> {
    match &shared.backend {
        Replica::Model(model) => model
            .estimate_batch(&shared.ctx, &shared.ds.net, reqs, shared.config.threads)
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
    predictor: &RouteTtePredictor,
    req: &PredictRequest,
) -> Result<PredictResponse, EstimateError> {
    match req {
        PredictRequest::Raw(od) => predictor
            .route_eta(od)
            .map(|eta_seconds| PredictResponse { eta_seconds })
            .ok_or(EstimateError::UnmatchedEndpoints),
        PredictRequest::Encoded(_) => Err(EstimateError::UnmatchedEndpoints),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn pending(enqueued: Instant) -> Pending {
        let (tx, _rx) = mpsc::channel();
        Pending {
            req: PredictRequest::Raw(deepod_traj::OdInput {
                origin: deepod_roadnet::Point::new(0.0, 0.0),
                destination: deepod_roadnet::Point::new(1.0, 1.0),
                depart: 0.0,
                weather: deepod_traffic::WeatherType(0),
            }),
            tx,
            enqueued,
            attempts: 0,
            cache_key: None,
        }
    }

    #[test]
    fn sweep_keeps_undeadlined_and_future_requests_in_order() {
        let now = Instant::now();
        let old = now - Duration::from_secs(60);
        // Deadlines off: even a minute-old request stays.
        let mut batch = vec![pending(old), pending(now), pending(old)];
        assert!(sweep_expired(&mut batch, 0, now).is_empty());
        assert_eq!(batch.len(), 3);
        // Deadlines on: requests younger than the deadline stay.
        let mut batch = vec![pending(now), pending(now - Duration::from_millis(10))];
        assert!(sweep_expired(&mut batch, 5_000, now).is_empty());
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn sweep_removes_expired_requests_and_preserves_survivor_order() {
        let now = Instant::now();
        let deadline_ms = 5_000;
        let past = now - Duration::from_millis(deadline_ms + 1);
        let fresh = now - Duration::from_millis(1);
        let mut batch = vec![pending(past), pending(fresh), pending(past), pending(now)];
        let expired = sweep_expired(&mut batch, deadline_ms, now);
        assert_eq!(expired.len(), 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.first().map(|p| p.enqueued), Some(fresh));
        assert_eq!(batch.get(1).map(|p| p.enqueued), Some(now));
    }

    #[test]
    fn sweep_treats_exactly_now_as_expired() {
        let now = Instant::now();
        let mut batch = vec![pending(now - Duration::from_millis(100))];
        let expired = sweep_expired(&mut batch, 100, now);
        assert_eq!(expired.len(), 1);
        assert!(batch.is_empty());
    }
}
