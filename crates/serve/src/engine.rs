//! The batched inference engine: one bounded queue, supervised
//! micro-batch workers, and admission control (DESIGN.md §11, §14).
//!
//! One [`InferenceEngine`] loads a model once and answers many
//! [`PredictRequest`]s. Producers enqueue requests with [`submit`]
//! (blocking flow control) or [`try_submit`] (a full queue rejects with
//! [`ServeError::QueueFull`] after a bounded retry — the engine's one
//! queue-depth overload decision). [`EngineConfig::workers`] supervised
//! worker threads (see [`crate::supervisor`]) drain the one queue: an
//! idle worker takes the oldest queued request and coalesces a
//! micro-batch behind it — closing the batch at
//! [`EngineConfig::max_batch`] requests or when the oldest request has
//! waited [`EngineConfig::max_wait_ms`] — and runs it through
//! [`InferenceModel::estimate_batch`]. Each reply travels back on a
//! per-request channel wrapped in a [`ReplyHandle`], which converts a dead
//! reply slot into a typed [`ServeError::WorkerCrashed`] instead of ever
//! blocking a caller forever.
//!
//! [`submit`]: InferenceEngine::submit
//! [`try_submit`]: InferenceEngine::try_submit

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use deepod_core::obs::registry;
use deepod_core::{
    DeepOdModel, EstimateError, FeatureContext, InferenceModel, PredictRequest, PredictResponse,
};
use deepod_traj::CityDataset;

use crate::cache::{self, CacheKey, ServeCache};
use crate::supervisor;

/// Typed failures of the queueing layer — distinct from [`EstimateError`],
/// which describes a *processed* request that could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue stayed at capacity through the retry budget; the
    /// caller should shed load or retry later. Returned by
    /// [`InferenceEngine::try_submit`] only — [`InferenceEngine::submit`]
    /// blocks instead.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// The worker processing the request panicked and its retry budget
    /// (if any) is exhausted; the request was not answered.
    WorkerCrashed,
    /// The request's deadline expired before a worker admitted it into a
    /// batch; it was shed unprocessed.
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::WorkerCrashed => {
                write!(f, "worker crashed while the request was in flight")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request was processed")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Deterministic backoff schedule shared by queue-full retries and worker
/// restarts (the same shape as `io_guard`'s write retries: short, fixed,
/// reproducible — never randomized, so chaos runs replay identically).
const RETRY_BACKOFF_MS: [u64; 4] = [1, 4, 16, 64];

/// Backoff delay before retry attempt `attempt` (0-based); attempts past
/// the table reuse its last entry.
pub(crate) fn backoff_ms(attempt: u32) -> u64 {
    let idx = (attempt as usize).min(RETRY_BACKOFF_MS.len() - 1);
    RETRY_BACKOFF_MS.get(idx).copied().unwrap_or(64)
}

/// Tunables for one engine instance.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Largest micro-batch handed to one `estimate_batch` call.
    pub max_batch: usize,
    /// Longest the oldest queued request waits for companions before its
    /// batch closes anyway (the latency bound of coalescing).
    pub max_wait_ms: u64,
    /// Capacity of the one bounded queue; beyond it
    /// [`InferenceEngine::try_submit`] rejects and
    /// [`InferenceEngine::submit`] blocks.
    pub queue_capacity: usize,
    /// Worker threads per batch (`0` = process-wide configured default).
    pub threads: usize,
    /// Number of supervised workers draining the queue (min 1). Any idle
    /// worker takes the oldest queued request; answers are the same bits
    /// for every worker count.
    pub workers: usize,
    /// Per-request deadline in milliseconds (`0` = none): a request that
    /// waits longer than this in the queue is shed with
    /// [`ServeError::DeadlineExceeded`] instead of entering a batch.
    pub deadline_ms: u64,
    /// How many times a request may be retried after a transient failure
    /// (worker crash mid-batch, full queue in `try_submit`) before the
    /// error surfaces to the caller (`0` = fail fast).
    pub retry_budget: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 64,
            max_wait_ms: 5,
            queue_capacity: 256,
            threads: 0,
            workers: 1,
            deadline_ms: 0,
            retry_budget: 0,
        }
    }
}

/// What answers requests: a loaded DeepOD model. A model file that does
/// not load never reaches the engine — `deepod serve` exits with the
/// typed load error instead.
pub enum Backend {
    /// A loaded DeepOD model, lowered to an `InferenceModel` at engine
    /// start.
    Model(Box<DeepOdModel>),
    /// An already-lowered inference model (`deepod serve` passes
    /// `InferenceModel::from_model` of the loaded model).
    Inference(Arc<InferenceModel>),
}

impl Backend {
    /// What the workers run: both variants lower to the one immutable
    /// inference type, which every worker reads through [`Shared`]; a
    /// worker panic leaves nothing to rebuild.
    fn lower(self) -> Arc<InferenceModel> {
        match self {
            Backend::Model(m) => Arc::new(InferenceModel::from_model(&m)),
            Backend::Inference(m) => m,
        }
    }
}

/// One answer from the engine.
#[derive(Clone, Debug)]
pub struct EngineReply {
    /// The prediction, or why this request could not be answered.
    pub result: Result<PredictResponse, EstimateError>,
    /// Always `false`: the engine answers from the model only. Kept, with
    /// the wire's `"degraded":false`, for one protocol version.
    pub degraded: bool,
}

/// The receiving end of one request's reply slot. Unlike a bare channel
/// receiver, a handle can never block forever: a reply slot dropped by a
/// dying worker surfaces as [`ServeError::WorkerCrashed`].
pub struct ReplyHandle {
    rx: mpsc::Receiver<Result<EngineReply, ServeError>>,
}

impl ReplyHandle {
    /// Waits for the reply. A closed slot (the worker died without
    /// answering and supervision could not recover the request) maps to
    /// [`ServeError::WorkerCrashed`] — the lost-reply hazard of the
    /// single-worker engine is structurally gone.
    pub fn recv(&self) -> Result<EngineReply, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(mpsc::RecvError) => Err(ServeError::WorkerCrashed),
        }
    }
}

/// Result of the pre-admission cache consult.
enum CacheOutcome {
    /// The cache answered; the handle is already resolved.
    Hit(ReplyHandle),
    /// No cached answer; the key (if the request was keyable) rides along
    /// so the worker can populate the cache.
    Miss(Option<CacheKey>),
}

pub(crate) struct Pending {
    pub(crate) req: PredictRequest,
    pub(crate) tx: mpsc::Sender<Result<EngineReply, ServeError>>,
    /// When the request entered the queue: it anchors the coalescing wait
    /// and, with deadlines on, the shed point `enqueued + deadline_ms`.
    pub(crate) enqueued: Instant,
    /// Crash-retry count consumed so far (bounded by `retry_budget`).
    pub(crate) attempts: u32,
    /// The cache key this request missed on at admission; the answer
    /// populates the cache under it.
    pub(crate) cache_key: Option<CacheKey>,
}

pub(crate) struct QueueState {
    pub(crate) items: VecDeque<Pending>,
    pub(crate) closed: bool,
}

/// State shared by producers, workers, and the supervisors: the one
/// bounded queue with its condvars, and everything read-only a worker
/// answers from.
pub(crate) struct Shared {
    queue: Mutex<QueueState>,
    /// Signaled when work arrives or the queue closes (workers wait here).
    pub(crate) work: Condvar,
    /// Signaled when a worker drains items (blocked producers wait here).
    pub(crate) space: Condvar,
    pub(crate) config: EngineConfig,
    /// The serving cache tier; consulted before admission, populated by
    /// workers. `None` keeps every path bit-identical to the cacheless
    /// engine.
    pub(crate) cache: Option<Arc<ServeCache>>,
    pub(crate) model: Arc<InferenceModel>,
    pub(crate) ctx: FeatureContext,
    pub(crate) ds: Arc<CityDataset>,
}

impl Shared {
    pub(crate) fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        // A poisoned queue lock means a producer or worker panicked
        // mid-push; the VecDeque itself stays structurally valid, so
        // keep serving.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A long-lived inference engine: [`EngineConfig::workers`] supervised
/// worker threads coalescing one bounded queue into micro-batches.
/// Dropping the engine (or calling [`InferenceEngine::shutdown`]) closes
/// the queue, drains what is already enqueued, and joins every worker.
pub struct InferenceEngine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl InferenceEngine {
    /// Starts the cacheless engine: registers its metric keys (so every
    /// snapshot carries them, even at zero) and spawns the supervised
    /// workers, which all read the one lowered model.
    pub fn start(
        backend: Backend,
        ctx: FeatureContext,
        ds: Arc<CityDataset>,
        config: EngineConfig,
    ) -> InferenceEngine {
        InferenceEngine::start_with_cache(backend, None, None, ctx, ds, config)
    }

    /// [`start`](InferenceEngine::start) plus a serving cache tier
    /// (DESIGN.md §15): raw requests are looked up in the cache *before*
    /// queue admission — a hit replies immediately without consuming
    /// worker capacity — and every model answer populates the cache.
    /// `None` is the cacheless engine, bit-identical to the historical
    /// behavior.
    ///
    /// The second argument is uninhabited: the per-request route-tte
    /// fallback it once carried is gone, and it stays only so callers
    /// that pass `None` keep compiling (ROADMAP item 7(a) removes it).
    pub fn start_with_cache(
        backend: Backend,
        _no_fallback: Option<std::convert::Infallible>,
        cache_tier: Option<Arc<ServeCache>>,
        ctx: FeatureContext,
        ds: Arc<CityDataset>,
        config: EngineConfig,
    ) -> InferenceEngine {
        registry::counter_add("serve.requests", 0);
        registry::counter_add("serve.rejected", 0);
        registry::counter_add("serve.worker_restarts", 0);
        registry::counter_add("serve.deadline_expired", 0);
        registry::counter_add("serve.retries", 0);
        registry::register_gauge("serve.queue_depth");
        registry::register_histogram("serve.batch_size");
        registry::register_histogram("serve.request_latency_ms");
        cache::register_metrics();
        let config = EngineConfig {
            max_batch: config.max_batch.max(1),
            queue_capacity: config.queue_capacity.max(1),
            workers: config.workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            config,
            cache: cache_tier,
            model: backend.lower(),
            ctx,
            ds,
        });
        let workers = (0..config.workers)
            .map(|worker| supervisor::spawn_supervised(Arc::clone(&shared), worker))
            .collect();
        InferenceEngine { shared, workers }
    }

    /// The configuration the engine is running with (after clamping).
    pub fn config(&self) -> EngineConfig {
        self.shared.config
    }

    /// Enqueues a request, blocking while the queue is at capacity (flow
    /// control for producers reading from a pipe). Returns the handle the
    /// reply will arrive on. Backpressure *is* this path's admission
    /// control, so an engine with deadlines and retries off never sheds.
    pub fn submit(&self, req: PredictRequest) -> Result<ReplyHandle, ServeError> {
        let cache_key = match self.consult_cache(&req) {
            CacheOutcome::Hit(handle) => return Ok(handle),
            CacheOutcome::Miss(key) => key,
        };
        let shared = &*self.shared;
        let mut q = shared.lock_queue();
        loop {
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            if q.items.len() < shared.config.queue_capacity {
                return Ok(self.enqueue(q, req, cache_key));
            }
            q = shared.space.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Enqueues a request without blocking. A full queue is the engine's
    /// one queue-depth overload decision: the request retries up to
    /// [`EngineConfig::retry_budget`] times, on the deterministic
    /// `[1, 4, 16, 64]` ms backoff (each retry counted under
    /// `serve.retries`), and then fails with [`ServeError::QueueFull`]
    /// (counted once under `serve.rejected`).
    pub fn try_submit(&self, req: PredictRequest) -> Result<ReplyHandle, ServeError> {
        // The cache sits *above* admission: a hit costs no queue slot, so
        // it is never shed, even when the queue is full.
        let cache_key = match self.consult_cache(&req) {
            CacheOutcome::Hit(handle) => return Ok(handle),
            CacheOutcome::Miss(key) => key,
        };
        let config = self.shared.config;
        let mut attempt: u32 = 0;
        loop {
            let q = self.shared.lock_queue();
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            if q.items.len() < config.queue_capacity {
                return Ok(self.enqueue(q, req, cache_key));
            }
            drop(q);
            if attempt >= config.retry_budget {
                registry::counter_inc("serve.rejected");
                return Err(ServeError::QueueFull {
                    capacity: config.queue_capacity,
                });
            }
            registry::counter_inc("serve.retries");
            std::thread::sleep(Duration::from_millis(backoff_ms(attempt)));
            attempt = attempt.saturating_add(1);
        }
    }

    /// Consults the cache tier for a raw request. A hit builds a
    /// pre-resolved [`ReplyHandle`] — the caller returns it without
    /// touching the queue. A miss carries the key forward so the worker
    /// can populate the cache from the computed answer.
    fn consult_cache(&self, req: &PredictRequest) -> CacheOutcome {
        let Some(cache) = &self.shared.cache else {
            return CacheOutcome::Miss(None);
        };
        let PredictRequest::Raw(od) = req else {
            // Encoded requests carry pre-built features, not the raw
            // fields a key is made of; they always take the worker path.
            return CacheOutcome::Miss(None);
        };
        let Some(key) = cache.key_of(od) else {
            return CacheOutcome::Miss(None);
        };
        match cache.lookup(key, cache::now_epoch_s()) {
            Some(eta_seconds) => {
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(Ok(EngineReply {
                    result: Ok(PredictResponse { eta_seconds }),
                    degraded: false,
                }));
                CacheOutcome::Hit(ReplyHandle { rx })
            }
            None => CacheOutcome::Miss(Some(key)),
        }
    }

    /// Closes the queue, lets the workers drain what is already enqueued,
    /// and joins them. Equivalent to dropping the engine, but explicit at
    /// call sites that care about ordering.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn enqueue(
        &self,
        mut q: MutexGuard<'_, QueueState>,
        req: PredictRequest,
        cache_key: Option<CacheKey>,
    ) -> ReplyHandle {
        let (tx, rx) = mpsc::channel();
        q.items.push_back(Pending {
            req,
            tx,
            enqueued: Instant::now(),
            attempts: 0,
            cache_key,
        });
        drop(q);
        self.shared.work.notify_one();
        ReplyHandle { rx }
    }

    fn close_and_join(&mut self) {
        self.shared.lock_queue().closed = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // A worker exits only once the queue is closed and drained, so
        // this finds leftovers only if every supervisor died outright:
        // fail them explicitly instead of leaving reply slots dangling.
        let leftovers: Vec<Pending> = self.shared.lock_queue().items.drain(..).collect();
        for p in leftovers {
            let _ = p.tx.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}
