//! Worker supervision: catch panics, recover the doomed batch, restart
//! with a rebuilt replica (DESIGN.md §14).
//!
//! Every worker thread in `crates/serve` is born here — the
//! `no-unsupervised-spawn` lint forbids `thread::spawn` anywhere else in
//! the crate, so the invariant "a dead worker always comes back, and its
//! in-flight requests are always answered" cannot rot silently.
//!
//! The supervision loop per shard:
//!
//! ```text
//! loop {
//!     replica  = master.clone()            // Arc-shared immutable model
//!     outcome  = catch_unwind(worker_loop(replica))
//!     Ok(_)    -> return                   // queue closed and drained
//!     Err(_)   -> counter serve.worker_restarts
//!                 recover in-flight batch: retry budget left?
//!                     yes -> requeue at the front (order preserved)
//!                     no  -> reply Err(WorkerCrashed)
//!                 sleep backoff_ms(restarts); continue
//! }
//! ```
//!
//! The worker stashes each batch in the shard's `in_flight` slot before
//! running it, so the panic path always finds either the doomed batch
//! (recoverable) or nothing (the panic struck between batches — no
//! requests were lost because none were out of the queue).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use deepod_core::obs::{self, registry};
use deepod_core::FeatureContext;
use deepod_traj::CityDataset;

use crate::engine::{backoff_ms, Pending, Replica, ServeError, Shared};
use crate::worker::worker_loop;

/// The pristine copy of everything a worker needs: the supervisor clones
/// a fresh replica from it on start and after every crash, so a panic
/// can never leave a shard running half-poisoned state.
pub(crate) struct Master {
    pub(crate) backend: Replica,
    pub(crate) ctx: Arc<FeatureContext>,
    pub(crate) ds: Arc<CityDataset>,
}

/// Spawns the supervised worker thread for one shard. Together with
/// [`spawn_net`] these are the only `thread::spawn` sites in the crate
/// (enforced by `no-unsupervised-spawn`).
pub(crate) fn spawn_supervised(
    shared: Arc<Shared>,
    shard_idx: usize,
    master: Arc<Master>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || supervise(&shared, shard_idx, &master))
}

/// Spawns a supervised utility thread for the network front end
/// ([`crate::net`]): the body runs under `catch_unwind`, so a bug in one
/// connection's reader/writer loop takes down that connection only —
/// counted (`serve.net_thread_panics`) and logged, never a silent unwind
/// through the accept loop or a poisoned process.
pub(crate) fn spawn_net(
    label: &'static str,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            registry::counter_inc("serve.net_thread_panics");
            obs::warn(
                "serve",
                "network thread panicked; its connection is gone",
                &[("thread", label.into())],
            );
        }
    })
}

/// The supervision loop: run the worker, and on panic recover the doomed
/// batch, back off deterministically, rebuild the replica, and restart.
/// Returns only when the worker exits cleanly (queue closed and drained).
fn supervise(shared: &Shared, shard_idx: usize, master: &Master) {
    let mut restarts: u32 = 0;
    loop {
        let mut backend = master.backend.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(shared, shard_idx, &mut backend, &master.ctx, &master.ds);
        }));
        if outcome.is_ok() {
            return;
        }
        registry::counter_inc("serve.worker_restarts");
        obs::warn(
            "serve",
            "worker panicked; restarting with a fresh replica",
            &[
                ("shard", (shard_idx as u64).into()),
                ("restarts", u64::from(restarts.saturating_add(1)).into()),
            ],
        );
        recover_in_flight(shared, shard_idx);
        std::thread::sleep(Duration::from_millis(backoff_ms(restarts)));
        restarts = restarts.saturating_add(1);
    }
}

/// Deals with the batch the crashed worker left in the shard's
/// `in_flight` slot: requests with retry budget left go back to the
/// *front* of the queue (preserving their order ahead of newer work,
/// counted under `serve.retries`); exhausted ones are answered with
/// [`ServeError::WorkerCrashed`] — every reply slot resolves, none hang.
fn recover_in_flight(shared: &Shared, shard_idx: usize) {
    let Some(shard) = shared.shards.get(shard_idx) else {
        return;
    };
    let doomed: Vec<Pending> = {
        let mut slot = shard.in_flight.lock().unwrap_or_else(|p| p.into_inner());
        slot.take().unwrap_or_default()
    };
    if doomed.is_empty() {
        return;
    }
    let budget = shared.config.retry_budget;
    let mut requeue: Vec<Pending> = Vec::new();
    for mut p in doomed {
        if p.attempts < budget {
            p.attempts = p.attempts.saturating_add(1);
            registry::counter_inc("serve.retries");
            requeue.push(p);
        } else {
            let _ = p.tx.send(Err(ServeError::WorkerCrashed));
        }
    }
    if requeue.is_empty() {
        return;
    }
    let n = requeue.len();
    {
        let mut q = shard.lock_queue();
        // May transiently overshoot capacity; blocked producers simply
        // stay blocked until the restarted worker drains the overshoot.
        for p in requeue.into_iter().rev() {
            q.items.push_front(p);
        }
    }
    shared.depth.fetch_add(n, Ordering::Relaxed);
    shard.work.notify_one();
}
