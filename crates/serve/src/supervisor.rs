//! Worker supervision: catch panics, recover the doomed batch, restart
//! the worker (DESIGN.md §14).
//!
//! Every worker thread in `crates/serve` is born here — the
//! `no-unsupervised-spawn` lint forbids `thread::spawn` anywhere else in
//! the crate, so the invariant "a dead worker always comes back, and its
//! in-flight requests are always answered" cannot rot silently.
//!
//! The supervision loop per worker:
//!
//! ```text
//! in_flight = None                         // this worker's crash stash
//! loop {
//!     outcome  = catch_unwind(worker_loop(&shared, &mut in_flight))
//!     Ok(_)    -> return                   // queue closed and drained
//!     Err(_)   -> counter serve.worker_restarts
//!                 take in_flight: retry budget left?
//!                     yes -> requeue at the front (order preserved)
//!                     no  -> reply Err(WorkerCrashed)
//!                 sleep backoff_ms(restarts); continue
//! }
//! ```
//!
//! The worker stashes each batch in `in_flight` before running it, so the
//! panic path always finds either the doomed batch (recoverable) or
//! nothing (the panic struck between batches — no requests were lost
//! because none were out of the queue). The stash is the supervisor's
//! own local: only its worker thread ever touches it. The backend needs
//! no rebuild: it is read-only and lives in [`Shared`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use deepod_core::obs::{self, registry};

use crate::engine::{backoff_ms, Pending, ServeError, Shared};
use crate::worker::worker_loop;

/// Spawns supervised worker `worker` (the index only labels its log
/// lines). Together with [`spawn_net`] these are the only `thread::spawn`
/// sites in the crate (enforced by `no-unsupervised-spawn`).
pub(crate) fn spawn_supervised(shared: Arc<Shared>, worker: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || supervise(&shared, worker))
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
/// batch, back off deterministically, and restart. Returns only when the
/// worker exits cleanly (queue closed and drained).
fn supervise(shared: &Shared, worker: usize) {
    let mut restarts: u32 = 0;
    let mut in_flight: Option<Vec<Pending>> = None;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &mut in_flight)));
        if outcome.is_ok() {
            return;
        }
        registry::counter_inc("serve.worker_restarts");
        obs::warn(
            "serve",
            "worker panicked; restarting",
            &[
                ("worker", (worker as u64).into()),
                ("restarts", u64::from(restarts.saturating_add(1)).into()),
            ],
        );
        recover_in_flight(shared, in_flight.take().unwrap_or_default());
        std::thread::sleep(Duration::from_millis(backoff_ms(restarts)));
        restarts = restarts.saturating_add(1);
    }
}

/// Deals with the batch the crashed worker left in its stash: requests
/// with retry budget left go back to the *front* of the queue (preserving
/// their order ahead of newer work, counted under `serve.retries`);
/// exhausted ones are answered with [`ServeError::WorkerCrashed`] — every
/// reply slot resolves, none hang.
fn recover_in_flight(shared: &Shared, doomed: Vec<Pending>) {
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
    {
        let mut q = shared.lock_queue();
        // May transiently overshoot capacity; blocked producers simply
        // stay blocked until a worker drains the overshoot.
        for p in requeue.into_iter().rev() {
            q.items.push_front(p);
        }
    }
    shared.work.notify_one();
}
