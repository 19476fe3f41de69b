//! Data-parallel building blocks shared across the workspace: the
//! process-wide worker-thread configuration, contiguous range
//! partitioning, scoped fork/join over those ranges, and deterministic
//! tree reduction.
//!
//! The thread count is configured *programmatically* via
//! [`set_configured_threads`] — binaries resolve `DEEPOD_THREADS` (and
//! flags) into a `deepod_core::RuntimeConfig` once at startup and apply it
//! here; library code never reads the environment (`xtask check` rule
//! `no-env-read-in-lib`).
//!
//! # Determinism contract
//!
//! Every helper here is designed so that results are a pure function of
//! `(input, thread count)` — never of scheduling order:
//!
//! * [`split_ranges`] assigns *contiguous* spans, so each worker sees its
//!   items in the original order.
//! * [`map_ranges`] returns the per-span results in span order regardless
//!   of which worker finished first.
//! * [`tree_reduce`] combines per-span results in a fixed binary-tree shape
//!   (adjacent pairs per round), so floating-point reductions are
//!   bit-stable for a fixed span count.
//!
//! With one thread the single span covers the whole input in order, so the
//! parallel paths built on these helpers degrade to their serial ancestors
//! bit-for-bit.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide configured worker-thread count. `0` means "not configured":
/// fall back to the machine's available parallelism.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Installs the process-wide worker-thread count. `0` clears the override
/// so [`configured_threads`] falls back to the machine's available
/// parallelism. Called once at binary startup when applying
/// `deepod_core::RuntimeConfig`; later calls simply replace the value.
pub fn set_configured_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// Number of worker threads configured for this process: the value
/// installed via [`set_configured_threads`] when positive, otherwise the
/// machine's available parallelism (the cached [`hardware_parallelism`]
/// probe, so a default-threaded `Tensor::matmul` pays no cgroup read).
pub fn configured_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => hardware_parallelism(),
        n => n,
    }
}

/// Resolves an explicit thread request: `0` means "use the configured
/// default", anything else is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        configured_threads()
    } else {
        requested
    }
}

/// Physical upper bound on useful fan-out: the machine's available
/// parallelism, probed once and cached. Call sites that resolve a
/// *default* thread count clamp with this so a generous `DEEPOD_THREADS`
/// can never oversubscribe the machine — threads beyond cores only add
/// coordination cost. Explicit nonzero requests stay unclamped so tests
/// and benchmarks can pin exact counts.
pub fn hardware_parallelism() -> usize {
    static HW: AtomicUsize = AtomicUsize::new(0);
    match HW.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            HW.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges (fewer when `len < parts`). The first `len % parts` ranges get
/// one extra element.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    if len == 0 {
        return vec![Range { start: 0, end: 0 }];
    }
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `f` over the contiguous spans of `0..len` on up to `threads`
/// workers and returns the results **in span order**. With `threads <= 1`
/// (or a single span) `f` runs inline on the calling thread, so the serial
/// path has zero overhead and identical numerics.
pub fn map_ranges<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let spans = split_ranges(len, threads);
    // Fault-injection hook (`parallel::worker`): the fan-out *call* is
    // counted here on the caller thread — which is sequenced
    // deterministically by the training loop — and when the armed count is
    // reached, the worker owning span 0 carries the injected panic. That
    // keeps both the firing step and the dying thread deterministic.
    let fail_this_call = crate::failpoint::should_fire("parallel::worker");
    if spans.len() <= 1 {
        if fail_this_call {
            crate::failpoint::fire("parallel::worker");
        }
        // Single-span calls take the literal serial path with no telemetry:
        // the threads=1 contract is "zero overhead, identical numerics".
        return spans.into_iter().map(&f).collect();
    }
    // Fan-out telemetry (gauges/histograms only — never counters, which must
    // stay invariant under the thread count; see DESIGN.md §9). Collected
    // only when a sink is installed so un-instrumented runs pay one load.
    let sink = crate::telemetry::sink();
    if let Some(s) = sink {
        s.gauge_set("parallel.spans_last", spans.len() as f64);
        for span in &spans {
            s.observe("parallel.span_size", span.len() as f64);
        }
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = spans
            .into_iter()
            .enumerate()
            .map(|(i, span)| {
                scope.spawn(move || {
                    if fail_this_call && i == 0 {
                        crate::failpoint::fire("parallel::worker");
                    }
                    let Some(s) = sink else {
                        return f(span);
                    };
                    // Wall time is observability-only and never feeds any
                    // checksummed artifact (DESIGN.md §9).
                    // deepod-lint: allow(nondeterminism)
                    let t0 = std::time::Instant::now();
                    let out = f(span);
                    s.observe("parallel.worker_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // A worker panic is the caller's panic: re-raise the original
                // payload on this thread instead of wrapping it.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Deterministic pairwise tree reduction: adjacent pairs are combined per
/// round until one value remains. The combination shape depends only on
/// `items.len()`, so floating-point merges are reproducible for a fixed
/// span count. Returns `None` for an empty input.
pub fn tree_reduce<T>(mut items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or write the process-wide configured
    /// thread count, so the `set_configured_threads` test cannot interleave
    /// with tests asserting the unconfigured fallback.
    static THREADS_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn split_covers_everything_in_order() {
        for len in [0usize, 1, 2, 7, 64, 65] {
            for parts in [1usize, 2, 3, 8, 100] {
                let spans = split_ranges(len, parts);
                let flat: Vec<usize> = spans.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(flat, expect, "len={len} parts={parts}");
                assert!(spans.len() <= parts.max(1));
                // Near-equal: sizes differ by at most one.
                if len > 0 {
                    let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
                    let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(mx - mn <= 1, "uneven split {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn map_ranges_preserves_span_order() {
        for threads in [1usize, 2, 4, 7] {
            let got = map_ranges(100, threads, |r| r.clone());
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn tree_reduce_is_shape_deterministic() {
        // Record the combination tree as nested strings; shape must depend
        // only on the length.
        let shape = |n: usize| {
            let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            tree_reduce(items, |a, b| format!("({a}+{b})")).unwrap()
        };
        assert_eq!(shape(1), "0");
        assert_eq!(shape(2), "(0+1)");
        assert_eq!(shape(3), "((0+1)+2)");
        assert_eq!(shape(4), "((0+1)+(2+3))");
        assert_eq!(shape(5), "(((0+1)+(2+3))+4)");
        assert!(tree_reduce(Vec::<u32>::new(), |a, _| a).is_none());
    }

    #[test]
    fn resolve_threads_zero_means_default() {
        let _guard = THREADS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), configured_threads());
        assert!(configured_threads() >= 1);
    }

    // --- threads=1 == serial regression tests -------------------------
    //
    // `xtask check`'s `parallel-coverage` rule requires every pub fn of
    // this module to have a test below whose name contains the fn name
    // and `serial`: the single-thread path of each primitive must be the
    // literal serial computation, bit for bit (DESIGN.md §6).

    #[test]
    fn split_ranges_serial_is_single_full_span() {
        for len in [0usize, 1, 5, 1000] {
            assert_eq!(split_ranges(len, 1), vec![0..len]);
        }
    }

    #[test]
    fn map_ranges_threads1_matches_serial() {
        // One thread: the closure runs inline on the calling thread over
        // the single full span, so the result must equal the plain call.
        let serial = |r: Range<usize>| -> f32 { r.map(|i| (i as f32).sin()).sum() };
        let got = map_ranges(257, 1, serial);
        assert_eq!(got, vec![serial(0..257)]);
    }

    #[test]
    fn tree_reduce_single_item_matches_serial_fold() {
        // The one-span case (threads = 1) reduces to the identity, and the
        // multi-span sum equals the serial left fold for associative ops.
        assert_eq!(tree_reduce(vec![42u64], |a, b| a + b), Some(42));
        let items: Vec<u64> = (0..17).collect();
        let serial: u64 = items.iter().sum();
        assert_eq!(tree_reduce(items, |a, b| a + b), Some(serial));
    }

    #[test]
    fn hardware_parallelism_clamps_defaults_but_serial_is_always_valid() {
        // The probe is cached and stable, and is always a usable thread
        // count (>= 1): clamping a default with it can never produce an
        // invalid fan-out, and on a 1-core machine it forces the serial
        // path for default-threaded callers.
        let hw = hardware_parallelism();
        assert!(hw >= 1);
        assert_eq!(hw, hardware_parallelism());
    }

    #[test]
    fn resolve_threads_one_is_the_serial_path() {
        // `threads = 1` must resolve to exactly 1 (never the configured
        // default): it is the contract for forcing the serial path.
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn set_configured_threads_override_and_serial_clear() {
        // Installing a count makes it the process default; clearing with 0
        // restores the machine fallback — so `set_configured_threads(1)` is
        // how a binary forces the serial path globally.
        let _guard = THREADS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        set_configured_threads(1);
        assert_eq!(configured_threads(), 1);
        assert_eq!(resolve_threads(0), 1);
        set_configured_threads(7);
        assert_eq!(configured_threads(), 7);
        set_configured_threads(0);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn configured_threads_unset_is_the_cached_hardware_probe() {
        let _guard = THREADS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        set_configured_threads(0);
        assert_eq!(configured_threads(), hardware_parallelism());
    }

    #[test]
    fn configured_threads_is_a_valid_serial_fallback() {
        // Whatever the configuration says, the configured count is a usable
        // thread count (>= 1), so `map_ranges(len, configured_threads())`
        // can always degrade to the serial span layout.
        let _guard = THREADS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let t = configured_threads();
        assert!(t >= 1);
        let flat: Vec<usize> = map_ranges(10, t, |r| r.clone())
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }
}
