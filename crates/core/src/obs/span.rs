//! RAII timing spans: measure a scope's wall time into a histogram and an
//! optional trace event, without touching any deterministic output.

use super::registry;

/// Times a scope from construction to drop. On drop the duration lands in
/// the histogram named by `metric` (which must end in `_ms` so the
/// registry picks duration buckets) and, when [`super::Level::Trace`] is
/// enabled, in a trace event under `target`.
///
/// ```
/// # use deepod_core::obs::TimingSpan;
/// {
///     let _span = TimingSpan::start("checkpoint", "checkpoint.save_ms");
///     // ... timed work ...
/// } // recorded here
/// ```
pub struct TimingSpan {
    target: &'static str,
    metric: &'static str,
    // Wall time is observability-only.
    start: std::time::Instant,
}

impl TimingSpan {
    /// Starts the clock for `metric` (emitted under `target` at trace).
    pub fn start(target: &'static str, metric: &'static str) -> TimingSpan {
        debug_assert!(
            metric.ends_with("_ms"),
            "timing span metrics are histograms of milliseconds"
        );
        TimingSpan {
            target,
            metric,
            // deepod-lint: allow(nondeterminism)
            start: std::time::Instant::now(),
        }
    }

    /// Milliseconds elapsed so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for TimingSpan {
    fn drop(&mut self) {
        let ms = self.elapsed_ms();
        registry::observe(self.metric, ms);
        super::trace(self.target, self.metric, &[("ms", ms.into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_one_histogram_observation_per_drop() {
        let before = registry::snapshot()
            .histograms
            .get("test.span.work_ms")
            .map_or(0, |h| h.count);
        {
            let span = TimingSpan::start("test", "test.span.work_ms");
            assert!(span.elapsed_ms() >= 0.0);
        }
        let after = registry::snapshot().histograms["test.span.work_ms"].count;
        assert_eq!(after, before + 1);
    }
}
