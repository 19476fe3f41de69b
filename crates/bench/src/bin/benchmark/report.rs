//! Metric names, the result of one workload run, and how it is printed:
//! every metric by name with its unit, then one JSON object as the last
//! line of standard output.

use std::fmt::Write as _;

use crate::stats::{median, tail};

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("mape_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by every traced run. A workload that
/// never calls a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("setup.dataset_build_s", "s"),
    ("setup.context_build_s", "s"),
    ("setup.model_new_s", "s"),
    ("setup.engine_start_ms", "ms"),
    ("setup.first_reply_ms", "ms"),
    ("tensor.matmul_64x96x64_us", "us"),
    ("tensor.matvec_512_us", "us"),
    ("roadnet.nearest_edge_us", "us"),
    ("features.encode_od_us", "us"),
    ("features.encode_od_cold_us", "us"),
    ("features.encode_order_us", "us"),
    ("model.forward_b1_us", "us"),
    ("model.forward_b64_us_per_req", "us"),
    ("model.batch_slope", "ratio"),
    ("model.forward_noext_us", "us"),
    ("model.external_share", "ratio"),
    ("model.batch_t1_ods_per_s", "1/s"),
    ("model.batch_t2_ods_per_s", "1/s"),
    ("model.thread_scaling", "ratio"),
    ("cache.key_of_ns", "ns"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("protocol.decode_line_ns", "ns"),
    ("protocol.render_reply_ns", "ns"),
    ("protocol.client_parse_ns", "ns"),
    ("engine.rtt_w1_ms", "ms"),
    ("engine.sat_rps_w64", "1/s"),
    ("engine.unattributed_ms", "ms"),
    ("engine.max_ok_rps", "1/s"),
    ("net.rtt_hit_us", "us"),
    ("net.sat_rps_hit_w64", "1/s"),
    ("train.sample_gradients_us", "us"),
    ("train.validation_mae_ms", "ms"),
    ("train.t1_samples_per_s", "1/s"),
    ("train.t2_samples_per_s", "1/s"),
    ("train.thread_scaling", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.frozen_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the gated phases.
    pub attempted: usize,
    /// Operations that failed or whose output was wrong.
    pub failed: usize,
    /// Measured metrics by name.
    values: Vec<(&'static str, f64)>,
    /// Free-text notes printed beside a metric (sample counts, which
    /// percentile a tail is).
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Records a note printed beside `name`.
    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.push((name, note));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts `n` more operations, `failed` of them failed.
    pub fn count(&mut self, n: usize, failed: usize) {
        self.attempted += n;
        self.failed += failed;
    }

    /// `setup_s`: the median of the run's set-up samples.
    pub fn set_setup(&mut self, samples: &[f64]) {
        self.set("setup_s", median(samples).unwrap_or(0.0));
        self.note("setup_s", format!("median of {} set-ups", samples.len()));
    }

    /// The three timing metrics of a closed-loop workload from the wall
    /// times (ms) of its operations (`ops`: their plural name), each of
    /// which did `work` units: `throughput_ops` from the median
    /// operation, `lat_p50_ms`, and `lat_p95_ms` as far as the sample
    /// count supports a tail.
    pub fn set_op_times(
        &mut self,
        ms: &[f64],
        work: usize,
        unit: &str,
        ops: &str,
    ) -> Result<(), String> {
        let (p50, t) = median(ms)
            .zip(tail(ms))
            .ok_or_else(|| format!("no {ops} ran"))?;
        self.set("throughput_ops", work as f64 / (p50 / 1e3));
        self.note(
            "throughput_ops",
            format!("{unit}/s, median of {} {ops} of {work}", ms.len()),
        );
        self.set("lat_p50_ms", p50);
        self.note(
            "lat_p50_ms",
            format!(
                "wall time of one of the {ops}; fastest {:.0}, slowest {:.0}",
                ms.iter().copied().fold(f64::INFINITY, f64::min),
                ms.iter().copied().fold(0.0, f64::max)
            ),
        );
        self.set("lat_p95_ms", t.value);
        self.note(
            "lat_p95_ms",
            format!(
                "p{} of {} {ops}: fewer than 10 lie beyond any higher percentile",
                t.percentile, t.samples
            ),
        );
        Ok(())
    }

    /// Outputs were correct: nothing failed and something ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints every metric of `names` with its unit (0 for a layer this
    /// workload never calls), then the result object as the last line.
    pub fn print(&self, workload: &str, names: &[(&'static str, &'static str)], smoke: bool) {
        let label = if smoke {
            " [smoke: numbers not comparable]"
        } else {
            ""
        };
        println!("workload {workload}{label}");
        let mut json = String::new();
        for (i, &(name, unit)) in names.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let note = self
                .notes
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, s)| format!("  ({s})"))
                .collect::<String>();
            println!("  {name:<32} {value:>16.4} {unit}{note}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "  operations: {} attempted, {} succeeded, {} failed",
            self.attempted,
            self.attempted.saturating_sub(self.failed),
            self.failed
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Process exit code for a run whose outputs were (not) correct.
pub fn exit_code(correct: bool) -> i32 {
    i32::from(!correct)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|s| s.len() <= 64 && s.chars().all(ok)));
    }

    #[test]
    fn an_outcome_is_correct_only_with_work_done_and_nothing_failed() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "no operations attempted");
        o.count(10, 0);
        assert!(o.correct());
        o.count(1, 1);
        assert!(!o.correct());
        assert_eq!((exit_code(true), exit_code(false)), (0, 1));
    }
}
