//! Order statistics with the reporting rules of the benchmark: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and every timed quantity is a median over repetitions.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`; `None` when empty. Even counts average the two
/// middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (n * p).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) over ascending `sorted`.
pub fn percentile_sorted(sorted: &[f64], p: usize) -> Option<f64> {
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: usize) -> usize {
    n.saturating_sub(rank(n, p))
}

/// A reported tail: which percentile it is, its value, and how many
/// samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (95, 90, 75 or 50).
    pub percentile: usize,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The reported tail of a latency distribution: p95, or the highest of
/// p90/p75 that has at least [`MIN_BEYOND`] samples beyond it, or the
/// median when none has. (p99 is not on the ladder: on this sandbox it
/// is set by a handful of host stalls per repetition and moves by a
/// quarter between runs of the same code.)
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = [95, 90, 75]
        .into_iter()
        .find(|&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .unwrap_or(50);
    // The fallback is the same median `lat_p50_ms` reports (the mean of
    // the two middle values when the count is even).
    let value = if percentile == 50 {
        median(&sorted)?
    } else {
        percentile_sorted(&sorted, percentile)?
    };
    Some(Tail {
        percentile,
        value,
        samples: sorted.len(),
    })
}

/// The percentile `p` of `samples`, only if the ≥ [`MIN_BEYOND`] rule
/// allows reporting it.
pub fn percentile_if_supported(samples: &[f64], p: usize) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repetitions_is_the_middle_value() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One stalled repetition does not move the reported value.
        assert_eq!(median(&[5.0, 5.1, 500.0]), Some(5.1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let n = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1 000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile_if_supported(&n(1000), 99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(percentile_if_supported(&n(999), 99), None);
        assert_eq!(percentile_if_supported(&[], 99), None);
    }

    #[test]
    fn tail_steps_down_to_the_highest_supported_percentile() {
        let n = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(10_000)).map(|t| t.percentile), Some(95));
        assert_eq!(tail(&n(200)).map(|t| t.percentile), Some(95));
        assert_eq!(tail(&n(199)).map(|t| t.percentile), Some(90));
        assert_eq!(tail(&n(150)).map(|t| t.percentile), Some(90));
        let t = tail(&n(60)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.samples), (75, 45.0, 60));
        // Nine epochs support no tail percentile at all: the median.
        let t = tail(&n(9)).expect("non-empty");
        assert_eq!((t.percentile, t.value), (50, 5.0));
        assert_eq!(tail(&n(4)).map(|t| t.value), median(&n(4)));
        assert_eq!(tail(&[]), None);
    }
}
