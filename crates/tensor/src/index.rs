//! Checked float → index conversions.
//!
//! A bare `expr as usize` on a float silently truncates — and on a NaN or
//! negative input it silently produces 0, which turns a numeric bug into
//! a wrong-but-plausible slot/bucket index far from its cause. `xtask check`
//! (`truncating-cast`) denies float-producing expressions cast straight to
//! integer types; this module is the audited funnel those casts go
//! through instead. Each helper `debug_assert!`s the domain (zero release
//! cost) and applies a documented clamp so release behavior is total.

/// Floors a finite, non-negative float to an index. Negative inputs clamp
/// to 0 in release and fail a `debug_assert` in debug builds.
#[inline]
pub fn floor_index(x: f64) -> usize {
    debug_assert!(x.is_finite(), "index source must be finite, got {x}");
    debug_assert!(x >= 0.0, "index source must be non-negative, got {x}");
    x.max(0.0) as usize
}

/// Ceiling of a finite, non-negative float as a count (grid dimensions,
/// sample counts). Negative inputs clamp to 0 under the same contract as
/// [`floor_index`].
#[inline]
pub fn ceil_count(x: f64) -> usize {
    debug_assert!(x.is_finite(), "count source must be finite, got {x}");
    debug_assert!(x >= 0.0, "count source must be non-negative, got {x}");
    // deepod-lint: allow(truncating-cast) — this IS the audited funnel
    x.max(0.0).ceil() as usize
}

/// Nearest-integer rounding of a finite, non-negative float as a count.
#[inline]
pub fn round_count(x: f64) -> usize {
    debug_assert!(x.is_finite(), "count source must be finite, got {x}");
    debug_assert!(x >= 0.0, "count source must be non-negative, got {x}");
    // deepod-lint: allow(truncating-cast) — this IS the audited funnel
    x.max(0.0).round() as usize
}

/// Floors a finite float to a signed bucket coordinate (spatial hashing
/// admits negative cells). The value must fit in `i64`'s exact range.
#[inline]
pub fn floor_coord(x: f64) -> i64 {
    debug_assert!(x.is_finite(), "coordinate source must be finite, got {x}");
    debug_assert!(
        x.abs() < 9.0e18,
        "coordinate source {x} overflows the bucket range"
    );
    // deepod-lint: allow(truncating-cast) — this IS the audited funnel
    x.floor() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_index_truncates_toward_zero() {
        assert_eq!(floor_index(0.0), 0);
        assert_eq!(floor_index(3.999), 3);
        assert_eq!(floor_index(4.0), 4);
    }

    #[test]
    fn ceil_and_round_counts() {
        assert_eq!(ceil_count(0.0), 0);
        assert_eq!(ceil_count(2.01), 3);
        assert_eq!(round_count(2.49), 2);
        assert_eq!(round_count(2.51), 3);
    }

    #[test]
    fn floor_coord_handles_negatives() {
        assert_eq!(floor_coord(-0.25), -1);
        assert_eq!(floor_coord(1.75), 1);
        assert_eq!(floor_coord(-3.0), -3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    #[cfg(debug_assertions)]
    fn floor_index_rejects_negative_in_debug() {
        floor_index(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    #[cfg(debug_assertions)]
    fn floor_index_rejects_nan_in_debug() {
        floor_index(f64::NAN);
    }
}
