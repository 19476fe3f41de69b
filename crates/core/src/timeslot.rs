//! Time slots and remainders (§4.2, Def. 4): a timestamp `t` is projected
//! onto a slot `t_p = ⌊(t − t₀)/Δt⌋` and a remainder `t_r = t − t₀ − t_p·Δt`;
//! slots wrap onto a weekly temporal graph of `week/Δt` nodes.
//!
//! Slot attribution decides which slot embedding and which speed matrix a
//! request is answered with, so the boundary behaviour is load-bearing
//! and pinned down precisely:
//!
//! * a timestamp on an exact slot edge (`t = t₀ + k·Δt`, even when the
//!   product is computed in floating point and lands one ulp off the true
//!   edge) always maps to slot `k` with remainder `0` — [`Self::slot_rem`]
//!   snaps within a relative tolerance of a few ulps;
//! * [`Self::remainder_norm`] honours its `[0, 1)` contract for *all*
//!   inputs — including the f32 rounding hazard where `(r/Δt) as f32`
//!   rounds a value just below `1.0` up to exactly `1.0`;
//! * pre-epoch timestamps (`t < t₀`) never panic: they clamp to slot `0`
//!   and bump the `core.timeslot_clamped` counter so the aliasing is
//!   observable. Callers that must not alias (the OD grid key) use
//!   [`Self::slot_rem_checked`] and reject instead.

use serde::{Deserialize, Serialize};

/// Seconds per week (temporal-graph period).
const WEEK: f64 = 7.0 * 86_400.0;

/// Largest `f32` strictly below `1.0` (`1 − 2⁻²⁴`): the upper clamp of
/// [`TimeSlots::remainder_norm`]'s half-open contract.
const MAX_REM_NORM: f32 = f32::from_bits(0x3F7F_FFFF);

/// A [`TimeSlots`] construction error: the slot size from user-supplied
/// configuration is unusable. Library code returns this instead of
/// panicking; the CLI maps it to a plain-language message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeSlotError {
    /// Δt was zero, negative, or not finite.
    NonPositive {
        /// The offending slot size.
        dt: f64,
    },
    /// Δt does not divide a week into whole slots, so the weekly wrap
    /// would skew (the last slot of the week would be short).
    NotWeekDivisor {
        /// The offending slot size.
        dt: f64,
    },
}

impl std::fmt::Display for TimeSlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSlotError::NonPositive { dt } => {
                write!(
                    f,
                    "slot size must be a positive number of seconds, got {dt}"
                )
            }
            TimeSlotError::NotWeekDivisor { dt } => write!(
                f,
                "slot size {dt}s must divide a week ({WEEK}s) into whole slots"
            ),
        }
    }
}

impl std::error::Error for TimeSlotError {}

/// Eagerly registers the slot-math counters so metrics snapshots carry
/// the keys even on runs where nothing clamps.
pub fn register_metrics() {
    crate::obs::registry::counter_add("core.timeslot_clamped", 0);
}

/// The slot discretization of one experiment: base timestamp `t0` and slot
/// size `Δt` seconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSlots {
    /// Base timestamp t₀; must be ≤ every timestamp in the data.
    pub t0: f64,
    /// Slot size Δt in seconds.
    pub dt: f64,
}

impl TimeSlots {
    /// Creates a discretization. Errors on a non-positive Δt or a Δt that
    /// does not divide a week into whole slots (the weekly wrap would
    /// skew) — both reachable from user-supplied config, so this is a
    /// typed error rather than a panic.
    pub fn new(t0: f64, dt: f64) -> Result<Self, TimeSlotError> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(TimeSlotError::NonPositive { dt });
        }
        // A whole, finite number of slots per week, at least one: a Δt
        // so small the count overflows, or longer than a week, would make
        // `slots_per_week` infinite or zero (and `week_node` divide by 0).
        let per_week = WEEK / dt;
        if !per_week.is_finite() || per_week < 1.0 || (per_week - per_week.round()).abs() >= 1e-9 {
            return Err(TimeSlotError::NotWeekDivisor { dt });
        }
        Ok(TimeSlots { t0, dt })
    }

    /// The paper's default: 5-minute slots (288/day, 2016/week).
    pub fn five_minutes() -> Self {
        // Known-good literal: 300 s divides a week into 2016 whole slots,
        // so this cannot hit either `new` error arm.
        TimeSlots { t0: 0.0, dt: 300.0 }
    }

    /// Slot index and in-slot remainder of a timestamp, computed together
    /// so the two can never disagree about which side of a boundary `t`
    /// fell on (Eq. 2 + 3).
    ///
    /// Guarantees, for every finite input:
    ///
    /// * the remainder is in `[0, Δt)` — never `Δt` itself;
    /// * `t = t₀ + k·Δt` maps to `(k, 0.0)` even when the product was
    ///   computed in f64 and rounded one ulp off the exact edge (a
    ///   relative snap tolerance of `4·ε` absorbs the rounding);
    /// * `t < t₀` (and non-finite `t`) clamps to `(0, 0.0)` and counts
    ///   the event on `core.timeslot_clamped` — use
    ///   [`Self::slot_rem_checked`] where aliasing slot 0 is not
    ///   acceptable.
    pub fn slot_rem(&self, t: f64) -> (usize, f64) {
        let rel = t - self.t0;
        if !rel.is_finite() || rel < 0.0 {
            crate::obs::registry::counter_inc("core.timeslot_clamped");
            return (0, 0.0);
        }
        let mut k = deepod_tensor::floor_index(rel / self.dt);
        let mut r = rel - k as f64 * self.dt;
        // `floor_index(rel / dt)` can overshoot by one when `rel/dt`
        // rounds up to the next integer; walk back so r is non-negative.
        if r < 0.0 {
            k = k.saturating_sub(1);
            r = rel - k as f64 * self.dt;
        }
        // Snap-to-edge: a remainder within a few ulps of Δt *is* the next
        // slot's boundary, attributed deterministically as (k+1, 0). The
        // tolerance is relative to `rel` so huge timestamps (where one ulp
        // of `rel` exceeds Δt) still resolve deterministically instead of
        // flapping with float rounding.
        let tol = rel.max(self.dt) * (4.0 * f64::EPSILON);
        if r >= self.dt - tol {
            k = k.saturating_add(1);
            r = 0.0;
        }
        (k, r.max(0.0))
    }

    /// [`Self::slot_rem`] without the pre-epoch clamp: `None` when
    /// `t < t₀` or `t` is not finite. The OD grid key goes through this
    /// so a pre-epoch timestamp cannot alias slot 0's key.
    pub fn slot_rem_checked(&self, t: f64) -> Option<(usize, f64)> {
        (t.is_finite() && t >= self.t0).then(|| self.slot_rem(t))
    }

    /// Absolute slot index t_p of a timestamp (Eq. 2). Clamps `t < t0` to
    /// slot 0 (counted on `core.timeslot_clamped`).
    pub fn slot(&self, t: f64) -> usize {
        self.slot_rem(t).0
    }

    /// Remainder t_r of a timestamp within its slot (Eq. 3); always in
    /// `[0, Δt)`.
    pub fn remainder(&self, t: f64) -> f64 {
        self.slot_rem(t).1
    }

    /// Remainder normalized to `[0, 1)` — what the encoders consume so the
    /// feature scale is independent of Δt. The upper bound is strict even
    /// under f32 rounding: a remainder one ulp below Δt would cast to
    /// exactly `1.0f32`, so the cast is clamped to the largest f32 below
    /// `1.0`.
    pub fn remainder_norm(&self, t: f64) -> f32 {
        // `remainder` is finite and non-negative and `dt` is positive
        // finite, so the ratio can never be NaN and clamp is safe.
        ((self.remainder(t) / self.dt) as f32).clamp(0.0, MAX_REM_NORM)
    }

    /// Slots per day.
    pub fn slots_per_day(&self) -> usize {
        deepod_tensor::round_count(86_400.0 / self.dt)
    }

    /// Slots per week — the temporal graph's node count.
    pub fn slots_per_week(&self) -> usize {
        deepod_tensor::round_count(WEEK / self.dt)
    }

    /// Weekly temporal-graph node of an absolute slot (`t_p mod week`).
    pub fn week_node(&self, tp: usize) -> usize {
        tp % self.slots_per_week()
    }

    /// Weekly node of a timestamp directly.
    pub fn week_node_of(&self, t: f64) -> usize {
        self.week_node(self.slot(t))
    }

    /// The inclusive list of weekly nodes covered by `[a, b]` — the Δd
    /// slots of §4.3, Eq. 4. Capped at one week of slots (an interval
    /// longer than a week covers every node anyway). A reversed interval
    /// (`b < a`) is normalized rather than panicking — no panic is
    /// reachable from this type's public API.
    pub fn interval_week_nodes(&self, a: f64, b: f64) -> Vec<usize> {
        let (lo, hi) = if b >= a { (a, b) } else { (b, a) };
        let (sa, sb) = (self.slot(lo), self.slot(hi));
        let count = (sb.saturating_sub(sa) + 1).min(self.slots_per_week());
        (0..count)
            .map(|k| self.week_node(sa.saturating_add(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every Δt used by the boundary proptests divides a week exactly.
    const DIVISOR_DTS: [f64; 6] = [1.0, 60.0, 300.0, 1800.0, 3600.0, 21_600.0];

    #[test]
    fn paper_default_2016_nodes() {
        let ts = TimeSlots::five_minutes();
        assert_eq!(ts.slots_per_day(), 288);
        assert_eq!(ts.slots_per_week(), 2016);
    }

    #[test]
    fn slot_and_remainder() {
        let ts = TimeSlots::new(100.0, 300.0).expect("valid slot size");
        assert_eq!(ts.slot(100.0), 0);
        assert_eq!(ts.slot(399.9), 0);
        assert_eq!(ts.slot(400.0), 1);
        assert!((ts.remainder(250.0) - 150.0).abs() < 1e-9);
        assert!((ts.remainder_norm(250.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn week_wrap() {
        let ts = TimeSlots::five_minutes();
        let monday_8am = 8.0 * 3600.0;
        let next_monday_8am = monday_8am + WEEK;
        assert_eq!(
            ts.week_node_of(monday_8am),
            ts.week_node_of(next_monday_8am)
        );
        assert_ne!(
            ts.week_node_of(monday_8am),
            ts.week_node_of(monday_8am + 86_400.0)
        );
    }

    #[test]
    fn interval_nodes() {
        let ts = TimeSlots::new(0.0, 300.0).expect("valid slot size");
        // [10, 910] spans slots 0..=3.
        let nodes = ts.interval_week_nodes(10.0, 910.0);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        // Degenerate interval: one slot.
        assert_eq!(ts.interval_week_nodes(50.0, 50.0), vec![0]);
        // Reversed interval normalizes instead of panicking.
        assert_eq!(ts.interval_week_nodes(910.0, 10.0).len(), 4);
    }

    #[test]
    fn interval_capped_at_one_week() {
        let ts = TimeSlots::new(0.0, 21_600.0).expect("valid slot size"); // 6 h slots, 28/week
        let nodes = ts.interval_week_nodes(0.0, 3.0 * WEEK);
        assert_eq!(nodes.len(), 28);
    }

    #[test]
    fn non_divisor_slot_rejected_with_typed_error() {
        assert_eq!(
            TimeSlots::new(0.0, 1234.5),
            Err(TimeSlotError::NotWeekDivisor { dt: 1234.5 })
        );
        assert_eq!(
            TimeSlots::new(0.0, 0.0),
            Err(TimeSlotError::NonPositive { dt: 0.0 })
        );
        assert_eq!(
            TimeSlots::new(0.0, -300.0),
            Err(TimeSlotError::NonPositive { dt: -300.0 })
        );
        assert!(matches!(
            TimeSlots::new(0.0, f64::NAN),
            Err(TimeSlotError::NonPositive { .. })
        ));
        assert!(TimeSlots::new(0.0, f64::INFINITY).is_err());
        // Slot counts that are "whole" only by float rounding: infinitely
        // many slots (a subnormal Δt), or none (Δt far beyond a week).
        for dt in [f64::from_bits(1), 1e20] {
            assert_eq!(
                TimeSlots::new(0.0, dt),
                Err(TimeSlotError::NotWeekDivisor { dt })
            );
        }
        assert!(TimeSlots::new(0.0, WEEK).is_ok(), "one slot per week");
        let msg = TimeSlots::new(0.0, 1234.5).unwrap_err().to_string();
        assert!(msg.contains("divide a week"), "got: {msg}");
    }

    #[test]
    fn pre_epoch_clamps_and_counts_instead_of_panicking() {
        let ts = TimeSlots::new(100.0, 300.0).expect("valid slot size");
        crate::obs::registry::counter_add("core.timeslot_clamped", 0);
        let before = crate::obs::registry::snapshot()
            .counters
            .get("core.timeslot_clamped")
            .copied()
            .unwrap_or(0);
        assert_eq!(ts.slot_rem(-1e9), (0, 0.0));
        assert_eq!(ts.slot_rem(f64::NAN), (0, 0.0));
        let after = crate::obs::registry::snapshot()
            .counters
            .get("core.timeslot_clamped")
            .copied()
            .unwrap_or(0);
        assert!(
            after >= before + 2,
            "clamp events counted: {before}->{after}"
        );
        // The checked variant rejects instead.
        assert_eq!(ts.slot_rem_checked(-1.0), None);
        assert_eq!(ts.slot_rem_checked(f64::NAN), None);
        assert_eq!(ts.slot_rem_checked(100.0), Some((0, 0.0)));
    }

    #[test]
    fn exact_boundary_is_slot_k_remainder_zero() {
        let ts = TimeSlots::five_minutes();
        for k in [0usize, 1, 7, 288, 2016, 10_000] {
            let t = ts.t0 + k as f64 * ts.dt;
            assert_eq!(ts.slot_rem(t), (k, 0.0), "boundary k={k}");
        }
        // One ulp below the edge still snaps up to (k, 0).
        let edge = ts.t0 + 12.0 * ts.dt;
        let just_below = f64::from_bits(edge.to_bits() - 1);
        assert_eq!(ts.slot_rem(just_below), (12, 0.0));
    }

    proptest! {
        /// Reconstruction invariant of Eq. 2+3: t ≈ t0 + tp·Δt + tr
        /// (within the boundary snap tolerance).
        #[test]
        fn slot_remainder_reconstruct(t in 0.0f64..10.0 * WEEK) {
            let ts = TimeSlots::five_minutes();
            let (tp, tr) = ts.slot_rem(t);
            prop_assert!((ts.t0 + tp as f64 * ts.dt + tr - t).abs() < 1e-5);
            prop_assert!(tr >= 0.0 && tr < ts.dt);
        }

        /// The normalized remainder honours its half-open contract for
        /// every input, at every week-divisor slot size.
        #[test]
        fn remainder_norm_in_half_open_unit(
            t in -WEEK..50.0 * WEEK,
            dt_idx in 0usize..DIVISOR_DTS.len(),
        ) {
            let ts = TimeSlots::new(0.0, DIVISOR_DTS[dt_idx]).expect("divisor dt");
            let r = ts.remainder_norm(t);
            prop_assert!((0.0..1.0).contains(&r), "remainder_norm({t}) = {r}");
        }

        /// Exact slot edges (t = t0 + k·Δt, computed in f64) attribute
        /// deterministically to slot k with remainder 0 — including the
        /// week-wrap edge and t = t0 itself (k = 0).
        #[test]
        fn exact_edges_deterministic(
            k in 0usize..100_000,
            dt_idx in 0usize..DIVISOR_DTS.len(),
            t0 in 0.0f64..1e6,
        ) {
            let ts = TimeSlots::new(t0.trunc(), DIVISOR_DTS[dt_idx]).expect("divisor dt");
            let t = ts.t0 + k as f64 * ts.dt;
            prop_assert_eq!(ts.slot_rem(t), (k, 0.0));
            prop_assert_eq!(ts.remainder_norm(t), 0.0);
            prop_assert_eq!(ts.week_node_of(t), k % ts.slots_per_week());
        }

        /// Weekly node is always in range.
        #[test]
        fn week_node_in_range(t in 0.0f64..50.0 * WEEK) {
            let ts = TimeSlots::five_minutes();
            prop_assert!(ts.week_node_of(t) < ts.slots_per_week());
        }

        /// Consecutive timestamps map to the same or the next slot.
        #[test]
        fn slots_monotone(t in 0.0f64..WEEK, d in 0.0f64..600.0) {
            let ts = TimeSlots::five_minutes();
            prop_assert!(ts.slot(t + d) >= ts.slot(t));
        }

        /// No input — pre-epoch, huge, or adversarially close to an edge —
        /// panics anywhere in the public API.
        #[test]
        fn public_api_never_panics(t in -1e18f64..1e18, u in -1e18f64..1e18) {
            let ts = TimeSlots::five_minutes();
            let _ = ts.slot_rem(t);
            let _ = ts.slot_rem_checked(t);
            let _ = ts.slot(t);
            let _ = ts.remainder(t);
            let _ = ts.remainder_norm(t);
            let _ = ts.week_node_of(t);
            let _ = ts.interval_week_nodes(t, u);
        }
    }
}
