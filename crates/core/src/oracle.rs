//! A coarse OD cell grid: `(origin cell, destination cell, weekly time
//! slot)` keys over a road network.
//!
//! The serving cache does not use this key — it keys on the exact
//! request (`deepod_serve::cache::CacheKey`), because two requests that
//! share a cell and a weekly slot can have different answers. The grid
//! stays only for the repo benchmark, whose hot-key generator draws
//! requests that are pairwise distinct under it and whose keyer layer
//! passes an [`OdKeyer`] to `ServeCache::new` (ROADMAP item 7(a) moves
//! both onto a benchmark-local grid).
//!
//! **Key scheme.** Space is discretized by [`OdKeyer`]: a fixed grid over
//! the road network's bounding box (`cell_meters` per side, points
//! outside the box clamp to the border cells). Time is discretized by the
//! model's own [`TimeSlots`] and wrapped onto the weekly temporal graph —
//! the same slot attribution the feature encoder uses.

use crate::timeslot::TimeSlots;
use deepod_roadnet::{Point, RoadNetwork};
use deepod_traj::OdInput;

/// Largest grid side, in cells, an [`OdKeyer`] can have: `for_network`
/// caps each side here.
const MAX_GRID_SIDE: u32 = 1_000_000;

/// The grid key: origin cell, destination cell, weekly time slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OracleKey {
    /// Origin grid cell (row-major index).
    pub origin_cell: u32,
    /// Destination grid cell.
    pub dest_cell: u32,
    /// Weekly temporal-graph node of the departure slot.
    pub week_slot: u32,
}

/// Maps raw OD requests onto [`OracleKey`]s: a fixed spatial grid over the
/// road network bounding box plus the model's slot discretization.
#[derive(Clone, Copy, Debug)]
pub struct OdKeyer {
    /// Grid origin (bounding-box minimum corner).
    pub x0: f64,
    /// See `x0`.
    pub y0: f64,
    /// Cell side length in meters.
    pub cell_meters: f64,
    /// Grid width in cells.
    pub nx: u32,
    /// Grid height in cells.
    pub ny: u32,
    /// The slot discretization (shared with the feature encoder).
    pub slots: TimeSlots,
}

impl OdKeyer {
    /// Builds a keyer covering `net`'s bounding box with `cell_meters`
    /// cells (clamped to at least 1 m).
    pub fn for_network(net: &RoadNetwork, cell_meters: f64, slots: TimeSlots) -> OdKeyer {
        let (min, max) = net.bounding_box();
        let cell = if cell_meters.is_finite() && cell_meters >= 1.0 {
            cell_meters
        } else {
            1.0
        };
        let side = |extent: f64| {
            let cells =
                deepod_tensor::ceil_count((extent.max(0.0) / cell).min(f64::from(MAX_GRID_SIDE)));
            cells.max(1) as u32 // capped at MAX_GRID_SIDE
        };
        OdKeyer {
            x0: min.x,
            y0: min.y,
            cell_meters: cell,
            nx: side(max.x - min.x),
            ny: side(max.y - min.y),
            slots,
        }
    }

    /// Cell of a point; coordinates outside the grid clamp to the border
    /// cells, so every finite point keys deterministically. The grid
    /// coordinate is clamped in float space first, so a far-out point
    /// never reaches the integer conversion as a huge or infinite value.
    pub fn cell_of(&self, p: &Point) -> u32 {
        let grid = |v: f64, origin: f64, n: u32| {
            let c = ((v - origin) / self.cell_meters).max(0.0).min(f64::from(n));
            deepod_tensor::floor_coord(c).clamp(0, i64::from(n) - 1)
        };
        let ix = grid(p.x, self.x0, self.nx);
        let iy = grid(p.y, self.y0, self.ny);
        // In-range by the clamps above.
        (iy as u32)
            .saturating_mul(self.nx)
            .saturating_add(ix as u32)
    }

    /// The key of a raw OD request; `None` when the departure time is
    /// before the dataset epoch (or not finite) — those must be rejected
    /// upstream rather than aliased onto slot 0's entry.
    pub fn key_of(&self, od: &OdInput) -> Option<OracleKey> {
        if !od.origin.x.is_finite()
            || !od.origin.y.is_finite()
            || !od.destination.x.is_finite()
            || !od.destination.y.is_finite()
        {
            return None;
        }
        let (slot, _) = self.slots.slot_rem_checked(od.depart)?;
        Some(OracleKey {
            origin_cell: self.cell_of(&od.origin),
            dest_cell: self.cell_of(&od.destination),
            week_slot: self.slots.week_node(slot) as u32, // < slots_per_week
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeepOdConfig, FeatureContext};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};

    fn fixture() -> (CityDataset, TimeSlots) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let ctx = FeatureContext::build(&ds, DeepOdConfig::default().slot_seconds)
            .expect("valid slot size");
        let slots = *ctx.slots();
        (ds, slots)
    }

    #[test]
    fn keyer_clamps_and_round_trips_cells() {
        let (ds, slots) = fixture();
        let keyer = OdKeyer::for_network(&ds.net, 500.0, slots);
        assert!(keyer.nx >= 1 && keyer.ny >= 1);
        let cells = keyer.nx * keyer.ny;
        // The center of every cell keys back to that cell.
        for cell in [0, cells / 2, cells - 1] {
            let (ix, iy) = (cell % keyer.nx, cell / keyer.nx);
            let center = Point::new(
                keyer.x0 + (f64::from(ix) + 0.5) * keyer.cell_meters,
                keyer.y0 + (f64::from(iy) + 0.5) * keyer.cell_meters,
            );
            assert_eq!(keyer.cell_of(&center), cell);
        }
        // Far-out points clamp to border cells instead of panicking.
        let far = Point::new(-1e9, 1e9);
        assert!(keyer.cell_of(&far) < cells);
    }

    #[test]
    fn key_of_rejects_pre_epoch_departures() {
        let (ds, slots) = fixture();
        let keyer = OdKeyer::for_network(&ds.net, 500.0, slots);
        let mut od = ds.train[0].od;
        assert!(keyer.key_of(&od).is_some());
        od.depart = -1.0;
        assert!(
            keyer.key_of(&od).is_none(),
            "pre-epoch must not alias slot 0"
        );
        od.depart = f64::NAN;
        assert!(keyer.key_of(&od).is_none());
    }
}
