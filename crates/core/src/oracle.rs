//! OD-oracle precompute (ROADMAP item 4): a checksummed artifact of
//! precomputed TTE answers keyed on `(origin cell, destination cell,
//! weekly time slot)`.
//!
//! Production OD workloads are dominated by repeated queries over a small
//! hot set of origin/destination areas ("Origin-Destination Travel Time
//! Oracle for Map-based Services", PAPERS.md). The oracle exploits that: a
//! `deepod precompute` pass bulk-runs [`DeepOdModel::estimate_batch`] over
//! the hot OD matrix — the top-K grid cells by trajectory frequency
//! crossed with the busiest weekly slots — and freezes the answers into an
//! [`OdOracle`] artifact the serving tier consults before spending worker
//! capacity.
//!
//! **Key scheme.** Space is discretized by [`OdKeyer`]: a fixed grid over
//! the road network's bounding box (`cell_meters` per side, points
//! outside the box clamp to the border cells). Time is discretized by the
//! model's own [`TimeSlots`] and wrapped onto the weekly temporal graph —
//! the same slot attribution the feature encoder uses, which is why the
//! slot-boundary determinism fixed in [`crate::timeslot`] is load-bearing
//! here: an edge timestamp that flapped between neighboring slots would
//! alias two different cache entries.
//!
//! **Canonical answers.** Each oracle entry stores the model's answer for
//! the *canonical* request of its key: origin/destination at the cell
//! centers, departing exactly at the slot's start (remainder 0, first
//! week). Serving a nearby request from the oracle is an approximation by
//! construction (documented in DESIGN.md §15); the drift gate in
//! `deepod-eval` verifies the canonical answers stay **bit-identical** to
//! a fresh `estimate_batch` run for the same model version.
//!
//! **Versioning.** The artifact embeds a fingerprint of the model JSON it
//! was computed from ([`model_fingerprint`]); the serving tier refuses to
//! use an oracle whose fingerprint does not match the model it loaded.
//!
//! **On-disk encoding.** [`OdOracle::save`] writes a compact binary
//! payload (magic `DPODORC2`, little-endian header + 16-byte records)
//! inside the same checksummed [`io_guard`] container as every other
//! artifact. It is the only encoding: [`OdOracle::load`] rejects a
//! payload without the magic as [`OracleError::Format`]. The embedded
//! version field is checked before the rest of the header; the rebuilt
//! [`TimeSlots`] goes back through its validating constructor so a
//! hand-edited `dt` cannot smuggle in a skewed weekly wrap.

use crate::features::FeatureContext;
use crate::io_guard::{self, IoGuardError};
use crate::model::{DeepOdModel, PredictRequest};
use crate::timeslot::TimeSlots;
use deepod_roadnet::{Point, RoadNetwork};
use deepod_traj::{CityDataset, OdInput};
use std::collections::HashMap;

/// Artifact format version; bumped on breaking layout changes.
pub const ORACLE_VERSION: u32 = 1;

/// Largest grid side, in cells, an [`OdKeyer`] can have: `for_network`
/// caps each side here, and the decoder rejects anything beyond it.
const MAX_GRID_SIDE: u32 = 1_000_000;

/// A typed oracle-artifact failure.
#[derive(Debug)]
pub enum OracleError {
    /// The guarded read or write failed (missing file, checksum mismatch,
    /// truncated artifact — see [`IoGuardError::is_corruption`]).
    Io(IoGuardError),
    /// The payload is not a well-formed oracle encoding.
    Format(String),
    /// The artifact is from an incompatible format version.
    Version {
        /// Version found in the artifact.
        found: u32,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Io(e) => write!(f, "oracle io failed: {e}"),
            OracleError::Format(why) => write!(f, "oracle artifact malformed: {why}"),
            OracleError::Version { found } => write!(
                f,
                "oracle artifact version {found} is not supported (expected {ORACLE_VERSION})"
            ),
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OracleError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoGuardError> for OracleError {
    fn from(e: IoGuardError) -> Self {
        OracleError::Io(e)
    }
}

/// Fingerprint of a serialized model (FNV-1a over the exact JSON
/// payload of the model file, without its checksum footer), rendered as
/// fixed-width hex so it survives JSON round-trips losslessly. Both
/// `deepod precompute` and `deepod serve` fingerprint that payload, so
/// any retrain invalidates the oracle.
pub fn model_fingerprint(model_bytes: &[u8]) -> String {
    format!("{:016x}", io_guard::fnv1a64(model_bytes))
}

/// The cache/oracle key: origin cell, destination cell, weekly time slot.
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

    /// Total number of grid cells.
    pub fn num_cells(&self) -> u32 {
        self.nx.saturating_mul(self.ny)
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

    /// Center point of a cell (row-major index; out-of-range indices clamp
    /// to the last cell).
    pub fn cell_center(&self, cell: u32) -> Point {
        let cell = cell.min(self.num_cells().saturating_sub(1));
        let ix = cell % self.nx.max(1);
        let iy = cell / self.nx.max(1);
        Point::new(
            self.x0 + (f64::from(ix) + 0.5) * self.cell_meters,
            self.y0 + (f64::from(iy) + 0.5) * self.cell_meters,
        )
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

    /// The canonical request of a key: cell centers, departing exactly at
    /// the slot start of the *first* week (remainder 0 — deterministic by
    /// the boundary-snap contract of [`TimeSlots::slot_rem`]). The weather
    /// input is the dataset's condition at that canonical time, matching
    /// what the serve path would attach.
    pub fn canonical_od(&self, key: OracleKey, ds: &CityDataset) -> OdInput {
        let depart = self.slots.t0 + f64::from(key.week_slot) * self.slots.dt;
        OdInput {
            origin: self.cell_center(key.origin_cell),
            destination: self.cell_center(key.dest_cell),
            depart,
            weather: ds.traffic.weather().at(depart),
        }
    }
}

/// One precomputed answer.
#[derive(Clone, Copy, Debug)]
pub struct OracleEntry {
    /// The key this answer is canonical for.
    pub key: OracleKey,
    /// The model's canonical ETA in seconds.
    pub eta_seconds: f32,
}

/// The precomputed OD-oracle artifact.
#[derive(Clone, Debug)]
pub struct OdOracle {
    /// Artifact format version ([`ORACLE_VERSION`]).
    pub version: u32,
    /// The key scheme the entries were computed under.
    pub keyer: OdKeyer,
    /// Hex fingerprint of the model file ([`model_fingerprint`]).
    pub model_fingerprint: String,
    /// Sorted by key (binary-searchable, deterministic bytes).
    pub entries: Vec<OracleEntry>,
}

/// Payload magic of the binary oracle encoding (inside the checksummed
/// container).
const BINARY_MAGIC: [u8; 8] = *b"DPODORC2";

/// Bytes per binary record: `(origin_cell, dest_cell, week_slot): u32`
/// plus `eta_seconds: f32`, all little-endian.
const RECORD_BYTES: usize = 16;

/// A bounds-checked little-endian cursor over the binary payload; every
/// short read is a typed [`OracleError::Format`], never a slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], OracleError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(OracleError::Format(format!(
                "truncated while reading {what} (need {n} bytes at offset {})",
                self.pos
            )));
        };
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn read_u32(&mut self, what: &str) -> Result<u32, OracleError> {
        let b = self.take_bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn read_u64(&mut self, what: &str) -> Result<u64, OracleError> {
        let b = self.take_bytes(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn read_f64(&mut self, what: &str) -> Result<f64, OracleError> {
        Ok(f64::from_bits(self.read_u64(what)?))
    }

    fn read_f32(&mut self, what: &str) -> Result<f32, OracleError> {
        Ok(f32::from_bits(self.read_u32(what)?))
    }
}

impl OdOracle {
    /// Looks up the canonical answer for a key.
    pub fn lookup(&self, key: OracleKey) -> Option<f32> {
        self.entries
            .binary_search_by(|e| e.key.cmp(&key))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|e| e.eta_seconds)
    }

    /// Encodes the artifact as the binary payload (header + fixed-width
    /// records). Deterministic bytes: entries are already key-sorted and
    /// floats are written as their exact bit patterns.
    fn to_binary(&self) -> Vec<u8> {
        let fp = self.model_fingerprint.as_bytes();
        let mut out =
            Vec::with_capacity(8 + 4 + 56 + 4 + fp.len() + 8 + self.entries.len() * RECORD_BYTES);
        out.extend_from_slice(&BINARY_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.keyer.x0.to_bits().to_le_bytes());
        out.extend_from_slice(&self.keyer.y0.to_bits().to_le_bytes());
        out.extend_from_slice(&self.keyer.cell_meters.to_bits().to_le_bytes());
        out.extend_from_slice(&self.keyer.nx.to_le_bytes());
        out.extend_from_slice(&self.keyer.ny.to_le_bytes());
        out.extend_from_slice(&self.keyer.slots.t0.to_bits().to_le_bytes());
        out.extend_from_slice(&self.keyer.slots.dt.to_bits().to_le_bytes());
        out.extend_from_slice(&(fp.len() as u32).to_le_bytes()); // 16-char hex
        out.extend_from_slice(fp);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.key.origin_cell.to_le_bytes());
            out.extend_from_slice(&e.key.dest_cell.to_le_bytes());
            out.extend_from_slice(&e.key.week_slot.to_le_bytes());
            out.extend_from_slice(&e.eta_seconds.to_bits().to_le_bytes());
        }
        out
    }

    /// Decodes the binary payload. The version field is checked before
    /// the rest of the header, so a future v3 artifact fails as
    /// [`OracleError::Version`] rather than as garbled-format noise. The
    /// keyer geometry must be one [`OdKeyer::for_network`] can produce,
    /// and the slot discretization is rebuilt through [`TimeSlots::new`],
    /// so a hand-edited header cannot install a keyer that panics or
    /// mis-keys live requests.
    fn from_binary(bytes: &[u8]) -> Result<OdOracle, OracleError> {
        if !bytes.starts_with(&BINARY_MAGIC) {
            return Err(OracleError::Format(
                "payload does not start with the DPODORC2 magic".into(),
            ));
        }
        let mut cur = Cursor {
            bytes,
            pos: BINARY_MAGIC.len(),
        };
        let version = cur.read_u32("version")?;
        if version != ORACLE_VERSION {
            return Err(OracleError::Version { found: version });
        }
        let x0 = cur.read_f64("keyer.x0")?;
        let y0 = cur.read_f64("keyer.y0")?;
        let cell_meters = cur.read_f64("keyer.cell_meters")?;
        let nx = cur.read_u32("keyer.nx")?;
        let ny = cur.read_u32("keyer.ny")?;
        if !x0.is_finite() || !y0.is_finite() {
            return Err(OracleError::Format(format!(
                "keyer origin ({x0}, {y0}) is not finite"
            )));
        }
        if !(cell_meters.is_finite() && cell_meters >= 1.0) {
            return Err(OracleError::Format(format!(
                "keyer cell size {cell_meters} m is not a finite value >= 1"
            )));
        }
        let sides = 1..=MAX_GRID_SIDE;
        if !sides.contains(&nx) || !sides.contains(&ny) {
            return Err(OracleError::Format(format!(
                "keyer grid {nx}x{ny} is outside 1..={MAX_GRID_SIDE} cells per side"
            )));
        }
        let t0 = cur.read_f64("slots.t0")?;
        let dt = cur.read_f64("slots.dt")?;
        let slots = TimeSlots::new(t0, dt)
            .map_err(|e| OracleError::Format(format!("invalid slot discretization: {e}")))?;
        let fp_len = cur.read_u32("fingerprint length")? as usize;
        if fp_len > 1024 {
            return Err(OracleError::Format(format!(
                "implausible fingerprint length {fp_len}"
            )));
        }
        let fp = cur.take_bytes(fp_len, "fingerprint")?;
        let model_fingerprint = String::from_utf8(fp.to_vec())
            .map_err(|_| OracleError::Format("fingerprint is not UTF-8".into()))?;
        let count = cur.read_u64("entry count")? as usize; // bounds-checked below
        let remaining = bytes.len().saturating_sub(cur.pos);
        if count != remaining / RECORD_BYTES || !remaining.is_multiple_of(RECORD_BYTES) {
            return Err(OracleError::Format(format!(
                "entry count {count} does not match {remaining} payload bytes"
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let what = "record";
            let key = OracleKey {
                origin_cell: cur.read_u32(what)?,
                dest_cell: cur.read_u32(what)?,
                week_slot: cur.read_u32(what)?,
            };
            let eta_seconds = cur.read_f32(what)?;
            if let Some(prev) = entries.last().map(|e: &OracleEntry| e.key) {
                if prev >= key {
                    return Err(OracleError::Format(format!(
                        "entries not strictly key-sorted at record {i}"
                    )));
                }
            }
            entries.push(OracleEntry { key, eta_seconds });
        }
        Ok(OdOracle {
            version,
            keyer: OdKeyer {
                x0,
                y0,
                cell_meters,
                nx,
                ny,
                slots,
            },
            model_fingerprint,
            entries,
        })
    }

    /// Writes the artifact in the binary encoding through [`io_guard`]
    /// (atomic temp-file rename, checksummed container).
    pub fn save(&self, path: &std::path::Path) -> Result<(), OracleError> {
        io_guard::write_checksummed(path, &self.to_binary())?;
        Ok(())
    }

    /// Reads and verifies an artifact: io_guard checksum first (corrupt
    /// bytes surface as [`OracleError::Io`] with
    /// [`IoGuardError::is_corruption`] true), then the `DPODORC2`
    /// payload magic, then format version.
    pub fn load(path: &std::path::Path) -> Result<OdOracle, OracleError> {
        OdOracle::from_binary(&io_guard::read_checksummed(path)?)
    }
}

/// Knobs of the precompute pass.
#[derive(Clone, Copy, Debug)]
pub struct PrecomputeSpec {
    /// Top-K grid cells by trajectory endpoint frequency.
    pub cells: usize,
    /// Top-N weekly slots by departure frequency.
    pub slots: usize,
    /// Grid cell side length in meters.
    pub cell_meters: f64,
}

impl Default for PrecomputeSpec {
    fn default() -> Self {
        PrecomputeSpec {
            cells: 8,
            slots: 16,
            cell_meters: 500.0,
        }
    }
}

/// The hot keys of a dataset under a keyer: the top-`cells` grid cells by
/// train-trajectory endpoint frequency crossed with the top-`slots`
/// weekly slots by departure frequency. Deterministic: ties break on the
/// smaller cell/slot index.
pub fn hot_keys(keyer: &OdKeyer, ds: &CityDataset, spec: &PrecomputeSpec) -> Vec<OracleKey> {
    let mut cell_freq: HashMap<u32, u64> = HashMap::new();
    let mut slot_freq: HashMap<u32, u64> = HashMap::new();
    for order in &ds.train {
        *cell_freq
            .entry(keyer.cell_of(&order.od.origin))
            .or_insert(0) += 1;
        *cell_freq
            .entry(keyer.cell_of(&order.od.destination))
            .or_insert(0) += 1;
        if let Some((slot, _)) = keyer.slots.slot_rem_checked(order.od.depart) {
            let node = keyer.slots.week_node(slot) as u32; // < slots_per_week
            *slot_freq.entry(node).or_insert(0) += 1;
        }
    }
    let top_cells = top_by_freq(cell_freq, spec.cells);
    let top_slots = top_by_freq(slot_freq, spec.slots);
    let mut keys = Vec::with_capacity(top_cells.len() * top_cells.len() * top_slots.len());
    for &oc in &top_cells {
        for &dc in &top_cells {
            for &s in &top_slots {
                keys.push(OracleKey {
                    origin_cell: oc,
                    dest_cell: dc,
                    week_slot: s,
                });
            }
        }
    }
    keys
}

/// Top-`k` ids by count, descending; equal counts order by ascending id
/// so the selection is independent of `HashMap` iteration order.
fn top_by_freq(freq: HashMap<u32, u64>, k: usize) -> Vec<u32> {
    let mut pairs: Vec<(u32, u64)> = freq.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs.into_iter().map(|(id, _)| id).collect()
}

/// Runs the precompute pass: builds the canonical request of every hot
/// key, bulk-answers them through [`DeepOdModel::estimate_batch`] (the
/// existing parallel map — bit-identical for any `threads`), and returns
/// the artifact. Keys whose canonical endpoints cannot be matched to the
/// road network are skipped, not failed.
pub fn precompute(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    spec: &PrecomputeSpec,
    fingerprint: String,
    threads: usize,
) -> OdOracle {
    let keyer = OdKeyer::for_network(&ds.net, spec.cell_meters, *ctx.slots());
    let keys = hot_keys(&keyer, ds, spec);
    let reqs: Vec<PredictRequest> = keys
        .iter()
        .map(|&k| PredictRequest::Raw(keyer.canonical_od(k, ds)))
        .collect();
    let answers = model.estimate_batch(ctx, &ds.net, &reqs, threads);
    let mut entries: Vec<OracleEntry> = keys
        .into_iter()
        .zip(answers)
        .filter_map(|(key, res)| {
            res.ok().map(|resp| OracleEntry {
                key,
                eta_seconds: resp.eta_seconds,
            })
        })
        .collect();
    entries.sort_by_key(|e| e.key);
    OdOracle {
        version: ORACLE_VERSION,
        keyer,
        model_fingerprint: fingerprint,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode_props::check_decoder;
    use crate::DeepOdConfig;
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};
    use proptest::prelude::*;

    fn fixture() -> (CityDataset, FeatureContext, DeepOdModel) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let cfg = DeepOdConfig {
            ds: 4,
            dt_dim: 4,
            d1m: 4,
            d2m: 4,
            d3m: 4,
            d4m: 4,
            d5m: 4,
            d6m: 4,
            d7m: 4,
            d9m: 4,
            dh: 4,
            dtraf: 4,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        (ds, ctx, model)
    }

    #[test]
    fn keyer_clamps_and_round_trips_cells() {
        let (ds, ctx, _) = fixture();
        let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
        assert!(keyer.nx >= 1 && keyer.ny >= 1);
        // Center of every cell keys back to that cell.
        for cell in [0, keyer.num_cells() / 2, keyer.num_cells() - 1] {
            assert_eq!(keyer.cell_of(&keyer.cell_center(cell)), cell);
        }
        // Far-out points clamp to border cells instead of panicking.
        let far = Point::new(-1e9, 1e9);
        assert!(keyer.cell_of(&far) < keyer.num_cells());
    }

    #[test]
    fn key_of_rejects_pre_epoch_departures() {
        let (ds, ctx, _) = fixture();
        let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
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

    #[test]
    fn precompute_answers_are_bit_identical_to_fresh_estimates() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 4,
            slots: 4,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "test".into(), 1);
        assert!(!oracle.entries.is_empty(), "hot matrix produced no entries");
        // Recompute every canonical request fresh, with a different thread
        // count, and demand bit-identity.
        let reqs: Vec<PredictRequest> = oracle
            .entries
            .iter()
            .map(|e| PredictRequest::Raw(oracle.keyer.canonical_od(e.key, &ds)))
            .collect();
        let fresh = model.estimate_batch(&ctx, &ds.net, &reqs, 4);
        for (entry, res) in oracle.entries.iter().zip(fresh) {
            let resp = res.expect("canonical request stays matchable");
            assert_eq!(
                entry.eta_seconds.to_bits(),
                resp.eta_seconds.to_bits(),
                "oracle drift at {:?}",
                entry.key
            );
        }
    }

    #[test]
    fn artifact_round_trips_and_rejects_corruption() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 2,
            slots: 2,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "fp".into(), 1);
        let dir = std::env::temp_dir().join(format!("deepod-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("oracle.json");
        oracle.save(&path).expect("save artifact");
        let loaded = OdOracle::load(&path).expect("load artifact");
        assert_eq!(loaded.entries.len(), oracle.entries.len());
        assert_eq!(loaded.model_fingerprint, "fp");
        for e in &oracle.entries {
            assert_eq!(loaded.lookup(e.key), Some(e.eta_seconds));
        }
        assert_eq!(
            loaded.lookup(OracleKey {
                origin_cell: u32::MAX,
                dest_cell: u32::MAX,
                week_slot: u32::MAX
            }),
            None
        );
        // Flip one payload byte: the checksummed read must fail as
        // corruption, not parse garbage.
        let mut bytes = std::fs::read(&path).expect("raw artifact");
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt artifact");
        match OdOracle::load(&path) {
            Err(OracleError::Io(e)) => assert!(e.is_corruption(), "unexpected: {e}"),
            other => panic!("corrupt artifact must fail as Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_round_trip_is_bit_identical() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 3,
            slots: 3,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "0123456789abcdef".into(), 1);
        assert!(!oracle.entries.is_empty());
        let back = OdOracle::from_binary(&oracle.to_binary()).expect("round trip");
        assert_eq!(back.model_fingerprint, oracle.model_fingerprint);
        assert_eq!(back.keyer.nx, oracle.keyer.nx);
        assert_eq!(
            back.keyer.slots.dt.to_bits(),
            oracle.keyer.slots.dt.to_bits()
        );
        assert_eq!(back.entries.len(), oracle.entries.len());
        for (a, b) in back.entries.iter().zip(&oracle.entries) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.eta_seconds.to_bits(), b.eta_seconds.to_bits());
        }
    }

    #[test]
    fn binary_decoder_rejects_bad_version_truncation_and_bad_slots() {
        let (ds, ctx, model) = fixture();
        let spec = PrecomputeSpec {
            cells: 2,
            slots: 2,
            cell_meters: 500.0,
        };
        let oracle = precompute(&model, &ctx, &ds, &spec, "fp".into(), 1);
        let bin = oracle.to_binary();

        // Unknown version fails typed, before any other header parsing.
        let mut v2 = bin.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        match OdOracle::from_binary(&v2) {
            Err(OracleError::Version { found: 2 }) => {}
            other => panic!("v2 must fail as Version, got {other:?}"),
        }

        // A checksummed payload without the magic (what the retired JSON
        // encoding looked like) is a typed Format error from `load`.
        let dir = std::env::temp_dir().join(format!("deepod-oracle-magic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("oracle.json");
        io_guard::write_checksummed(&path, br#"{"version":1,"entries":[]}"#).expect("write");
        match OdOracle::load(&path) {
            Err(OracleError::Format(why)) => assert!(why.contains("magic"), "got: {why}"),
            other => panic!("non-magic payload must fail as Format, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Truncation anywhere fails as Format, never panics.
        for cut in [4, 9, 20, 60, bin.len() - 3] {
            match OdOracle::from_binary(&bin[..cut]) {
                Err(OracleError::Format(_)) => {}
                other => panic!("truncation at {cut} must fail as Format, got {other:?}"),
            }
        }

        // A hand-edited dt that does not divide a week is rejected by the
        // validating TimeSlots constructor, not accepted silently.
        let mut skewed = bin.clone();
        let dt_off = 8 + 4 + 24 + 8 + 8; // magic, version, x0/y0/cell, nx/ny, t0
        skewed[dt_off..dt_off + 8].copy_from_slice(&1000.0f64.to_bits().to_le_bytes());
        match OdOracle::from_binary(&skewed) {
            Err(OracleError::Format(why)) => {
                assert!(why.contains("slot"), "unexpected reason: {why}")
            }
            other => panic!("skewed dt must fail as Format, got {other:?}"),
        }
    }

    #[test]
    fn decoder_rejects_keyer_geometry_for_network_cannot_produce() {
        let oracle = OdOracle {
            version: ORACLE_VERSION,
            keyer: OdKeyer {
                x0: 0.0,
                y0: 0.0,
                cell_meters: 500.0,
                nx: 4,
                ny: 4,
                slots: TimeSlots::five_minutes(),
            },
            model_fingerprint: "fp".into(),
            entries: Vec::new(),
        };
        let bin = oracle.to_binary();
        assert!(
            OdOracle::from_binary(&bin).is_ok(),
            "the base payload is valid"
        );
        // (header offset, replacement bytes, what they break). `nx = 0` made
        // `cell_of` panic on every raw request once installed for serving.
        let f64_at = |off: usize, v: f64| (off, v.to_bits().to_le_bytes().to_vec());
        let u32_at = |off: usize, v: u32| (off, v.to_le_bytes().to_vec());
        let cases = [
            (u32_at(36, 0), "nx = 0"),
            (u32_at(40, 0), "ny = 0"),
            (u32_at(36, MAX_GRID_SIDE + 1), "nx beyond the cap"),
            (f64_at(28, 0.0), "zero cell size"),
            (f64_at(28, 0.5), "sub-meter cell size"),
            (f64_at(28, f64::NAN), "NaN cell size"),
            (f64_at(12, f64::INFINITY), "infinite x0"),
            (f64_at(20, f64::NAN), "NaN y0"),
        ];
        for ((off, bytes), what) in cases {
            let mut bad = bin.clone();
            bad[off..off + bytes.len()].copy_from_slice(&bytes);
            match OdOracle::from_binary(&bad) {
                Err(OracleError::Format(why)) => assert!(why.contains("keyer"), "{what}: {why}"),
                other => panic!("{what} must fail as Format, got {other:?}"),
            }
        }
    }

    /// Any finite `f64`, drawn from the whole bit domain (the vendored
    /// `any::<f64>()` is unit-interval only).
    fn finite_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                (bits >> 11) as f64
            }
        })
    }

    /// Slot sizes that divide a week.
    const SLOT_SECONDS: [f64; 4] = [60.0, 300.0, 3600.0, 604_800.0];

    /// Any oracle `precompute` could write: keyer geometry
    /// `OdKeyer::for_network` can produce, any hex fingerprint, and
    /// strictly key-sorted entries with arbitrary answer bits.
    fn valid_oracle() -> impl Strategy<Value = OdOracle> {
        let geometry = (
            finite_f64(),
            finite_f64(),
            1.0f64..1e6,
            1u32..=MAX_GRID_SIDE,
            1u32..=MAX_GRID_SIDE,
        );
        let fingerprint = proptest::collection::vec(0u32..16, 0..=24);
        let entry = (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>());
        let entries = proptest::collection::vec(entry, 0..=8);
        (geometry, 0..SLOT_SECONDS.len(), fingerprint, entries).prop_map(
            |((x0, y0, cell_meters, nx, ny), slot, fp, raw)| {
                let mut entries: Vec<OracleEntry> = raw
                    .into_iter()
                    .map(|(origin_cell, dest_cell, week_slot, eta)| OracleEntry {
                        key: OracleKey {
                            origin_cell,
                            dest_cell,
                            week_slot,
                        },
                        eta_seconds: f32::from_bits(eta),
                    })
                    .collect();
                entries.sort_by_key(|e| e.key);
                entries.dedup_by_key(|e| e.key);
                OdOracle {
                    version: ORACLE_VERSION,
                    keyer: OdKeyer {
                        x0,
                        y0,
                        cell_meters,
                        nx,
                        ny,
                        slots: TimeSlots::new(0.0, SLOT_SECONDS[slot]).expect("divides a week"),
                    },
                    model_fingerprint: fp
                        .into_iter()
                        .filter_map(|d| char::from_digit(d, 16))
                        .collect(),
                    entries,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The DPODORC2 reader holds the shared decode properties, and
        /// every keyer it accepts keys arbitrary finite endpoints without
        /// panicking — the serving tier installs that keyer for live
        /// requests.
        #[test]
        fn binary_decoder_properties(
            oracle in valid_oracle(),
            seed in any::<u64>(),
            points in proptest::collection::vec((finite_f64(), finite_f64()), 2..=6),
        ) {
            let keys_arbitrary_points = |o: &OdOracle| {
                let slots = o.keyer.slots;
                for pair in points.windows(2) {
                    for depart in [slots.t0, slots.t0 + 3.5 * slots.dt] {
                        let od = OdInput {
                            origin: Point::new(pair[0].0, pair[0].1),
                            destination: Point::new(pair[1].0, pair[1].1),
                            depart,
                            weather: deepod_traffic::WeatherType(0),
                        };
                        let _ = o.keyer.key_of(&od);
                    }
                }
                Ok(())
            };
            check_decoder(
                seed,
                &oracle,
                OdOracle::to_binary,
                OdOracle::from_binary,
                keys_arbitrary_points,
            )?;
        }
    }

    #[test]
    fn hot_keys_are_deterministic_and_bounded() {
        let (ds, ctx, _) = fixture();
        let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
        let spec = PrecomputeSpec {
            cells: 3,
            slots: 5,
            cell_meters: 500.0,
        };
        let a = hot_keys(&keyer, &ds, &spec);
        let b = hot_keys(&keyer, &ds, &spec);
        assert_eq!(a, b, "hot-key selection must not depend on map order");
        assert!(a.len() <= 3 * 3 * 5);
    }
}
