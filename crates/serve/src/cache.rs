//! The serving cache: a bounded in-process LRU keyed on the exact
//! request, consulted **before** queue admission (DESIGN.md §15).
//!
//! A hit replies immediately on the caller's reply channel and never
//! consumes worker capacity — under a hot-OD workload the batching
//! workers only ever see the cold tail.
//!
//! **Key.** A [`CacheKey`] holds the bits of every field of the raw
//! request: origin, destination, departure and weather. A miss answers
//! from exactly those fields plus the frozen model and context, so a hit
//! is the miss path's answer by construction — never a neighbour's.
//!
//! **Expiry.** Entries expire by *time slot*, not by age: each entry
//! stamps the wall-clock slot it was inserted in, and dies as soon as the
//! wall clock advances past that slot. Capacity is enforced per shard
//! with a recency index (`BTreeMap` of insertion ticks — no slice
//! indexing anywhere on the hot path, so the no-panic audit can certify
//! it).
//!
//! All clock reads are injected (`now_s`), so expiry is unit-testable
//! without sleeping; the engine passes UNIX time.

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use deepod_core::obs::registry;
use deepod_core::oracle::OdKeyer;
use deepod_core::{TimeSlotError, TimeSlots};
use deepod_traj::OdInput;

/// The cache key ([`ServeCache::key_of`]): the exact bits of a raw
/// request's fields. Two requests share a key only if the model would see
/// the same input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    origin: [u64; 2],
    destination: [u64; 2],
    depart: u64,
    weather: u8,
}

/// Registers the cache metric keys at zero so snapshots carry them even
/// for a cacheless engine.
pub fn register_metrics() {
    registry::counter_add("serve.cache_hits", 0);
    registry::counter_add("serve.cache_misses", 0);
    registry::counter_add("serve.cache_evictions", 0);
    registry::counter_add("serve.cache_stale", 0);
    registry::register_gauge("serve.cache_hit_rate");
}

/// Tunables of the cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total LRU entries across all shards; `0` disables the cache.
    pub capacity: usize,
    /// Wall-clock slot size for expiry, in seconds; must divide a week
    /// (the same contract as the model's own slots). Entries inserted in
    /// slot `k` are stale from slot `k+1` on.
    pub ttl_seconds: f64,
    /// LRU shard count (contention knob; clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 0,
            ttl_seconds: 300.0,
            shards: 4,
        }
    }
}

/// Monotone counters of one cache instance (mirrored into the metrics
/// registry; kept locally so tests can assert without snapshotting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the LRU.
    pub hits: u64,
    /// Lookups the LRU could not answer.
    pub misses: u64,
    /// LRU entries displaced by capacity.
    pub evictions: u64,
    /// LRU entries dropped because the wall slot advanced past theirs.
    pub stale: u64,
}

struct LruShard {
    /// key → (answer, wall slot at insert, recency tick).
    map: HashMap<CacheKey, (f32, usize, u64)>,
    /// tick → key, oldest first; `pop_first` is the eviction victim.
    order: BTreeMap<u64, CacheKey>,
    next_tick: u64,
}

impl LruShard {
    fn new() -> LruShard {
        LruShard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }
}

/// Appends `key` at the most-recent end of a shard's `order` and returns
/// its tick. Takes the shard's fields apart so a caller can hold a `map`
/// entry meanwhile.
fn push_recent(order: &mut BTreeMap<u64, CacheKey>, next_tick: &mut u64, key: CacheKey) -> u64 {
    let tick = *next_tick;
    *next_tick = next_tick.wrapping_add(1);
    order.insert(tick, key);
    tick
}

/// The serving cache: a sharded LRU. Cheap to share (`Arc` it into the
/// engine); all interior mutability is per-shard.
pub struct ServeCache {
    /// Wall-clock discretization driving LRU expiry.
    wall: TimeSlots,
    shards: Vec<Mutex<LruShard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

impl ServeCache {
    /// Builds a cache. Fails only if `ttl_seconds` violates the slot
    /// contract.
    ///
    /// The first two arguments are ignored: the cache keys on the exact
    /// request, not on a cell grid, and the second is uninhabited — the
    /// OD-oracle tier it once carried is gone. Both stay only so
    /// existing callers keep compiling (ROADMAP item 7(a) removes them).
    pub fn new(
        _keyer: OdKeyer,
        _no_oracle: Option<Infallible>,
        cfg: CacheConfig,
    ) -> Result<ServeCache, TimeSlotError> {
        let wall = TimeSlots::new(0.0, cfg.ttl_seconds)?;
        let nshards = cfg.shards.clamp(1, 64);
        let per_shard_capacity = if cfg.capacity == 0 {
            0
        } else {
            cfg.capacity.div_ceil(nshards)
        };
        Ok(ServeCache {
            wall,
            shards: (0..nshards).map(|_| Mutex::new(LruShard::new())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        })
    }

    /// Keys a raw request; `None` when a field is not finite, so such a
    /// request is never served from cache.
    pub fn key_of(&self, od: &OdInput) -> Option<CacheKey> {
        let fields = [
            od.origin.x,
            od.origin.y,
            od.destination.x,
            od.destination.y,
            od.depart,
        ];
        if !fields.iter().all(|v| v.is_finite()) {
            return None;
        }
        Some(CacheKey {
            origin: [od.origin.x.to_bits(), od.origin.y.to_bits()],
            destination: [od.destination.x.to_bits(), od.destination.y.to_bits()],
            depart: od.depart.to_bits(),
            weather: od.weather.0,
        })
    }

    /// Whether the LRU can hold anything (`insert` is a no-op otherwise).
    pub fn lru_enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    /// `None` only if the shard vector were empty — the constructor
    /// builds at least one, so callers degrade to a miss/no-op.
    fn shard_of(&self, key: &CacheKey) -> Option<&Mutex<LruShard>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len().max(1);
        self.shards.get(idx)
    }

    fn lock_shard<'a>(shard: &'a Mutex<LruShard>) -> std::sync::MutexGuard<'a, LruShard> {
        // A poisoned shard means a panic mid-insert; the maps stay
        // structurally valid, so keep serving.
        shard.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wall_slot(&self, now_s: f64) -> usize {
        self.wall
            .slot_rem_checked(now_s)
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    /// Looks up an answer at wall time `now_s`, dropping the entry as
    /// stale if the wall slot advanced past it. Updates hit/miss/stale
    /// accounting and the hit-rate gauge.
    pub fn lookup(&self, key: CacheKey, now_s: f64) -> Option<f32> {
        let now_slot = self.wall_slot(now_s);
        if let Some(mutex) = self.shard_of(&key).filter(|_| self.lru_enabled()) {
            let mut guard = Self::lock_shard(mutex);
            let LruShard {
                map,
                order,
                next_tick,
            } = &mut *guard;
            match map.get_mut(&key) {
                Some(&mut (_, slot, tick)) if slot < now_slot => {
                    map.remove(&key);
                    order.remove(&tick);
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    registry::counter_inc("serve.cache_stale");
                }
                Some((eta, _, tick)) => {
                    let eta = *eta;
                    order.remove(tick);
                    *tick = push_recent(order, next_tick, key);
                    drop(guard);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    registry::counter_inc("serve.cache_hits");
                    self.publish_hit_rate();
                    return Some(eta);
                }
                None => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        registry::counter_inc("serve.cache_misses");
        self.publish_hit_rate();
        None
    }

    /// Stores an engine-computed answer, stamped with the current wall
    /// slot. No-op when the LRU is disabled. At capacity the
    /// least-recently-used entry is evicted first.
    pub fn insert(&self, key: CacheKey, eta_seconds: f32, now_s: f64) {
        if !self.lru_enabled() {
            return;
        }
        let now_slot = self.wall_slot(now_s);
        let Some(mutex) = self.shard_of(&key) else {
            return;
        };
        let mut guard = Self::lock_shard(mutex);
        let LruShard {
            map,
            order,
            next_tick,
        } = &mut *guard;
        if let Some(entry) = map.get_mut(&key) {
            order.remove(&entry.2);
            *entry = (eta_seconds, now_slot, push_recent(order, next_tick, key));
            return;
        }
        while map.len() >= self.per_shard_capacity {
            let Some((_, victim)) = order.pop_first() else {
                break; // order/map out of sync; recover by inserting anyway
            };
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            registry::counter_inc("serve.cache_evictions");
        }
        let tick = push_recent(order, next_tick, key);
        map.insert(key, (eta_seconds, now_slot, tick));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }

    fn publish_hit_rate(&self) {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m > 0.0 {
            registry::gauge_set("serve.cache_hit_rate", h / (h + m));
        }
    }
}

/// UNIX wall time in seconds, as the cache's `now_s`. A clock before the
/// epoch (impossible on healthy systems) degrades to 0.0 rather than
/// panicking.
pub fn now_epoch_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::Point;
    use deepod_traffic::WeatherType;

    fn od(x: f64, depart: f64) -> OdInput {
        OdInput {
            origin: Point::new(x, 0.0),
            destination: Point::new(0.0, x),
            depart,
            weather: WeatherType(0),
        }
    }

    fn key(o: u32, d: u32, s: u32) -> CacheKey {
        CacheKey {
            origin: [u64::from(o), 0],
            destination: [u64::from(d), 0],
            depart: u64::from(s),
            weather: 0,
        }
    }

    /// A 1×1 grid keyer: the cache ignores it.
    fn keyer() -> OdKeyer {
        OdKeyer {
            x0: 0.0,
            y0: 0.0,
            cell_meters: 1000.0,
            nx: 1,
            ny: 1,
            slots: TimeSlots::five_minutes(),
        }
    }

    fn lru_only(capacity: usize, ttl: f64) -> ServeCache {
        ServeCache::new(
            keyer(),
            None,
            CacheConfig {
                capacity,
                ttl_seconds: ttl,
                shards: 1,
            },
        )
        .expect("valid ttl")
    }

    #[test]
    fn keys_are_exact_requests_and_reject_non_finite_fields() {
        let cache = lru_only(1, 300.0);
        let base = od(100.0, 30_000.0);
        let k = cache.key_of(&base).expect("finite request");
        assert_eq!(cache.key_of(&base), Some(k), "same request, same key");
        // Requests that share a 1 km cell and a weekly slot still differ.
        let mut moved = base;
        moved.origin.x += 1.0;
        let mut later = base;
        later.depart += 1.0;
        let mut wet = base;
        wet.weather = WeatherType(3);
        for other in [moved, later, wet] {
            assert_ne!(cache.key_of(&other), Some(k), "{other:?}");
        }
        // A pre-epoch request keys; the protocol layer rejects it.
        assert!(cache.key_of(&od(100.0, -5.0)).is_some());
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(cache.key_of(&od(bad, 30_000.0)), None);
            assert_eq!(cache.key_of(&od(100.0, bad)), None);
        }
    }

    #[test]
    fn miss_then_populate_then_hit() {
        let cache = lru_only(8, 300.0);
        let k = key(1, 2, 3);
        assert_eq!(cache.lookup(k, 10.0), None);
        cache.insert(k, 123.5, 10.0);
        assert_eq!(cache.lookup(k, 20.0), Some(123.5));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                stale: 0
            }
        );
    }

    #[test]
    fn entries_expire_when_the_wall_slot_advances() {
        let cache = lru_only(8, 300.0);
        let k = key(1, 2, 3);
        cache.insert(k, 42.0, 10.0); // slot 0
        assert_eq!(cache.lookup(k, 299.0), Some(42.0), "same slot: fresh");
        assert_eq!(cache.lookup(k, 301.0), None, "next slot: stale");
        assert_eq!(cache.stats().stale, 1);
        // Stale lookup evicted the entry; a later same-slot lookup is a
        // plain miss, not stale again.
        assert_eq!(cache.lookup(k, 302.0), None);
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used_first() {
        let cache = lru_only(2, 300.0);
        let (a, b, c) = (key(1, 0, 0), key(2, 0, 0), key(3, 0, 0));
        cache.insert(a, 1.0, 0.0);
        cache.insert(b, 2.0, 0.0);
        assert_eq!(cache.lookup(a, 1.0), Some(1.0)); // a is now most recent
        cache.insert(c, 3.0, 1.0); // evicts b, the LRU
        assert_eq!(cache.lookup(b, 2.0), None);
        assert_eq!(cache.lookup(a, 2.0), Some(1.0));
        assert_eq!(cache.lookup(c, 2.0), Some(3.0));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_the_lru_tier() {
        let cache = lru_only(0, 300.0);
        let k = key(1, 2, 3);
        cache.insert(k, 1.0, 0.0);
        assert_eq!(cache.lookup(k, 0.0), None);
        assert!(!cache.lru_enabled());
    }

    #[test]
    fn ttl_must_satisfy_the_slot_contract() {
        let bad = ServeCache::new(
            keyer(),
            None,
            CacheConfig {
                capacity: 4,
                ttl_seconds: 777.0, // not a week divisor
                shards: 1,
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn reinsert_refreshes_value_and_slot() {
        let cache = lru_only(4, 300.0);
        let k = key(7, 8, 9);
        cache.insert(k, 10.0, 10.0); // slot 0
        cache.insert(k, 20.0, 310.0); // slot 1: refresh
        assert_eq!(cache.lookup(k, 320.0), Some(20.0));
    }
}
