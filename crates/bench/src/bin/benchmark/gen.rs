//! Seeded input generation, owned by the benchmark: request pools drawn
//! from the dataset's ODs, the Zipf hot-set mix, and Poisson arrival
//! schedules. Everything here is a pure function of its seed, so the
//! program under test receives only generated inputs.

use std::collections::HashSet;
use std::time::Duration;

use deepod_core::oracle::{OdKeyer, OracleKey};
use deepod_serve::WireRequest;
use deepod_traj::{CityDataset, OdInput};
use rand::rngs::StdRng;
use rand::Rng;

/// Independent RNG streams derived from the one `--seed`, so adding a
/// draw to one generator never shifts another.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Which dataset OD a request uses and its departure jitter.
    Requests = 1,
    /// Hot/tail choice and Zipf ranks.
    Mix = 2,
    /// Poisson inter-arrival gaps (offset by the repetition index).
    Arrivals = 16,
}

/// The RNG of one stream (optionally of one repetition of it).
pub fn rng(seed: u64, stream: Stream, rep: u64) -> StdRng {
    let lane = stream as u64 + rep;
    deepod_tensor::rng_from_seed(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Zipf(s = 1) over ranks `0..n`: P(k) ∝ 1 / (k + 1).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the cumulative table for `n ≥ 1` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64 + 1.0);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Offsets from the phase start at which `n` requests are due: Poisson
/// arrivals at `rate_rps` (exponential gaps). Fixed gaps phase-lock with
/// the engine's coalescing timer and make the median bimodal.
pub fn poisson_schedule(rng: &mut StdRng, rate_rps: f64, n: usize) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_rps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// A request without its correlation id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Od {
    /// Origin (meters).
    pub from: (f64, f64),
    /// Destination (meters).
    pub to: (f64, f64),
    /// Departure (seconds since the dataset epoch).
    pub depart: f64,
}

impl Od {
    /// The wire frame carrying this request under `id`.
    pub fn wire(&self, id: u64) -> WireRequest {
        WireRequest {
            id,
            from: self.from,
            to: self.to,
            depart: self.depart,
            low_priority: false,
        }
    }
}

/// One dataset OD with a departure drawn uniformly over the horizon.
fn draw(ds: &CityDataset, ods: &[OdInput], rng: &mut StdRng) -> (Od, OdInput) {
    let base = ods[rng.gen_range(0..ods.len())];
    let depart = rng.gen_range(0.0..ds.horizon());
    let od = Od {
        from: (base.origin.x, base.origin.y),
        to: (base.destination.x, base.destination.y),
        depart,
    };
    (od, OdInput { depart, ..base })
}

fn dataset_ods(ds: &CityDataset) -> Vec<OdInput> {
    ds.train
        .iter()
        .chain(&ds.validation)
        .chain(&ds.test)
        .map(|o| o.od)
        .collect()
}

/// `n` pairwise-distinct requests: dataset ODs with seeded departure
/// jitter over the whole horizon (the `serve_miss` pool).
pub fn distinct_pool(ds: &CityDataset, seed: u64, n: usize) -> Vec<Od> {
    let ods = dataset_ods(ds);
    let mut rng = rng(seed, Stream::Requests, 0);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (od, _) = draw(ds, &ods, &mut rng);
        if seen.insert((od.from.0.to_bits(), od.to.0.to_bits(), od.depart.to_bits())) {
            out.push(od);
        }
    }
    out
}

/// `departures` jittered copies of every dataset OD (the `batch_offline`
/// input), in dataset order.
pub fn jittered_copies(ds: &CityDataset, seed: u64, departures: usize) -> Vec<OdInput> {
    let ods = dataset_ods(ds);
    let mut rng = rng(seed, Stream::Requests, 0);
    let mut out = Vec::with_capacity(ods.len() * departures);
    for _ in 0..departures {
        for base in &ods {
            out.push(OdInput {
                depart: rng.gen_range(0.0..ds.horizon()),
                ..*base
            });
        }
    }
    out
}

/// The `serve_hot` inputs: a hot set whose cache keys are pairwise
/// distinct, and a tail whose keys are distinct from the hot set's and
/// from each other — so a tail request can never have been seen before.
pub struct HotMix {
    /// Hot requests, by Zipf rank.
    pub hot: Vec<Od>,
    /// Never-seen requests, consumed front to back.
    pub tail: Vec<Od>,
}

impl HotMix {
    /// Draws `hot` + `tail` requests with pairwise-distinct cache keys
    /// under `keyer`.
    pub fn generate(
        ds: &CityDataset,
        keyer: &OdKeyer,
        seed: u64,
        hot: usize,
        tail: usize,
    ) -> HotMix {
        let ods = dataset_ods(ds);
        let mut rng = rng(seed, Stream::Requests, 0);
        let mut keys: HashSet<OracleKey> = HashSet::new();
        let mut all = Vec::with_capacity(hot + tail);
        while all.len() < hot + tail {
            let (od, input) = draw(ds, &ods, &mut rng);
            if keyer.key_of(&input).is_some_and(|k| keys.insert(k)) {
                all.push(od);
            }
        }
        let tail = all.split_off(hot);
        HotMix { hot: all, tail }
    }

    /// All requests as one table: the hot set, then the tail.
    pub fn table(&self) -> Vec<Od> {
        self.hot.iter().chain(&self.tail).copied().collect()
    }

    /// The request stream as indices into [`HotMix::table`]: each slot is
    /// a Zipf-ranked hot request with probability `hot_share`, otherwise
    /// the next unused tail request. Ends early if the tail runs out.
    pub fn stream(&self, seed: u64, hot_share: f64, n: usize) -> Vec<usize> {
        let zipf = Zipf::new(self.hot.len());
        let mut rng = rng(seed, Stream::Mix, 0);
        let mut tail = self.hot.len()..self.hot.len() + self.tail.len();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.gen_bool(hot_share) {
                out.push(zipf.sample(&mut rng));
            } else if let Some(i) = tail.next() {
                out.push(i);
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_core::{DeepOdConfig, FeatureContext};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    #[test]
    fn zipf_is_reproducible_per_seed_and_rank_one_dominates() {
        let z = Zipf::new(1024);
        let draws = |seed| {
            let mut r = rng(seed, Stream::Mix, 0);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draws(7);
        assert_eq!(a, draws(7));
        assert_ne!(a, draws(8));
        assert!(a.iter().all(|&k| k < 1024));
        // H(1024) ≈ 7.51, so rank 0 carries ≈ 13.3 % and rank 1 half that.
        let share = |k| a.iter().filter(|&&x| x == k).count() as f64 / a.len() as f64;
        assert!((share(0) - 0.133).abs() < 0.01, "rank 0 share {}", share(0));
        assert!(
            (share(1) - 0.0666).abs() < 0.01,
            "rank 1 share {}",
            share(1)
        );
    }

    #[test]
    fn poisson_schedule_is_reproducible_increasing_and_on_rate() {
        let sched = |seed| poisson_schedule(&mut rng(seed, Stream::Arrivals, 0), 2000.0, 20_000);
        let a = sched(3);
        assert_eq!(a, sched(3));
        assert_ne!(a, sched(4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 2 000 rps end near 10 s (σ ≈ 0.07 s).
        let end = a.last().expect("non-empty").as_secs_f64();
        assert!((end - 10.0).abs() < 0.5, "schedule ends at {end}");
        // Repetitions draw different schedules from the same seed.
        assert_ne!(
            a,
            poisson_schedule(&mut rng(3, Stream::Arrivals, 1), 2000.0, 20_000)
        );
    }

    #[test]
    fn hot_keys_are_pairwise_distinct_and_tail_keys_unseen() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let ctx = FeatureContext::build(&ds, DeepOdConfig::default().slot_seconds)
            .expect("default slot size is valid");
        let keyer = OdKeyer::for_network(&ds.net, 500.0, *ctx.slots());
        let mix = HotMix::generate(&ds, &keyer, 5, 64, 200);
        assert_eq!((mix.hot.len(), mix.tail.len()), (64, 200));
        let key = |od: &Od| {
            keyer
                .key_of(&OdInput {
                    origin: deepod_roadnet::Point::new(od.from.0, od.from.1),
                    destination: deepod_roadnet::Point::new(od.to.0, od.to.1),
                    depart: od.depart,
                    weather: ds.train[0].od.weather,
                })
                .expect("in-horizon departures key")
        };
        let mut seen = HashSet::new();
        for od in mix.hot.iter().chain(&mix.tail) {
            assert!(seen.insert(key(od)), "cache key repeated: {od:?}");
        }
        // The stream keeps the 90/10 mix, never repeats a tail request,
        // and is a pure function of the seed.
        let s = mix.stream(5, 0.9, 1500);
        assert_eq!(s, mix.stream(5, 0.9, 1500));
        assert_ne!(s, mix.stream(6, 0.9, 1500));
        let tails: Vec<usize> = s.iter().copied().filter(|&i| i >= 64).collect();
        let distinct: HashSet<usize> = tails.iter().copied().collect();
        assert_eq!(distinct.len(), tails.len());
        assert_eq!(mix.table().len(), 264);
        let share = tails.len() as f64 / s.len() as f64;
        assert!((share - 0.1).abs() < 0.03, "tail share {share}");
    }

    #[test]
    fn miss_pool_is_distinct_and_seeded() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let a = distinct_pool(&ds, 9, 500);
        assert_eq!(a, distinct_pool(&ds, 9, 500));
        assert_ne!(a, distinct_pool(&ds, 10, 500));
        assert!(a.iter().all(|od| (0.0..ds.horizon()).contains(&od.depart)));
    }
}
