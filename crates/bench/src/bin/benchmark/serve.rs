//! The two serving workloads, `serve_miss` and `serve_hot`: open loop
//! over TCP on one connection, a cruise phase at a fixed Poisson rate
//! (latency from each request's due instant) and a pipelined closed-loop
//! phase (throughput), repeated and reported as medians.

use std::sync::Arc;
use std::time::Duration;

use deepod_core::PredictRequest;
use deepod_traj::{CityDataset, OdInput};

use crate::gen::{self, HotMix, Od, Stream};
use crate::layers;
use crate::loadgen::{self, PhaseLog, Verdict};
use crate::report::{peak_rss_mb, Outcome};
use crate::stack::{self, City, Reference, ServeStack, SetupTimes};
use crate::stats::{median, percentile_if_supported, percentile_sorted};
use crate::trace::Tracer;
use crate::{quality, Opts};

/// Requests outstanding in the pipelined phase: twice the engine's
/// max-batch, so that a full batch is always queued behind the one being
/// computed. (With exactly max-batch outstanding the batch either fills or
/// waits out the 5 ms coalescing timer, and the rate flips between 7 and
/// 10 thousand replies/s from phase to phase.)
const WINDOW: usize = 128;
/// Share of a repetition spent cruising; the rest is pipelined.
const CRUISE_SHARE: f64 = 0.75;
/// `serve_miss`: distinct requests the stream cycles through.
const MISS_POOL: usize = 16_384;
/// `serve_hot`: hot keys, their share of requests, and the supply of
/// never-seen requests one run may consume.
const HOT_SET: usize = 1_024;
const HOT_SHARE: f64 = 0.9;
const TAIL: usize = 32_768;
/// A cruise repetition is valid while the generator's p90 lateness stays
/// within this share of the repetition's median latency. (The p99 cannot
/// tell a quiet host from a noisy one on two cores: 1–2 % of the
/// generator's wake-ups collide with the engine's two batch threads and
/// wait out a scheduler slice, in every repetition.)
const LATE_SHARE: f64 = 0.05;
/// Cruise reruns one run may spend.
const RERUNS: usize = 1;
/// `engine.max_ok_rps` limits: p99 ≤ this, failures ≤ 0.1 %, achieved ≥
/// 98 % of offered.
const MAX_OK_P99_MS: f64 = 25.0;

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cache tier off; every request runs the model.
    Miss,
    /// 2 048-entry cache; 90 % Zipf hot set, 10 % never-seen keys.
    Hot,
}

impl Kind {
    /// The fixed cruise rate, requests per second. `serve_miss` cruises at
    /// a seventh of its capacity: at 2 000 rps a batch's compute time,
    /// which moves with the host, was a third of the median latency, and
    /// the p95 moved 32 % between runs of the same code; at 1 000 rps, 7 %.
    fn cruise_rps(self) -> f64 {
        match self {
            Kind::Miss => 1_000.0,
            Kind::Hot => 2_000.0,
        }
    }
}

/// The generated requests and the position in their stream.
struct Inputs {
    table: Vec<Od>,
    /// `serve_hot`: pre-drawn indices into `table`; `serve_miss` cycles
    /// through the pool instead.
    stream: Option<Vec<usize>>,
    cursor: usize,
    /// Reference reply bits per table entry, filled when first needed.
    expected: Vec<Option<Option<u32>>>,
}

impl Inputs {
    fn generate(
        kind: Kind,
        ds: &CityDataset,
        ctx: &deepod_core::FeatureContext,
        seed: u64,
    ) -> Inputs {
        let (table, stream) = match kind {
            Kind::Miss => (gen::distinct_pool(ds, seed, MISS_POOL), None),
            Kind::Hot => {
                let mix = HotMix::generate(ds, &stack::keyer(ds, ctx), seed, HOT_SET, TAIL);
                let stream = mix.stream(seed, HOT_SHARE, 20 * TAIL);
                (mix.table(), Some(stream))
            }
        };
        Inputs {
            expected: vec![None; table.len()],
            table,
            stream,
            cursor: 0,
        }
    }

    /// The next `n` stream entries (fewer if a finite stream runs out).
    fn take(&mut self, n: usize) -> Vec<usize> {
        let start = self.cursor;
        let out: Vec<usize> = match &self.stream {
            Some(s) => s.iter().skip(start).take(n).copied().collect(),
            None => (start..start + n).map(|i| i % self.table.len()).collect(),
        };
        self.cursor += out.len();
        out
    }

    /// Un-takes the entries a phase did not send.
    fn give_back(&mut self, unused: usize) {
        self.cursor -= unused;
    }

    /// Checks `log` against the reference, first computing the reference
    /// answer of every request in it that is not yet known.
    fn check(&mut self, reference: &Reference, log: &PhaseLog) -> Verdict {
        let mut need: Vec<usize> = log
            .sent
            .iter()
            .map(|s| s.input)
            .filter(|&i| self.expected[i].is_none())
            .collect();
        need.sort_unstable();
        need.dedup();
        let ods: Vec<Od> = need.iter().map(|&i| self.table[i]).collect();
        for (i, bits) in need.into_iter().zip(reference.expected(&ods)) {
            self.expected[i] = Some(bits);
        }
        loadgen::check(log, |i| self.expected[i].flatten())
    }
}

/// A serving stack that answered its first request correctly and is
/// warm, with the oracle beside it.
struct Ready {
    ds: Arc<CityDataset>,
    stack: ServeStack,
    reference: Reference,
    times: SetupTimes,
}

/// Mutable state shared by the phases of one run.
struct Run {
    kind: Kind,
    seed: u64,
    inputs: Option<Inputs>,
    next_id: u64,
    reruns_left: usize,
    tracer: Tracer,
    out: Outcome,
}

impl Run {
    fn new(kind: Kind, opts: &Opts, traced: bool) -> Run {
        Run {
            kind,
            seed: opts.seed,
            inputs: None,
            next_id: 1,
            reruns_left: if opts.smoke { 0 } else { RERUNS },
            tracer: Tracer::new(traced),
            out: Outcome::default(),
        }
    }

    fn inputs(&mut self) -> &mut Inputs {
        self.inputs
            .as_mut()
            .expect("generated during the first set-up")
    }

    fn ids(&mut self, n: usize) -> u64 {
        let first = self.next_id;
        self.next_id += n as u64;
        first
    }

    /// Data set, context, model, engine, listener, first checked reply,
    /// warm-up. Input generation and the oracle are the benchmark's own
    /// work and are not part of the reported set-up time.
    fn setup(&mut self) -> Result<Ready, String> {
        let root = self.tracer.open("setup", None);
        let mut times = SetupTimes::default();
        let City { ds, ctx, model } = City::build(&mut self.tracer, root, &mut times);
        let ((), _) = self.tracer.time("bench.generate_inputs", root, || {
            if self.inputs.is_none() {
                self.inputs = Some(Inputs::generate(self.kind, &ds, &ctx, self.seed));
            }
        });
        let (reference, _) = self
            .tracer
            .time("bench.reference", root, || Reference::new(&ds, &model));
        let hot = self.kind == Kind::Hot;
        let (stack, s) = self.tracer.time("setup.engine_start", root, || {
            ServeStack::start(&ds, &model, ctx, hot)
        });
        times.engine_start_s = s;
        // Warm-up: fill the cache with the hot set (`serve_hot`), or run
        // the first batches through the worker (`serve_miss`).
        let warm: Vec<usize> = match self.kind {
            Kind::Hot => (0..HOT_SET).collect(),
            Kind::Miss => (0..2 * WINDOW).collect(),
        };
        let probe = self.inputs().table[warm[0]];
        let want = reference.expected(&[probe])[0];
        let (first, s) = self.tracer.time("setup.first_reply", root, || {
            stack::first_reply(&stack, &probe, want)
        });
        first?;
        times.first_reply_s = s;
        let first_id = self.ids(warm.len());
        let table = &self.inputs.as_ref().expect("generated above").table;
        let (log, s) = self.tracer.time("setup.warmup", root, || {
            loadgen::pipelined(
                stack.addr,
                table,
                &warm,
                WINDOW,
                Duration::from_secs(30),
                first_id,
            )
        });
        times.warmup_s = s;
        let verdict = self.inputs().check(&reference, &log?);
        self.out.count(verdict.attempted, verdict.failed);
        self.tracer.close(root);
        Ok(Ready {
            ds,
            stack,
            reference,
            times,
        })
    }

    /// One open-loop phase of `n` requests at `rate`, drawn with the
    /// arrival stream `lane`.
    fn cruise(
        &mut self,
        ready: &Ready,
        rate: f64,
        n: usize,
        lane: u64,
    ) -> Result<PhaseLog, String> {
        let idx = self.inputs().take(n);
        if idx.len() < n {
            return Err("the request stream ran out".into());
        }
        let schedule =
            gen::poisson_schedule(&mut gen::rng(self.seed, Stream::Arrivals, lane), rate, n);
        let first_id = self.ids(n);
        let table = &self.inputs.as_ref().expect("generated").table;
        loadgen::cruise(ready.stack.addr, table, &idx, &schedule, first_id)
    }

    /// A cruise phase at the workload's fixed rate whose generator kept its
    /// schedule. A repetition is invalid when a tenth of its requests
    /// left more than [`LATE_SHARE`] of the median latency late; it is
    /// rerun while the run has reruns left, and the least-late attempt
    /// is kept (and flagged) once they are spent, so that host noise
    /// costs time, not the run.
    fn valid_cruise(&mut self, ready: &Ready, seconds: f64, rep: u64) -> Result<PhaseLog, String> {
        let rate = self.kind.cruise_rps();
        let n = deepod_tensor::round_count(rate * seconds).max(1);
        let mut best: Option<(f64, PhaseLog)> = None;
        for attempt in 0.. {
            let log = self.cruise(ready, rate, n, rep + 100 * attempt)?;
            let (late_p90, p50) = lateness_and_median(&log);
            let valid = late_p90 <= LATE_SHARE * p50;
            if best.as_ref().is_none_or(|(late, _)| late_p90 < *late) {
                best = Some((late_p90, log));
            }
            if valid {
                break;
            }
            println!(
                "  repetition {rep} invalid: generator {late_p90:.3} ms late at p90 against a {p50:.3} ms median latency"
            );
            if self.reruns_left == 0 {
                println!("  no reruns left: keeping the least-late attempt");
                break;
            }
            self.reruns_left -= 1;
        }
        best.map(|(_, log)| log)
            .ok_or("no cruise attempt ran".into())
    }

    /// One closed-loop phase with [`WINDOW`] outstanding.
    fn pipelined(&mut self, ready: &Ready, seconds: f64) -> Result<PhaseLog, String> {
        // More inputs than any rate seen here can consume.
        let budget = deepod_tensor::ceil_count(seconds * 60_000.0) + WINDOW;
        let idx = self.inputs().take(budget);
        let first_id = self.ids(idx.len());
        let table = &self.inputs.as_ref().expect("generated").table;
        let log = loadgen::pipelined(
            ready.stack.addr,
            table,
            &idx,
            WINDOW,
            Duration::from_secs_f64(seconds),
            first_id,
        )?;
        self.inputs().give_back(idx.len() - log.sent.len());
        Ok(log)
    }
}

/// Raw (unverified) p90 generator lateness and median latency of a
/// cruise log, milliseconds; replies arrive in send order on the one
/// connection.
fn lateness_and_median(log: &PhaseLog) -> (f64, f64) {
    let mut late: Vec<f64> = log
        .sent
        .iter()
        .map(|s| s.send_start.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    let lat: Vec<f64> = log
        .sent
        .iter()
        .zip(&log.replies)
        .map(|(s, r)| r.at.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    (
        percentile_sorted(&late, 90).unwrap_or(0.0),
        median(&lat).unwrap_or(0.0),
    )
}

/// Correct replies per second of a pipelined phase.
fn throughput(v: &Verdict, log: &PhaseLog) -> f64 {
    v.latency_ms.len() as f64 / log.wall.as_secs_f64().max(1e-9)
}

/// One set-up and tear-down, for a `--setup-only` child: its seconds.
pub fn setup_seconds(kind: Kind, opts: &Opts) -> Result<f64, String> {
    let mut run = Run::new(kind, opts, false);
    let ready = run.setup()?;
    ready.stack.shutdown();
    if run.out.failed > 0 {
        return Err(format!("{} warm-up replies were wrong", run.out.failed));
    }
    Ok(ready.times.total_s())
}

/// The untraced run: one set-up here (and [`Opts::setups`] − 1 in child
/// processes), then [`Opts::reps`] repetitions of cruise + pipelined.
pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let mut run = Run::new(kind, opts, false);
    let mut setup_s = crate::setups_in_children(opts)?;
    let ready = run.setup()?;
    setup_s.push(ready.times.total_s());
    let rep_s = opts.seconds / opts.reps as f64;
    let mut logs = Vec::new();
    for rep in 0..opts.reps {
        let cruise = run.valid_cruise(&ready, rep_s * CRUISE_SHARE, rep as u64)?;
        let pipe = run.pipelined(&ready, rep_s * (1.0 - CRUISE_SHARE))?;
        logs.push((cruise, pipe));
    }
    let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    for (cruise, pipe) in &logs {
        let vc = run.inputs().check(&ready.reference, cruise);
        let vp = run.inputs().check(&ready.reference, pipe);
        run.out
            .count(vc.attempted + vp.attempted, vc.failed + vp.failed);
        p50s.extend(median(&vc.latency_ms));
        tails.extend(percentile_if_supported(&vc.latency_ms, 95));
        samples = samples.max(vc.latency_ms.len());
        rates.push(throughput(&vp, pipe));
    }
    let mut out = run.out;
    out.set_setup(&setup_s);
    out.set("throughput_ops", median(&rates).unwrap_or(0.0));
    out.note(
        "throughput_ops",
        format!("replies/s, {WINDOW} outstanding, median of {}", rates.len()),
    );
    out.set("lat_p50_ms", median(&p50s).unwrap_or(0.0));
    out.set("lat_p95_ms", median(&tails).unwrap_or(0.0));
    let frozen_ms: f64 = logs.iter().map(|(c, _)| c.frozen.as_secs_f64() * 1e3).sum();
    out.note(
        "lat_p95_ms",
        format!(
            "at {} rps, median of {} repetitions of {samples} samples; generator frozen {frozen_ms:.1} ms",
            kind.cruise_rps(),
            tails.len()
        ),
    );
    if tails.len() < opts.reps {
        return Err("a repetition had too few correct replies for a p95".into());
    }
    out.set(
        "mape_pct",
        quality::model_mape_pct(&ready.ds, &ready.reference),
    );
    ready.stack.shutdown();
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    Ok(out)
}

fn od_inputs(reference: &Reference, ods: &[Od]) -> Vec<OdInput> {
    ods.iter()
        .filter_map(|od| match reference.decode(od) {
            PredictRequest::Raw(input) => Some(input),
            PredictRequest::Encoded(_) => None,
        })
        .collect()
}

/// The traced run: one set-up with spans, an untraced and a traced
/// repetition (their difference is the tracing overhead), the rate
/// ladder, and the workload's inputs replayed through each layer.
pub fn run_traced(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let mut run = Run::new(kind, opts, true);
    let ready = run.setup()?;
    let cruise_s = opts.seconds * 0.2;
    let pipe_s = opts.seconds * 0.075;

    // Untraced, then traced: the recorder works from the instants the
    // generator keeps anyway, so the two differ by noise only.
    let mut rates = Vec::new();
    let mut traced_cruise = None;
    let mut traced_frozen_ms = 0.0;
    for traced in [false, true] {
        let cruise = run.valid_cruise(&ready, cruise_s, u64::from(traced))?;
        let pipe = run.pipelined(&ready, pipe_s)?;
        let vc = run.inputs().check(&ready.reference, &cruise);
        let vp = run.inputs().check(&ready.reference, &pipe);
        run.out
            .count(vc.attempted + vp.attempted, vc.failed + vp.failed);
        rates.push(throughput(&vp, &pipe));
        if traced {
            record_requests(&mut run.tracer, &cruise, &pipe);
            traced_frozen_ms = cruise.frozen.as_secs_f64() * 1e3;
            traced_cruise = Some(vc);
        }
    }
    let cruise = traced_cruise.expect("the traced repetition ran");
    let mut out = std::mem::take(&mut run.out);
    out.set(
        "trace.overhead_pct",
        100.0 * (rates[0] - rates[1]) / rates[0],
    );
    out.note(
        "trace.overhead_pct",
        format!(
            "pipelined replies/s: {:.1} untraced, {:.1} traced",
            rates[0], rates[1]
        ),
    );
    out.set(
        "loadgen.late_p99_ms",
        percentile_if_supported(&cruise.late_ms, 99).unwrap_or(0.0),
    );
    out.set(
        "loadgen.late_max_ms",
        cruise.late_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("loadgen.frozen_ms", traced_frozen_ms);
    let miss_share = match &ready.stack.cache {
        Some(cache) => {
            let s = cache.stats();
            let hit_ratio = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
            out.set("cache.hit_ratio", hit_ratio);
            out.set("cache.evictions", s.evictions as f64);
            1.0 - hit_ratio
        }
        None => 1.0,
    };

    // The rate ladder: fixed rates, one second each, stopping at the
    // first that misses a limit. Its overload failures are printed but
    // never enter the run's failed count.
    let mut max_ok = 0.0;
    for step in 1..=8usize {
        let rate = 1_000.0 * step as f64;
        let log = run.cruise(&ready, rate, 1_000 * step, 200 + step as u64)?;
        let v = run.inputs().check(&ready.reference, &log);
        let p99 = percentile_if_supported(&v.latency_ms, 99).unwrap_or(f64::INFINITY);
        let achieved = v.latency_ms.len() as f64 / log.wall.as_secs_f64().max(1e-9);
        let ok = p99 <= MAX_OK_P99_MS
            && (v.failed as f64) <= 0.001 * v.attempted as f64
            && achieved >= 0.98 * rate;
        println!(
            "  ladder {rate:>6} rps: p99 {p99:.3} ms, achieved {achieved:.0} rps, {} of {} failed -> {}",
            v.failed,
            v.attempted,
            if ok { "ok" } else { "over" }
        );
        if !ok {
            break;
        }
        max_ok = rate;
    }
    out.set("engine.max_ok_rps", max_ok);

    if kind == Kind::Hot {
        net_hit(&mut run, &ready, &mut out)?;
    }

    let table = &run.inputs.as_ref().expect("generated").table;
    let inputs = od_inputs(&ready.reference, &table[..table.len().min(8_192)]);
    let (ds, ctx, _) = ready.reference.parts();
    layers::tensor(&mut out);
    layers::roadnet(&mut out, ds, &inputs[..2_048]);
    layers::features(&mut out, ds, &inputs, false);
    layers::model(&mut out, &ready.reference, &inputs);
    layers::protocol(&mut out, ds, &table[..4_096]);
    layers::engine(&mut out, &ready.reference, &table[..2_048]);
    if kind == Kind::Hot {
        layers::cache(&mut out, ds, ctx, &inputs);
    }

    ready.times.record(&mut out);

    // What the median cruise request's latency is not: the unit costs of
    // the work done for it. The rest is queueing and coalescing wait.
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    let work_ms = (get("protocol.decode_line_ns")
        + get("cache.key_of_ns")
        + get("protocol.render_reply_ns")
        + get("protocol.client_parse_ns"))
        / 1e6
        + (1.0 - miss_share) * get("cache.lookup_hit_ns") / 1e6
        + miss_share
            * (get("cache.lookup_miss_ns") / 1e6
                + (get("features.encode_od_us") + get("model.forward_b64_us_per_req")) / 1e3);
    let p50 = median(&cruise.latency_ms).unwrap_or(0.0);
    out.set("engine.unattributed_ms", p50 - work_ms);
    out.note(
        "engine.unattributed_ms",
        format!("cruise p50 {p50:.4} ms - unit costs {work_ms:.4} ms"),
    );

    ready.stack.shutdown();
    run.tracer.report(opts.workload);
    Ok(out)
}

/// `net`: the TCP round trip of a cached request with one outstanding,
/// and the hit-only saturation rate with 64 outstanding.
fn net_hit(run: &mut Run, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    // The 64 highest-ranked hot keys: resident since warm-up.
    let hits: Vec<usize> = (0..64).cycle().take(60_000).collect();
    let first_id = run.ids(2_000);
    let table = &run.inputs.as_ref().expect("generated").table;
    let lone = loadgen::pipelined(
        ready.stack.addr,
        table,
        &hits[..2_000],
        1,
        Duration::from_secs(5),
        first_id,
    )?;
    let first_id = run.ids(hits.len());
    let table = &run.inputs.as_ref().expect("generated").table;
    let sat = loadgen::pipelined(
        ready.stack.addr,
        table,
        &hits,
        64,
        Duration::from_millis(700),
        first_id,
    )?;
    let vl = run.inputs().check(&ready.reference, &lone);
    let vs = run.inputs().check(&ready.reference, &sat);
    out.count(vl.attempted + vs.attempted, vl.failed + vs.failed);
    out.set(
        "net.rtt_hit_us",
        median(&vl.latency_ms).unwrap_or(0.0) * 1e3,
    );
    out.set("net.sat_rps_hit_w64", throughput(&vs, &sat));
    Ok(())
}

/// One `request` span per cruise request (due instant to reply) with its
/// lateness, send call and wait as children; one span for the pipelined
/// phase.
fn record_requests(tracer: &mut Tracer, cruise: &PhaseLog, pipe: &PhaseLog) {
    let phase = |log: &PhaseLog| {
        let start = log.sent.first().map(|s| s.due)?;
        Some((start, log.replies.last().map_or(start, |r| r.at)))
    };
    if let Some((start, end)) = phase(cruise) {
        let root = tracer.record("loadgen.cruise", start, end, None, None);
        for (s, r) in cruise.sent.iter().zip(&cruise.replies) {
            let req = tracer.record("request", s.due, r.at, root, Some(s.id));
            tracer.record("loadgen.late", s.due, s.send_start, req, Some(s.id));
            tracer.record("client.send", s.send_start, s.send_end, req, Some(s.id));
            tracer.record("serve.round_trip", s.send_end, r.at, req, Some(s.id));
        }
    }
    if let Some((start, end)) = phase(pipe) {
        tracer.record("loadgen.pipelined", start, end, None, None);
    }
}
