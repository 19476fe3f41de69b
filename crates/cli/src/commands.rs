//! Subcommand implementations.

use crate::args::Args;
use crate::dataset_io::{load_dataset, read_artifact, save_dataset};
use deepod_core::{
    io_guard, CheckpointPolicy, DeepOdConfig, DeepOdModel, FeatureContext, PredictRequest,
    TrainOptions, Trainer, TrainingCheckpoint,
};
use deepod_roadnet::{CityProfile, Point};
use deepod_traj::{DatasetBuilder, DatasetConfig, OdInput};
use std::path::Path;

/// Usage text printed on errors and by `deepod help`.
pub const USAGE: &str = "\
deepod — OD travel time estimation (DeepOD, SIGMOD 2020 reproduction)

USAGE:
  deepod simulate --profile <chengdu|xian|beijing> [--orders N] --out FILE
  deepod train    --data FILE [--epochs N] [--loss-weight W] [--seed S]
                  [--threads T] [--checkpoint-every N] [--checkpoint FILE]
                  [--resume FILE] [--report FILE] [--verbose] --out FILE
  deepod predict  --data FILE --model FILE --from X,Y --to X,Y --depart T
  deepod eval     --data FILE --model FILE
  deepod serve    --data FILE --model FILE [--max-batch N] [--max-wait-ms MS]
                  [--queue N] [--threads T] [--workers N] [--deadline-ms MS]
                  [--retry-budget N] [--reject-when-full]
                  [--cache-capacity N] [--cache-ttl-s S]
                  [--listen ADDR] [--max-conns N] [--max-in-flight N]
                  [--max-frame-bytes N]
  deepod info     --data FILE
  deepod help

serve reads newline-delimited JSON requests on stdin —
  {\"v\": 2, \"id\": 1, \"from\": [X, Y], \"to\": [X, Y], \"depart\": T}
— coalesces them into micro-batches (up to --max-batch requests or
--max-wait-ms of waiting), and answers in input order on stdout:
  {\"id\":1,\"eta_s\":412.5,\"degraded\":false}
Every error is one typed frame, with the request's id when readable:
  {\"id\":1,\"error\":{\"kind\":\"queue_full\",\"msg\":...}}
The \"v\" protocol-version field is optional (absent means v2); frames
declaring any other version, 1 included, get kind unsupported_version.

With --listen ADDR the same protocol is served over TCP instead (the
first stdout line reports the bound address; the process serves until
stdin closes). Each connection gets its own reader/writer pair and
per-client admission control: --max-in-flight caps one connection's
unanswered requests (typed in_flight_limit rejects beyond it, so a
greedy client sheds itself instead of filling the shared queue),
--max-conns caps concurrent connections (typed connection_limit), and
--max-frame-bytes caps one request line (typed frame_too_large; the
connection survives).

By default a full queue blocks the stdin reader (backpressure); with
--reject-when-full, and always over TCP, a request that finds the
queue full is retried up to --retry-budget times (deterministic
1/4/16/64 ms backoff) and then rejected with kind queue_full. A full
queue is the only queue-depth reject; cache hits are never rejected.
--queue N is the queue's total capacity (default 256). The optional
\"priority\" request field (\"low\" or \"normal\") is accepted and has
no effect.

Fault tolerance: --workers N runs N supervised workers (default 1) on
the one queue, any idle worker taking the oldest request, all reading
one shared model; a panicking worker
is restarted and its in-flight requests are retried up to
--retry-budget times (deterministic backoff) before failing with a
typed worker_crashed reply. --deadline-ms sheds
requests that wait longer than MS in the queue (deadline_exceeded)
before they reach a batch. Chaos-test the machinery with
DEEPOD_FAILPOINTS sites serve::worker_batch / serve::slow_batch /
serve::drop_reply (actions kill|panic|sleep[=MS]).

Caching: --cache-capacity N (default 0, off) keeps up to N answers in
an in-process LRU keyed on the exact request (from, to, depart and its
weather), consulted before queue admission: a repeated request is
answered immediately, without consuming worker capacity, with the
bytes the model would have produced. Entries expire when the wall
clock crosses a --cache-ttl-s slot boundary (default 300, must divide
a week). Requests with a pre-epoch departure (depart < 0) are rejected
per request on the wire.

Global flags (any subcommand):
  --log-format <text|json>   structured-event format on stderr
                             (env DEEPOD_LOG_FORMAT; verbosity via
                             DEEPOD_LOG=off|error|warn|info|debug|trace)
  --metrics FILE             flush the metrics registry to FILE as
                             checksummed JSON at exit (env DEEPOD_METRICS)

Crash safety: train checkpoints atomically (default FILE.ckpt next to
--out) and `--resume` continues a killed run with bit-identical curves.
Dataset and model files are checksummed JSON, so an edited or truncated
file is refused instead of read. predict, eval and serve exit 1 with the
typed load error when the model file is missing, fails its checksum, or
is plain JSON from before model files were checksummed; serve then
exits before printing anything on stdout.

Exit codes: 0 ok, 1 error, 70 injected failpoint kill, 78 malformed
DEEPOD_FAILPOINTS spec.
";

fn profile_of(name: &str) -> Result<CityProfile, String> {
    match name.to_ascii_lowercase().as_str() {
        "chengdu" => Ok(CityProfile::SynthChengdu),
        "xian" | "xi'an" => Ok(CityProfile::SynthXian),
        "beijing" => Ok(CityProfile::SynthBeijing),
        other => Err(format!("unknown profile '{other}' (chengdu|xian|beijing)")),
    }
}

/// A subcommand handler.
type Handler = fn(&Args) -> Result<(), String>;

/// Every subcommand with the one list of flags it accepts (without the
/// leading `--`; the global `--log-format` / `--metrics` are stripped
/// before dispatch) and its handler. Any other flag is a usage error.
const SUBCOMMANDS: [(&str, &[&str], Handler); 6] = [
    ("simulate", &["profile", "orders", "out"], simulate),
    (
        "train",
        &[
            "data",
            "epochs",
            "loss-weight",
            "seed",
            "threads",
            "checkpoint-every",
            "checkpoint",
            "resume",
            "report",
            "verbose",
            "out",
        ],
        train,
    ),
    (
        "predict",
        &["data", "model", "from", "to", "depart"],
        predict,
    ),
    ("eval", &["data", "model"], eval_cmd),
    (
        "serve",
        &[
            "data",
            "model",
            "max-batch",
            "max-wait-ms",
            "queue",
            "threads",
            "workers",
            "deadline-ms",
            "retry-budget",
            "reject-when-full",
            "cache-capacity",
            "cache-ttl-s",
            "listen",
            "max-conns",
            "max-in-flight",
            "max-frame-bytes",
        ],
        serve,
    ),
    ("info", &["data"], info),
];

/// Dispatches to the subcommand handlers.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("no subcommand given".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let Some((name, flags, handler)) = SUBCOMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(format!("unknown subcommand '{cmd}'"));
    };
    handler(&Args::parse(&argv[1..], name, flags)?)
}

fn simulate(args: &Args) -> Result<(), String> {
    let profile = profile_of(args.require("profile")?)?;
    let orders = args.get_parsed("orders", 1_000usize)?;
    let out = args.require("out")?;
    println!("simulating {profile:?} with {orders} orders ...");
    let ds = DatasetBuilder::build(&DatasetConfig::for_profile(profile, orders));
    println!(
        "  {} segments | {} train / {} val / {} test orders",
        ds.net.num_edges(),
        ds.train.len(),
        ds.validation.len(),
        ds.test.len()
    );
    save_dataset(&ds, out)?;
    println!("wrote {out}");
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let data = args.require("data")?;
    let out = args.require("out")?;
    let ds = load_dataset(data)?;
    let resume_path = args.get("resume");
    let checkpoint_every = args.get_parsed("checkpoint-every", 0usize)?;

    // Resume takes its entire configuration (and thread count) from the
    // checkpoint: the bit-identical-resume guarantee only holds when the
    // continued run is the same computation.
    let (cfg, threads, resume_ckpt) = match resume_path {
        Some(path) => {
            let ckpt = TrainingCheckpoint::load(Path::new(path))
                .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
            println!(
                "resuming from {path} (epoch {}, step {})",
                ckpt.progress.epoch, ckpt.progress.step
            );
            (ckpt.model.config.clone(), ckpt.progress.threads, Some(ckpt))
        }
        None => {
            let mut cfg = DeepOdConfig::default();
            cfg.epochs = args.get_parsed("epochs", 8usize)?;
            cfg.loss_weight = args.get_parsed("loss-weight", 0.3f32)?;
            cfg.seed = args.get_parsed("seed", cfg.seed)?;
            cfg.validate()?;
            // 0 = DEEPOD_THREADS env or the machine's available parallelism.
            (cfg, args.get_parsed("threads", 0usize)?, None)
        }
    };

    println!(
        "training DeepOD on {} orders ({} epochs, w = {}, {} threads) ...",
        ds.train.len(),
        cfg.epochs,
        cfg.loss_weight,
        deepod_tensor::parallel::resolve_threads(threads)
    );
    let opts = TrainOptions {
        threads,
        verbose: args.has_switch("verbose"),
        ..Default::default()
    };
    let mut trainer = match resume_ckpt {
        Some(ckpt) => Trainer::resume(&ds, ckpt, opts).map_err(|e| format!("cannot resume: {e}")),
        None => Trainer::new(&ds, cfg, opts).map_err(|e| format!("cannot start training: {e}")),
    }?;

    // Checkpointing is on whenever any crash-safety flag is present; the
    // checkpoint file defaults to `<out>.ckpt` (resume keeps writing to
    // the file it resumed from unless told otherwise).
    let default_ckpt = format!("{out}.ckpt");
    let ckpt_path = args
        .get("checkpoint")
        .or(resume_path)
        .unwrap_or(&default_ckpt);
    let checkpointing =
        checkpoint_every > 0 || args.get("checkpoint").is_some() || resume_path.is_some();

    let report = if checkpointing {
        let policy = CheckpointPolicy {
            every_steps: checkpoint_every,
            path: ckpt_path.into(),
        };
        println!(
            "  checkpointing to {ckpt_path} ({})",
            if checkpoint_every > 0 {
                format!("every {checkpoint_every} steps + epoch boundaries")
            } else {
                "epoch boundaries".to_string()
            }
        );
        trainer
            .train_with_checkpoints(&policy)
            .map_err(|e| format!("training stopped: {e}"))?
    } else {
        trainer.train()
    };
    println!(
        "  done in {:.1}s — best validation MAE {:.1}s over {} steps",
        report.total_time_s, report.best_val_mae, report.total_steps
    );
    if let Some(report_path) = args.get("report") {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        io_guard::atomic_write_str(Path::new(report_path), &json)
            .map_err(|e| format!("writing report: {e}"))?;
        println!("wrote {report_path}");
    }
    let json = trainer.model().save_json().map_err(|e| e.to_string())?;
    io_guard::write_checksummed(Path::new(out), json.as_bytes())
        .map_err(|e| format!("writing model: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Loads a checksummed model file.
fn load_model(path: &str) -> Result<DeepOdModel, String> {
    let payload = read_artifact(path)?;
    let json = std::str::from_utf8(&payload).map_err(|e| format!("parsing {path}: {e}"))?;
    DeepOdModel::load_json(json).map_err(|e| format!("parsing {path}: {e}"))
}

fn predict(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("data")?)?;
    let model = load_model(args.require("model")?)?;
    let (fx, fy) = args.get_point("from")?;
    let (tx, ty) = args.get_point("to")?;
    let depart: f64 = args.get_parsed("depart", 0.0f64)?;

    let od = OdInput {
        origin: Point::new(fx, fy),
        destination: Point::new(tx, ty),
        depart,
        weather: ds.traffic.weather().at(depart),
    };
    let dist_km = od.origin.dist(&od.destination) / 1000.0;

    let ctx = FeatureContext::build(&ds, model.config.slot_seconds)
        .map_err(|e| format!("model slot configuration: {e}"))?;
    let reqs = [PredictRequest::Raw(od)];
    let eta = model
        .estimate_batch(&ctx, &ds.net, &reqs, 1)
        .remove(0)
        .map_err(|e| e.to_string())?
        .eta_seconds;
    println!(
        "ETA: {eta:.0}s ({:.1} min) for {dist_km:.1} km crow-fly, \
         departing t = {depart:.0}s ({})",
        eta / 60.0,
        od.weather.label()
    );
    Ok(())
}

fn eval_cmd(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("data")?)?;
    let model = load_model(args.require("model")?)?;
    let ctx = FeatureContext::build(&ds, model.config.slot_seconds)
        .map_err(|e| format!("model slot configuration: {e}"))?;

    let reqs: Vec<PredictRequest> = ds.test.iter().map(|o| PredictRequest::Raw(o.od)).collect();
    let mut pairs = Vec::new();
    for (o, resp) in ds
        .test
        .iter()
        .zip(model.estimate_batch(&ctx, &ds.net, &reqs, 0))
    {
        if let Ok(resp) = resp {
            pairs.push(deepod_eval::PredPair {
                actual: o.travel_time as f32,
                predicted: resp.eta_seconds,
            });
        }
    }
    if pairs.is_empty() {
        return Err("no test order could be evaluated".into());
    }
    let m =
        deepod_eval::Metrics::from_pairs(&pairs).map_err(|e| format!("computing metrics: {e}"))?;
    println!(
        "test metrics over {} trips (f32): MAE {:.1}s | MAPE {:.2}% | MARE {:.2}%",
        pairs.len(),
        m.mae,
        m.mape_pct,
        m.mare_pct
    );
    Ok(())
}

/// Builds the serving cache from `--cache-capacity` / `--cache-ttl-s`.
/// Returns `None` at capacity 0 (the default): the engine then runs the
/// cacheless path.
fn cache_tier(
    ds: &deepod_traj::CityDataset,
    ctx: &FeatureContext,
    capacity: usize,
    ttl_seconds: f64,
    shards: usize,
) -> Result<Option<std::sync::Arc<deepod_serve::ServeCache>>, String> {
    use deepod_core::oracle::OdKeyer;
    use deepod_serve::{CacheConfig, ServeCache};
    if capacity == 0 {
        return Ok(None);
    }
    // The cache ignores the keyer; `ServeCache::new` still takes one.
    let cache = ServeCache::new(
        OdKeyer::for_network(&ds.net, 500.0, *ctx.slots()),
        None,
        CacheConfig {
            capacity,
            ttl_seconds,
            shards,
        },
    )
    .map_err(|e| format!("--cache-ttl-s: {e}"))?;
    Ok(Some(std::sync::Arc::new(cache)))
}

fn serve(args: &Args) -> Result<(), String> {
    use deepod_serve::net::{self, Submission};
    use deepod_serve::{Backend, EngineConfig, InferenceEngine};
    use std::io::{BufRead, Write};
    use std::sync::Arc;

    let ds = Arc::new(load_dataset(args.require("data")?)?);
    let model = load_model(args.require("model")?)?;
    let config = EngineConfig {
        max_batch: args.get_parsed("max-batch", 64usize)?,
        max_wait_ms: args.get_parsed("max-wait-ms", 5u64)?,
        queue_capacity: args.get_parsed("queue", 256usize)?,
        threads: args.get_parsed("threads", 0usize)?,
        workers: args.get_parsed("workers", 1usize)?,
        deadline_ms: args.get_parsed("deadline-ms", 0u64)?,
        retry_budget: args.get_parsed("retry-budget", 0u32)?,
    };
    let reject_when_full = args.has_switch("reject-when-full");

    let ctx = FeatureContext::build(&ds, model.config.slot_seconds)
        .map_err(|e| format!("model slot configuration: {e}"))?;
    let cache_capacity = args.get_parsed("cache-capacity", 0usize)?;
    let cache = cache_tier(
        &ds,
        &ctx,
        cache_capacity,
        args.get_parsed("cache-ttl-s", 300.0f64)?,
        config.workers.max(1),
    )?;
    let cache_enabled = cache.is_some();
    let engine = InferenceEngine::start_with_cache(
        Backend::Model(Box::new(model)),
        None,
        cache,
        ctx,
        Arc::clone(&ds),
        config,
    );
    if let Some(addr) = args.get("listen") {
        return serve_listen(args, engine, ds, addr);
    }
    deepod_core::obs::info(
        "serve",
        "engine up; reading requests from stdin",
        &[
            ("max_batch", engine.config().max_batch.into()),
            ("max_wait_ms", engine.config().max_wait_ms.into()),
            ("queue", engine.config().queue_capacity.into()),
            ("workers", engine.config().workers.into()),
            ("deadline_ms", engine.config().deadline_ms.into()),
            (
                "retry_budget",
                u64::from(engine.config().retry_budget).into(),
            ),
            ("cache", cache_enabled.into()),
            ("cache_capacity", cache_capacity.into()),
        ],
    );

    // Writer thread: prints responses strictly in submission order, so the
    // reader can keep enqueueing while earlier batches are still in flight.
    let (out_tx, out_rx) = std::sync::mpsc::channel::<Submission>();
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        for item in out_rx {
            let line = match item {
                Submission::Ready(line) => line,
                // The handle resolves rather than hangs — exactly one
                // line per id, even for a worker crash past its retry
                // budget, an expired deadline, or shutdown.
                Submission::Pending(id, rx) => net::render_reply(id, rx.recv()),
            };
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                return; // stdout closed: the client is gone
            }
        }
    });

    // Admission policy: by default a full queue blocks this reader
    // (single-client backpressure); --reject-when-full rejects with
    // queue_full after retries up to --retry-budget.
    let admission = if reject_when_full {
        net::Admission::Shed
    } else {
        net::Admission::Block
    };
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        // Decoding and submission are the exact path the TCP front end
        // runs — the two modes cannot drift. Submitting while the
        // StdinLock is live is the intended single-producer design: only
        // this loop reads stdin, so nothing can contend the guard, and
        // the engine queue has its own backpressure.
        let Some(item) = net::process_line(&engine, &ds, &line, admission) else {
            continue; // blank line: no reply owed
        };
        // Same single-producer stdin loop; the writer thread never takes
        // the StdinLock, so handing off under it cannot deadlock.
        // deepod-audit: allow(lock-across-send)
        if out_tx.send(item).is_err() {
            break; // writer died (stdout closed): stop reading
        }
    }

    // EOF: close the intake, let the engine drain what it accepted, wait
    // for the writer to print the last response, then report how we ran.
    drop(out_tx);
    engine.shutdown();
    writer
        .join()
        .map_err(|_| "response writer panicked".to_string())
}

/// `serve --listen ADDR`: the TCP front end. The engine is shared with
/// the listener's connection threads; the process serves until stdin
/// reaches EOF (the lifecycle contract a supervising parent drives —
/// close the child's stdin to stop it), then drains and exits.
fn serve_listen(
    args: &Args,
    engine: deepod_serve::InferenceEngine,
    ds: std::sync::Arc<deepod_traj::CityDataset>,
    addr: &str,
) -> Result<(), String> {
    use deepod_serve::net::{NetConfig, NetServer};
    use std::io::BufRead;
    use std::sync::Arc;

    let defaults = NetConfig::default();
    let net_config = NetConfig {
        max_connections: args.get_parsed("max-conns", defaults.max_connections)?,
        max_in_flight: args.get_parsed("max-in-flight", defaults.max_in_flight)?,
        max_frame_bytes: args.get_parsed("max-frame-bytes", defaults.max_frame_bytes)?,
    };
    let engine = Arc::new(engine);
    let server = NetServer::start(Arc::clone(&engine), ds, addr, net_config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    deepod_core::obs::info(
        "serve",
        "engine up; serving over TCP",
        &[
            ("addr", server.local_addr().to_string().as_str().into()),
            ("workers", engine.config().workers.into()),
            ("max_conns", net_config.max_connections.into()),
            ("max_in_flight", net_config.max_in_flight.into()),
        ],
    );
    // First stdout line tells the parent where we actually bound (":0"
    // resolves to an ephemeral port). Stdout is line-buffered, so the
    // line is visible immediately.
    println!("{{\"listening\":\"{}\"}}", server.local_addr());
    for _ in std::io::stdin().lock().lines() {
        // Serve until stdin closes; input lines are ignored in TCP mode.
    }
    server.shutdown();
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    } // else: a straggler still holds a clone; its Drop closes the engine
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("data")?)?;
    let (min, max) = ds.net.bounding_box();
    println!("profile: {:?}", ds.config.profile);
    println!(
        "network: {} nodes, {} segments, {:.1} x {:.1} km",
        ds.net.num_nodes(),
        ds.net.num_edges(),
        (max.x - min.x) / 1000.0,
        (max.y - min.y) / 1000.0
    );
    println!(
        "orders:  {} train / {} validation / {} test",
        ds.train.len(),
        ds.validation.len(),
        ds.test.len()
    );
    println!(
        "mean train travel time: {:.0}s",
        ds.mean_train_travel_time()
    );
    let mean_len: f64 = ds
        .train
        .iter()
        .map(|o| {
            o.trajectory
                .edges()
                .iter()
                .map(|&e| ds.net.edge(e).length)
                .sum::<f64>()
        })
        .sum::<f64>()
        / ds.train.len().max(1) as f64;
    println!("mean trip length: {:.0} m", mean_len);
    let mean_segs: f64 = ds
        .train
        .iter()
        .map(|o| o.trajectory.path.len() as f64)
        .sum::<f64>()
        / ds.train.len().max(1) as f64;
    println!("mean segments per trip: {mean_segs:.1}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn profile_parsing() {
        assert_eq!(profile_of("chengdu").unwrap(), CityProfile::SynthChengdu);
        assert_eq!(profile_of("CHENGDU").unwrap(), CityProfile::SynthChengdu);
        assert_eq!(profile_of("xi'an").unwrap(), CityProfile::SynthXian);
        assert_eq!(profile_of("beijing").unwrap(), CityProfile::SynthBeijing);
        assert!(profile_of("gotham").is_err());
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn undeclared_flags_are_rejected_by_name() {
        let err = dispatch(&argv(&["train", "--data", "x.ds", "--epoch", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag --epoch for train");
        let err = dispatch(&argv(&["serve", "--precision", "int8"])).unwrap_err();
        assert_eq!(err, "unknown flag --precision for serve");
        // The OD-oracle tier is gone: its flag and its
        // subcommand are usage errors.
        for cmd in ["serve", "eval"] {
            let err = dispatch(&argv(&[cmd, "--oracle", "o.bin"])).unwrap_err();
            assert_eq!(err, format!("unknown flag --oracle for {cmd}"));
        }
        let err = dispatch(&argv(&["precompute", "--data", "x.ds"])).unwrap_err();
        assert_eq!(err, "unknown subcommand 'precompute'");
    }

    /// The flags USAGE lists under one subcommand (its `deepod <name>`
    /// line and the indented continuation lines below it).
    fn usage_flags(name: &str) -> BTreeSet<&'static str> {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE has a synopsis block");
        let mut flags = BTreeSet::new();
        let mut inside = false;
        for line in synopsis.lines() {
            if let Some(cmd) = line.trim_start().strip_prefix("deepod ") {
                inside = cmd.split_whitespace().next() == Some(name);
            }
            if inside {
                flags.extend(
                    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .filter_map(|tok| tok.strip_prefix("--")),
                );
            }
        }
        flags
    }

    #[test]
    fn usage_lists_exactly_the_declared_flags() {
        for (name, flags, _) in SUBCOMMANDS {
            let declared: BTreeSet<&str> = flags.iter().copied().collect();
            assert_eq!(usage_flags(name), declared, "subcommand {name}");
        }
    }

    #[test]
    fn dispatch_rejects_unknown_and_empty() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&["destroy".into()]).is_err());
    }

    #[test]
    fn dispatch_help_ok() {
        assert!(dispatch(&["help".into()]).is_ok());
    }

    #[test]
    fn missing_required_flags_reported() {
        let err = dispatch(&["simulate".into()]).unwrap_err();
        assert!(err.contains("--profile"), "unexpected error: {err}");
        let err = dispatch(&["train".into()]).unwrap_err();
        assert!(err.contains("--data"), "unexpected error: {err}");
    }
}
