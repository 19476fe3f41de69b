//! Chaos suite for the fault-tolerant serving engine: drives the real
//! `deepod serve` binary with `DEEPOD_FAILPOINTS` injecting worker
//! panics, slow batches, and dropped replies, and proves the DESIGN.md
//! §14 contract under each fault:
//!
//! * **exactly one reply per request, never a hang** — a crashed worker
//!   turns its in-flight batch into typed `worker_crashed` error lines
//!   (or, with a retry budget, into answered requests), and the process
//!   still drains cleanly at EOF;
//! * **supervision is observable** — `serve.worker_restarts` counts every
//!   panic the supervisor absorbed, `serve.retries` every requeue;
//! * **deadlines shed stale work** — a slow batch makes queued requests
//!   miss `--deadline-ms` and they are swept with typed errors, counted
//!   in `serve.deadline_expired`;
//! * **saturation rejects one way** — a full shard is the only
//!   queue-depth reject (`queue_full`, counted once in `serve.rejected`),
//!   retried first on the `--retry-budget` backoff (`serve.retries`);
//! * **the default single-worker configuration is unchanged** — `--workers
//!   1 --deadline-ms 0 --retry-budget 0` produces bit-identical output
//!   across runs, and `--workers 4` the same answers.

use deepod_core::obs::registry::MetricsSnapshot;
use deepod_core::{DeepOdConfig, DeepOdModel, EmbeddingInit, FeatureContext};
use deepod_roadnet::CityProfile;
use deepod_serve::{ErrorKind, WireResponse};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepod")
}

struct Setup {
    dir: PathBuf,
    data: String,
    model: String,
    ds: CityDataset,
}

/// Built once per process: a simulated city and an untrained-but-valid
/// model, exactly like the plain serving suite — chaos behavior does not
/// depend on model quality.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("deepod_serve_chaos_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("suite temp dir");
        let data = dir.join("city.json").display().to_string();
        let out = Command::new(bin())
            .args([
                "simulate",
                "--profile",
                "chengdu",
                "--orders",
                "60",
                "--out",
                &data,
            ])
            .output()
            .expect("spawn deepod binary");
        assert!(
            out.status.success(),
            "simulate failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let cfg = DeepOdConfig {
            init: EmbeddingInit::Random,
            ds: 6,
            dt_dim: 6,
            d1m: 8,
            d2m: 6,
            d3m: 8,
            d4m: 6,
            d5m: 8,
            d6m: 6,
            d7m: 8,
            d9m: 8,
            dh: 8,
            dtraf: 4,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
        let model_json = DeepOdModel::new(&cfg, &ds, &ctx)
            .expect("valid test config")
            .save_json()
            .expect("serializable model");
        let model = dir.join("model.json").display().to_string();
        deepod_core::io_guard::write_checksummed(model.as_ref(), model_json.as_bytes())
            .expect("write model file");
        Setup {
            dir,
            data,
            model,
            ds,
        }
    })
}

fn request_line(s: &Setup, id: usize) -> String {
    let od = &s.ds.train[id % s.ds.train.len()].od;
    format!(
        "{{\"id\": {id}, \"from\": [{}, {}], \"to\": [{}, {}], \"depart\": {}}}",
        od.origin.x, od.origin.y, od.destination.x, od.destination.y, od.depart
    )
}

/// Runs `deepod serve` with extra flags and environment (failpoints,
/// metrics path), feeding `input` on stdin from a writer thread.
fn run_serve(extra_args: &[&str], env: &[(&str, &str)], input: String) -> Output {
    let s = setup();
    let mut child = Command::new(bin())
        .args(["serve", "--data", &s.data, "--model", &s.model])
        .args(extra_args)
        .env("DEEPOD_LOG", "off")
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deepod serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let out = child.wait_with_output().expect("serve terminates at EOF");
    writer.join().expect("writer thread");
    out
}

/// Every stdout line of a serve run, parsed by the one wire codec.
fn replies(out: &Output) -> Vec<WireResponse> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            WireResponse::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
        })
        .collect()
}

/// How many replies are error frames of one of `kinds`.
fn count_kinds(replies: &[WireResponse], kinds: &[ErrorKind]) -> usize {
    replies
        .iter()
        .filter(|r| matches!(r, WireResponse::Err { error, .. } if kinds.contains(&error.kind)))
        .count()
}

/// How many replies are answers.
fn count_ok(replies: &[WireResponse]) -> usize {
    replies.iter().filter(|r| r.is_ok()).count()
}

fn read_metrics(path: &str) -> MetricsSnapshot {
    let payload = deepod_core::io_guard::read_checksummed(std::path::Path::new(path))
        .expect("metrics artifact passes checksum verification");
    let text = String::from_utf8(payload).expect("metrics artifact is utf-8");
    MetricsSnapshot::from_json(&text).expect("metrics artifact parses")
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    *snap
        .counters
        .get(name)
        .unwrap_or_else(|| panic!("counter '{name}' missing: {:?}", snap.counters))
}

/// Every request id in 0..n appears on exactly one reply line.
fn assert_exactly_one_reply_each(replies: &[WireResponse], n: usize) {
    assert_eq!(replies.len(), n, "one reply line per request line");
    let mut seen = vec![0u32; n];
    for r in replies {
        let id = r.id().expect("every chaos request carries an id") as usize;
        assert!(id < n, "unknown reply id {id}");
        seen[id] += 1;
    }
    for (id, count) in seen.iter().enumerate() {
        assert_eq!(*count, 1, "request {id} got {count} replies");
    }
}

#[test]
fn worker_panic_is_supervised_and_every_request_still_gets_a_reply() {
    let s = setup();
    const N: usize = 48;
    let metrics = s.dir.join("panic_metrics.json").display().to_string();
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(
        &["--workers", "2", "--max-batch", "4"],
        &[
            ("DEEPOD_FAILPOINTS", "serve::worker_batch:3:panic"),
            ("DEEPOD_METRICS", metrics.as_str()),
        ],
        input,
    );
    assert!(
        out.status.success(),
        "a supervised worker panic must not kill the process: {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_exactly_one_reply_each(&replies, N);
    // With no retry budget the doomed batch fails with a typed error;
    // everything else is answered normally.
    let crashed = count_kinds(&replies, &[ErrorKind::WorkerCrashed]);
    let answered = count_ok(&replies);
    assert!(crashed >= 1, "the in-flight batch surfaces typed errors");
    assert_eq!(answered + crashed, N, "no third reply kind under panic");
    let snap = read_metrics(&metrics);
    assert!(
        counter(&snap, "serve.worker_restarts") >= 1,
        "the supervisor counts the restart"
    );
}

#[test]
fn retry_budget_turns_a_worker_crash_into_answered_requests() {
    let s = setup();
    const N: usize = 48;
    let metrics = s.dir.join("retry_metrics.json").display().to_string();
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(
        &["--workers", "2", "--max-batch", "4", "--retry-budget", "2"],
        &[
            ("DEEPOD_FAILPOINTS", "serve::worker_batch:3:panic"),
            ("DEEPOD_METRICS", metrics.as_str()),
        ],
        input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_exactly_one_reply_each(&replies, N);
    for r in &replies {
        assert!(
            r.is_ok(),
            "with retry budget the requeued batch succeeds on the fresh \
             replica; got {r:?}"
        );
    }
    let snap = read_metrics(&metrics);
    assert!(counter(&snap, "serve.worker_restarts") >= 1);
    assert!(
        counter(&snap, "serve.retries") >= 1,
        "the doomed batch was requeued, not failed"
    );
}

#[test]
fn slow_batch_makes_queued_requests_miss_their_deadline() {
    let s = setup();
    const N: usize = 64;
    let metrics = s.dir.join("deadline_metrics.json").display().to_string();
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(
        &["--max-batch", "4", "--deadline-ms", "100"],
        &[
            ("DEEPOD_FAILPOINTS", "serve::slow_batch:1:sleep=300"),
            ("DEEPOD_METRICS", metrics.as_str()),
        ],
        input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_exactly_one_reply_each(&replies, N);
    let expired = count_kinds(&replies, &[ErrorKind::DeadlineExceeded]);
    let answered = count_ok(&replies);
    assert!(
        expired >= 1,
        "requests stuck behind a 300ms batch must miss a 100ms deadline"
    );
    assert_eq!(answered + expired, N, "answered or swept, nothing else");
    let snap = read_metrics(&metrics);
    assert!(counter(&snap, "serve.deadline_expired") >= 1);
}

#[test]
fn a_dropped_reply_surfaces_as_a_typed_error_not_a_hang() {
    let s = setup();
    const N: usize = 16;
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(
        &["--max-batch", "1"],
        &[("DEEPOD_FAILPOINTS", "serve::drop_reply:5")],
        input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_exactly_one_reply_each(&replies, N);
    let dropped = count_kinds(&replies, &[ErrorKind::WorkerCrashed]);
    assert_eq!(
        dropped, 1,
        "exactly the dropped reply becomes a typed error"
    );
    assert_eq!(
        count_ok(&replies),
        N - 1,
        "every other request is answered normally"
    );
}

#[test]
fn saturation_sheds_with_typed_errors_and_counts_them() {
    let s = setup();
    const N: usize = 1500;
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let saturate = ["--reject-when-full", "--queue", "1", "--max-batch", "1"];
    // (retry budget, metrics file): without retries a full shard rejects
    // at once; with them every reject first waits out the backoff.
    for (budget, file) in [("0", "shed_metrics.json"), ("2", "shed_retry_metrics.json")] {
        let metrics = s.dir.join(file).display().to_string();
        let out = run_serve(
            &[&saturate[..], &["--retry-budget", budget]].concat(),
            &[("DEEPOD_METRICS", metrics.as_str())],
            input.clone(),
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let replies = replies(&out);
        assert_exactly_one_reply_each(&replies, N);
        let answered = count_ok(&replies);
        // A full shard is the only queue-depth reject: no other kind.
        let shed = count_kinds(&replies, &[ErrorKind::QueueFull]);
        assert_eq!(answered + shed, N, "answers and queue_full rejects only");
        assert!(
            answered > 0,
            "budget {budget}: a capacity-1 queue progresses"
        );
        let snap = read_metrics(&metrics);
        assert_eq!(
            counter(&snap, "serve.rejected"),
            shed as u64,
            "budget {budget}: every queue_full reply is counted once"
        );
        if budget == "0" {
            assert!(shed > 0, "{answered} answered, {shed} shed");
        } else {
            assert!(
                counter(&snap, "serve.retries") >= 1,
                "a full shard is retried before it rejects"
            );
        }
    }
}

#[test]
fn single_worker_defaults_are_bit_identical_and_multi_worker_agrees() {
    let s = setup();
    const N: usize = 96;
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let single = &[
        "--workers",
        "1",
        "--deadline-ms",
        "0",
        "--retry-budget",
        "0",
    ];
    let a = run_serve(single, &[], input.clone());
    let b = run_serve(single, &[], input.clone());
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "the single-worker configuration is deterministic"
    );
    let multi = run_serve(&["--workers", "4"], &[], input);
    assert!(multi.status.success());
    assert_eq!(
        String::from_utf8(multi.stdout).expect("utf8 stdout"),
        String::from_utf8(a.stdout).expect("utf8 stdout"),
        "four shards return the same answers in the same order"
    );
}
