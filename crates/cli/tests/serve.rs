//! Serving integration suite: drives the real `deepod serve` subcommand
//! over its newline-delimited JSON stdin/stdout protocol and proves the
//! DESIGN.md §11 contract end to end:
//!
//! * one long-lived process answers ≥ 1000 requests, in input order, with
//!   one response line per request line and a clean exit 0 at EOF;
//! * malformed lines and unmatchable ODs get per-request error lines
//!   without disturbing their neighbors, each byte-equal to a frozen
//!   golden transcript (`golden/serve_rejects.*.ndjson`);
//! * `--reject-when-full` turns overload into explicit typed
//!   `queue_full` error lines instead of unbounded buffering;
//! * a corrupt model file degrades to route-tte fallback answers
//!   (`"degraded":true` on every reply, exit code 2), never a crash.

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
    data: String,
    model: String,
    ds: CityDataset,
}

/// Built once: a simulated city written through the CLI (so `--data`
/// exercises the real loader) and an untrained-but-valid model saved
/// through the real serializer. Serving correctness does not depend on
/// model quality, so skipping training keeps the suite fast.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("deepod_serve_suite_{}", std::process::id()));
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
        // The dataset builder is deterministic, so this in-process build
        // matches the file the CLI just wrote — its ODs are valid inputs.
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
        Setup { data, model, ds }
    })
}

/// One request line for the i-th train order (ODs known to match the
/// road network).
fn request_line(s: &Setup, id: usize) -> String {
    let od = &s.ds.train[id % s.ds.train.len()].od;
    format!(
        "{{\"id\": {id}, \"from\": [{}, {}], \"to\": [{}, {}], \"depart\": {}}}",
        od.origin.x, od.origin.y, od.destination.x, od.destination.y, od.depart
    )
}

/// Runs `deepod serve` feeding `input` on stdin (from a writer thread, so
/// neither pipe can deadlock on a full buffer) and returns the full output.
fn run_serve(extra_args: &[&str], model: &str, input: String) -> Output {
    let s = setup();
    let mut child = Command::new(bin())
        .args(["serve", "--data", &s.data, "--model", model])
        .args(extra_args)
        .env("DEEPOD_LOG", "off")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deepod serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
        // Dropping stdin closes the pipe: the EOF that shuts serve down.
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

/// The kind of an error frame; `None` for an answer.
fn kind(r: &WireResponse) -> Option<ErrorKind> {
    match r {
        WireResponse::Ok { .. } => None,
        WireResponse::Err { error, .. } => Some(error.kind),
    }
}

#[test]
fn one_process_answers_a_thousand_requests_in_order() {
    let s = setup();
    const N: usize = 1000;
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(&[], &s.model, input);
    assert!(
        out.status.success(),
        "serve exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_eq!(replies.len(), N, "one response line per request line");
    for (i, r) in replies.iter().enumerate() {
        match r {
            WireResponse::Ok {
                id,
                eta_seconds,
                degraded,
            } => {
                assert_eq!(*id, i as u64, "responses arrive in input order");
                assert!(!degraded, "real model is not degraded");
                assert!(
                    eta_seconds.is_finite() && *eta_seconds >= 0.0,
                    "sane ETA, got {eta_seconds}"
                );
            }
            other => panic!("request {i} was not answered: {other:?}"),
        }
    }
}

#[test]
fn bad_lines_get_error_replies_without_killing_the_stream() {
    let s = setup();
    let input = format!(
        "{}\nthis is not json\n{}\n\n{}\n",
        request_line(s, 0),
        // Unmatchable OD: kilometers outside any road segment.
        "{\"id\": 77, \"from\": [-9e9, -9e9], \"to\": [9e9, 9e9], \"depart\": 0}",
        request_line(s, 1),
    );
    let out = run_serve(&[], &s.model, input);
    assert!(out.status.success());
    let replies = replies(&out);
    assert_eq!(
        replies.len(),
        4,
        "blank lines are skipped, bad lines are not"
    );
    assert!(replies[0].is_ok());
    assert_eq!(replies[1].id(), None, "unparseable line has no id to echo");
    assert_eq!(kind(&replies[1]), Some(ErrorKind::BadRequest));
    assert_eq!(
        replies[2].id(),
        Some(77),
        "id echoed even for failed requests"
    );
    assert_eq!(
        kind(&replies[2]),
        Some(ErrorKind::Model),
        "unmatchable od fails per-request"
    );
    assert!(replies[3].is_ok(), "stream continues after errors");
}

#[test]
fn reject_when_full_sheds_load_with_queue_full_errors() {
    let s = setup();
    const N: usize = 2000;
    let input: String = (0..N).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(
        &["--reject-when-full", "--queue", "1", "--max-batch", "1"],
        &s.model,
        input,
    );
    assert!(out.status.success());
    let replies = replies(&out);
    assert_eq!(replies.len(), N, "every request gets a verdict line");
    let answered = replies.iter().filter(|r| r.is_ok()).count();
    // A saturated capacity-1 queue sheds as `queue_full`: a full queue
    // is the one queue-depth reject.
    let shed = replies
        .iter()
        .filter(|r| kind(r) == Some(ErrorKind::QueueFull))
        .count();
    assert_eq!(answered + shed, N, "only answers and typed shed rejections");
    assert!(answered > 0, "a capacity-1 queue still makes progress");
    assert!(
        shed > 0,
        "piping {N} requests at a capacity-1 queue must shed load"
    );
}

#[test]
fn corrupt_model_serves_degraded_fallback_answers_and_exits_2() {
    let s = setup();
    let dir = std::env::temp_dir().join(format!("deepod_serve_suite_{}", std::process::id()));
    let corrupt = dir.join("corrupt.json").display().to_string();
    std::fs::write(&corrupt, "{ this is not a model").expect("write corrupt file");
    let input: String = (0..8).map(|i| request_line(s, i) + "\n").collect();
    let out = run_serve(&[], &corrupt, input);
    assert_eq!(
        out.status.code(),
        Some(2),
        "degraded serving uses the dedicated exit code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    assert_eq!(replies.len(), 8, "fallback still answers every request");
    for r in &replies {
        assert!(
            matches!(r, WireResponse::Ok { degraded: true, .. }),
            "train ods resolve on the baseline, flagged degraded: {r:?}"
        );
    }
}

/// The stdin bytes of every request-level reject, pinned by a frozen
/// transcript: any change to an error frame's bytes must be a deliberate
/// edit of `golden/serve_rejects.out.ndjson`. No line depends on model
/// weights (the one model-kind line is an OD no road matches).
#[test]
fn reject_bytes_match_the_golden_transcript() {
    let s = setup();
    let input = include_str!("golden/serve_rejects.in.ndjson");
    let out = run_serve(&[], &s.model, input.to_string());
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(stdout, include_str!("golden/serve_rejects.out.ndjson"));
}
