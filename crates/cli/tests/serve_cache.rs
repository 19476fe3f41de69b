//! Serving-cache integration suite: drives the real `deepod precompute`
//! and `deepod serve` subcommands end to end and proves the DESIGN.md §15
//! contract:
//!
//! * a precomputed OD-oracle artifact answers its own canonical requests
//!   as cache hits (observable in the `--metrics` artifact) with the
//!   precomputed values;
//! * the in-process LRU tier answers repeated ODs bit-identically to the
//!   cacheless path — enabling the cache never changes a reply;
//! * entries expire when the wall clock crosses a `--cache-ttl-s` slot
//!   boundary (the `serve.cache_stale` counter fires);
//! * a corrupt or fingerprint-mismatched oracle is rejected at startup
//!   and serving continues cacheless, replying exactly as an uncached run;
//! * pre-epoch departures are rejected per request with a typed error
//!   line, without disturbing neighboring requests;
//! * with the cache tier off (the default), serving is bit-identical
//!   across runs.

use deepod_core::obs::registry::MetricsSnapshot;
use deepod_core::{DeepOdConfig, DeepOdModel, EmbeddingInit, FeatureContext};
use deepod_roadnet::CityProfile;
use deepod_serve::{ErrorKind, WireResponse};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepod")
}

struct Setup {
    dir: PathBuf,
    data: String,
    model: String,
    oracle: String,
    ds: CityDataset,
}

impl Setup {
    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }
}

/// Built once: a simulated city + saved model (as in the serve suite),
/// plus an oracle artifact precomputed through the real CLI subcommand.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("deepod_serve_cache_suite_{}", std::process::id()));
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
        // Precompute the oracle through the real subcommand so the
        // artifact on disk is exactly what operators would ship.
        let oracle = dir.join("oracle.json").display().to_string();
        let out = Command::new(bin())
            .args([
                "precompute",
                "--data",
                &data,
                "--model",
                &model,
                "--out",
                &oracle,
                "--cells",
                "3",
                "--slots",
                "2",
            ])
            .output()
            .expect("spawn deepod precompute");
        assert!(
            out.status.success(),
            "precompute failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        Setup {
            dir,
            data,
            model,
            oracle,
            ds,
        }
    })
}

/// One request line for the i-th train order (ODs known to match the
/// road network).
fn request_line(s: &Setup, id: usize) -> String {
    let od = &s.ds.train[id % s.ds.train.len()].od;
    od_line(
        id as u64,
        od.origin.x,
        od.origin.y,
        od.destination.x,
        od.destination.y,
        od.depart,
    )
}

fn od_line(id: u64, fx: f64, fy: f64, tx: f64, ty: f64, depart: f64) -> String {
    format!("{{\"id\": {id}, \"from\": [{fx}, {fy}], \"to\": [{tx}, {ty}], \"depart\": {depart}}}")
}

/// Runs `deepod serve` feeding `chunks` on stdin, sleeping the given
/// number of milliseconds after each chunk (for TTL-expiry tests).
fn run_serve_chunked(extra_args: &[&str], model: &str, chunks: Vec<(String, u64)>) -> Output {
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
        for (chunk, sleep_ms) in chunks {
            if stdin.write_all(chunk.as_bytes()).is_err() {
                return; // server gone; wait_with_output reports how
            }
            let _ = stdin.flush();
            if sleep_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            }
        }
        // Dropping stdin closes the pipe: the EOF that shuts serve down.
    });
    let out = child.wait_with_output().expect("serve terminates at EOF");
    writer.join().expect("writer thread");
    out
}

fn run_serve(extra_args: &[&str], model: &str, input: String) -> Output {
    run_serve_chunked(extra_args, model, vec![(input, 0)])
}

fn stdout_lines(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "serve exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone())
        .expect("utf8 stdout")
        .lines()
        .map(str::to_owned)
        .collect()
}

fn read_metrics(path: &str) -> MetricsSnapshot {
    let payload = deepod_core::io_guard::read_checksummed(Path::new(path))
        .expect("metrics artifact passes checksum verification");
    let text = String::from_utf8(payload).expect("metrics artifact is utf-8");
    MetricsSnapshot::from_json(&text).expect("metrics artifact parses")
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    *snap
        .counters
        .get(name)
        .unwrap_or_else(|| panic!("counter {name} missing from metrics artifact"))
}

/// Field access without caring about float formatting: returns the raw
/// `"eta_s":<...>` fragment so bit-identical replies compare equal.
fn eta_fragment(line: &str) -> &str {
    let start = line.find("\"eta_s\":").unwrap_or_else(|| {
        panic!("reply line carries no eta_s: {line}");
    });
    let rest = &line[start..];
    rest.split(',').next().expect("eta fragment")
}

#[test]
fn oracle_hits_answer_canonical_requests_with_precomputed_values() {
    let s = setup();
    // Build the oracle's own canonical requests from the shipped artifact
    // — these must all be cache hits, answered with the stored values.
    let oracle = deepod_core::OdOracle::load(Path::new(&s.oracle)).expect("oracle loads");
    assert!(!oracle.entries.is_empty(), "precompute produced entries");
    let input: String = oracle
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let od = oracle.keyer.canonical_od(e.key, &s.ds);
            od_line(
                i as u64,
                od.origin.x,
                od.origin.y,
                od.destination.x,
                od.destination.y,
                od.depart,
            ) + "\n"
        })
        .collect();
    let metrics = s.path("oracle_hits_metrics.json");
    let out = run_serve(
        &["--oracle", &s.oracle, "--metrics", &metrics],
        &s.model,
        input,
    );
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), oracle.entries.len());
    for (line, entry) in lines.iter().zip(&oracle.entries) {
        let want = format!("\"eta_s\":{:.1}", entry.eta_seconds);
        assert!(
            line.contains(&want) && line.contains("\"degraded\":false"),
            "expected precomputed {want} in {line}"
        );
    }
    let snap = read_metrics(&metrics);
    assert_eq!(
        counter(&snap, "serve.cache_hits"),
        oracle.entries.len() as u64,
        "every canonical request hits the oracle tier"
    );
    assert_eq!(counter(&snap, "serve.cache_misses"), 0);
}

#[test]
fn lru_tier_answers_repeats_bit_identically_to_the_cacheless_path() {
    let s = setup();
    const N: usize = 16;
    // The same N ODs twice, under fresh ids the second time: the repeats
    // must be LRU hits, and every reply must match the cacheless run.
    let half = |base: usize| -> String {
        (0..N)
            .map(|i| {
                let od = &s.ds.train[i].od;
                od_line(
                    (base + i) as u64,
                    od.origin.x,
                    od.origin.y,
                    od.destination.x,
                    od.destination.y,
                    od.depart,
                ) + "\n"
            })
            .collect()
    };
    let metrics = s.path("lru_metrics.json");
    // Week-long TTL slots: the wall clock cannot cross a boundary inside
    // one test run, so hit counts below are deterministic. The pause
    // between the halves lets the workers drain and populate the cache —
    // a repeat that races its original through the queue is a legitimate
    // miss, which is exactly what this test must not depend on.
    let cached = run_serve_chunked(
        &[
            "--cache-capacity",
            "256",
            "--cache-ttl-s",
            "604800",
            "--metrics",
            &metrics,
        ],
        &s.model,
        vec![(half(0), 2000), (half(N), 0)],
    );
    let plain = run_serve(&[], &s.model, half(0) + &half(N));
    let cached_lines = stdout_lines(&cached);
    let plain_lines = stdout_lines(&plain);
    assert_eq!(cached_lines.len(), 2 * N);
    assert_eq!(plain_lines.len(), 2 * N);
    for (c, p) in cached_lines.iter().zip(&plain_lines) {
        assert_eq!(
            eta_fragment(c),
            eta_fragment(p),
            "enabling the cache must not change any reply"
        );
    }
    for i in 0..N {
        assert_eq!(
            eta_fragment(&cached_lines[i]),
            eta_fragment(&cached_lines[i + N]),
            "a repeat answered from cache matches its first answer"
        );
    }
    let snap = read_metrics(&metrics);
    assert_eq!(counter(&snap, "serve.cache_misses"), N as u64);
    assert_eq!(
        counter(&snap, "serve.cache_hits"),
        N as u64,
        "each repeated OD is served from the LRU tier"
    );
}

#[test]
fn ttl_slot_rollover_expires_lru_entries() {
    let s = setup();
    let line = request_line(s, 0) + "\n";
    let metrics = s.path("ttl_metrics.json");
    // 1-second TTL slots; 2.5s between the two sends guarantees the wall
    // slot advanced, so the repeat finds its entry stale.
    let out = run_serve_chunked(
        &[
            "--cache-capacity",
            "8",
            "--cache-ttl-s",
            "1",
            "--metrics",
            &metrics,
        ],
        &s.model,
        vec![(line.clone(), 2500), (line, 0)],
    );
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 2);
    assert_eq!(
        eta_fragment(&lines[0]),
        eta_fragment(&lines[1]),
        "expiry re-computes the same deterministic answer"
    );
    let snap = read_metrics(&metrics);
    assert!(
        counter(&snap, "serve.cache_stale") >= 1,
        "the repeat crossed a TTL slot boundary and evicted the entry"
    );
    assert_eq!(counter(&snap, "serve.cache_hits"), 0);
}

#[test]
fn corrupt_oracle_is_rejected_and_serving_continues_cacheless() {
    let s = setup();
    let corrupt = s.path("corrupt_oracle.json");
    std::fs::write(&corrupt, "definitely not a checksummed artifact").expect("write corrupt file");
    let input: String = (0..6).map(|i| request_line(s, i) + "\n").collect();
    let metrics = s.path("corrupt_oracle_metrics.json");
    let with = run_serve(
        &["--oracle", &corrupt, "--metrics", &metrics],
        &s.model,
        input.clone(),
    );
    let without = run_serve(&[], &s.model, input);
    assert_eq!(
        stdout_lines(&with),
        stdout_lines(&without),
        "a rejected oracle leaves serving exactly cacheless"
    );
    let snap = read_metrics(&metrics);
    assert_eq!(counter(&snap, "serve.cache_hits"), 0);
    assert_eq!(
        counter(&snap, "serve.cache_misses"),
        0,
        "the tier is fully off, not merely empty"
    );
}

#[test]
fn fingerprint_mismatched_oracle_is_rejected_at_startup() {
    let s = setup();
    // Same artifact, wrong model identity: re-stamp the fingerprint via
    // the real save path (the artifact is checksummed, so a byte-edit
    // would be rejected as corruption rather than as a mismatch).
    let mut oracle = deepod_core::OdOracle::load(Path::new(&s.oracle)).expect("oracle loads");
    oracle.model_fingerprint = "0123456789abcdef".into();
    let stale = s.path("stale_oracle.json");
    oracle
        .save(Path::new(&stale))
        .expect("save re-stamped oracle");
    let input: String = (0..6).map(|i| request_line(s, i) + "\n").collect();
    let metrics = s.path("stale_oracle_metrics.json");
    let out = run_serve(
        &["--oracle", &stale, "--metrics", &metrics],
        &s.model,
        input,
    );
    assert_eq!(stdout_lines(&out).len(), 6, "serving continues cacheless");
    let snap = read_metrics(&metrics);
    assert_eq!(
        counter(&snap, "serve.cache_hits") + counter(&snap, "serve.cache_misses"),
        0,
        "a mismatched oracle must not serve (or even consult) answers"
    );
}

#[test]
fn pre_epoch_departures_get_typed_rejections_in_a_mixed_stream() {
    let s = setup();
    let od = &s.ds.train[0].od;
    let input = format!(
        "{}\n{}\n{}\n",
        request_line(s, 0),
        od_line(
            1,
            od.origin.x,
            od.origin.y,
            od.destination.x,
            od.destination.y,
            -5.0
        ),
        request_line(s, 2),
    );
    let out = run_serve(
        &["--cache-capacity", "64", "--oracle", &s.oracle],
        &s.model,
        input,
    );
    let replies: Vec<WireResponse> = stdout_lines(&out)
        .iter()
        .map(|line| WireResponse::parse(line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}")))
        .collect();
    assert_eq!(replies.len(), 3, "exactly one reply per request line");
    assert!(replies[0].is_ok(), "neighbor answered: {:?}", replies[0]);
    match &replies[1] {
        WireResponse::Err { id, error } => {
            assert_eq!(*id, Some(1), "the reject echoes its id");
            assert_eq!(error.kind, ErrorKind::BadRequest);
        }
        other => panic!("pre-epoch depart gets a typed per-request error, got {other:?}"),
    }
    assert!(replies[2].is_ok(), "stream continues: {:?}", replies[2]);
}

#[test]
fn cacheless_serving_is_bit_identical_across_runs() {
    let s = setup();
    let input: String = (0..24).map(|i| request_line(s, i) + "\n").collect();
    let a = run_serve(&[], &s.model, input.clone());
    let b = run_serve(&[], &s.model, input);
    assert_eq!(
        stdout_lines(&a),
        stdout_lines(&b),
        "defaults (no oracle, capacity 0) stay bit-identical cross-run"
    );
}
