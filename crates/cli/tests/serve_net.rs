//! TCP serving integration suite: drives the real `deepod serve --listen`
//! subcommand over loopback sockets and proves the DESIGN.md §16 contract
//! end to end:
//!
//! * N concurrent clients each get exactly one reply per request, in
//!   their own submission order, matched by correlation id;
//! * a greedy pipelining client is shed with typed `in_flight_limit`
//!   rejects while a polite client on the same server stays all-Ok;
//! * malformed, oversized, and unknown-version frames get typed replies
//!   without killing the connection they arrived on;
//! * closing the server's stdin drains every owed reply before sockets
//!   close;
//! * stdin mode stays byte-identical across runs, and answered frames
//!   keep their exact `{"id":N,"eta_s":X.X,"degraded":B}` shape;
//! * worker-crash chaos failpoints never lose or duplicate a reply.

use deepod_core::{DeepOdConfig, DeepOdModel, EmbeddingInit, FeatureContext};
use deepod_roadnet::CityProfile;
use deepod_serve::{ErrorKind, ServeClient, WireRequest, WireResponse};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepod")
}

struct Setup {
    data: String,
    model: String,
    ds: CityDataset,
}

/// Built once, exactly like the stdin suite: a simulated city written
/// through the CLI and an untrained-but-valid model saved through the
/// real serializer.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("deepod_serve_net_suite_{}", std::process::id()));
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
        std::fs::write(&model, model_json).expect("write model file");
        Setup { data, model, ds }
    })
}

/// One wire request replaying the i-th train order (ODs known to match
/// the road network) under the given correlation id.
fn request(s: &Setup, i: usize, id: u64) -> WireRequest {
    let od = &s.ds.train[i % s.ds.train.len()].od;
    WireRequest {
        id,
        from: (od.origin.x, od.origin.y),
        to: (od.destination.x, od.destination.y),
        depart: od.depart,
        low_priority: false,
    }
}

/// A running `deepod serve --listen` child. Its stdin is the lifecycle
/// handle: dropping it (via [`Server::shutdown`]) tells the server to
/// drain and exit — the same contract a supervising parent uses.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(extra_args: &[&str], envs: &[(&str, &str)]) -> Server {
        let s = setup();
        let mut cmd = Command::new(bin());
        cmd.args([
            "serve",
            "--data",
            &s.data,
            "--model",
            &s.model,
            "--listen",
            "127.0.0.1:0",
        ])
        .args(extra_args)
        .env("DEEPOD_LOG", "off")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn deepod serve --listen");
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // First stdout line announces the resolved ephemeral address.
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening announcement");
        let addr = line
            .trim()
            .strip_prefix("{\"listening\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .unwrap_or_else(|| panic!("unexpected announcement line {line:?}"))
            .to_string();
        Server {
            child,
            stdin: Some(stdin),
            stdout,
            addr,
        }
    }

    /// Closes the lifecycle stdin and waits for a clean exit.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("serve child exits");
        // Drain remaining stdout so the child never blocked on the pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        assert!(
            status.success(),
            "serve --listen exited {:?}",
            status.code()
        );
    }

    /// Shutdown variant for chaos runs, where injected worker panics may
    /// legitimately turn the exit code nonzero.
    fn shutdown_lenient(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait().expect("serve child exits");
    }
}

use std::io::Read;

#[test]
fn concurrent_clients_each_get_every_reply_exactly_once() {
    let server = Server::start(&["--workers", "2"], &[]);
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let s = setup();
                let mut client = ServeClient::connect(&addr).expect("connect");
                let reqs: Vec<WireRequest> = (0..PER_CLIENT)
                    .map(|i| request(s, c * PER_CLIENT + i, (c * PER_CLIENT + i) as u64))
                    .collect();
                let replies = client.send_batch(&reqs).expect("batch round trip");
                assert_eq!(replies.len(), PER_CLIENT);
                let mut seen = std::collections::BTreeSet::new();
                for (req, reply) in reqs.iter().zip(&replies) {
                    match reply {
                        WireResponse::Ok {
                            id,
                            eta_seconds,
                            degraded,
                        } => {
                            assert_eq!(*id, req.id, "replies in submission order");
                            assert!(!degraded, "real model is not degraded");
                            assert!(
                                eta_seconds.is_finite() && *eta_seconds >= 0.0,
                                "sane ETA, got {eta_seconds}"
                            );
                            assert!(seen.insert(*id), "id {id} answered twice");
                        }
                        WireResponse::Err { id, error } => {
                            panic!(
                                "request {id:?} failed: {} {}",
                                error.kind.as_str(),
                                error.msg
                            )
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn greedy_client_is_shed_without_starving_a_polite_one() {
    let s = setup();
    let server = Server::start(
        &[
            "--max-in-flight",
            "4",
            "--queue",
            "64",
            "--max-wait-ms",
            "20",
        ],
        &[],
    );

    // The greedy client pipelines far past its in-flight cap without
    // reading a single reply.
    let greedy = ServeClient::connect(&server.addr).expect("connect greedy");
    let (mut tx, mut rx) = greedy.split();
    const GREEDY_N: usize = 200;
    for i in 0..GREEDY_N {
        tx.send(&request(s, i, i as u64)).expect("greedy send");
    }

    // Meanwhile a polite lock-step client on the same server must see
    // zero rejects: the greedy client's overflow is charged to its own
    // connection, not to the shared engine.
    let mut polite = ServeClient::connect(&server.addr).expect("connect polite");
    for i in 0..20 {
        let req = request(s, i, 10_000 + i as u64);
        polite.send(&req).expect("polite send");
        match polite.recv().expect("polite recv") {
            WireResponse::Ok { id, .. } => assert_eq!(id, req.id),
            WireResponse::Err { id, error } => panic!(
                "polite client must not be shed, got {:?} for {id:?}: {}",
                error.kind.as_str(),
                error.msg
            ),
        }
    }

    // The greedy client still gets exactly one reply per frame — answers
    // within the cap, typed `in_flight_limit` rejects beyond it.
    rx.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut answered = 0usize;
    let mut shed = 0usize;
    for _ in 0..GREEDY_N {
        match rx.recv().expect("greedy recv") {
            WireResponse::Ok { .. } => answered += 1,
            WireResponse::Err { error, .. } => {
                assert_eq!(
                    error.kind,
                    ErrorKind::InFlightLimit,
                    "unexpected reject: {}",
                    error.msg
                );
                shed += 1;
            }
        }
    }
    assert!(answered > 0, "the cap admits up to 4 in flight");
    assert!(
        shed > 0,
        "pipelining {GREEDY_N} frames past a cap of 4 must shed"
    );
    tx.finish().expect("close write half");
    server.shutdown();
}

#[test]
fn protocol_rejects_are_typed_and_do_not_kill_the_connection() {
    let s = setup();
    let server = Server::start(&["--max-frame-bytes", "1024"], &[]);
    let stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut send_raw = |frame: &str| {
        writer.write_all(frame.as_bytes()).expect("send frame");
        writer.write_all(b"\n").expect("send newline");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        WireResponse::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    };

    // Malformed JSON: typed bad request with no id to echo.
    send_raw("this is not json");
    match recv() {
        WireResponse::Err { id: None, error } => {
            assert_eq!(error.kind, ErrorKind::BadRequest);
            assert!(error.msg.contains("JSON"), "got {}", error.msg);
        }
        other => panic!("malformed frame must be a bad request, got {other:?}"),
    }

    // Oversized frame: typed structured reject, connection survives.
    let huge = format!("{{\"id\": 1, \"pad\": \"{}\"}}", "x".repeat(4096));
    send_raw(&huge);
    match recv() {
        WireResponse::Err { error, .. } => {
            assert_eq!(error.kind, ErrorKind::FrameTooLarge, "got {}", error.msg)
        }
        other => panic!("oversized frame must be rejected, got {other:?}"),
    }

    // Unknown protocol version: typed reject that echoes the id.
    send_raw("{\"v\": 7, \"id\": 5, \"from\": [0, 0], \"to\": [1, 1], \"depart\": 0}");
    match recv() {
        WireResponse::Err { id, error } => {
            assert_eq!(id, Some(5), "the reject echoes the readable id");
            assert_eq!(
                error.kind,
                ErrorKind::UnsupportedVersion,
                "got {}",
                error.msg
            )
        }
        other => panic!("v7 frame must be rejected, got {other:?}"),
    }

    // The same connection still answers a well-formed frame.
    let req = request(s, 0, 42);
    let mut line = req.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send good frame");
    match recv() {
        WireResponse::Ok { id, .. } => assert_eq!(id, 42, "connection survived the rejects"),
        other => panic!("good frame after rejects must answer, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_deeply_nested_frame_gets_a_typed_reply_and_the_process_survives() {
    // 60 000 `[` fit under the default 64 KiB frame cap, so they reach
    // the JSON parser on a connection thread; an uncapped recursive
    // parser would overflow that thread's stack and abort the process.
    let s = setup();
    let server = Server::start(&[], &[]);
    let stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        WireResponse::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    };

    let mut deep = "[".repeat(60_000);
    deep.push('\n');
    writer.write_all(deep.as_bytes()).expect("send deep frame");
    match recv() {
        WireResponse::Err { id: None, error } => {
            assert_eq!(error.kind, ErrorKind::BadRequest, "got {}", error.msg);
            assert!(error.msg.contains("nesting"), "got {}", error.msg);
        }
        other => panic!("deep nesting must fail as a bad request, got {other:?}"),
    }

    // Same connection, same process: a valid request is still answered.
    let mut line = request(s, 0, 7).to_line();
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send good frame");
    match recv() {
        WireResponse::Ok { id, .. } => assert_eq!(id, 7),
        other => panic!("good frame after the deep one must answer, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn closing_server_stdin_drains_every_owed_reply() {
    let s = setup();
    // Slow the first batch down so replies are still owed when the
    // shutdown signal lands.
    let server = Server::start(
        &["--max-batch", "2"],
        &[("DEEPOD_FAILPOINTS", "serve::slow_batch:1:sleep=300")],
    );
    let client = ServeClient::connect(&server.addr).expect("connect");
    let (mut tx, mut rx) = client.split();
    const K: usize = 6;
    for i in 0..K {
        tx.send(&request(s, i, i as u64)).expect("send");
    }
    // Give the reader a moment to submit the frames, then trigger
    // shutdown while they are still in flight behind the slow batch.
    std::thread::sleep(Duration::from_millis(100));
    let drained = std::thread::spawn(move || {
        rx.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        let mut ids = Vec::new();
        for _ in 0..K {
            match rx.recv().expect("owed reply before the socket closes") {
                WireResponse::Ok { id, .. } => ids.push(id),
                WireResponse::Err { id, error } => {
                    panic!("reply {id:?} failed during drain: {}", error.msg)
                }
            }
        }
        ids
    });
    server.shutdown();
    let ids = drained.join().expect("drain thread");
    assert_eq!(
        ids,
        (0..K as u64).collect::<Vec<_>>(),
        "every submitted frame answered, in order, before close"
    );
    let _ = tx.finish();
}

#[test]
fn stdin_mode_is_byte_identical_across_runs() {
    let s = setup();
    let input: String = (0..40)
        .map(|i| {
            let od = &s.ds.train[i % s.ds.train.len()].od;
            format!(
                "{{\"id\": {i}, \"from\": [{}, {}], \"to\": [{}, {}], \"depart\": {}}}\n",
                od.origin.x, od.origin.y, od.destination.x, od.destination.y, od.depart
            )
        })
        .collect();
    let run = |input: &str| {
        let mut child = Command::new(bin())
            .args(["serve", "--data", &s.data, "--model", &s.model])
            .env("DEEPOD_LOG", "off")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn deepod serve");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(input.as_bytes()).expect("feed stdin");
        drop(stdin);
        let out = child.wait_with_output().expect("serve terminates at EOF");
        assert!(out.status.success());
        out.stdout
    };
    let a = run(&input);
    let b = run(&input);
    assert_eq!(a, b, "stdin serving must stay deterministic");
    // And each answered frame keeps its exact shape.
    let text = String::from_utf8(a).expect("utf8 stdout");
    for (i, line) in text.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{i},\"eta_s\":"))
                && line.ends_with(",\"degraded\":false}"),
            "frame shape drifted: {line:?}"
        );
    }
}

#[test]
fn worker_crash_chaos_never_loses_or_duplicates_replies() {
    let server = Server::start(
        &["--workers", "2", "--retry-budget", "2", "--max-batch", "4"],
        &[("DEEPOD_FAILPOINTS", "serve::worker_batch:3:panic")],
    );
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 30;
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let s = setup();
                let mut client = ServeClient::connect(&addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("set timeout");
                let mut ok = 0usize;
                let mut errs = 0usize;
                for i in 0..PER_CLIENT {
                    let req = request(s, c * PER_CLIENT + i, i as u64);
                    client.send(&req).expect("send");
                    // Exactly one reply per frame — an answer, or a typed
                    // crash/shed error, but never silence and never two.
                    match client.recv().expect("one reply per request") {
                        WireResponse::Ok { id, .. } => {
                            assert_eq!(id, req.id, "ids stay matched under chaos");
                            ok += 1;
                        }
                        WireResponse::Err { id, .. } => {
                            assert_eq!(id, Some(req.id), "errors echo their id");
                            errs += 1;
                        }
                    }
                }
                (ok, errs)
            })
        })
        .collect();
    let mut total_ok = 0usize;
    for h in handles {
        let (ok, _errs) = h.join().expect("client thread");
        total_ok += ok;
    }
    assert!(
        total_ok > 0,
        "retries past injected panics still answer requests"
    );
    server.shutdown_lenient();
}
