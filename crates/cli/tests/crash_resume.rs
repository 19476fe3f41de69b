//! Crash-safety integration suite: drives the real `deepod` binary with
//! `DEEPOD_FAILPOINTS` schedules, kills it mid-training, and proves the
//! crash-safe training contract end to end:
//!
//! * a run killed at an epoch boundary, mid-epoch step, or by an injected
//!   worker-thread panic resumes to a **bit-identical** training report
//!   (validation-curve `f32` bits, final train loss, step counts);
//! * truncated or bit-flipped checkpoints are rejected with a typed
//!   checksum error and exit code 1 — never a panic, never a silently
//!   wrong model;
//! * `predict` exits 1 with the typed load error, and prints no ETA, when
//!   the model file is missing or corrupt;
//! * atomic writes never tear the destination file, even when the process
//!   dies between writing the temp file and renaming it.
//!
//! Exit-code taxonomy under test: 0 ok, 1 error, 70 failpoint kill
//! (simulated crash), 101 Rust panic.

use deepod_core::TrainReport;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

const KILL: i32 = 70;
const PANIC: i32 = 101;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_deepod")
}

fn run(args: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    // Isolate every subprocess from the test environment; thread counts
    // are always passed explicitly for determinism, and observability is
    // left at its defaults.
    for var in [
        "DEEPOD_FAILPOINTS",
        "DEEPOD_THREADS",
        "DEEPOD_LOG",
        "DEEPOD_LOG_FORMAT",
        "DEEPOD_METRICS",
    ] {
        cmd.env_remove(var);
    }
    if let Some(fp) = failpoints {
        cmd.env("DEEPOD_FAILPOINTS", fp);
    }
    cmd.output().expect("spawn deepod binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn read_report(path: &std::path::Path) -> TrainReport {
    let json = std::fs::read_to_string(path).expect("report file");
    serde_json::from_str(&json).expect("report parses")
}

/// The deterministic parts of two reports must match to the bit; wall
/// clocks (`elapsed_s`, `*_time_s`) are excluded by design.
fn assert_reports_bit_identical(label: &str, a: &TrainReport, b: &TrainReport) {
    assert_eq!(a.curve.len(), b.curve.len(), "{label}: curve length");
    for (pa, pb) in a.curve.iter().zip(&b.curve) {
        assert_eq!(pa.step, pb.step, "{label}: curve step");
        assert_eq!(
            pa.val_mae.to_bits(),
            pb.val_mae.to_bits(),
            "{label}: val_mae at step {} ({} vs {})",
            pa.step,
            pa.val_mae,
            pb.val_mae
        );
    }
    assert_eq!(
        a.best_val_mae.to_bits(),
        b.best_val_mae.to_bits(),
        "{label}: best_val_mae"
    );
    assert_eq!(
        a.final_train_loss.to_bits(),
        b.final_train_loss.to_bits(),
        "{label}: final_train_loss"
    );
    assert_eq!(a.total_steps, b.total_steps, "{label}: total_steps");
    assert_eq!(
        a.convergence_step, b.convergence_step,
        "{label}: convergence_step"
    );
}

struct Setup {
    dir: PathBuf,
    data: String,
    /// Report of an uninterrupted single-threaded run with checkpointing.
    baseline_t1: TrainReport,
}

impl Setup {
    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// `deepod train` argv shared by all runs of this suite (2 epochs,
    /// fixed seed, per-step checkpoints).
    fn train_args<'a>(
        &'a self,
        threads: &'a str,
        ckpt: &'a str,
        report: &'a str,
        model: &'a str,
    ) -> Vec<&'a str> {
        vec![
            "train",
            "--data",
            &self.data,
            "--epochs",
            "2",
            "--seed",
            "7",
            "--threads",
            threads,
            "--checkpoint-every",
            "1",
            "--checkpoint",
            ckpt,
            "--report",
            report,
            "--out",
            model,
        ]
    }
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("deepod_crash_suite_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("suite temp dir");
        let data = dir.join("city.json").display().to_string();
        let out = run(
            &[
                "simulate",
                "--profile",
                "chengdu",
                "--orders",
                "60",
                "--out",
                &data,
            ],
            None,
        );
        assert!(out.status.success(), "simulate failed: {}", stderr_of(&out));

        let path = |name: &str| dir.join(name).display().to_string();
        let (ckpt, report, model) = (
            path("baseline.ckpt"),
            path("baseline_report.json"),
            path("baseline_model.json"),
        );
        let out = run(
            &[
                "train",
                "--data",
                &data,
                "--epochs",
                "2",
                "--seed",
                "7",
                "--threads",
                "1",
                "--checkpoint-every",
                "1",
                "--checkpoint",
                &ckpt,
                "--report",
                &report,
                "--out",
                &model,
            ],
            None,
        );
        assert!(
            out.status.success(),
            "baseline train failed: {}",
            stderr_of(&out)
        );
        let baseline_t1 = read_report(report.as_ref());
        Setup {
            dir,
            data,
            baseline_t1,
        }
    })
}

/// Kills training at a failpoint, resumes from the checkpoint it left
/// behind, and returns the resumed run's report.
fn kill_and_resume(
    s: &Setup,
    tag: &str,
    threads: &str,
    schedule: &str,
    want_exit: i32,
) -> TrainReport {
    let ckpt = s.path(&format!("{tag}.ckpt"));
    let report = s.path(&format!("{tag}_report.json"));
    let model = s.path(&format!("{tag}_model.json"));

    let killed = run(
        &s.train_args(threads, &ckpt, &report, &model),
        Some(schedule),
    );
    assert_eq!(
        killed.status.code(),
        Some(want_exit),
        "{tag}: schedule {schedule} should exit {want_exit}; stderr: {}",
        stderr_of(&killed)
    );
    assert!(
        std::path::Path::new(&ckpt).exists(),
        "{tag}: a checkpoint must survive the crash"
    );
    assert!(
        !std::path::Path::new(&model).exists(),
        "{tag}: the killed run must not have published a model"
    );

    let resumed = run(
        &[
            "train",
            "--data",
            &s.data,
            "--threads",
            threads,
            "--resume",
            &ckpt,
            "--report",
            &report,
            "--out",
            &model,
        ],
        None,
    );
    assert!(
        resumed.status.success(),
        "{tag}: resume failed: {}",
        stderr_of(&resumed)
    );
    assert!(
        std::path::Path::new(&model).exists(),
        "{tag}: resumed run must publish the model"
    );
    read_report(report.as_ref())
}

#[test]
fn kill_at_epoch_boundary_resumes_bit_identical() {
    let s = setup();
    // Second visit to the epoch hook = start of epoch 1: one full epoch
    // trained, then a hard crash.
    let report = kill_and_resume(s, "epoch_kill", "1", "train::epoch:2", KILL);
    assert_reports_bit_identical("epoch kill", &s.baseline_t1, &report);
}

#[test]
fn kill_mid_epoch_resumes_bit_identical() {
    let s = setup();
    // Third optimizer step: dies inside an epoch, so resume must carry
    // the partial epoch-loss accumulators and the reshuffled order.
    let report = kill_and_resume(s, "step_kill", "1", "train::step:3", KILL);
    assert_reports_bit_identical("step kill", &s.baseline_t1, &report);
}

#[test]
fn worker_panic_then_resume_recovers() {
    let s = setup();
    // A two-thread baseline for comparison (thread count changes the
    // gradient merge shape, so it gets its own reference run).
    let (ckpt, report, model) = (
        s.path("t2_baseline.ckpt"),
        s.path("t2_baseline_report.json"),
        s.path("t2_baseline_model.json"),
    );
    let out = run(&s.train_args("2", &ckpt, &report, &model), None);
    assert!(out.status.success(), "t2 baseline: {}", stderr_of(&out));
    let baseline_t2 = read_report(report.as_ref());

    // Kill a fan-out via an injected worker panic (exit 101, not the kill
    // code). Graph-embedding pretraining issues a build-dependent number
    // of fan-outs before the first optimizer step, so probe increasing
    // hit counts until the crash lands after a checkpoint was written.
    let ckpt = s.path("worker_panic.ckpt");
    let report_path = s.path("worker_panic_report.json");
    let model_path = s.path("worker_panic_model.json");
    let mut crashed = false;
    for nth in 3..64 {
        let _ = std::fs::remove_file(&ckpt);
        let schedule = format!("parallel::worker:{nth}:panic");
        let out = run(
            &s.train_args("2", &ckpt, &report_path, &model_path),
            Some(&schedule),
        );
        match out.status.code() {
            Some(0) => break, // ran to completion: no later fan-out exists
            Some(code) => {
                assert_eq!(code, PANIC, "schedule {schedule}: {}", stderr_of(&out));
                assert!(
                    stderr_of(&out).contains("injected panic"),
                    "{}",
                    stderr_of(&out)
                );
                if std::path::Path::new(&ckpt).exists() {
                    crashed = true;
                    break;
                }
            }
            None => panic!("killed by signal under schedule {schedule}"),
        }
    }
    assert!(
        crashed,
        "no worker-panic schedule crashed training after a checkpoint existed"
    );

    // The checkpoint written before the panic resumes to the exact
    // two-thread run.
    let resumed = run(
        &[
            "train",
            "--data",
            &s.data,
            "--resume",
            &ckpt,
            "--report",
            &report_path,
            "--out",
            &model_path,
        ],
        None,
    );
    assert!(
        resumed.status.success(),
        "worker panic resume failed: {}",
        stderr_of(&resumed)
    );
    let resumed_report = read_report(report_path.as_ref());
    assert_reports_bit_identical("worker panic", &baseline_t2, &resumed_report);
}

#[test]
fn corrupt_checkpoints_are_rejected_with_typed_errors() {
    let s = setup();
    let good = s.path("baseline.ckpt");
    let bytes = std::fs::read(&good).expect("baseline checkpoint bytes");

    // Bit flip in the payload → checksum mismatch, exit 1.
    let flipped = s.path("flipped.ckpt");
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&flipped, &bad).expect("write corrupt checkpoint");
    let out = run(
        &[
            "train",
            "--data",
            &s.data,
            "--resume",
            &flipped,
            "--out",
            &s.path("never.json"),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "bit flip must be a clean error");
    assert!(
        stderr_of(&out).contains("checksum mismatch"),
        "stderr: {}",
        stderr_of(&out)
    );

    // Truncation → typed truncation error, exit 1.
    let truncated = s.path("truncated.ckpt");
    std::fs::write(&truncated, &bytes[..bytes.len() / 3]).expect("write truncated checkpoint");
    let out = run(
        &[
            "train",
            "--data",
            &s.data,
            "--resume",
            &truncated,
            "--out",
            &s.path("never.json"),
        ],
        None,
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "truncation must be a clean error"
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("truncated") || err.contains("checksum") || err.contains("footer"),
        "stderr: {err}"
    );
    assert!(
        !std::path::Path::new(&s.path("never.json")).exists(),
        "no model may be produced from a corrupt checkpoint"
    );
}

#[test]
fn predict_exits_1_with_the_typed_load_error_on_bad_model() {
    let s = setup();
    // A real test-order OD, so the request itself is answerable:
    // `simulate` is deterministic, so rebuilding the same profile and
    // order count in-process reproduces the dataset the CLI wrote.
    let ds = deepod_traj::DatasetBuilder::build(&deepod_traj::DatasetConfig::for_profile(
        deepod_roadnet::CityProfile::SynthChengdu,
        60,
    ));
    let od = &ds.test[0].od;
    let from = format!("{},{}", od.origin.x, od.origin.y);
    let to = format!("{},{}", od.destination.x, od.destination.y);
    let depart = od.depart.to_string();
    let predict = |model: &str| {
        run(
            &[
                "predict", "--data", &s.data, "--model", model, "--from", &from, "--to", &to,
                "--depart", &depart,
            ],
            None,
        )
    };

    // The baseline model answers the same query.
    let out = predict(&s.path("baseline_model.json"));
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).starts_with("ETA: "), "{}", stdout_of(&out));

    // A missing model file, and the baseline model with one payload digit
    // changed: exit 1, the typed load error naming the file, no ETA.
    let missing = s.path("no_such_model.json");
    let mut bytes = std::fs::read(s.path("baseline_model.json")).expect("read model");
    let digit = bytes
        .iter()
        .position(u8::is_ascii_digit)
        .expect("a model has digits");
    if let Some(b) = bytes.get_mut(digit) {
        *b ^= 1; // '0' <-> '1', ..., '8' <-> '9'
    }
    let corrupt = s.path("corrupt_model.json");
    std::fs::write(&corrupt, &bytes).expect("write corrupt model");
    let cases = [
        (&missing, format!("error: read {missing}: ")),
        (&corrupt, format!("error: {corrupt}: checksum mismatch")),
    ];
    for (model, want) in &cases {
        let out = predict(model);
        assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(want.as_str()),
            "{}",
            stderr_of(&out)
        );
        assert!(stdout_of(&out).is_empty(), "{}", stdout_of(&out));
    }
}

#[test]
fn atomic_write_never_tears_the_destination() {
    let s = setup();
    let target = s.path("atomic_city.json");
    let out = run(
        &[
            "simulate",
            "--profile",
            "chengdu",
            "--orders",
            "40",
            "--out",
            &target,
        ],
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let original = std::fs::read(&target).expect("first dataset");

    // Crash after the temp file is written but before the rename: the
    // published file must be byte-identical to the previous version.
    let out = run(
        &[
            "simulate",
            "--profile",
            "chengdu",
            "--orders",
            "45",
            "--out",
            &target,
        ],
        Some("io_guard::pre_rename:1"),
    );
    assert_eq!(out.status.code(), Some(KILL), "{}", stderr_of(&out));
    let after = std::fs::read(&target).expect("dataset still present");
    assert_eq!(original, after, "destination must never be torn");
}
