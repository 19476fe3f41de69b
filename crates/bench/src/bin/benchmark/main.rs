//! The repo benchmark (see README.md in this directory and
//! `/BENCHMARK.json`): four workloads, six end-to-end metrics, and a
//! traced run that replays each workload's inputs through every layer.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace [0|1]] [--smoke]   all four workloads
//! benchmark --workload NAME [...]                                one workload, in process
//! ```
//!
//! Without `--workload` each workload runs in a child process of its
//! own, so peak memory is attributable. With it, the last line of
//! standard output is the result object of the benchmark contract.

mod gen;
mod layers;
mod loadgen;
mod offline;
mod quality;
mod report;
mod serve;
mod stack;
mod stats;
mod trace;
mod train;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The four workloads, in the order they run.
const WORKLOADS: [&str; 4] = ["serve_miss", "serve_hot", "batch_offline", "train_epoch"];
/// Measured seconds per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.2;

/// Arguments of one workload run.
pub struct Opts {
    /// Which workload.
    pub workload: &'static str,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// One set-up, one repetition, numbers not comparable.
    pub smoke: bool,
    /// Set-ups per run (their median is `setup_s`): one in the run's own
    /// process, the others in child processes.
    pub setups: usize,
    /// Repetitions per timed quantity.
    pub reps: usize,
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Run one set-up of the workload, print its seconds and exit (how
    /// a run takes its extra set-up samples, in processes of their own).
    setup_only: bool,
}

impl Args {
    /// `--seconds`, or the default of the mode.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        setup_only: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workload = Some(known.ok_or(format!(
                    "unknown workload '{name}' (one of {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("--seed: bad number '{v}'"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: bad number '{v}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes
                // an explicit 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `setup_s` samples beyond the run's own: [`Opts::setups`] − 1 set-ups,
/// each in a fresh child process, so that the set-up measured is a
/// process's first and the run's peak memory is one stack's, not three.
pub fn setups_in_children(opts: &Opts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (1..opts.setups)
        .map(|_| {
            let child = std::process::Command::new(&exe)
                .args(["--workload", opts.workload, "--setup-only"])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .filter(|_| child.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&child.stderr).trim()
                    )
                })
        })
        .collect()
}

fn setup_only(opts: &Opts) -> Result<f64, String> {
    match opts.workload {
        "serve_miss" => serve::setup_seconds(serve::Kind::Miss, opts),
        "serve_hot" => serve::setup_seconds(serve::Kind::Hot, opts),
        "batch_offline" => Ok(offline::setup_seconds()),
        _ => train::setup_seconds(opts),
    }
}

fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    match (opts.workload, opts.trace) {
        ("serve_miss", false) => serve::run(serve::Kind::Miss, opts),
        ("serve_miss", true) => serve::run_traced(serve::Kind::Miss, opts),
        ("serve_hot", false) => serve::run(serve::Kind::Hot, opts),
        ("serve_hot", true) => serve::run_traced(serve::Kind::Hot, opts),
        ("batch_offline", false) => offline::run(opts),
        ("batch_offline", true) => offline::run_traced(opts),
        ("train_epoch", false) => train::run(opts),
        ("train_epoch", true) => train::run_traced(opts),
        (other, _) => Err(format!("unknown workload '{other}'")),
    }
}

/// Runs every workload (and, with `--trace`, its traced run) in a child
/// process each; the exit code is non-zero if any output was wrong.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 2;
        }
    };
    let seconds = args.seconds();
    let mut worst = 0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child inherits standard output, so its metrics print
            // as they are produced; `status` waits for it to end.
            let code = match cmd.status() {
                Ok(status) => status.code().unwrap_or(2),
                Err(e) => {
                    eprintln!("benchmark: cannot start {workload}: {e}");
                    2
                }
            };
            if code != 0 {
                println!("benchmark: {workload} exited with code {code}");
            }
            worst = worst.max(code);
        }
    }
    println!(
        "benchmark: {}",
        if worst == 0 {
            "every workload's outputs were correct"
        } else {
            "FAILED"
        }
    );
    worst
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = args.workload else {
        std::process::exit(run_all(&args));
    };
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        smoke: args.smoke,
        setups: if args.smoke { 1 } else { 3 },
        reps: if args.smoke { 1 } else { 3 },
    };
    if args.setup_only {
        match setup_only(&opts) {
            Ok(seconds) => println!("setup_s {seconds}"),
            Err(e) => {
                eprintln!("benchmark: {workload} set-up failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run_workload(&opts) {
        Ok(outcome) => {
            let names: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
            outcome.print(workload, names, opts.smoke);
            std::process::exit(report::exit_code(outcome.correct()));
        }
        Err(e) => {
            eprintln!("benchmark: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload serve_hot --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some("serve_hot"), 7, Some(20.0), true)
        );
        let a = parse_args(&argv("--trace 0 --workload train_epoch")).expect("valid");
        assert_eq!((a.workload, a.trace), (Some("train_epoch"), false));
        let a = parse_args(&argv("--trace --smoke")).expect("valid");
        assert!(a.trace && a.smoke && a.workload.is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
