//! `deepod` — the command-line interface to the DeepOD stack.
//!
//! Subcommands:
//!
//! * `simulate` — generate a synthetic city dataset and write it as JSON.
//! * `train`    — train a DeepOD model on a dataset file, save the model.
//! * `predict`  — load a model + dataset and answer one OD query.
//! * `eval`     — load a model + dataset and report test MAE/MAPE/MARE.
//! * `serve`    — load a model + dataset once and answer a stream of OD
//!   queries over NDJSON stdin/stdout or TCP.
//! * `info`     — print summary statistics of a dataset or model file.
//!
//! Global observability flags (stripped before subcommand dispatch):
//!
//! * `--log-format {text,json}` — structured-event format on stderr
//!   (also `DEEPOD_LOG_FORMAT`); verbosity comes from `DEEPOD_LOG`
//!   (`off|error|warn|info|debug|trace`, default `warn`).
//! * `--metrics FILE` — flush the process-wide metrics registry to FILE
//!   as checksummed JSON at exit (also `DEEPOD_METRICS`).
//!
//! Exit codes: 0 ok, 1 error (a model file that does not load included),
//! 70 injected failpoint kill, 78 malformed `DEEPOD_FAILPOINTS` spec.
//!
//! Example round trip:
//!
//! ```text
//! deepod simulate --profile chengdu --orders 1500 --out city.json
//! deepod train    --data city.json --epochs 8 --out model.json
//! deepod eval     --data city.json --model model.json
//! deepod predict  --data city.json --model model.json \
//!                 --from 1200,3400 --to 4100,800 --depart 1468800
//! ```

mod args;
mod commands;
mod dataset_io;

use std::process::ExitCode;

/// Removes `--flag value` from `argv` and returns the value, if present.
fn extract_value(argv: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = argv.iter().position(|a| a == flag)?;
    if i + 1 < argv.len() {
        let v = argv.remove(i + 1);
        argv.remove(i);
        Some(v)
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();

    // Runtime configuration is process-global, so its flags are global
    // too: strip them here before the subcommand parsers see the argument
    // list, then resolve flags > environment > defaults in one place.
    let log_format = match extract_value(&mut argv, "--log-format") {
        Some(raw) => match deepod_core::obs::LogFormat::parse(&raw) {
            Some(f) => Some(f),
            None => {
                eprintln!("error: --log-format expects 'text' or 'json', got '{raw}'");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let overrides = deepod_core::RuntimeOverrides {
        log_format,
        metrics_path: extract_value(&mut argv, "--metrics"),
    };
    let runtime = deepod_core::RuntimeConfig::resolve(overrides, |key| std::env::var(key).ok());
    if let Err(e) = runtime.apply() {
        // A malformed DEEPOD_FAILPOINTS spec must abort (exit 78) even for
        // commands that never visit a failpoint site: fault injection that
        // silently fails to arm makes crash tests pass vacuously.
        eprintln!("fatal: {e}");
        return ExitCode::from(
            u8::try_from(deepod_tensor::failpoint::CONFIG_EXIT_CODE).unwrap_or(1),
        );
    }

    let outcome = commands::dispatch(&argv);

    // Flush metrics even when the command failed: the artifact is most
    // useful exactly when something went wrong.
    if let Some(path) = runtime.metrics_path {
        if let Err(e) = deepod_core::obs::registry::flush_to_path(std::path::Path::new(&path)) {
            eprintln!("error: writing metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
