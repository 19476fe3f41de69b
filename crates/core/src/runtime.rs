//! Process-wide runtime configuration, resolved **once** at binary
//! startup (DESIGN.md §9).
//!
//! Historically each subsystem read its own environment variable at first
//! use (`DEEPOD_THREADS` in the tensor layer, `DEEPOD_LOG` /
//! `DEEPOD_LOG_FORMAT` in obs, `DEEPOD_FAILPOINTS` in the failpoint
//! registry, `DEEPOD_METRICS` in the CLI), which made configuration order
//! dependent on which module happened to initialize first. Now every knob
//! flows through one [`RuntimeConfig`]:
//!
//! * binaries call [`RuntimeConfig::resolve`] with their flag overrides
//!   and an environment lookup closure (precedence: flags > env >
//!   defaults), then [`RuntimeConfig::apply`] exactly once;
//! * library crates never read the environment — enforced by the
//!   `xtask check` rule `no-env-read-in-lib`.
//!
//! The environment is passed in as a closure rather than read here so the
//! *only* `std::env::var` tokens in the workspace live in `src/main.rs` /
//! `src/bin/` files, which the lint exempts.

use crate::obs::{self, Level, LogFormat};

/// Flag-level overrides a binary resolved from its own argument list.
/// Anything left `None` falls back to the environment, then defaults.
#[derive(Clone, Debug, Default)]
pub struct RuntimeOverrides {
    /// `--log-format {text,json}` (validated by the caller; an invalid
    /// flag value is a CLI usage error, not a silent fallback).
    pub log_format: Option<LogFormat>,
    /// `--metrics FILE`: flush the metrics registry here at exit.
    pub metrics_path: Option<String>,
}

/// The fully resolved process configuration. Construct via
/// [`RuntimeConfig::resolve`]; install via [`RuntimeConfig::apply`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker-thread count for data-parallel sections (`0` = machine
    /// default). From `DEEPOD_THREADS`.
    pub threads: usize,
    /// Event-level gate: `None` = keep the default (`warn`, widenable by
    /// `--verbose`); `Some(None)` = explicitly off; `Some(Some(l))` =
    /// explicit threshold. From `DEEPOD_LOG`.
    pub log_level: Option<Option<Level>>,
    /// Event wire format, when either a flag or `DEEPOD_LOG_FORMAT` chose
    /// one.
    pub log_format: Option<LogFormat>,
    /// Where to flush the metrics registry at exit (flag or
    /// `DEEPOD_METRICS`). The binary owns the actual flush so it can run
    /// after command dispatch, even on failure.
    pub metrics_path: Option<String>,
    /// Raw fault-injection spec from `DEEPOD_FAILPOINTS`; armed by
    /// [`RuntimeConfig::apply`], which surfaces malformed entries as
    /// [`RuntimeError::BadFailpoints`].
    pub failpoints: Option<String>,
    /// An unrecognized `DEEPOD_LOG` value, kept so [`RuntimeConfig::apply`]
    /// can warn about it *after* the log pipeline is up. A typo'd level is
    /// not worth killing a training run over, but must not pass silently.
    bad_log_value: Option<String>,
}

/// Why applying a [`RuntimeConfig`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// `DEEPOD_FAILPOINTS` contained a malformed entry; the payload is the
    /// parser's explanation. Binaries turn this into an abort with
    /// [`deepod_tensor::failpoint::CONFIG_EXIT_CODE`] — fault injection
    /// that silently fails to arm would make crash tests pass vacuously.
    BadFailpoints(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BadFailpoints(why) => {
                write!(f, "malformed DEEPOD_FAILPOINTS entry: {why}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeConfig {
    /// Resolves flags, environment, and defaults into one config. `env` is
    /// the caller's environment lookup (typically
    /// `|k| std::env::var(k).ok()` from a binary).
    pub fn resolve(
        overrides: RuntimeOverrides,
        env: impl Fn(&str) -> Option<String>,
    ) -> RuntimeConfig {
        let threads = env("DEEPOD_THREADS")
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(0);
        let mut bad_log_value = None;
        let log_level = match env("DEEPOD_LOG") {
            Some(raw) => match Level::parse(&raw) {
                Some(choice) => Some(choice),
                None => {
                    bad_log_value = Some(raw);
                    None
                }
            },
            None => None,
        };
        let log_format = overrides
            .log_format
            .or_else(|| env("DEEPOD_LOG_FORMAT").and_then(|v| LogFormat::parse(&v)));
        let metrics_path = overrides
            .metrics_path
            .or_else(|| env("DEEPOD_METRICS").filter(|s| !s.is_empty()));
        let failpoints = env("DEEPOD_FAILPOINTS").filter(|s| !s.trim().is_empty());
        RuntimeConfig {
            threads,
            log_level,
            log_format,
            metrics_path,
            failpoints,
            bad_log_value,
        }
    }

    /// Installs the configuration process-wide: observability format and
    /// level gate, the parallel worker-thread count, eager registration of
    /// always-present metrics keys, and the fault-injection registry.
    /// Call once, before dispatching any real work.
    pub fn apply(&self) -> Result<(), RuntimeError> {
        obs::ensure_init();
        if let Some(format) = self.log_format {
            obs::set_format(format);
        }
        if let Some(choice) = self.log_level {
            obs::set_max_level(choice);
        }
        if let Some(raw) = &self.bad_log_value {
            obs::warn(
                "obs",
                "unrecognized DEEPOD_LOG value; defaulting to warn",
                &[("value", raw.as_str().into())],
            );
        }
        deepod_tensor::parallel::set_configured_threads(self.threads);
        // Materialize the metric keys every run must report (even at zero)
        // so snapshot key sets are comparable across runs.
        crate::io_guard::register_metrics();
        crate::checkpoint::register_metrics();
        crate::train::register_metrics();
        crate::timeslot::register_metrics();
        obs::register_parallel_metrics();
        if let Some(spec) = &self.failpoints {
            deepod_tensor::failpoint::arm(spec).map_err(RuntimeError::BadFailpoints)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn defaults_when_environment_is_empty() {
        let cfg = RuntimeConfig::resolve(RuntimeOverrides::default(), |_| None);
        assert_eq!(cfg.threads, 0);
        assert_eq!(cfg.log_level, None);
        assert_eq!(cfg.log_format, None);
        assert_eq!(cfg.metrics_path, None);
        assert_eq!(cfg.failpoints, None);
        assert_eq!(cfg.bad_log_value, None);
    }

    #[test]
    fn environment_values_are_parsed() {
        let env = env_of(&[
            ("DEEPOD_THREADS", "4"),
            ("DEEPOD_LOG", "off"),
            ("DEEPOD_LOG_FORMAT", "json"),
            ("DEEPOD_METRICS", "m.json"),
            ("DEEPOD_FAILPOINTS", "train::epoch:1"),
        ]);
        let cfg = RuntimeConfig::resolve(RuntimeOverrides::default(), env);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.log_level, Some(None), "off is an explicit choice");
        assert_eq!(cfg.log_format, Some(LogFormat::Json));
        assert_eq!(cfg.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(cfg.failpoints.as_deref(), Some("train::epoch:1"));
    }

    #[test]
    fn flags_beat_environment() {
        let env = env_of(&[
            ("DEEPOD_LOG_FORMAT", "json"),
            ("DEEPOD_METRICS", "env.json"),
        ]);
        let overrides = RuntimeOverrides {
            log_format: Some(LogFormat::Text),
            metrics_path: Some("flag.json".to_string()),
        };
        let cfg = RuntimeConfig::resolve(overrides, env);
        assert_eq!(cfg.log_format, Some(LogFormat::Text));
        assert_eq!(cfg.metrics_path.as_deref(), Some("flag.json"));
    }

    #[test]
    fn bad_values_degrade_instead_of_overriding() {
        let env = env_of(&[
            ("DEEPOD_THREADS", "zero"),
            ("DEEPOD_LOG", "loud"),
            ("DEEPOD_METRICS", ""),
        ]);
        let cfg = RuntimeConfig::resolve(RuntimeOverrides::default(), env);
        assert_eq!(cfg.threads, 0, "unparseable thread count keeps default");
        assert_eq!(cfg.log_level, None, "bad level keeps the default gate");
        assert_eq!(cfg.bad_log_value.as_deref(), Some("loud"));
        assert_eq!(cfg.metrics_path, None, "empty metrics path is unset");
    }
}
