//! Zero-dependency structured observability: leveled events, a
//! process-wide metrics registry, and RAII timing spans (DESIGN.md §9).
//!
//! # Events
//!
//! An event is a level, a target (the subsystem emitting it), a message,
//! and key=value fields. Events render to **stderr** — stdout stays
//! reserved for command output — in one of two formats selected by
//! [`set_format`] / `DEEPOD_LOG_FORMAT` / the CLI's `--log-format`:
//!
//! ```text
//! [warn] cli: model load failed path=m.json why="bad magic"      (text)
//! {"level":"warn","target":"cli","msg":"model load failed",...}  (json)
//! ```
//!
//! Every line is written under one process-wide writer lock, so events
//! from parallel workers never interleave mid-line.
//!
//! The threshold (`off`, `error`, `warn`, `info`, `debug`, `trace`;
//! default `warn`) is installed programmatically: binaries resolve
//! `DEEPOD_LOG` into a [`crate::RuntimeConfig`] and call [`set_max_level`]
//! — library code never reads the environment. [`raise_max_level`] lets a
//! flag like `--verbose` widen the *default* without overriding an
//! explicit `DEEPOD_LOG` choice.
//!
//! # Determinism carve-out
//!
//! Observability must never perturb results: timestamps and durations
//! exist only in event lines and in registry histogram/gauge values, and
//! none of those feed a checksummed or bit-compared artifact. Registry
//! **counters** are held to a stricter contract — pure functions of
//! `(input, seed)`, invariant under the thread count — which is what lets
//! the integration suite diff them across `threads=1` and `threads=N`.
//!
//! The tensor layer (which `deepod-core` depends on, not the reverse)
//! reports through the narrow sink in `deepod_tensor::telemetry`;
//! [`ensure_init`] installs the forwarder into this registry.

pub mod registry;
pub mod span;

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;

pub use registry::{flush_to_path, snapshot, MetricsSnapshot};
pub use span::TimingSpan;

/// Event severity, ordered from most to least urgent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed; the process is degrading or aborting.
    Error = 1,
    /// Something unexpected that the process works around (default gate).
    Warn = 2,
    /// Coarse progress: epochs, evals, artifact writes.
    Info = 3,
    /// Fine-grained progress: steps, retries, span timings.
    Debug = 4,
    /// Everything, including per-span RAII timer drops.
    Trace = 5,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `DEEPOD_LOG` value. `None` for an unrecognized string;
    /// `Some(None)` means logging is explicitly `off`.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// Wire format for event lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented `[level] target: msg k=v` lines.
    Text,
    /// One JSON object per line (machine-parseable; golden-tested).
    Json,
}

impl LogFormat {
    /// Parses a `--log-format` / `DEEPOD_LOG_FORMAT` value.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s.trim().to_ascii_lowercase().as_str() {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// A field value attached to an event. Constructed via `From` impls so
/// call sites read `("step", step.into())`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Float field (rendered `null` in JSON when non-finite).
    F64(f64),
    /// Boolean field.
    Bool(bool),
    /// String field (escaped in JSON, quoted in text when it has spaces).
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident via $conv:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v as $conv)
            }
        }
    )*};
}

value_from!(
    u32 => U64 via u64,
    usize => U64 via u64,
    i32 => I64 via i64,
);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

// ---- process-wide configuration -------------------------------------------

/// `MAX_LEVEL` encoding: 0 = off, 1..=5 = `Level`, `UNINIT` = not yet
/// initialized (first use installs the default `warn` gate).
const UNINIT: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
/// Whether the level came from [`set_max_level`] (explicit choices win
/// over [`raise_max_level`]).
static LEVEL_EXPLICIT: AtomicBool = AtomicBool::new(false);
/// 0 = text, 1 = json.
static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Idempotent initialization: installs the tensor-layer telemetry bridge
/// and the default `warn` gate (non-explicit, so [`raise_max_level`] can
/// widen it). Called lazily by every entry point; binaries that want a
/// different threshold or format apply a `crate::RuntimeConfig` right
/// after startup, which calls [`set_max_level`] / [`set_format`].
pub fn ensure_init() {
    if MAX_LEVEL.load(Ordering::Acquire) != UNINIT {
        return;
    }
    struct Bridge;
    impl deepod_tensor::telemetry::TelemetrySink for Bridge {
        fn gauge_set(&self, name: &'static str, value: f64) {
            registry::gauge_set(name, value);
        }
        fn observe(&self, name: &'static str, value: f64) {
            registry::observe(name, value);
        }
    }
    static BRIDGE: Bridge = Bridge;
    deepod_tensor::telemetry::install(&BRIDGE);

    LEVEL_EXPLICIT.store(false, Ordering::Release);
    MAX_LEVEL.store(Level::Warn as u8, Ordering::Release);
}

/// Eagerly materializes the tensor-layer parallel telemetry keys. The
/// emitting code lives in `deepod-tensor` (behind the sink bridge) and
/// cannot see the registry, so the registration lives here. Called once
/// per process from `RuntimeConfig::apply` — deliberately *not* from
/// [`ensure_init`], which runs inside the registry's own lazy init.
pub fn register_parallel_metrics() {
    registry::register_gauge("parallel.spans_last");
    registry::register_histogram("parallel.span_size");
    registry::register_histogram("parallel.worker_wall_ms");
}

/// Whether events at `level` would currently be written.
pub fn enabled(level: Level) -> bool {
    ensure_init();
    level as u8 <= MAX_LEVEL.load(Ordering::Acquire)
}

/// Programmatic override of the level gate (`None` = off). Counts as
/// explicit: later [`raise_max_level`] calls will not widen it.
pub fn set_max_level(level: Option<Level>) {
    ensure_init();
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Release);
    LEVEL_EXPLICIT.store(true, Ordering::Release);
}

/// Widens the *default* gate to at least `level` — used by `--verbose` so
/// progress events show without clobbering an explicit `DEEPOD_LOG`.
pub fn raise_max_level(level: Level) {
    ensure_init();
    if !LEVEL_EXPLICIT.load(Ordering::Acquire) && MAX_LEVEL.load(Ordering::Acquire) < level as u8 {
        MAX_LEVEL.store(level as u8, Ordering::Release);
    }
}

/// Selects the event wire format.
pub fn set_format(format: LogFormat) {
    FORMAT.store(
        match format {
            LogFormat::Text => 0,
            LogFormat::Json => 1,
        },
        Ordering::Release,
    );
}

/// The currently selected event wire format.
pub fn format() -> LogFormat {
    if FORMAT.load(Ordering::Acquire) == 1 {
        LogFormat::Json
    } else {
        LogFormat::Text
    }
}

/// Milliseconds since the first observability call in this process. Used
/// only to order event lines for humans — never checksummed or compared.
fn elapsed_ms() -> f64 {
    use std::sync::OnceLock;
    // Observability-only clock.
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    // deepod-lint: allow(nondeterminism)
    let start = START.get_or_init(std::time::Instant::now);
    start.elapsed().as_secs_f64() * 1e3
}

// ---- emission --------------------------------------------------------------

/// Emits one structured event if `level` passes the gate. The line is
/// formatted off-lock, then written to stderr under the single process-wide
/// writer lock so parallel workers cannot interleave partial lines.
pub fn emit(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let line = match format() {
        LogFormat::Text => format_text(level, target, msg, fields),
        LogFormat::Json => format_json(level, target, msg, fields),
    };
    static WRITER: Mutex<()> = Mutex::new(());
    // A poisoned writer lock only means another thread panicked while
    // holding it; the lock itself is stateless, so keep writing.
    let _guard = WRITER.lock().unwrap_or_else(|p| p.into_inner());
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// [`emit`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Error, target, msg, fields);
}

/// [`emit`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Warn, target, msg, fields);
}

/// [`emit`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Info, target, msg, fields);
}

/// [`emit`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Debug, target, msg, fields);
}

/// [`emit`] at [`Level::Trace`].
pub fn trace(target: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Trace, target, msg, fields);
}

fn format_text(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("[{}] {target}: {msg}", level.name());
    for (key, value) in fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        match value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) if s.contains([' ', '=', '"']) => {
                let _ = write!(out, "{s:?}");
            }
            Value::Str(s) => out.push_str(s),
        }
    }
    out
}

fn format_json(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"level\":");
    serde::json::escape_str(level.name(), &mut out);
    out.push_str(",\"target\":");
    serde::json::escape_str(target, &mut out);
    out.push_str(",\"msg\":");
    serde::json::escape_str(msg, &mut out);
    let t = elapsed_ms();
    if t.is_finite() {
        use std::fmt::Write as _;
        let _ = write!(out, ",\"t_ms\":{t:.3}");
    }
    if !fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::json::escape_str(key, &mut out);
            out.push(':');
            json_value(value, &mut out);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn json_value(value: &Value, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        // JSON has no NaN/Inf; mirror the vendored serde facade's `null`.
        Value::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => serde::json::escape_str(s, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_accepts_names_and_off() {
        assert_eq!(Level::parse("warn"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("TRACE"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse(" off "), Some(None));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn format_parse_accepts_both_formats() {
        assert_eq!(LogFormat::parse("text"), Some(LogFormat::Text));
        assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn json_lines_parse_and_carry_fields() {
        let line = format_json(
            Level::Warn,
            "cli",
            "model \"load\" failed",
            &[
                ("step", 7usize.into()),
                ("mae", 12.5f32.into()),
                ("path", "a b".into()),
                ("nan", f64::NAN.into()),
                ("ok", false.into()),
            ],
        );
        let v = serde::json::parse(&line).expect("event line must be valid JSON");
        let field = |name: &str| serde::json::obj_field(&v, name).expect(name).clone();
        assert_eq!(field("level"), serde::json::Value::Str("warn".into()));
        assert_eq!(
            field("msg"),
            serde::json::Value::Str("model \"load\" failed".into())
        );
        let fields = field("fields");
        let sub = |name: &str| serde::json::obj_field(&fields, name).expect(name).clone();
        assert_eq!(sub("step"), serde::json::Value::Num("7".into()));
        assert_eq!(sub("path"), serde::json::Value::Str("a b".into()));
        assert_eq!(sub("nan"), serde::json::Value::Null);
        assert_eq!(sub("ok"), serde::json::Value::Bool(false));
    }

    #[test]
    fn text_lines_quote_awkward_strings() {
        let line = format_text(
            Level::Info,
            "train",
            "epoch done",
            &[("loss", 1.25f64.into()), ("note", "has space".into())],
        );
        assert_eq!(
            line,
            "[info] train: epoch done loss=1.25 note=\"has space\""
        );
    }

    // The level gate itself (DEEPOD_LOG wiring, default warn, --verbose
    // raise) is process-global state, so it is exercised end-to-end by the
    // CLI-driving integration suite (crates/cli/tests/observability.rs)
    // where each case owns a fresh process.
}
