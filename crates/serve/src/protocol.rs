//! The versioned newline-delimited JSON wire protocol of `deepod serve`
//! — one codec shared by stdin mode, the TCP front end ([`crate::net`]),
//! and the client ([`crate::client`]).
//!
//! One request per line:
//!
//! ```text
//! {"v": 1, "id": 1, "from": [1200.0, 3400.0], "to": [4100.0, 800.0], "depart": 3600.0}
//! ```
//!
//! The `"v"` field is the protocol version. It is optional on the way in
//! — a frame without it is treated as v1, which is exactly what every
//! pre-versioning client sent — but [`WireRequest::render`] always emits
//! it explicitly. A frame with any other version is rejected with a typed
//! [`ErrorKind::UnsupportedVersion`] error instead of being guessed at.
//!
//! An optional `"priority": "low"` field tags best-effort traffic that the
//! degradation ladder sheds first under load (`"normal"`, the default, is
//! also accepted explicitly).
//!
//! One response per line, in input order per client:
//!
//! ```text
//! {"id":1,"eta_s":412.5,"degraded":false}                          (answered)
//! {"id":2,"error":"queue full (capacity 256)"}                     (rejected or failed)
//! {"id":null,"error":{"kind":"unsupported_version","msg":"..."}}   (protocol reject)
//! ```
//!
//! Every error carries a typed [`ErrorKind`] internally. On the wire,
//! kinds that the pre-versioning protocol could produce (bad requests,
//! model failures, every [`ServeError`]) keep the historical *flat* string
//! encoding — the stdin byte format is bit-identical to the unversioned
//! protocol for v1 frames. Only the protocol-level rejects that never
//! existed before versioning (unsupported version, oversized frame, and
//! the per-client admission rejects of the TCP front end) use the
//! structured `{"error":{"kind":...,"msg":...}}` frame.
//!
//! `id` is an opaque correlation token chosen by the client; the server
//! echoes it verbatim. Coordinates are meters in the dataset's plane,
//! `depart` is seconds since the dataset epoch.

use crate::engine::ServeError;
use serde::json::{self, Value};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Typed classification of every error frame — the wire-level mirror of
/// [`ServeError`] plus the request- and protocol-level failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line could not be parsed or failed validation.
    BadRequest,
    /// The request was processed but the model could not answer it
    /// (e.g. endpoints unmatchable to the road network).
    Model,
    /// [`ServeError::QueueFull`].
    QueueFull,
    /// [`ServeError::ShuttingDown`].
    ShuttingDown,
    /// [`ServeError::WorkerCrashed`].
    WorkerCrashed,
    /// [`ServeError::DeadlineExceeded`].
    DeadlineExceeded,
    /// [`ServeError::ShedLow`].
    ShedLow,
    /// [`ServeError::Overloaded`].
    Overloaded,
    /// The frame declared a protocol version this server does not speak.
    UnsupportedVersion,
    /// The frame exceeded the server's size cap for one line.
    FrameTooLarge,
    /// This connection has too many requests in flight (per-client
    /// admission control of the TCP front end).
    InFlightLimit,
    /// The server is at its connection cap and refused this connection.
    ConnectionLimit,
}

impl ErrorKind {
    /// The stable snake_case name used in structured error frames.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Model => "model",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::WorkerCrashed => "worker_crashed",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShedLow => "shed_low",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::FrameTooLarge => "frame_too_large",
            ErrorKind::InFlightLimit => "in_flight_limit",
            ErrorKind::ConnectionLimit => "connection_limit",
        }
    }

    /// Every kind, in declaration order.
    pub const ALL: [ErrorKind; 12] = [
        ErrorKind::BadRequest,
        ErrorKind::Model,
        ErrorKind::QueueFull,
        ErrorKind::ShuttingDown,
        ErrorKind::WorkerCrashed,
        ErrorKind::DeadlineExceeded,
        ErrorKind::ShedLow,
        ErrorKind::Overloaded,
        ErrorKind::UnsupportedVersion,
        ErrorKind::FrameTooLarge,
        ErrorKind::InFlightLimit,
        ErrorKind::ConnectionLimit,
    ];

    /// Parses a structured frame's kind name; unknown names map to `None`.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == name)
    }

    /// The kind of a typed queueing failure.
    pub fn of_serve_error(e: &ServeError) -> ErrorKind {
        match e {
            ServeError::QueueFull { .. } => ErrorKind::QueueFull,
            ServeError::ShuttingDown => ErrorKind::ShuttingDown,
            ServeError::WorkerCrashed => ErrorKind::WorkerCrashed,
            ServeError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            ServeError::ShedLow => ErrorKind::ShedLow,
            ServeError::Overloaded => ErrorKind::Overloaded,
        }
    }

    /// Kinds introduced *with* protocol versioning: they render as the
    /// structured `{"error":{"kind":...,"msg":...}}` frame. Everything the
    /// pre-versioning protocol could produce keeps the flat string
    /// encoding so stdin v1 output stays bit-identical.
    pub fn is_protocol_level(self) -> bool {
        matches!(
            self,
            ErrorKind::UnsupportedVersion
                | ErrorKind::FrameTooLarge
                | ErrorKind::InFlightLimit
                | ErrorKind::ConnectionLimit
        )
    }

    /// Recovers the kind of a legacy flat error string. The engine-level
    /// messages are stable [`ServeError`] display strings (exact
    /// prefixes); request-level parse/validation messages carry their
    /// field prefix, or are `json::obj_field`'s two messages for an absent
    /// field and a non-object body; anything else was produced by the model.
    fn classify_flat(msg: &str) -> ErrorKind {
        const REQUEST_PREFIXES: [&str; 9] = [
            "bad request JSON:",
            "missing field `",
            "expected object for field `",
            "v:",
            "id:",
            "from:",
            "to:",
            "depart:",
            "priority:",
        ];
        if msg.starts_with("queue full") {
            ErrorKind::QueueFull
        } else if msg.starts_with("engine is shutting down") {
            ErrorKind::ShuttingDown
        } else if msg.starts_with("worker crashed") {
            ErrorKind::WorkerCrashed
        } else if msg.starts_with("deadline exceeded") {
            ErrorKind::DeadlineExceeded
        } else if msg.starts_with("low-priority request shed") {
            ErrorKind::ShedLow
        } else if msg.starts_with("overloaded") {
            ErrorKind::Overloaded
        } else if REQUEST_PREFIXES.iter().any(|p| msg.starts_with(p)) {
            ErrorKind::BadRequest
        } else {
            ErrorKind::Model
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed wire error: the kind plus the human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Typed classification.
    pub kind: ErrorKind,
    /// Human-readable explanation, echoed on the wire.
    pub msg: String,
}

impl WireError {
    /// A request-level parse/validation failure.
    pub fn bad_request(msg: impl Into<String>) -> WireError {
        WireError {
            kind: ErrorKind::BadRequest,
            msg: msg.into(),
        }
    }

    /// A protocol-level failure with an explicit kind.
    pub fn protocol(kind: ErrorKind, msg: impl Into<String>) -> WireError {
        WireError {
            kind,
            msg: msg.into(),
        }
    }
}

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> WireError {
        WireError {
            kind: ErrorKind::of_serve_error(e),
            msg: e.to_string(),
        }
    }
}

/// A parsed request line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Origin coordinates (meters).
    pub from: (f64, f64),
    /// Destination coordinates (meters).
    pub to: (f64, f64),
    /// Departure time (seconds since the dataset epoch).
    pub depart: f64,
    /// `true` when the client tagged the request `"priority": "low"` —
    /// shed first when the degradation ladder reaches shed-low.
    pub low_priority: bool,
}

/// One response frame: an answer or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// An answered request.
    Ok {
        /// The request's correlation id, echoed verbatim.
        id: u64,
        /// Estimated travel time in seconds.
        eta_seconds: f32,
        /// The answer came from a degraded (fallback) path.
        degraded: bool,
    },
    /// A rejected or failed request. `id` is `None` when the line could
    /// not be parsed far enough to recover a correlation id (or the error
    /// concerns the connection rather than one request).
    Err {
        /// The request's correlation id, when recoverable.
        id: Option<u64>,
        /// The typed failure.
        error: WireError,
    },
}

fn num_of(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Num(raw) => raw
            .parse::<f64>()
            .map_err(|_| format!("{what}: unparseable number '{raw}'")),
        other => Err(format!("{what}: expected a number, got {other:?}")),
    }
}

fn point_of(v: &Value, what: &str) -> Result<(f64, f64), String> {
    let items = json::expect_arr(v).map_err(|e| format!("{what}: {e}"))?;
    let (Some(x), Some(y), None) = (items.first(), items.get(1), items.get(2)) else {
        return Err(format!(
            "{what}: expected [x, y], got {} items",
            items.len()
        ));
    };
    Ok((num_of(x, what)?, num_of(y, what)?))
}

/// Reads a correlation id. The raw number text is parsed as `u64` first so
/// every id is echoed verbatim (an `f64` detour rounds ids above 2^53);
/// other integer-valued spellings (`7.0`, `1e3`) go through `f64` as they
/// always have.
fn id_of(v: &Value) -> Result<u64, String> {
    if let Value::Num(raw) = v {
        if let Ok(id) = raw.parse::<u64>() {
            return Ok(id);
        }
    }
    // 2^64, the first integer-valued `f64` above `u64::MAX`.
    const TWO_POW_64: f64 = 1.844_674_407_370_955_2e19;
    let id_raw = num_of(v, "id")?;
    // Intentional exact check: a JSON id is an integer iff fract() == 0.
    // deepod-lint: allow(float-eq)
    if id_raw < 0.0 || id_raw.fract() != 0.0 {
        return Err(format!("id: expected a non-negative integer, got {id_raw}"));
    }
    if id_raw >= TWO_POW_64 {
        return Err(format!("id: {id_raw} does not fit a 64-bit id"));
    }
    Ok(id_raw as u64) // deepod-lint: allow(truncating-cast)
}

impl WireRequest {
    /// Parses one request line, with typed errors: an unsupported `"v"`
    /// version is [`ErrorKind::UnsupportedVersion`]; everything else is
    /// [`ErrorKind::BadRequest`]. A frame without `"v"` is treated as v1
    /// — that is exactly what every pre-versioning client sent.
    pub fn parse(line: &str) -> Result<WireRequest, WireError> {
        let v = json::parse(line)
            .map_err(|e| WireError::bad_request(format!("bad request JSON: {e}")))?;
        if let Ok(ver) = json::obj_field(&v, "v") {
            let raw = num_of(ver, "v").map_err(WireError::bad_request)?;
            // Versions are exact small integers by construction.
            // deepod-lint: allow(float-eq)
            if raw != f64::from(PROTOCOL_VERSION) {
                return Err(WireError::protocol(
                    ErrorKind::UnsupportedVersion,
                    format!("v: protocol version {raw} is not supported (this server speaks v{PROTOCOL_VERSION})"),
                ));
            }
        }
        let id =
            id_of(json::obj_field(&v, "id").map_err(|e| WireError::bad_request(e.to_string()))?)
                .map_err(WireError::bad_request)?;
        let from = point_of(
            json::obj_field(&v, "from").map_err(|e| WireError::bad_request(e.to_string()))?,
            "from",
        )
        .map_err(WireError::bad_request)?;
        let to = point_of(
            json::obj_field(&v, "to").map_err(|e| WireError::bad_request(e.to_string()))?,
            "to",
        )
        .map_err(WireError::bad_request)?;
        let depart = num_of(
            json::obj_field(&v, "depart").map_err(|e| WireError::bad_request(e.to_string()))?,
            "depart",
        )
        .map_err(WireError::bad_request)?;
        // Optional field: absent means normal priority. A present-but-unknown
        // value is an error — a client that *meant* to shed politely should
        // not silently get normal treatment because of a typo.
        let low_priority = match json::obj_field(&v, "priority").ok() {
            None => false,
            Some(Value::Str(p)) if p == "low" => true,
            Some(Value::Str(p)) if p == "normal" => false,
            Some(other) => {
                return Err(WireError::bad_request(format!(
                    "priority: expected \"low\" or \"normal\", got {other:?}"
                )))
            }
        };
        Ok(WireRequest {
            id,
            from,
            to,
            depart,
            low_priority,
        })
    }

    /// Renders the request as one wire line (no trailing newline), always
    /// with an explicit `"v"` field — the client-side encoder used by
    /// [`crate::client::ServeClient`] and the load generator.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"v\":{PROTOCOL_VERSION},\"id\":{},\"from\":[{},{}],\"to\":[{},{}],\"depart\":{}",
            self.id, self.from.0, self.from.1, self.to.0, self.to.1, self.depart
        );
        if self.low_priority {
            out.push_str(",\"priority\":\"low\"");
        }
        out.push('}');
        out
    }
}

impl WireResponse {
    /// The correlation id this frame answers, when it has one.
    pub fn id(&self) -> Option<u64> {
        match self {
            WireResponse::Ok { id, .. } => Some(*id),
            WireResponse::Err { id, .. } => *id,
        }
    }

    /// `true` for an answered request.
    pub fn is_ok(&self) -> bool {
        matches!(self, WireResponse::Ok { .. })
    }

    /// Renders the response as one wire line (no trailing newline).
    /// Answers and pre-versioning error kinds use the historical flat
    /// encoding (bit-identical to the unversioned protocol); protocol-
    /// level kinds use the structured typed frame.
    pub fn to_line(&self) -> String {
        match self {
            WireResponse::Ok {
                id,
                eta_seconds,
                degraded,
            } => render_ok(*id, *eta_seconds, *degraded),
            WireResponse::Err { id, error } if !error.kind.is_protocol_level() => {
                render_error(*id, &error.msg)
            }
            WireResponse::Err { id, error } => {
                let mut out = String::with_capacity(64 + error.msg.len());
                out.push_str("{\"id\":");
                match id {
                    Some(id) => {
                        use std::fmt::Write as _;
                        let _ = write!(out, "{id}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"error\":{\"kind\":");
                json::escape_str(error.kind.as_str(), &mut out);
                out.push_str(",\"msg\":");
                json::escape_str(&error.msg, &mut out);
                out.push_str("}}");
                out
            }
        }
    }

    /// Parses one response line — both the flat and the structured error
    /// encodings. The error string is a transport-level parse failure
    /// (the frame itself was not a valid response).
    pub fn parse(line: &str) -> Result<WireResponse, String> {
        let v = json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
        let id = match json::obj_field(&v, "id") {
            Ok(Value::Null) | Err(_) => None,
            Ok(field) => Some(id_of(field)?),
        };
        if let Ok(err_field) = json::obj_field(&v, "error") {
            return match err_field {
                Value::Str(msg) => Ok(WireResponse::Err {
                    id,
                    error: WireError {
                        kind: ErrorKind::classify_flat(msg),
                        msg: msg.clone(),
                    },
                }),
                Value::Obj(_) => {
                    let kind_name = json::expect_str(
                        json::obj_field(err_field, "kind").map_err(|e| e.to_string())?,
                    )
                    .map_err(|e| format!("error.kind: {e}"))?;
                    let kind = ErrorKind::from_name(kind_name)
                        .ok_or_else(|| format!("error.kind: unknown kind '{kind_name}'"))?;
                    let msg = json::expect_str(
                        json::obj_field(err_field, "msg").map_err(|e| e.to_string())?,
                    )
                    .map_err(|e| format!("error.msg: {e}"))?;
                    Ok(WireResponse::Err {
                        id,
                        error: WireError {
                            kind,
                            msg: msg.to_string(),
                        },
                    })
                }
                other => Err(format!("error: expected string or object, got {other:?}")),
            };
        }
        let id = id.ok_or_else(|| "id: missing on an ok frame".to_string())?;
        let eta = num_of(
            json::obj_field(&v, "eta_s").map_err(|e| e.to_string())?,
            "eta_s",
        )?;
        let degraded = match json::obj_field(&v, "degraded").map_err(|e| e.to_string())? {
            Value::Bool(b) => *b,
            other => return Err(format!("degraded: expected a bool, got {other:?}")),
        };
        Ok(WireResponse::Ok {
            id,
            eta_seconds: eta as f32,
            degraded,
        })
    }
}

/// Parses one request line. Errors are human-readable strings meant to be
/// echoed back on the wire in an error response. Prefer
/// [`WireRequest::parse`], which keeps the typed [`ErrorKind`].
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    WireRequest::parse(line).map_err(|e| e.msg)
}

/// Validates a parsed request's departure time against the dataset's
/// time-slot contract: `depart` must be a finite timestamp at or after
/// the dataset epoch (t = 0). Pre-epoch requests are rejected *here*,
/// per request on the wire, instead of being clamped onto slot 0 deep in
/// the feature encoder — a clamped slot would silently answer with the
/// wrong time-of-week conditions (and alias the wrong cache entry).
pub fn validate_depart(depart: f64) -> Result<(), String> {
    if !depart.is_finite() {
        return Err(format!("depart: expected a finite timestamp, got {depart}"));
    }
    if depart < 0.0 {
        return Err(format!(
            "depart: {depart} is before the dataset epoch (t >= 0); \
             pre-epoch times cannot be attributed to a time slot"
        ));
    }
    Ok(())
}

/// Renders a successful response line (the historical flat encoding).
pub fn render_ok(id: u64, eta_seconds: f32, degraded: bool) -> String {
    format!("{{\"id\":{id},\"eta_s\":{eta_seconds:.1},\"degraded\":{degraded}}}")
}

/// Renders a flat error response line. `id` is `None` when the line could
/// not even be parsed far enough to recover a correlation id.
pub fn render_error(id: Option<u64>, why: &str) -> String {
    let mut out = String::with_capacity(32 + why.len());
    out.push_str("{\"id\":");
    match id {
        Some(id) => {
            use std::fmt::Write as _;
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"error\":");
    json::escape_str(why, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let w = parse_request(
            r#"{"id": 7, "from": [1200.0, 3400], "to": [4100, 800.5], "depart": 3600.0}"#,
        )
        .expect("valid request");
        assert_eq!(w.id, 7);
        assert_eq!(w.from, (1200.0, 3400.0));
        assert_eq!(w.to, (4100.0, 800.5));
        assert_eq!(w.depart, 3600.0); // deepod-lint: allow(float-eq)
        assert!(!w.low_priority, "absent priority defaults to normal");
    }

    #[test]
    fn parses_priority_tags() {
        let base = r#""from": [1, 2], "to": [3, 4], "depart": 0"#;
        let low =
            parse_request(&format!(r#"{{"id": 1, {base}, "priority": "low"}}"#)).expect("valid");
        assert!(low.low_priority);
        let normal =
            parse_request(&format!(r#"{{"id": 1, {base}, "priority": "normal"}}"#)).expect("valid");
        assert!(!normal.low_priority);
        let err = parse_request(&format!(r#"{{"id": 1, {base}, "priority": "lo"}}"#))
            .expect_err("typo'd priority must not pass silently");
        assert!(err.contains("priority"), "got: {err}");
    }

    #[test]
    fn version_field_gates_parsing() {
        let base = r#""id": 1, "from": [1, 2], "to": [3, 4], "depart": 0"#;
        // Absent and explicit v1 both parse.
        assert!(parse_request(&format!(r#"{{{base}}}"#)).is_ok());
        assert!(parse_request(&format!(r#"{{"v": 1, {base}}}"#)).is_ok());
        // Any other version is a typed protocol-level reject.
        let err =
            WireRequest::parse(&format!(r#"{{"v": 2, {base}}}"#)).expect_err("v2 must be rejected");
        assert_eq!(err.kind, ErrorKind::UnsupportedVersion);
        assert!(err.kind.is_protocol_level());
        let err = WireRequest::parse(&format!(r#"{{"v": 0, {base}}}"#)).expect_err("v0 rejected");
        assert_eq!(err.kind, ErrorKind::UnsupportedVersion);
        // A non-numeric version is a plain bad request.
        let err = WireRequest::parse(&format!(r#"{{"v": "one", {base}}}"#)).expect_err("bad v");
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn request_render_round_trips() {
        for req in [
            WireRequest {
                id: 7,
                from: (1200.5, 3400.0),
                to: (4100.0, 800.25),
                depart: 3600.0,
                low_priority: false,
            },
            WireRequest {
                id: u64::from(u32::MAX),
                from: (-10.0, 0.0),
                to: (0.125, 99999.0),
                depart: 604_800.5,
                low_priority: true,
            },
            // Ids an `f64` cannot hold exactly must still come back verbatim.
            WireRequest {
                id: (1 << 53) + 1,
                from: (0.0, 0.0),
                to: (1.0, 1.0),
                depart: 0.0,
                low_priority: false,
            },
            WireRequest {
                id: u64::MAX,
                from: (0.0, 0.0),
                to: (1.0, 1.0),
                depart: 0.0,
                low_priority: false,
            },
        ] {
            let line = req.to_line();
            assert!(line.contains("\"v\":1"), "explicit version: {line}");
            let back = WireRequest::parse(&line).expect("rendered request parses");
            assert_eq!(back, req);
        }
    }

    /// Malformed request lines, each with a fragment of the reason the
    /// server must give.
    const MALFORMED: [(&str, &str); 8] = [
        ("not json", "JSON"),
        ("[1]", "expected object"),
        ("{}", "id"),
        (r#"{"id": 1}"#, "from"),
        (
            r#"{"id": 1, "from": [1], "to": [2, 3], "depart": 0}"#,
            "[x, y]",
        ),
        (
            r#"{"id": -2, "from": [1, 2], "to": [2, 3], "depart": 0}"#,
            "non-negative",
        ),
        (
            r#"{"id": 1.5, "from": [1, 2], "to": [2, 3], "depart": 0}"#,
            "integer",
        ),
        (
            r#"{"id": 18446744073709551616, "from": [1, 2], "to": [2, 3], "depart": 0}"#,
            "64-bit",
        ),
    ];

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, reason) in MALFORMED {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(reason), "{line}: got {err}");
        }
    }

    #[test]
    fn a_client_recovers_the_kind_the_server_raised_for_a_bad_request() {
        for (line, _) in MALFORMED {
            let error = WireRequest::parse(line).expect_err(line);
            let raised = error.kind;
            let reply = WireResponse::Err { id: None, error }.to_line();
            match WireResponse::parse(&reply).expect("reply parses") {
                WireResponse::Err { error, .. } => assert_eq!(error.kind, raised, "{line}"),
                other => panic!("expected error frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn depart_validation_rejects_pre_epoch_and_non_finite() {
        assert!(validate_depart(0.0).is_ok(), "the epoch itself is valid");
        assert!(validate_depart(604_800.0).is_ok());
        let err = validate_depart(-1.0).expect_err("pre-epoch");
        assert!(err.contains("before the dataset epoch"), "got: {err}");
        assert!(validate_depart(f64::NAN).is_err());
        assert!(validate_depart(f64::INFINITY).is_err());
    }

    #[test]
    fn responses_are_valid_json() {
        let ok = render_ok(3, 412.51, false);
        let v = json::parse(&ok).expect("ok line parses");
        assert_eq!(
            json::obj_field(&v, "eta_s").expect("eta_s"),
            &Value::Num("412.5".into())
        );
        assert_eq!(
            json::obj_field(&v, "degraded").expect("degraded"),
            &Value::Bool(false)
        );
        let err = render_error(Some(9), "queue full (capacity 2)");
        let v = json::parse(&err).expect("error line parses");
        assert_eq!(
            json::obj_field(&v, "id").expect("id"),
            &Value::Num("9".into())
        );
        let err = render_error(None, "bad \"quoted\" input");
        let v = json::parse(&err).expect("escaped error parses");
        assert_eq!(json::obj_field(&v, "id").expect("id"), &Value::Null);
    }

    #[test]
    fn response_codec_round_trips_both_encodings() {
        // Ok frame: flat, bit-identical to the historical renderer.
        let ok = WireResponse::Ok {
            id: 3,
            eta_seconds: 412.5,
            degraded: false,
        };
        assert_eq!(ok.to_line(), render_ok(3, 412.5, false));
        assert_eq!(WireResponse::parse(&ok.to_line()).expect("parses"), ok);
        // Ids an `f64` cannot hold exactly are echoed verbatim on both arms.
        for id in [(1 << 53) + 1, u64::MAX] {
            let ok = WireResponse::Ok {
                id,
                eta_seconds: 1.5,
                degraded: true,
            };
            assert_eq!(WireResponse::parse(&ok.to_line()).expect("parses"), ok);
            let err = WireResponse::Err {
                id: Some(id),
                error: (&ServeError::ShedLow).into(),
            };
            assert_eq!(WireResponse::parse(&err.to_line()).expect("parses"), err);
        }

        // Engine-level error: flat, classified back to its typed kind.
        let err = WireResponse::Err {
            id: Some(9),
            error: (&ServeError::QueueFull { capacity: 2 }).into(),
        };
        assert_eq!(
            err.to_line(),
            render_error(Some(9), "queue full (capacity 2)")
        );
        match WireResponse::parse(&err.to_line()).expect("parses") {
            WireResponse::Err { id, error } => {
                assert_eq!(id, Some(9));
                assert_eq!(error.kind, ErrorKind::QueueFull);
            }
            other => panic!("expected error frame, got {other:?}"),
        }

        // Protocol-level error: structured typed frame.
        let reject = WireResponse::Err {
            id: None,
            error: WireError::protocol(ErrorKind::UnsupportedVersion, "v: not supported"),
        };
        let line = reject.to_line();
        assert!(
            line.contains("\"kind\":\"unsupported_version\""),
            "structured frame: {line}"
        );
        assert_eq!(WireResponse::parse(&line).expect("parses"), reject);
    }

    #[test]
    fn every_serve_error_keeps_its_flat_legacy_encoding() {
        for e in [
            ServeError::QueueFull { capacity: 256 },
            ServeError::ShuttingDown,
            ServeError::WorkerCrashed,
            ServeError::DeadlineExceeded,
            ServeError::ShedLow,
            ServeError::Overloaded,
        ] {
            let frame = WireResponse::Err {
                id: Some(1),
                error: (&e).into(),
            };
            assert_eq!(
                frame.to_line(),
                render_error(Some(1), &e.to_string()),
                "{e:?} must stay bit-identical to the unversioned encoding"
            );
            // And the classification recovers the same kind.
            match WireResponse::parse(&frame.to_line()).expect("parses") {
                WireResponse::Err { error, .. } => {
                    assert_eq!(error.kind, ErrorKind::of_serve_error(&e))
                }
                other => panic!("expected error frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn flat_classification_distinguishes_request_and_model_errors() {
        assert_eq!(
            ErrorKind::classify_flat("bad request JSON: trailing characters at byte 3"),
            ErrorKind::BadRequest
        );
        assert_eq!(
            ErrorKind::classify_flat("depart: -1 is before the dataset epoch (t >= 0)"),
            ErrorKind::BadRequest
        );
        assert_eq!(
            ErrorKind::classify_flat("origin or destination cannot be matched to the road network"),
            ErrorKind::Model
        );
    }

    #[test]
    fn error_kind_names_round_trip() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
    }
}
