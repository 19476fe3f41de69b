//! The versioned newline-delimited JSON wire protocol of `deepod serve`
//! — one codec shared by stdin mode, the TCP front end ([`crate::net`]),
//! and the client ([`crate::client`]).
//!
//! One request per line:
//!
//! ```text
//! {"v": 2, "id": 1, "from": [1200.0, 3400.0], "to": [4100.0, 800.0], "depart": 3600.0}
//! ```
//!
//! The `"v"` field is the protocol version. It is optional on the way in
//! — a frame without it is read as the current version
//! ([`PROTOCOL_VERSION`]) — but [`WireRequest::to_line`] always emits it
//! explicitly. A frame declaring any other version, `1` included, is
//! rejected with a typed [`ErrorKind::UnsupportedVersion`] error: this
//! server no longer renders v1's flat error strings.
//!
//! An optional `"priority"` field (`"low"` or `"normal"`) is accepted for
//! compatibility and has no effect: every request is admitted the same
//! way. A value other than those two is still a `bad_request`.
//!
//! One response per line, in input order per client:
//!
//! ```text
//! {"id":1,"eta_s":412.5,"degraded":false}                              (answered)
//! {"id":2,"error":{"kind":"queue_full","msg":"queue full (capacity 256)"}}  (rejected or failed)
//! {"id":null,"error":{"kind":"bad_request","msg":"bad request JSON: ..."}}
//! ```
//!
//! Every error is the structured frame: a machine-readable [`ErrorKind`]
//! plus a human-readable message. A reject echoes the request's `id`
//! whenever the line's `id` field was readable; it is `null` only for
//! unparseable JSON, an invalid `id`, or an error that concerns the
//! connection rather than one request.
//!
//! `id` is an opaque correlation token chosen by the client; the server
//! echoes it verbatim. Coordinates are meters in the dataset's plane,
//! `depart` is seconds since the dataset epoch.

use crate::engine::ServeError;
use serde::json::{self, Value};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 2;

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
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::FrameTooLarge => "frame_too_large",
            ErrorKind::InFlightLimit => "in_flight_limit",
            ErrorKind::ConnectionLimit => "connection_limit",
        }
    }

    /// Every kind, in declaration order.
    pub const ALL: [ErrorKind; 10] = [
        ErrorKind::BadRequest,
        ErrorKind::Model,
        ErrorKind::QueueFull,
        ErrorKind::ShuttingDown,
        ErrorKind::WorkerCrashed,
        ErrorKind::DeadlineExceeded,
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
    /// An error of `kind` explained by `msg`.
    pub fn new(kind: ErrorKind, msg: impl Into<String>) -> WireError {
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
    /// `true` when the client tagged the request `"priority": "low"`.
    /// The codec round-trips it; the server does not read it.
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
        /// Always `false` from this server, which answers from the model
        /// only; the field stays on the wire for one protocol version.
        degraded: bool,
    },
    /// A rejected or failed request. `id` is `None` when the line had no
    /// readable correlation id (or the error concerns the connection
    /// rather than one request).
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
    Ok(id_raw as u64)
}

impl WireRequest {
    /// Parses one request line, with typed errors: an unsupported `"v"`
    /// version is [`ErrorKind::UnsupportedVersion`]; everything else is
    /// [`ErrorKind::BadRequest`]. A frame without `"v"` is read as
    /// [`PROTOCOL_VERSION`]. An error comes with the line's correlation id
    /// whenever its `id` field was readable, so the reject can echo it.
    pub fn parse(line: &str) -> Result<WireRequest, (Option<u64>, WireError)> {
        let bad = |msg| WireError::new(ErrorKind::BadRequest, msg);
        let v = json::parse(line).map_err(|e| (None, bad(format!("bad request JSON: {e}"))))?;
        // The id is read first so every later reject can echo it.
        let id = json::obj_field(&v, "id")
            .map_err(|e| e.to_string())
            .and_then(id_of);
        let echo = id.as_ref().ok().copied();
        let reject = |msg| (echo, bad(msg));
        if let Ok(ver) = json::obj_field(&v, "v") {
            let raw = num_of(ver, "v").map_err(reject)?;
            // Versions are exact small integers by construction.
            if raw != f64::from(PROTOCOL_VERSION) {
                return Err((
                    echo,
                    WireError::new(
                        ErrorKind::UnsupportedVersion,
                        format!("v: protocol version {raw} is not supported (this server speaks v{PROTOCOL_VERSION})"),
                    ),
                ));
            }
        }
        let id = id.map_err(reject)?;
        let field = |name| json::obj_field(&v, name).map_err(|e| reject(e.to_string()));
        let from = point_of(field("from")?, "from").map_err(reject)?;
        let to = point_of(field("to")?, "to").map_err(reject)?;
        let depart = num_of(field("depart")?, "depart").map_err(reject)?;
        // Optional, and read by no server path; a present-but-unknown value
        // is still a bad request.
        let low_priority = match json::obj_field(&v, "priority").ok() {
            None => false,
            Some(Value::Str(p)) if p == "low" => true,
            Some(Value::Str(p)) if p == "normal" => false,
            Some(other) => {
                return Err(reject(format!(
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

    /// Renders the response as one wire line (no trailing newline): the
    /// answer with its ETA to one decimal, or the structured error frame.
    pub fn to_line(&self) -> String {
        match self {
            WireResponse::Ok {
                id,
                eta_seconds,
                degraded,
            } => format!("{{\"id\":{id},\"eta_s\":{eta_seconds:.1},\"degraded\":{degraded}}}"),
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

    /// Parses one response line. The error string is a transport-level
    /// parse failure: the frame itself was not a valid response (a flat
    /// `"error":"msg"` string included).
    pub fn parse(line: &str) -> Result<WireResponse, String> {
        let v = json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
        let id = match json::obj_field(&v, "id") {
            Ok(Value::Null) | Err(_) => None,
            Ok(field) => Some(id_of(field)?),
        };
        if let Ok(err_field) = json::obj_field(&v, "error") {
            let text = |name| {
                json::obj_field(err_field, name)
                    .and_then(json::expect_str)
                    .map_err(|e| format!("error.{name}: {e}"))
            };
            let kind_name = text("kind")?;
            let kind = ErrorKind::from_name(kind_name)
                .ok_or_else(|| format!("error.kind: unknown kind '{kind_name}'"))?;
            return Ok(WireResponse::Err {
                id,
                error: WireError::new(kind, text("msg")?),
            });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let w = WireRequest::parse(
            r#"{"id": 7, "from": [1200.0, 3400], "to": [4100, 800.5], "depart": 3600.0}"#,
        )
        .expect("valid request");
        assert_eq!(w.id, 7);
        assert_eq!(w.from, (1200.0, 3400.0));
        assert_eq!(w.to, (4100.0, 800.5));
        assert_eq!(w.depart, 3600.0);
        assert!(!w.low_priority, "absent priority defaults to normal");
    }

    #[test]
    fn parses_priority_tags() {
        let base = r#""from": [1, 2], "to": [3, 4], "depart": 0"#;
        let low = WireRequest::parse(&format!(r#"{{"id": 1, {base}, "priority": "low"}}"#))
            .expect("valid");
        assert!(low.low_priority);
        let normal = WireRequest::parse(&format!(r#"{{"id": 1, {base}, "priority": "normal"}}"#))
            .expect("valid");
        assert!(!normal.low_priority);
        let (_, err) = WireRequest::parse(&format!(r#"{{"id": 1, {base}, "priority": "lo"}}"#))
            .expect_err("typo'd priority must not pass silently");
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.msg.starts_with("priority:"), "got: {}", err.msg);
    }

    #[test]
    fn version_field_gates_parsing() {
        let base = r#""id": 1, "from": [1, 2], "to": [3, 4], "depart": 0"#;
        // Absent and explicit current version both parse.
        assert!(WireRequest::parse(&format!(r#"{{{base}}}"#)).is_ok());
        assert!(WireRequest::parse(&format!(r#"{{"v": 2, {base}}}"#)).is_ok());
        // Any other version, the retired v1 included, is a typed reject.
        for v in [0, 1, 7] {
            let (_, err) = WireRequest::parse(&format!(r#"{{"v": {v}, {base}}}"#))
                .expect_err("other versions are rejected");
            assert_eq!(err.kind, ErrorKind::UnsupportedVersion, "v{v}");
        }
        // A non-numeric version is a plain bad request.
        let (_, err) =
            WireRequest::parse(&format!(r#"{{"v": "one", {base}}}"#)).expect_err("bad v");
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn rejects_echo_the_id_whenever_it_was_readable() {
        for (line, id) in [
            (
                r#"{"v": 7, "id": 9, "from": [0, 0], "to": [1, 1], "depart": 0}"#,
                Some(9),
            ),
            (
                r#"{"v": 1, "id": 9, "from": [0, 0], "to": [1, 1], "depart": 0}"#,
                Some(9),
            ),
            (r#"{"id": 1}"#, Some(1)),
            (
                r#"{"id": 3, "from": [0, 0], "to": [1, 1], "depart": 0, "priority": 1}"#,
                Some(3),
            ),
            ("not json", None),
            (
                r#"{"id": -2, "from": [1, 2], "to": [2, 3], "depart": 0}"#,
                None,
            ),
            (
                r#"{"v": 7, "id": "x", "from": [0, 0], "to": [1, 1], "depart": 0}"#,
                None,
            ),
        ] {
            let (echo, _) = WireRequest::parse(line).expect_err(line);
            assert_eq!(echo, id, "{line}");
        }
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
            assert!(line.contains("\"v\":2"), "explicit version: {line}");
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
            let (_, err) = WireRequest::parse(line).expect_err(line);
            assert!(err.msg.contains(reason), "{line}: got {}", err.msg);
        }
    }

    #[test]
    fn a_client_recovers_the_kind_the_server_raised_for_a_bad_request() {
        for (line, _) in MALFORMED {
            let (id, error) = WireRequest::parse(line).expect_err(line);
            let raised = error.kind;
            let reply = WireResponse::Err { id, error }.to_line();
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
        let ok = WireResponse::Ok {
            id: 3,
            eta_seconds: 412.51,
            degraded: false,
        }
        .to_line();
        assert_eq!(ok, r#"{"id":3,"eta_s":412.5,"degraded":false}"#);
        let v = json::parse(&ok).expect("ok line parses");
        assert_eq!(
            json::obj_field(&v, "eta_s").expect("eta_s"),
            &Value::Num("412.5".into())
        );
        let err = WireResponse::Err {
            id: Some(9),
            error: (&ServeError::QueueFull { capacity: 2 }).into(),
        }
        .to_line();
        assert_eq!(
            err,
            r#"{"id":9,"error":{"kind":"queue_full","msg":"queue full (capacity 2)"}}"#
        );
        let err = WireResponse::Err {
            id: None,
            error: WireError::new(ErrorKind::Model, "bad \"quoted\" input"),
        }
        .to_line();
        let v = json::parse(&err).expect("escaped error parses");
        assert_eq!(json::obj_field(&v, "id").expect("id"), &Value::Null);
    }

    #[test]
    fn response_codec_round_trips_both_encodings() {
        let ok = WireResponse::Ok {
            id: 3,
            eta_seconds: 412.5,
            degraded: false,
        };
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
                error: (&ServeError::DeadlineExceeded).into(),
            };
            assert_eq!(WireResponse::parse(&err.to_line()).expect("parses"), err);
        }
        let reject = WireResponse::Err {
            id: None,
            error: WireError::new(ErrorKind::UnsupportedVersion, "v: not supported"),
        };
        assert_eq!(
            WireResponse::parse(&reject.to_line()).expect("parses"),
            reject
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
