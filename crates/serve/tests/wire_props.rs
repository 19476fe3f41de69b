//! Property tests for the wire codec (`deepod_serve::protocol`) and the
//! line decoder and reply renderer stdin and TCP share
//! (`net::decode_line`, `net::render_reply`): valid frames round-trip,
//! every error comes back with its typed kind, and no input — arbitrary
//! bytes, or a truncated or bit-flipped valid frame — makes a parser
//! panic.

use deepod_core::EstimateError;
use deepod_roadnet::CityProfile;
use deepod_serve::{net, EngineReply, ErrorKind, ServeError, WireError, WireRequest, WireResponse};
use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};
use proptest::collection::vec;
use proptest::{any, prop_assert_eq, proptest, Strategy};
use std::sync::OnceLock;

/// Any finite `f64`, drawn from the whole bit domain (`any::<f64>()` in
/// the vendored proptest is the unit interval only).
fn finite() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.0
        }
    })
}

fn dataset() -> &'static CityDataset {
    static DS: OnceLock<CityDataset> = OnceLock::new();
    DS.get_or_init(|| {
        DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40))
    })
}

/// Runs all three parsers over `line`; returning at all is the property.
fn parse_everything(line: &str) {
    let _ = WireRequest::parse(line);
    let _ = WireResponse::parse(line);
    let _ = net::decode_line(dataset(), line);
}

/// A line of 60 000 `[` fits under the 64 KiB frame cap; it must be a
/// bad-request error, not a stack overflow that aborts the server.
#[test]
fn a_deeply_nested_line_is_a_bad_request_not_a_stack_overflow() {
    let line = "[".repeat(60_000);
    let (id, err) = WireRequest::parse(&line).expect_err("deep nesting is rejected");
    assert_eq!(id, None);
    assert_eq!(err.kind, ErrorKind::BadRequest);
    assert!(err.msg.starts_with("bad request JSON: "), "{}", err.msg);
    assert!(WireResponse::parse(&line).is_err());
    match net::decode_line(dataset(), &line) {
        Some(Err(reply)) => assert!(reply.contains("bad request JSON"), "{reply}"),
        Some(Ok(_)) => panic!("deep nesting decoded as a request"),
        None => panic!("a non-blank line owes a reply"),
    }
}

/// A flat `"error":"msg"` string is not a v2 frame: it is a parse error,
/// not a guessed kind.
#[test]
fn a_flat_error_line_does_not_parse() {
    let flat = r#"{"id":1,"error":"queue full (capacity 2)"}"#;
    assert!(WireResponse::parse(flat).is_err(), "{flat}");
}

proptest! {
    #[test]
    fn rendered_requests_parse_back_to_themselves(
        id in any::<u64>(),
        from in (finite(), finite()),
        to in (finite(), finite()),
        depart in finite(),
        low_priority in any::<bool>(),
    ) {
        let req = WireRequest { id, from, to, depart, low_priority };
        let line = req.to_line();
        prop_assert_eq!(WireRequest::parse(&line), Ok(req));
        // Far-off coordinates and departures must decode without a panic.
        let _ = net::decode_line(dataset(), &line);
    }

    /// Every kind's error frame keeps its id, kind and message.
    #[test]
    fn rendered_error_frames_parse_back(
        id in any::<u64>(),
        with_id in any::<bool>(),
        msg in vec(0x20u32..0x3000, 0..40),
    ) {
        let msg: String = msg.into_iter().filter_map(char::from_u32).collect();
        let id = with_id.then_some(id);
        for kind in ErrorKind::ALL {
            let frame = WireResponse::Err {
                id,
                error: WireError { kind, msg: msg.clone() },
            };
            match WireResponse::parse(&frame.to_line()) {
                Ok(WireResponse::Err { id: back_id, error }) => {
                    prop_assert_eq!(back_id, id);
                    prop_assert_eq!(&error.msg, &msg);
                    prop_assert_eq!(error.kind, kind);
                }
                other => return Err(format!("{kind}: expected an error frame, got {other:?}")),
            }
        }
    }

    /// Every engine failure and the per-request model error, rendered by
    /// the reply path both modes share, parse back to their kind and id.
    #[test]
    fn rendered_replies_parse_back_to_their_kind(id in any::<u64>(), capacity in any::<usize>()) {
        let failures = [
            ServeError::QueueFull { capacity },
            ServeError::ShuttingDown,
            ServeError::WorkerCrashed,
            ServeError::DeadlineExceeded,
        ];
        let model_error = EngineReply {
            result: Err(EstimateError::UnmatchedEndpoints),
            degraded: false,
        };
        let cases = failures
            .into_iter()
            .map(|e| (ErrorKind::of_serve_error(&e), Err(e)))
            .chain([(ErrorKind::Model, Ok(model_error))]);
        for (kind, reply) in cases {
            match WireResponse::parse(&net::render_reply(id, reply)) {
                Ok(WireResponse::Err { id: back_id, error }) => {
                    prop_assert_eq!(back_id, Some(id));
                    prop_assert_eq!(error.kind, kind);
                }
                other => return Err(format!("{kind}: expected an error frame, got {other:?}")),
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_parser(bytes in vec(any::<u8>(), 0..200)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn damaged_request_lines_never_panic_a_parser(
        id in any::<u64>(),
        from in (0.0f64..5000.0, 0.0f64..5000.0),
        to in (0.0f64..5000.0, 0.0f64..5000.0),
        depart in 0.0f64..1e7,
        low_priority in any::<bool>(),
    ) {
        let line = WireRequest { id, from, to, depart, low_priority }
            .to_line()
            .into_bytes();
        for cut in 0..=line.len() {
            parse_everything(&String::from_utf8_lossy(&line[..cut]));
        }
        for bit in 0..line.len() * 8 {
            let mut flipped = line.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            parse_everything(&String::from_utf8_lossy(&flipped));
        }
    }
}
