//! The wire protocol: line-delimited JSON frames.
//!
//! Every frame is one compact JSON document followed by `\n` — no document
//! ever contains a raw newline, because [`mop_json::to_string`] escapes
//! control characters into `\uXXXX`. Three frame shapes exist:
//!
//! * **request** (client → server): `{"id": n, "method": "...", "params": {...}}`
//!   — `id` is a client-chosen non-negative integer echoed back verbatim;
//!   `params` may be omitted (treated as `{}`),
//! * **response** (server → client): `{"id": n, "result": {...}}` on
//!   success, `{"id": n, "error": {"code": "...", "message": "..."}}` on
//!   failure — exactly one per request, always the *last* frame the request
//!   produces,
//! * **event** (server → client): `{"stream": "...", "event": {...}}` —
//!   zero or more emitted *before* a response while a subscription is
//!   active; a client reads frames until it sees one carrying `id`.
//!
//! [`mop_json`] keeps object keys in insertion order and prints floats
//! deterministically, so a session transcript is byte-stable — which is
//! what lets `tests/server_protocol.rs` pin recorded sessions verbatim.

use mop_json::{json, Value};

/// Protocol version reported by `server.info`.
pub const PROTOCOL_VERSION: u64 = 1;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Method name, e.g. `scenario.inject`.
    pub method: String,
    /// Method parameters (`Null` when the frame omitted them).
    pub params: Value,
}

/// Error codes a response can carry. Stable strings: clients match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request.
    ParseError,
    /// The request line was longer than the transport's ceiling
    /// ([`crate::transport::MAX_FRAME_BYTES`]); it was discarded unread.
    FrameTooLarge,
    /// The method name is not part of this protocol version.
    UnknownMethod,
    /// The params were missing a field or carried a wrong type/value.
    BadParams,
    /// The named scenario does not exist (or was already retired).
    UnknownScenario,
    /// A checkpoint document was rejected; the message says why.
    BadCheckpoint,
    /// `fleet.resume` on a plane that is not idle.
    ResumeConflict,
    /// The server could not read or write a file the request named.
    Io,
}

impl ErrorCode {
    /// The stable wire string.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse-error",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::UnknownMethod => "unknown-method",
            ErrorCode::BadParams => "bad-params",
            ErrorCode::UnknownScenario => "unknown-scenario",
            ErrorCode::BadCheckpoint => "bad-checkpoint",
            ErrorCode::ResumeConflict => "resume-conflict",
            ErrorCode::Io => "io",
        }
    }
}

/// Parses one request frame. The error string becomes the `parse-error`
/// response message.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = mop_json::from_str(line).map_err(|e| format!("frame is not valid JSON: {e}"))?;
    let Some(id) = value["id"].as_u64() else {
        return Err("frame has no non-negative integer \"id\"".into());
    };
    let Some(method) = value["method"].as_str() else {
        return Err("frame has no \"method\" string".into());
    };
    Ok(Request { id, method: method.to_string(), params: value["params"].clone() })
}

/// A success response frame (without the trailing newline).
pub fn result_frame(id: u64, result: Value) -> String {
    mop_json::to_string(&json!({ "id": id as i64, "result": result }))
}

/// An error response frame. `id` is zero when the request id could not be
/// parsed at all.
pub fn error_frame(id: u64, code: ErrorCode, message: &str) -> String {
    mop_json::to_string(&json!({
        "id": id as i64,
        "error": json!({ "code": code.as_str(), "message": message }),
    }))
}

/// A stream event frame.
pub fn event_frame(stream: &str, event: Value) -> String {
    mop_json::to_string(&json!({ "stream": stream, "event": event }))
}

/// Formats a fleet digest the way every digest-bearing frame carries it:
/// sixteen lower-case hex digits, matching the `report` binary's output.
pub fn digest_str(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject_malformed_frames() {
        let req = parse_request(
            "{\"id\": 3, \"method\": \"scenario.inject\", \"params\": {\"users\": 40}}",
        )
        .unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(req.method, "scenario.inject");
        assert_eq!(req.params["users"].as_u64(), Some(40));

        let no_params = parse_request("{\"id\": 0, \"method\": \"server.info\"}").unwrap();
        assert!(no_params.params.is_null());

        assert!(parse_request("{\"id\": 3").unwrap_err().contains("not valid JSON"));
        assert!(parse_request("{\"method\": \"x\"}").unwrap_err().contains("\"id\""));
        assert!(parse_request("{\"id\": -1, \"method\": \"x\"}").unwrap_err().contains("\"id\""));
        assert!(parse_request("{\"id\": 1}").unwrap_err().contains("\"method\""));
    }

    #[test]
    fn frames_are_single_line_and_stable() {
        let ok = result_frame(7, json!({ "digest": digest_str(0xabc) }));
        assert_eq!(ok, "{\"id\":7,\"result\":{\"digest\":\"0000000000000abc\"}}");
        assert!(!ok.contains('\n'));
        let err = error_frame(0, ErrorCode::UnknownMethod, "no such method \"x\"");
        assert_eq!(
            err,
            "{\"id\":0,\"error\":{\"code\":\"unknown-method\",\
             \"message\":\"no such method \\\"x\\\"\"}}"
        );
        let event = event_frame("epochs", json!({ "epoch": 4 }));
        assert_eq!(event, "{\"stream\":\"epochs\",\"event\":{\"epoch\":4}}");
    }
}
