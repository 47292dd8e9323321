//! The wire protocol: versioned, length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON (rendered and re-parsed by [`das_telemetry::json`]
//! — the same writer/validator every exporter in the workspace uses, so
//! wire payloads obey the exact round-trip guarantees the journals rely
//! on). Every request and response object carries
//! `"das_serve": PROTO_VERSION`; a version the server does not speak is
//! answered with a structured [`code::VERSION`] error instead of
//! undefined behaviour.
//!
//! Framing violations are classified by whether the byte stream is still
//! aligned afterwards: a zero-length frame or a well-framed-but-malformed
//! payload is *recoverable* (the server answers with a structured error
//! and keeps the connection), while an oversized length prefix
//! desynchronizes the stream — the server answers once and closes. A
//! mid-frame disconnect is indistinguishable from a crash and is treated
//! as a clean close. In no case does a malformed frame panic the server
//! or hang the connection.

use std::io::{self, Read, Write};

use das_telemetry::json::{self, Value};

/// Protocol version spoken by this build.
pub const PROTO_VERSION: u64 = 1;

/// Key carrying the protocol version in every request and response.
pub const VERSION_KEY: &str = "das_serve";

/// Cap on a single frame's payload, bytes (requests and responses).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// The `retry_after_ms` hint a server sends with `busy` rejections.
pub const RETRY_AFTER_MS: u64 = 250;

/// Structured error codes (the `error.code` field of a failure response).
pub mod code {
    /// Framing violation: zero-length or oversized frame.
    pub const FRAME: &str = "frame";
    /// Payload is not a well-formed JSON document.
    pub const PARSE: &str = "parse";
    /// Unsupported protocol version.
    pub const VERSION: &str = "version";
    /// Unknown request kind or missing/malformed fields.
    pub const BAD_REQUEST: &str = "bad_request";
    /// Admission queue full — retry after `error.retry_after_ms`.
    pub const BUSY: &str = "busy";
    /// Server is draining and admits no new work.
    pub const DRAINING: &str = "draining";
    /// Unknown job, ticket or experiment id.
    pub const NOT_FOUND: &str = "not_found";
    /// Internal failure (journal write, renderer).
    pub const INTERNAL: &str = "internal";
}

/// A protocol-level read failure.
#[derive(Debug)]
pub enum ProtoError {
    /// Peer closed cleanly between frames.
    Closed,
    /// Transport failure (including a disconnect mid-frame).
    Io(io::Error),
    /// Frame violates the codec. `recoverable` says whether the byte
    /// stream is still frame-aligned (answer and continue) or
    /// desynchronized (answer and close).
    Malformed {
        /// Human-readable cause.
        msg: String,
        /// Whether the connection can keep serving after an error reply.
        recoverable: bool,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Malformed { msg, .. } => write!(f, "malformed frame: {msg}"),
        }
    }
}

/// Reads one frame (length prefix + JSON payload), enforcing [`MAX_FRAME`].
///
/// # Errors
///
/// [`ProtoError::Closed`] on a clean close between frames,
/// [`ProtoError::Io`] on transport failures and mid-frame disconnects,
/// [`ProtoError::Malformed`] for codec violations (zero-length frame,
/// oversized frame, non-UTF-8 or non-JSON payload).
pub fn read_frame(r: &mut impl Read) -> Result<Value, ProtoError> {
    let mut len_buf = [0u8; 4];
    // The first byte distinguishes a clean close from a torn frame.
    let mut got = 0usize;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(ProtoError::Closed),
            Ok(0) => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Err(ProtoError::Malformed {
            msg: "zero-length frame".into(),
            recoverable: true,
        });
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed {
            msg: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
            recoverable: false,
        });
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(ProtoError::Io)?;
    let text = std::str::from_utf8(&buf).map_err(|_| ProtoError::Malformed {
        msg: "payload is not UTF-8".into(),
        recoverable: true,
    })?;
    json::parse(text).map_err(|e| ProtoError::Malformed {
        msg: format!("payload is not JSON: {e}"),
        recoverable: true,
    })
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport failures; rejects payloads over `u32::MAX` bytes.
pub fn write_frame(w: &mut impl Write, v: &Value) -> io::Result<()> {
    let body = v.render();
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// A request skeleton: version + kind.
pub fn request(kind: &str) -> Value {
    Value::obj()
        .set(VERSION_KEY, PROTO_VERSION)
        .set("kind", kind)
}

/// A success-response skeleton: version + `ok: true` + kind.
pub fn ok(kind: &str) -> Value {
    Value::obj()
        .set(VERSION_KEY, PROTO_VERSION)
        .set("ok", true)
        .set("kind", kind)
}

/// A structured failure response.
pub fn error(code: &str, message: &str) -> Value {
    Value::obj()
        .set(VERSION_KEY, PROTO_VERSION)
        .set("ok", false)
        .set(
            "error",
            Value::obj().set("code", code).set("message", message),
        )
}

/// The backpressure response: `busy` plus a retry hint.
pub fn busy(message: &str, retry_after_ms: u64) -> Value {
    Value::obj()
        .set(VERSION_KEY, PROTO_VERSION)
        .set("ok", false)
        .set(
            "error",
            Value::obj()
                .set("code", code::BUSY)
                .set("message", message)
                .set("retry_after_ms", retry_after_ms),
        )
}

/// Extracts `(code, message)` from a failure response, if it is one.
pub fn error_of(v: &Value) -> Option<(&str, &str)> {
    if v.get("ok").and_then(Value::as_bool) == Some(false) {
        let e = v.get("error")?;
        Some((
            e.get("code").and_then(Value::as_str)?,
            e.get("message").and_then(Value::as_str).unwrap_or(""),
        ))
    } else {
        None
    }
}

/// Checks a request's protocol version; `Err` is the ready-made error
/// response to send back.
///
/// # Errors
///
/// Returns the [`code::VERSION`] response for anything but
/// [`PROTO_VERSION`].
pub fn check_version(req: &Value) -> Result<(), Value> {
    match req.get(VERSION_KEY).and_then(Value::as_u64) {
        Some(PROTO_VERSION) => Ok(()),
        Some(v) => Err(error(
            code::VERSION,
            &format!("protocol version {v} unsupported (this server speaks {PROTO_VERSION})"),
        )),
        None => Err(error(
            code::VERSION,
            &format!("request carries no {VERSION_KEY:?} version field"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = request("status").set("job", "t1/a");
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back.render(), v.render());
    }

    #[test]
    fn clean_close_and_torn_frames_are_distinguished() {
        // Empty stream: clean close.
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(ProtoError::Closed)
        ));
        // Torn header: 2 of 4 length bytes.
        assert!(matches!(
            read_frame(&mut [0u8, 0].as_slice()),
            Err(ProtoError::Io(_))
        ));
        // Torn body: promised 100 bytes, delivered 3.
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn framing_violations_classify_recoverability() {
        // Zero-length: stream still aligned.
        match read_frame(&mut 0u32.to_be_bytes().as_slice()) {
            Err(ProtoError::Malformed { recoverable, .. }) => assert!(recoverable),
            other => panic!("{other:?}"),
        }
        // Oversized: desynchronized.
        match read_frame(&mut (MAX_FRAME as u32 + 1).to_be_bytes().as_slice()) {
            Err(ProtoError::Malformed { recoverable, msg }) => {
                assert!(!recoverable);
                assert!(msg.contains("limit"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        // Bad JSON in a well-formed frame: recoverable.
        let mut buf = 8u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"not json");
        match read_frame(&mut buf.as_slice()) {
            Err(ProtoError::Malformed { recoverable, .. }) => assert!(recoverable),
            other => panic!("{other:?}"),
        }
        // Non-UTF-8 payload: recoverable.
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        match read_frame(&mut buf.as_slice()) {
            Err(ProtoError::Malformed { recoverable, msg }) => {
                assert!(recoverable);
                assert!(msg.contains("UTF-8"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn version_check_accepts_current_and_rejects_others() {
        assert!(check_version(&request("stats")).is_ok());
        let err = check_version(&Value::obj().set(VERSION_KEY, 99u64)).unwrap_err();
        assert_eq!(error_of(&err).unwrap().0, code::VERSION);
        let err = check_version(&Value::obj().set("kind", "stats")).unwrap_err();
        assert_eq!(error_of(&err).unwrap().0, code::VERSION);
    }

    #[test]
    fn error_builders_round_trip_through_error_of() {
        let e = busy("queue full", 250);
        let (c, m) = error_of(&e).unwrap();
        assert_eq!(c, code::BUSY);
        assert_eq!(m, "queue full");
        assert_eq!(
            e.get_path("error/retry_after_ms").and_then(Value::as_u64),
            Some(250)
        );
        assert!(error_of(&ok("stats")).is_none());
    }
}
