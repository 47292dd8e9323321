//! The client side of the protocol: a thin blocking wrapper over one
//! connection, used by `dasctl` and the loopback tests.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use das_telemetry::json::Value;

use crate::proto::{self, ProtoError};

/// One connection to a `das-serve` server.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Readable connect/clone failures.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = writer
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?;
        Ok(Client {
            reader,
            writer,
            max_frame: proto::DEFAULT_MAX_FRAME,
        })
    }

    /// Sets a read timeout for responses (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.set_read_timeout(timeout)
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Readable transport failures.
    pub fn send(&mut self, v: &Value) -> Result<(), String> {
        proto::write_frame(&mut self.writer, v).map_err(|e| format!("cannot send request: {e}"))
    }

    /// Reads the next frame (e.g. while consuming a stream).
    ///
    /// # Errors
    ///
    /// The raw [`ProtoError`] — `Closed` is a legitimate end-of-stream
    /// for some callers.
    pub fn next_frame(&mut self) -> Result<Value, ProtoError> {
        proto::read_frame(&mut self.reader, self.max_frame)
    }

    /// Sends a request and reads one response, mapping a protocol-level
    /// failure response into `Err("code: message")`.
    ///
    /// # Errors
    ///
    /// Transport failures and structured server rejections.
    pub fn request(&mut self, v: &Value) -> Result<Value, String> {
        self.send(v)?;
        let resp = self.next_frame().map_err(|e| format!("no response: {e}"))?;
        into_ok(resp)
    }
}

/// Converts a response into `Ok` or `Err("code: message")`.
///
/// # Errors
///
/// The structured rejection, rendered readable; `busy` keeps its
/// `retry_after_ms` hint in the message.
pub fn into_ok(resp: Value) -> Result<Value, String> {
    match proto::error_of(&resp) {
        None => Ok(resp),
        Some((code, msg)) => {
            let retry = resp
                .get_path("error/retry_after_ms")
                .and_then(Value::as_u64)
                .map(|ms| format!(" (retry after {ms} ms)"))
                .unwrap_or_default();
            Err(format!("{code}: {msg}{retry}"))
        }
    }
}

/// Collects a `stream` response for `jobs`: returns the reports in job
/// order once every job is terminal, calling `progress` per event frame.
///
/// # Errors
///
/// Transport failures, structured rejections, and any job that ends
/// `failed`/`cancelled` (the error names it).
pub fn collect_stream(
    client: &mut Client,
    jobs: &[String],
    mut progress: impl FnMut(&str, &str),
) -> Result<Vec<Value>, String> {
    let req = proto::request("stream").set(
        "jobs",
        Value::Arr(jobs.iter().map(|j| Value::Str(j.clone())).collect()),
    );
    client.send(&req)?;
    let ack = client
        .next_frame()
        .map_err(|e| format!("no stream ack: {e}"))?;
    into_ok(ack)?;
    let mut reports = Vec::new();
    loop {
        let frame = client
            .next_frame()
            .map_err(|e| format!("stream interrupted: {e}"))?;
        let frame = into_ok(frame)?;
        match frame.get("kind").and_then(Value::as_str) {
            Some("progress") => {
                let job = frame.get("job").and_then(Value::as_str).unwrap_or("?");
                let state = frame.get("state").and_then(Value::as_str).unwrap_or("?");
                progress(job, state);
            }
            Some("result") => {
                let job = frame.get("job").and_then(Value::as_str).unwrap_or("?");
                let state = frame.get("state").and_then(Value::as_str).unwrap_or("?");
                progress(job, state);
                if state != "done" {
                    let err = frame
                        .get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("no error recorded");
                    return Err(format!("job {job} ended {state}: {err}"));
                }
                let report = frame
                    .get("report")
                    .ok_or_else(|| format!("job {job} done without a report"))?;
                reports.push(report.clone());
            }
            Some("stream_end") => break,
            other => return Err(format!("unexpected stream frame kind {other:?}")),
        }
    }
    if reports.len() != jobs.len() {
        return Err(format!(
            "stream ended with {} of {} results",
            reports.len(),
            jobs.len()
        ));
    }
    Ok(reports)
}
