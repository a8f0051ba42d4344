//! The std-TCP line-protocol transport: a newline-delimited JSON
//! framing of the service wire types, specified normatively in
//! `PROTOCOL.md` at the repository root.
//!
//! One [`NetServer`] wraps one [`ServiceHandle`]: a single accept
//! thread hands each connection to its own reader thread (bounded by
//! [`NetConfig::max_connections`]), and each connection speaks a strict
//! request/response protocol — one JSON object per line in, one JSON
//! object per line out, in order. There is no pipelining within a
//! connection; concurrency comes from opening more connections.
//!
//! ## Framing errors never drop the connection
//!
//! A line the server cannot frame or parse — oversized, invalid UTF-8,
//! malformed JSON, trailing garbage, a bad envelope, an unknown op —
//! is answered like any other request: the daemon registers a
//! `Rejected` placeholder job carrying the reason (exactly as
//! [`ServiceHandle::submit_json`] does for unparseable bodies) and the
//! response line carries both the machine-readable error code and that
//! job's snapshot. The connection stays open and re-synchronized at the
//! next newline. Only two lines close a connection: the
//! [`codes::CONNECTION_LIMIT`] refusal, sent when the reader-thread
//! budget is exhausted at accept time, and the [`codes::IDLE_TIMEOUT`]
//! notice, sent when a connection goes [`NetConfig::idle_timeout_ms`]
//! without completing a request line — the defense that stops a silent
//! or slow-loris peer from pinning a connection slot forever.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] (also run on drop) stops the accept loop,
//! shuts down every live connection socket, and joins all threads. It
//! does **not** stop the daemon: shut the server down first, then call
//! [`crate::daemon::ServiceDaemon::shutdown`], which drains every
//! queued job to a terminal state. That ordering is what makes shutdown
//! graceful — no accepted job is abandoned.
//!
//! ## Determinism
//!
//! The transport adds nothing to the result surface: a job submitted
//! over TCP produces the bit-identical snapshot the in-process
//! [`ServiceHandle`] would produce for the same request, because both
//! paths run the same `submit`. `tests/service_net.rs` pins this.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use astra_telemetry::Telemetry;
use serde_json::{json, Map, Value};

use astra_faas::derive_seed;

use crate::daemon::ServiceHandle;
use crate::faults::{FaultPlan, FaultSite};
use crate::types::{JobId, JobRequest, JobStatus};
use crate::wire;

/// The protocol identifier the server announces in its hello line and
/// `ping` responses. Bump the `/1` on any incompatible change (see
/// PROTOCOL.md, "Versioning").
pub const PROTO_VERSION: &str = "astra.jobs/1";

/// Machine-readable error codes, exactly as they appear in the
/// `error.code` field of a response line. PROTOCOL.md documents each
/// one; CI checks the two stay in sync.
pub mod codes {
    /// A line exceeded [`super::NetConfig::max_line_bytes`] before its
    /// newline. The oversized bytes are discarded up to the next
    /// newline, so the connection stays framed.
    pub const OVERSIZE_LINE: &str = "OVERSIZE_LINE";
    /// The line is not valid UTF-8.
    pub const INVALID_UTF8: &str = "INVALID_UTF8";
    /// The line is not valid JSON.
    pub const INVALID_JSON: &str = "INVALID_JSON";
    /// The line holds one valid JSON value followed by more bytes —
    /// exactly one JSON object per line is allowed.
    pub const TRAILING_GARBAGE: &str = "TRAILING_GARBAGE";
    /// The line parsed but is not a request envelope: not an object,
    /// `op` missing or not a string, a field unknown to the op, or a
    /// required field missing/mistyped.
    pub const BAD_ENVELOPE: &str = "BAD_ENVELOPE";
    /// The envelope's `op` is none of `submit` / `resubmit` / `status` /
    /// `await` / `ping` / `stats`.
    pub const UNKNOWN_OP: &str = "UNKNOWN_OP";
    /// A `submit` / `resubmit` whose `request` body failed strict wire
    /// decoding (unknown field, missing field, invalid value).
    pub const BAD_REQUEST: &str = "BAD_REQUEST";
    /// A `status` / `await` / `resubmit` for a job id this daemon never
    /// issued.
    pub const UNKNOWN_JOB: &str = "UNKNOWN_JOB";
    /// The server's reader-thread budget is exhausted; this refusal is
    /// sent as the connection's only line before the server closes it.
    pub const CONNECTION_LIMIT: &str = "CONNECTION_LIMIT";
    /// No complete request line arrived within
    /// [`super::NetConfig::idle_timeout_ms`]; the server sends this
    /// notice and closes the connection (the other closing code besides
    /// [`CONNECTION_LIMIT`]).
    pub const IDLE_TIMEOUT: &str = "IDLE_TIMEOUT";
    /// A `submit` shed by overload degradation: the service is over its
    /// queue-pressure thresholds and this non-priority submission was
    /// rejected retryably. The error object carries `retry_after_ms`;
    /// the registered `Rejected` job rides on the response like any
    /// other refusal.
    pub const OVERLOADED: &str = "OVERLOADED";
}

/// Transport limits for one [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Longest accepted request line in bytes, newline excluded.
    /// Longer lines are answered with [`codes::OVERSIZE_LINE`].
    pub max_line_bytes: usize,
    /// Reader-thread budget: connections accepted beyond it receive a
    /// one-line [`codes::CONNECTION_LIMIT`] refusal and are closed.
    pub max_connections: usize,
    /// Close a connection (with a [`codes::IDLE_TIMEOUT`] line) when no
    /// complete request line arrives for this long. 0 disables the
    /// timeout (a silent peer then pins its slot forever — test use
    /// only).
    pub idle_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // Generous for job specs (a 10^6-object job request with
            // per-object sizes is ~10 MB; typical requests are < 1 KB).
            max_line_bytes: 16 * 1024 * 1024,
            max_connections: 64,
            // Five minutes: longer than any legitimate await gap a
            // batch client leaves, far shorter than forever.
            idle_timeout_ms: 300_000,
        }
    }
}

impl NetConfig {
    /// Override the maximum request-line length.
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Override the connection budget.
    pub fn with_max_connections(mut self, connections: usize) -> Self {
        self.max_connections = connections;
        self
    }

    /// Override the idle timeout (0 disables it).
    pub fn with_idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }
}

// ---------------------------------------------------------------- framing

enum ReadLine {
    /// One complete line, newline stripped (and a trailing `\r`, for
    /// CRLF tolerance).
    Line(Vec<u8>),
    /// The line outgrew the cap; bytes were discarded up to and
    /// including the next newline, so the stream is re-synchronized.
    Oversize,
    /// Clean end of stream.
    Eof,
}

/// Read one newline-terminated line with a hard length cap. Unlike
/// `BufRead::read_line`, an oversized line is consumed (to the next
/// newline) rather than buffered, so a hostile client cannot balloon
/// server memory past `max` per connection.
fn read_line_capped<R: BufRead>(reader: &mut R, max: usize) -> io::Result<ReadLine> {
    let mut line = Vec::new();
    let mut oversize = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. An unterminated trailing line still counts as a line
            // (standard `nc` behaviour on the last write).
            return Ok(if oversize {
                ReadLine::Oversize
            } else if line.is_empty() {
                ReadLine::Eof
            } else {
                trim_cr(&mut line);
                ReadLine::Line(line)
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !oversize {
                    line.extend_from_slice(&available[..newline]);
                }
                reader.consume(newline + 1);
                if oversize || line.len() > max {
                    return Ok(ReadLine::Oversize);
                }
                trim_cr(&mut line);
                return Ok(ReadLine::Line(line));
            }
            None => {
                let taken = available.len();
                if !oversize {
                    line.extend_from_slice(available);
                    if line.len() > max {
                        oversize = true;
                        line = Vec::new();
                    }
                }
                reader.consume(taken);
            }
        }
    }
}

fn trim_cr(line: &mut Vec<u8>) {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
}

// ---------------------------------------------------------------- responses

fn ok_response(op: &str) -> Map<String, Value> {
    let mut obj = Map::new();
    obj.insert("ok".to_string(), Value::from(true));
    obj.insert("op".to_string(), Value::from(op));
    obj
}

/// An `ok:false` line: the error code/message, the op if it was
/// recognisable, and the `Rejected` placeholder snapshot when the
/// failure registered one.
fn error_response(op: Option<&str>, code: &str, message: &str, job: Option<Value>) -> Value {
    let mut obj = Map::new();
    obj.insert("ok".to_string(), Value::from(false));
    obj.insert("op".to_string(), op.map(Value::from).unwrap_or(Value::Null));
    obj.insert(
        "error".to_string(),
        json!({ "code": code, "message": message }),
    );
    if let Some(job) = job {
        obj.insert("job".to_string(), job);
    }
    Value::Object(obj)
}

/// A framing/parse failure becomes a real `Rejected` job (poll-able
/// like any other) whose snapshot rides on the error line.
fn reject_with(handle: &ServiceHandle, op: Option<&str>, code: &str, message: String) -> Value {
    let id = handle.reject_submission(format!("{code}: {message}"));
    let snapshot = handle
        .status(id)
        .map(|snap| wire::snapshot_to_json(&snap))
        .unwrap_or(Value::Null);
    error_response(op, code, &message, Some(snapshot))
}

fn envelope_err(handle: &ServiceHandle, op: Option<&str>, message: String) -> Value {
    reject_with(handle, op, codes::BAD_ENVELOPE, message)
}

/// The response for a registered submission under `op`. An overload shed
/// answers `ok:false OVERLOADED` with the retry hint, so a client can
/// back off without polling — the rejected job still rides on the line
/// like any other refusal.
fn submitted_response(handle: &ServiceHandle, op: &str, id: JobId) -> Value {
    let shed = handle
        .status(id)
        .filter(|snap| snap.status == JobStatus::Rejected && snap.retry_after_ms.is_some());
    if let Some(snap) = shed {
        let retry_after_ms = snap.retry_after_ms.unwrap_or(0);
        let reason = snap.reason.clone().unwrap_or_default();
        let mut obj = Map::new();
        obj.insert("ok".to_string(), Value::from(false));
        obj.insert("op".to_string(), Value::from(op));
        obj.insert(
            "error".to_string(),
            json!({
                "code": codes::OVERLOADED,
                "message": reason,
                "retry_after_ms": retry_after_ms,
            }),
        );
        obj.insert("job".to_string(), wire::snapshot_to_json(&snap));
        return Value::Object(obj);
    }
    let mut obj = ok_response(op);
    obj.insert("id".to_string(), Value::from(id));
    Value::Object(obj)
}

/// Answer one framed request line. Infallible: every failure mode is an
/// `ok:false` response value.
fn handle_line(handle: &ServiceHandle, telemetry: &Telemetry, line: &[u8]) -> Value {
    let text = match std::str::from_utf8(line) {
        Ok(text) => text,
        Err(e) => {
            return reject_with(handle, None, codes::INVALID_UTF8, e.to_string());
        }
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(value) => value,
        Err(e) => {
            let message = e.to_string();
            let code = if message.contains("trailing characters") {
                codes::TRAILING_GARBAGE
            } else {
                codes::INVALID_JSON
            };
            return reject_with(handle, None, code, message);
        }
    };
    let Some(envelope) = value.as_object() else {
        return envelope_err(
            handle,
            None,
            "request envelope must be a JSON object".into(),
        );
    };
    let op = match envelope.get("op") {
        Some(Value::String(op)) => op.clone(),
        Some(_) => return envelope_err(handle, None, "'op' must be a string".into()),
        None => return envelope_err(handle, None, "missing field 'op'".into()),
    };
    let allowed: &[&str] = match op.as_str() {
        "submit" => &["op", "request"],
        "resubmit" => &["op", "id", "request"],
        "status" | "await" => &["op", "id"],
        "ping" | "stats" => &["op"],
        other => {
            return reject_with(
                handle,
                None,
                codes::UNKNOWN_OP,
                format!("unknown op '{other}'"),
            );
        }
    };
    for key in envelope.keys() {
        if !allowed.contains(&key.as_str()) {
            return envelope_err(
                handle,
                Some(&op),
                format!("unknown field '{key}' in '{op}' envelope"),
            );
        }
    }
    match op.as_str() {
        "submit" => {
            let Some(request_value) = envelope.get("request") else {
                return envelope_err(handle, Some(&op), "missing field 'request'".into());
            };
            match wire::job_request_from_json(request_value) {
                Ok(request) => {
                    telemetry.counter("service.net.submits", 1);
                    let id = handle.submit(request);
                    submitted_response(handle, "submit", id)
                }
                Err(e) => reject_with(handle, Some(&op), codes::BAD_REQUEST, e.to_string()),
            }
        }
        "resubmit" => {
            let Some(prior) = envelope.get("id").and_then(|v| v.as_u64()) else {
                return envelope_err(
                    handle,
                    Some(&op),
                    "missing or non-integer field 'id'".into(),
                );
            };
            // `request` is optional: present, it is the revised spec;
            // absent, the prior request is replayed verbatim.
            let revised = match envelope.get("request") {
                None => None,
                Some(value) => match wire::job_request_from_json(value) {
                    Ok(request) => Some(request),
                    Err(e) => {
                        return reject_with(handle, Some(&op), codes::BAD_REQUEST, e.to_string());
                    }
                },
            };
            telemetry.counter("service.net.resubmits", 1);
            match handle.resubmit(prior as JobId, revised) {
                Some(id) => {
                    let mut response = submitted_response(handle, "resubmit", id);
                    if let Value::Object(obj) = &mut response {
                        obj.insert("prior".to_string(), Value::from(prior));
                    }
                    response
                }
                None => error_response(
                    Some(&op),
                    codes::UNKNOWN_JOB,
                    &format!("no job with id {prior}"),
                    None,
                ),
            }
        }
        "status" | "await" => {
            let id = match envelope.get("id").and_then(|v| v.as_u64()) {
                Some(id) => id as JobId,
                None => {
                    return envelope_err(
                        handle,
                        Some(&op),
                        "missing or non-integer field 'id'".into(),
                    );
                }
            };
            let snapshot = if op == "await" {
                handle.await_done(id)
            } else {
                handle.status(id)
            };
            match snapshot {
                Some(snap) => {
                    let mut obj = ok_response(&op);
                    obj.insert("job".to_string(), wire::snapshot_to_json(&snap));
                    Value::Object(obj)
                }
                None => error_response(
                    Some(&op),
                    codes::UNKNOWN_JOB,
                    &format!("no job with id {id}"),
                    None,
                ),
            }
        }
        "ping" => {
            let mut obj = ok_response("ping");
            obj.insert("proto".to_string(), Value::from(PROTO_VERSION));
            Value::Object(obj)
        }
        "stats" => {
            let mut obj = ok_response("stats");
            obj.insert(
                "stats".to_string(),
                json!({
                    "jobs": handle.jobs().len() as u64,
                    "queue_len": handle.queue_len() as u64,
                    "in_flight": handle.in_flight() as u64,
                }),
            );
            Value::Object(obj)
        }
        _ => unreachable!("op was validated above"),
    }
}

// ---------------------------------------------------------------- server

/// The shim's `to_string` never fails; centralize the expect.
fn encode(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON encoding is infallible")
}

fn hello_line() -> String {
    encode(&json!({
        "ok": true,
        "op": "hello",
        "proto": PROTO_VERSION,
    }))
}

fn serve_connection(
    stream: TcpStream,
    handle: ServiceHandle,
    config: NetConfig,
    telemetry: Telemetry,
    active: Arc<AtomicUsize>,
    faults: FaultPlan,
    conn_seq: u64,
) {
    let run = || -> io::Result<()> {
        if config.idle_timeout_ms > 0 {
            // The reader parks in fill_buf between requests; this is
            // what turns a silent peer into a TimedOut error instead
            // of a forever-pinned slot.
            stream.set_read_timeout(Some(std::time::Duration::from_millis(
                config.idle_timeout_ms,
            )))?;
        }
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream.try_clone()?;
        writer.write_all(hello_line().as_bytes())?;
        writer.write_all(b"\n")?;
        loop {
            let read = match read_line_capped(&mut reader, config.max_line_bytes) {
                Ok(read) => read,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Idle deadline hit (a stalled mid-line write also
                    // lands here — the slow-loris case). One explicit
                    // closing line, then the slot is released.
                    telemetry.counter("service.net.idle_timeouts", 1);
                    let notice = error_response(
                        None,
                        codes::IDLE_TIMEOUT,
                        &format!(
                            "no request within {} ms; closing connection",
                            config.idle_timeout_ms
                        ),
                        None,
                    );
                    writer.write_all(encode(&notice).as_bytes())?;
                    writer.write_all(b"\n")?;
                    break;
                }
                Err(e) => return Err(e),
            };
            let response = match read {
                ReadLine::Eof => break,
                ReadLine::Oversize => {
                    telemetry.counter("service.net.lines", 1);
                    telemetry.counter("service.net.frame_errors", 1);
                    reject_with(
                        &handle,
                        None,
                        codes::OVERSIZE_LINE,
                        format!("line exceeds {} bytes", config.max_line_bytes),
                    )
                }
                ReadLine::Line(line) => {
                    if line.is_empty() {
                        // Blank lines are keep-alive no-ops (PROTOCOL.md).
                        continue;
                    }
                    telemetry.counter("service.net.lines", 1);
                    let response = handle_line(&handle, &telemetry, &line);
                    if response.as_object().and_then(|o| o.get("ok")) == Some(&Value::from(false)) {
                        telemetry.counter("service.net.frame_errors", 1);
                    }
                    response
                }
            };
            if faults.fires(FaultSite::ConnReset, conn_seq) {
                // Injected reset: the request was processed but the
                // connection drops before any response byte.
                telemetry.counter("service.faults.injected", 1);
                break;
            }
            let encoded = encode(&response);
            if faults.fires(FaultSite::ShortWrite, conn_seq) {
                // Injected torn frame: half the response, no newline,
                // then close — the client sees a short read mid-frame.
                telemetry.counter("service.faults.injected", 1);
                writer.write_all(&encoded.as_bytes()[..encoded.len() / 2])?;
                break;
            }
            writer.write_all(encoded.as_bytes())?;
            writer.write_all(b"\n")?;
            telemetry.counter("service.net.responses", 1);
        }
        Ok(())
    };
    // Read/write failures end the connection; there is no one left to
    // report them to.
    let _ = run();
    let _ = stream.shutdown(Shutdown::Both);
    let remaining = active.fetch_sub(1, Ordering::AcqRel) - 1;
    telemetry.gauge("service.net.active_connections", remaining as f64);
}

type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    handle: ServiceHandle,
    config: NetConfig,
    telemetry: Telemetry,
    shutdown: Arc<AtomicBool>,
    conns: ConnRegistry,
    active: Arc<AtomicUsize>,
    faults: FaultPlan,
) {
    // Monotonic per-server connection sequence — the key transport
    // fault rules are evaluated against, so a fault plan picks the
    // same victims on every run.
    let mut conn_seq: u64 = 0;
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if shutdown.load(Ordering::Acquire) => break,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::Acquire) {
            // The self-connect wake from NetServer::shutdown (or any
            // late client); either way the server is closing.
            break;
        }
        // One-line request/response framing is exactly the pattern
        // Nagle's algorithm penalizes (~40ms per roundtrip against
        // delayed ACKs); flush every response segment immediately.
        let _ = stream.set_nodelay(true);
        {
            // Reap finished reader threads so the registry tracks live
            // connections, not every connection ever accepted.
            let mut conns = conns.lock().unwrap();
            conns.retain(|(_, join)| !join.is_finished());
        }
        // Budget check: refuse with one explicit line, never silently.
        let occupied = active.load(Ordering::Acquire);
        if occupied >= config.max_connections {
            telemetry.counter("service.net.conn_refused", 1);
            let refusal = error_response(
                None,
                codes::CONNECTION_LIMIT,
                &format!(
                    "server is at its {} connection limit",
                    config.max_connections
                ),
                None,
            );
            let mut stream = stream;
            let _ = stream.write_all(encode(&refusal).as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let now_active = active.fetch_add(1, Ordering::AcqRel) + 1;
        telemetry.counter("service.net.connections", 1);
        telemetry.gauge("service.net.active_connections", now_active as f64);
        let Ok(registered) = stream.try_clone() else {
            active.fetch_sub(1, Ordering::AcqRel);
            continue;
        };
        let seq = conn_seq;
        conn_seq += 1;
        let reader = {
            let handle = handle.clone();
            let telemetry = telemetry.clone();
            let active = Arc::clone(&active);
            let faults = faults.clone();
            std::thread::Builder::new()
                .name("astra-net-conn".to_string())
                .spawn(move || {
                    serve_connection(stream, handle, config, telemetry, active, faults, seq)
                })
                .expect("spawn connection reader")
        };
        conns.lock().unwrap().push((registered, reader));
    }
}

/// The TCP front end: one accept thread plus one reader thread per live
/// connection, all submitting into the shared [`ServiceHandle`].
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: ConnRegistry,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an ephemeral
    /// port — see [`NetServer::local_addr`]) and start accepting.
    pub fn start(
        handle: ServiceHandle,
        addr: &str,
        config: NetConfig,
        telemetry: Telemetry,
    ) -> io::Result<NetServer> {
        NetServer::start_with_faults(handle, addr, config, telemetry, FaultPlan::disabled())
    }

    /// [`NetServer::start`] with transport fault injection (chaos
    /// testing only): `faults` rules at [`FaultSite::ConnReset`] and
    /// [`FaultSite::ShortWrite`] are evaluated per connection, keyed by
    /// the server's accept sequence number.
    pub fn start_with_faults(
        handle: ServiceHandle,
        addr: &str,
        config: NetConfig,
        telemetry: Telemetry,
        faults: FaultPlan,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("astra-net-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        listener, handle, config, telemetry, shutdown, conns, active, faults,
                    )
                })
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address — the way to learn the port after binding
    /// `host:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, close every live connection, and join all
    /// threads. Idempotent; also runs on drop. The daemon behind the
    /// handle keeps running — shut it down separately (after this) to
    /// drain queued jobs.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // accept() has no timeout; a throwaway self-connection wakes it
        // so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for (stream, _) in &conns {
            // Unblocks readers parked in fill_buf; their next read sees
            // EOF and the thread exits.
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, join) in conns {
            let _ = join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

// ---------------------------------------------------------------- client

/// Capped exponential backoff with deterministic jitter, for client
/// reconnects. Delays are a pure function of `(policy, attempt)` —
/// jitter comes from [`derive_seed`], not a clock — so tests can
/// assert the exact retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total connection attempts (≥ 1) before giving up.
    pub attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_ms: u64,
    /// Ceiling on the un-jittered delay.
    pub cap_ms: u64,
    /// Jitter seed; the same seed replays the same schedule.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            attempts: 5,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay after failed attempt number `attempt` (0-based):
    /// `min(cap, base·2^attempt)`, then jittered into the upper half of
    /// that window (`[delay/2, delay]`) so synchronized clients
    /// desynchronize without ever retrying sooner than half the nominal
    /// delay.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let nominal = self
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        let half = nominal / 2;
        let jitter = if half == 0 {
            0
        } else {
            derive_seed(self.seed, attempt as u64) % (half + 1)
        };
        half + jitter
    }
}

/// A synchronous line-protocol client over one TCP connection. Reads
/// the server hello at connect time; every request is one written line
/// answered by exactly one response line.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    hello: Value,
}

impl NetClient {
    /// Connect and consume the hello line.
    pub fn connect(addr: &str) -> io::Result<NetClient> {
        let writer = TcpStream::connect(addr)?;
        // See the server-side note: Nagle + delayed ACKs would add
        // ~40ms to every request line of this one-line-per-turn
        // protocol.
        let _ = writer.set_nodelay(true);
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut hello_text = String::new();
        reader.read_line(&mut hello_text)?;
        let hello: Value = serde_json::from_str(hello_text.trim_end()).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad server hello: {e}"))
        })?;
        Ok(NetClient {
            reader,
            writer,
            hello,
        })
    }

    /// [`NetClient::connect`] with retries under `policy`: each failed
    /// attempt sleeps [`BackoffPolicy::delay_ms`] before the next. The
    /// recovery companion to the server's injected connection resets —
    /// a client that lost its connection mid-conversation reconnects
    /// with bounded, de-synchronized pressure instead of a tight loop.
    pub fn connect_with_backoff(addr: &str, policy: BackoffPolicy) -> io::Result<NetClient> {
        let attempts = policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match NetClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(std::time::Duration::from_millis(
                            policy.delay_ms(attempt),
                        ));
                    }
                }
            }
        }
        Err(last_err.expect("at least one attempt was made"))
    }

    /// The server's hello object (`proto` carries the protocol version).
    pub fn hello(&self) -> &Value {
        &self.hello
    }

    /// Send one raw line (no trailing newline) and read the raw
    /// response line. The escape hatch for testing malformed frames.
    pub fn send_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send one request value and parse the response line.
    pub fn roundtrip(&mut self, request: &Value) -> io::Result<Value> {
        let response = self.send_raw(&encode(request))?;
        serde_json::from_str(&response).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })
    }

    /// Submit a job; returns the full response (`id` on success).
    pub fn submit(&mut self, request: &JobRequest) -> io::Result<Value> {
        self.roundtrip(&json!({
            "op": "submit",
            "request": wire::job_request_to_json(request),
        }))
    }

    /// Submit a job and extract the assigned id, mapping protocol-level
    /// failure onto an error.
    pub fn submit_id(&mut self, request: &JobRequest) -> io::Result<JobId> {
        let response = self.submit(request)?;
        response
            .as_object()
            .filter(|o| o.get("ok") == Some(&Value::from(true)))
            .and_then(|o| o.get("id"))
            .and_then(|id| id.as_u64())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("submit refused: {}", encode(&response)),
                )
            })
    }

    /// Resubmit a prior job, optionally with a revised request — the
    /// interactive re-quote op. The server plans the new job through its
    /// session cache like any submission: an unchanged or renamed spec
    /// hits, a revised one builds one session cold. Returns the full
    /// response (`id` and `prior` on success; `UNKNOWN_JOB` if the daemon
    /// never issued `prior`).
    pub fn resubmit(&mut self, prior: JobId, revised: Option<&JobRequest>) -> io::Result<Value> {
        let mut request = json!({ "op": "resubmit", "id": prior });
        if let (Value::Object(obj), Some(revised)) = (&mut request, revised) {
            obj.insert("request".to_string(), wire::job_request_to_json(revised));
        }
        self.roundtrip(&request)
    }

    /// Resubmit and extract the new job id, mapping protocol-level
    /// failure onto an error.
    pub fn resubmit_id(&mut self, prior: JobId, revised: Option<&JobRequest>) -> io::Result<JobId> {
        let response = self.resubmit(prior, revised)?;
        response
            .as_object()
            .filter(|o| o.get("ok") == Some(&Value::from(true)))
            .and_then(|o| o.get("id"))
            .and_then(|id| id.as_u64())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("resubmit refused: {}", encode(&response)),
                )
            })
    }

    /// Poll one job's snapshot (response `job` field).
    pub fn status(&mut self, id: JobId) -> io::Result<Value> {
        self.roundtrip(&json!({ "op": "status", "id": id }))
    }

    /// Block until the job is terminal; the response carries its final
    /// snapshot. The server holds this connection's turn while waiting,
    /// so interleave awaits with other traffic on separate connections.
    pub fn await_done(&mut self, id: JobId) -> io::Result<Value> {
        self.roundtrip(&json!({ "op": "await", "id": id }))
    }

    /// Liveness + protocol-version check.
    pub fn ping(&mut self) -> io::Result<Value> {
        self.roundtrip(&json!({ "op": "ping" }))
    }

    /// Daemon occupancy counters.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.roundtrip(&json!({ "op": "stats" }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reader_splits_and_resyncs() {
        let data = b"short\r\nway-too-long-line\nnext\n";
        let mut reader = BufReader::new(&data[..]);
        match read_line_capped(&mut reader, 8).unwrap() {
            ReadLine::Line(line) => assert_eq!(line, b"short"),
            _ => panic!("expected a line"),
        }
        assert!(matches!(
            read_line_capped(&mut reader, 8).unwrap(),
            ReadLine::Oversize
        ));
        match read_line_capped(&mut reader, 8).unwrap() {
            ReadLine::Line(line) => assert_eq!(line, b"next"),
            _ => panic!("oversize line did not resync"),
        }
        assert!(matches!(
            read_line_capped(&mut reader, 8).unwrap(),
            ReadLine::Eof
        ));
    }

    #[test]
    fn unterminated_final_line_is_still_a_line() {
        let mut reader = BufReader::new(&b"tail"[..]);
        match read_line_capped(&mut reader, 8).unwrap() {
            ReadLine::Line(line) => assert_eq!(line, b"tail"),
            _ => panic!("expected the unterminated tail"),
        }
    }

    #[test]
    fn hello_is_stable() {
        assert_eq!(
            hello_line(),
            r#"{"ok":true,"op":"hello","proto":"astra.jobs/1"}"#
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_bounded() {
        let policy = BackoffPolicy::default();
        let schedule: Vec<u64> = (0..8).map(|a| policy.delay_ms(a)).collect();
        // Pure function: same policy, same schedule.
        assert_eq!(
            schedule,
            (0..8).map(|a| policy.delay_ms(a)).collect::<Vec<u64>>()
        );
        for (attempt, &delay) in schedule.iter().enumerate() {
            let nominal = (policy.base_ms << attempt.min(32)).min(policy.cap_ms);
            assert!(
                delay >= nominal / 2 && delay <= nominal,
                "attempt {attempt}: delay {delay} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        // Different seeds give different jitter somewhere.
        let other = BackoffPolicy {
            seed: 1,
            ..BackoffPolicy::default()
        };
        assert_ne!(
            schedule,
            (0..8).map(|a| other.delay_ms(a)).collect::<Vec<u64>>()
        );
    }
}
