//! The client side of `astra.jobs/1`: a line connection that can
//! pipeline, the open-, windowed- and closed-loop senders, and the
//! decoder for the snapshots the daemon answers with.
//!
//! The generator never uses more than two threads (the caller's plus
//! one) or more than two connections.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use astra_pricing::Money;
use astra_service::net::PROTO_VERSION;
use astra_service::{JobStatus, SimOutcome};
use astra_telemetry::wall_clock_ns;
use serde_json::{json, Value};

use crate::gen::{Arrival, Req, Script, NS};

/// Submits per pipelined window in the capacity phase and the flood.
const WINDOW: usize = 32;
/// Jobs a pipelining sender keeps unfinished: it awaits its oldest job
/// before sending more. About the daemon's queue depth, without polling
/// `stats`, whose answer clones the whole job table.
const DEPTH: usize = 256;
/// Awaits pipelined per round trip while collecting snapshots.
const AWAIT_WINDOW: usize = 64;
/// The open loop's first arrival is due this long after the phase
/// starts, so it is not late before the sender reaches it.
const LEAD_NS: u64 = 10_000_000;

/// One TCP connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// A response line cut short by a read timeout, kept for the next
    /// read.
    partial: String,
}

fn parse(line: &str) -> io::Result<Value> {
    serde_json::from_str(line.trim_end()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad response line: {e}"),
        )
    })
}

/// The id an ack line assigned, or the refusal it carried.
fn ack_id(line: &str) -> Result<u64, String> {
    let value: Value = serde_json::from_str(line.trim_end()).map_err(|e| e.to_string())?;
    match (value["ok"].as_bool(), value["id"].as_u64()) {
        (Some(true), Some(id)) => Ok(id),
        _ => Err(format!("submit refused: {}", line.trim_end())),
    }
}

fn sleep_until(at_ns: u64) {
    let now = wall_clock_ns();
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

impl Conn {
    /// Connect (Nagle off, as the server does) and check the hello line.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            partial: String::new(),
        };
        let hello = parse(&conn.recv()?)?;
        if hello["proto"].as_str() != Some(PROTO_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello {hello:?}"),
            ));
        }
        Ok(conn)
    }

    /// Write raw bytes (one or more newline-terminated lines).
    pub fn send(&mut self, lines: &str) -> io::Result<()> {
        self.writer.write_all(lines.as_bytes())
    }

    /// Continue reading the current line; `None` when the socket's read
    /// timeout expired first (what was read so far is kept).
    fn read_partial(&mut self) -> io::Result<Option<String>> {
        match self.reader.read_line(&mut self.partial) {
            Ok(_) if self.partial.ends_with('\n') => Ok(Some(std::mem::take(&mut self.partial))),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Read one response line.
    pub fn recv(&mut self) -> io::Result<String> {
        self.reader.get_ref().set_read_timeout(None)?;
        loop {
            if let Some(line) = self.read_partial()? {
                return Ok(line);
            }
        }
    }

    /// Read one response line if it arrives before `deadline_ns`.
    fn recv_until(&mut self, deadline_ns: u64) -> io::Result<Option<String>> {
        let left = deadline_ns.saturating_sub(wall_clock_ns());
        if left == 0 {
            return Ok(None);
        }
        self.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_nanos(left.max(1_000))))?;
        self.read_partial()
    }

    /// One request/response round trip.
    pub fn call(&mut self, request: &Value) -> io::Result<Value> {
        let mut line = serde_json::to_string(request).expect("JSON encoding is infallible");
        line.push('\n');
        self.send(&line)?;
        parse(&self.recv()?)
    }

    /// The final snapshot of job `id` (the `await` op).
    pub fn await_job(&mut self, id: u64) -> io::Result<Value> {
        Ok(self.call(&json!({ "op": "await", "id": id }))?["job"].clone())
    }

    /// Round-trip times of `count` back-to-back pings, in microseconds.
    pub fn ping_rtts_us(&mut self, count: usize) -> io::Result<Vec<f64>> {
        let ping = json!({ "op": "ping" });
        (0..count)
            .map(|_| {
                let start = wall_clock_ns();
                self.call(&ping)?;
                Ok((wall_clock_ns() - start) as f64 / 1e3)
            })
            .collect()
    }
}

/// A submitted request with the client's stamps (`astra_telemetry`
/// wall-clock nanoseconds, the daemon's own clock).
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request.
    pub req: Req,
    /// When it was due: the schedule's time in an open loop, the moment
    /// the client was ready in a closed one.
    pub due: u64,
    /// When its line started to be written.
    pub sent: u64,
    /// When its ack line was read.
    pub ack: u64,
    /// Request-line bytes, newline included.
    pub bytes: usize,
    /// The job id the ack assigned, or the refusal.
    pub id: Result<u64, String>,
}

/// Send `arrivals` on their schedule, reading acks in between: while
/// the next request is not yet due, the thread waits for the oldest
/// outstanding ack with a read timeout set to the due time.
pub fn open_loop(conn: &mut Conn, arrivals: &[Arrival]) -> io::Result<Vec<Sent>> {
    fn take_ack(sent: &mut Sent, line: &str) {
        sent.ack = wall_clock_ns();
        sent.id = ack_id(line);
    }
    let start = wall_clock_ns() + LEAD_NS;
    let mut sent: Vec<Sent> = Vec::with_capacity(arrivals.len());
    let mut acked = 0;
    for a in arrivals {
        let line = a.req.line(None);
        let due = start + a.due_ns;
        while acked < sent.len() {
            let Some(ack) = conn.recv_until(due)? else {
                break;
            };
            take_ack(&mut sent[acked], &ack);
            acked += 1;
        }
        sleep_until(due);
        let at = wall_clock_ns();
        conn.send(&line)?;
        sent.push(Sent {
            req: a.req.clone(),
            due,
            sent: at,
            ack: 0,
            bytes: line.len(),
            id: Err("no ack".to_string()),
        });
    }
    while acked < sent.len() {
        let ack = conn.recv()?;
        take_ack(&mut sent[acked], &ack);
        acked += 1;
    }
    Ok(sent)
}

/// Pipeline windows of 32 submits of `script.closed(k)` on `conn`, with
/// `k` drawn from `next`, until `end_ns`, awaiting the oldest job
/// whenever more than `depth` are unfinished; then await the rest.
fn windowed(
    conn: &mut Conn,
    script: &Script,
    next: &AtomicUsize,
    end_ns: u64,
    depth: usize,
) -> io::Result<Vec<Record>> {
    let mut records = Vec::new();
    let mut unfinished = std::collections::VecDeque::new();
    while wall_clock_ns() < end_ns {
        let window: Vec<(Req, String)> = (0..WINDOW)
            .map(|_| {
                let req = script.closed(next.fetch_add(1, Ordering::Relaxed));
                let line = req.line(None);
                (req, line)
            })
            .collect();
        let batch: String = window.iter().map(|(_, line)| line.as_str()).collect();
        let sent = wall_clock_ns();
        conn.send(&batch)?;
        for (req, line) in window {
            let ack_line = conn.recv()?;
            unfinished.push_back(Sent {
                req,
                due: sent,
                sent,
                ack: wall_clock_ns(),
                bytes: line.len(),
                id: ack_id(&ack_line),
            });
        }
        while unfinished.len() > depth {
            let oldest = unfinished.pop_front().expect("more than depth unfinished");
            records.push(finish(conn, oldest)?);
        }
    }
    for sent in unfinished {
        records.push(finish(conn, sent)?);
    }
    Ok(records)
}

fn seconds_from_now(seconds: f64) -> u64 {
    wall_clock_ns() + (seconds * NS) as u64
}

/// `warm_steady`'s capacity phase: both connections, each on its own
/// thread, pipeline windows for `seconds`, together keeping about
/// [`DEPTH`] jobs unfinished.
pub fn capacity(conns: &mut [Conn], script: &Script, seconds: f64) -> io::Result<Vec<Record>> {
    let next = AtomicUsize::new(0);
    let end = seconds_from_now(seconds);
    let (first, rest) = conns.split_at_mut(1);
    let (mine, theirs) = std::thread::scope(|scope| {
        let other = scope.spawn(|| windowed(&mut rest[0], script, &next, end, DEPTH / 2));
        let mine = windowed(&mut first[0], script, &next, end, DEPTH / 2);
        (mine, other.join().expect("capacity sender panicked"))
    });
    let mut all = mine?;
    all.extend(theirs?);
    Ok(all)
}

/// `tenant_flood`: the quiet tenants' open loop on the first connection
/// while the flooding tenant pipelines windows on the second, keeping
/// about [`DEPTH`] of its jobs unfinished for as long as the open loop
/// lasts.
pub fn flood(conns: &mut [Conn], script: &Script) -> io::Result<(Vec<Sent>, Vec<Record>)> {
    let next = AtomicUsize::new(0);
    let end = seconds_from_now(script.closed_s);
    let (quiet, flooder) = conns.split_at_mut(1);
    let (quiet, flood) = std::thread::scope(|scope| {
        let flood = scope.spawn(|| windowed(&mut flooder[0], script, &next, end, DEPTH));
        let quiet = open_loop(&mut quiet[0], &script.open);
        (quiet, flood.join().expect("flood sender panicked"))
    });
    Ok((quiet?, flood?))
}

/// A submitted job and its final snapshot, as the wire reported it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Stamps and request.
    pub sent: Sent,
    /// The decoded final snapshot, or why there is none.
    pub snap: Result<Snap, String>,
}

/// Await every acknowledged job of `sent` on `conn`, pipelining awaits
/// in windows.
pub fn collect(conn: &mut Conn, sent: Vec<Sent>) -> io::Result<Vec<Record>> {
    let mut records = Vec::with_capacity(sent.len());
    for chunk in sent.chunks(AWAIT_WINDOW) {
        let mut lines = String::new();
        for s in chunk {
            if let Ok(id) = s.id {
                lines.push_str(&format!("{{\"op\":\"await\",\"id\":{id}}}\n"));
            }
        }
        conn.send(&lines)?;
        for s in chunk {
            let snap = match &s.id {
                Ok(_) => decode(&parse(&conn.recv()?)?["job"]),
                Err(refusal) => Err(refusal.clone()),
            };
            records.push(Record {
                sent: s.clone(),
                snap,
            });
        }
    }
    Ok(records)
}

/// Await an acknowledged job's final snapshot (a refused one has none).
fn finish(conn: &mut Conn, sent: Sent) -> io::Result<Record> {
    let snap = match &sent.id {
        Ok(id) => decode(&conn.await_job(*id)?),
        Err(refusal) => Err(refusal.clone()),
    };
    Ok(Record { sent, snap })
}

/// Submit `req` (as a re-quote of `prior` if it is one) and await it;
/// the client is ready from the moment of the call.
pub fn submit_and_await(conn: &mut Conn, req: Req, prior: Option<u64>) -> io::Result<Record> {
    let due = wall_clock_ns();
    let line = req.line(prior);
    let sent = wall_clock_ns();
    conn.send(&line)?;
    let ack_line = conn.recv()?;
    let sent = Sent {
        req,
        due,
        sent,
        ack: wall_clock_ns(),
        bytes: line.len(),
        id: ack_id(&ack_line),
    };
    finish(conn, sent)
}

/// Closed-loop clients, one per connection and each on its own
/// thread: a client sends `script.closed(k)` for the next unused `k`,
/// awaits it, and repeats for `seconds`. A re-quote resubmits the same
/// client's previous job.
pub fn closed_loop(conns: &mut [Conn], script: &Script, seconds: f64) -> io::Result<Vec<Record>> {
    let next = AtomicUsize::new(0);
    let end = seconds_from_now(seconds);
    let client = |conn: &mut Conn| -> io::Result<Vec<Record>> {
        let mut records: Vec<Record> = Vec::new();
        while wall_clock_ns() < end {
            let prior = records.last().and_then(|r| r.sent.id.clone().ok());
            let req = script.closed(next.fetch_add(1, Ordering::Relaxed));
            records.push(submit_and_await(conn, req, prior)?);
        }
        Ok(records)
    };
    let client = &client;
    let (first, rest) = conns.split_at_mut(1);
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .map(|conn| scope.spawn(move || client(conn)))
            .collect();
        let mut all = client(&mut first[0])?;
        for other in others {
            all.extend(other.join().expect("closed-loop client panicked")?);
        }
        Ok(all)
    })
}

/// The parts of a wire snapshot the benchmark measures and verifies.
#[derive(Debug, Clone, PartialEq)]
pub struct Snap {
    /// Job id.
    pub id: u64,
    /// Final status.
    pub status: JobStatus,
    /// Every state entered, with the daemon's stamps.
    pub history: Vec<(JobStatus, u64)>,
    /// Accepted → picked up by a worker.
    pub queue_wait_ns: u64,
    /// Worker planning time.
    pub plan_ns: u64,
    /// Worker simulation time.
    pub sim_ns: u64,
    /// Predicted cost and JCT.
    pub plan: Option<(Money, f64)>,
    /// Per-replication results.
    pub sim: Option<SimOutcome>,
}

impl Snap {
    /// When the job entered `status` (first time).
    pub fn at(&self, status: JobStatus) -> Option<u64> {
        self.history
            .iter()
            .find(|(s, _)| *s == status)
            .map(|&(_, t)| t)
    }

    /// The history walks only legal lifecycle edges from `Accepted`,
    /// with non-decreasing stamps, and ends at the reported status.
    pub fn check_history(&self) -> Result<(), String> {
        match self.history.first() {
            Some((JobStatus::Accepted, _)) => {}
            other => return Err(format!("job {}: history starts at {other:?}", self.id)),
        }
        for pair in self.history.windows(2) {
            let ((from, t0), (to, t1)) = (pair[0], pair[1]);
            if !from.can_transition_to(to) {
                return Err(format!("job {}: illegal edge {from} -> {to}", self.id));
            }
            if t1 < t0 {
                return Err(format!("job {}: time went backwards at {to}", self.id));
            }
        }
        match self.history.last() {
            Some(&(last, _)) if last == self.status => Ok(()),
            _ => Err(format!(
                "job {}: history does not end at {}",
                self.id, self.status
            )),
        }
    }
}

fn nanos(value: &Value) -> Result<Money, String> {
    value
        .as_str()
        .and_then(|s| s.parse::<i128>().ok())
        .map(Money::from_nanos)
        .ok_or_else(|| format!("bad nanodollar string {value:?}"))
}

fn number(value: &Value, what: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("snapshot {what} is not a number"))
}

fn count(value: &Value, what: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("snapshot {what} is not a count"))
}

fn array<'v>(value: &'v Value, what: &str) -> Result<&'v Vec<Value>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("snapshot {what} is not an array"))
}

fn status(value: &Value) -> Result<JobStatus, String> {
    value
        .as_str()
        .and_then(JobStatus::parse)
        .ok_or_else(|| format!("bad status {value:?}"))
}

/// Decode a wire snapshot (PROTOCOL.md's job object).
pub fn decode(job: &Value) -> Result<Snap, String> {
    let history = array(&job["history"], "history")?
        .iter()
        .map(|entry| Ok((status(&entry["status"])?, count(&entry["at_ns"], "at_ns")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let plan = match &job["plan"] {
        Value::Null => None,
        plan => Some((
            nanos(&plan["predicted_cost_nanos"])?,
            number(&plan["predicted_jct_s"], "predicted_jct_s")?,
        )),
    };
    let sim = match &job["sim"] {
        Value::Null => None,
        sim => Some(SimOutcome {
            jct_s: array(&sim["jct_s"], "jct_s")?
                .iter()
                .map(|v| number(v, "jct_s"))
                .collect::<Result<_, _>>()?,
            cost: array(&sim["cost_nanos"], "cost_nanos")?
                .iter()
                .map(nanos)
                .collect::<Result<_, _>>()?,
            events: array(&sim["events"], "events")?
                .iter()
                .map(|v| count(v, "events"))
                .collect::<Result<_, _>>()?,
        }),
    };
    let metrics = &job["metrics"];
    Ok(Snap {
        id: count(&job["id"], "id")?,
        status: status(&job["status"])?,
        history,
        queue_wait_ns: count(&metrics["queue_wait_ns"], "queue_wait_ns")?,
        plan_ns: count(&metrics["plan_ns"], "plan_ns")?,
        sim_ns: count(&metrics["sim_ns"], "sim_ns")?,
        plan,
        sim,
    })
}
