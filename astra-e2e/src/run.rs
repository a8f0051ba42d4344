//! One benchmark run: generate the traffic, set the daemon up several
//! times, drive the measured phases over loopback TCP, collect and
//! verify every snapshot, and — when traced — replay the stream layer by
//! layer.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use astra_service::{NetConfig, NetServer, ServiceConfig, ServiceDaemon};
use serde_json::json;

use crate::client::{self, Conn, Record};
use crate::gen::{Script, Workload};
use crate::metrics::{self, Measured};
use crate::stats::median;
use crate::trace::{self, Replay};
use crate::verify;

/// Worker threads, as `astra serve --listen` defaults them.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median, and the last one's
/// daemon serves the measured phases.
pub const SETUPS: usize = 3;
/// Pings timed on the idle server in a traced run.
const PINGS: usize = 1000;
/// The replay's timed requests run for this share of the measured time.
const REPLAY_SHARE: f64 = 1.0 / 3.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Also replay the stream with spans and report per-layer metrics.
    pub trace: bool,
    /// Where journals and traces are written.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (meaningful for untraced runs).
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
    /// Jobs submitted, set-up traffic included.
    pub attempted: u64,
    /// Jobs that failed, were refused or did not verify.
    pub failed: u64,
    /// What went wrong, one line per failed job.
    pub problems: Vec<String>,
    /// The measured jobs, in send order.
    pub records: Vec<Record>,
    /// The last set-up's warm-up jobs (replayed before `records`).
    pub warmup: Vec<Record>,
    /// The replay, when traced.
    pub replay: Option<Replay>,
}

/// The daemon exactly as `astra serve --listen` builds it (plus a
/// journal where the workload asks for one), behind a loopback server.
struct Daemon {
    daemon: ServiceDaemon,
    server: NetServer,
}

impl Daemon {
    fn start(journal: Option<&Path>) -> io::Result<Daemon> {
        let mut config = ServiceConfig::default().with_workers(WORKERS);
        if let Some(path) = journal {
            config = config.with_journal_path(path);
        }
        let daemon = ServiceDaemon::try_start(config)?;
        let server = NetServer::start(
            daemon.handle(),
            "127.0.0.1:0",
            NetConfig::default(),
            astra_telemetry::global(),
        )?;
        Ok(Daemon { daemon, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful shutdown: the listener first, then drain the daemon.
    fn stop(self) {
        self.server.shutdown();
        self.daemon.shutdown();
    }
}

/// Connections the workload's phases use.
fn connections(workload: Workload) -> usize {
    match workload {
        Workload::Requote => 1,
        Workload::WarmSteady | Workload::ColdDistinct | Workload::TenantFlood => 2,
    }
}

/// Start the daemon, connect, and send and await the warm-up traffic.
fn set_up(script: &Script, journal: Option<&Path>) -> io::Result<(Daemon, Vec<Conn>, Vec<Record>)> {
    let daemon = Daemon::start(journal)?;
    let mut conns = (0..connections(script.workload))
        .map(|_| Conn::connect(daemon.addr()))
        .collect::<io::Result<Vec<Conn>>>()?;
    let warmup = script
        .warmup
        .iter()
        .map(|req| client::submit_and_await(&mut conns[0], req.clone(), None))
        .collect::<io::Result<Vec<Record>>>()?;
    Ok((daemon, conns, warmup))
}

/// The measured phases on a set-up daemon; returns every timed job in
/// send order.
fn drive(script: &Script, conns: &mut [Conn]) -> io::Result<Vec<Record>> {
    let mut records = match script.workload {
        Workload::WarmSteady => {
            // The open loop drains before the capacity phase starts, so
            // no open-loop job waits behind capacity traffic.
            let open = client::open_loop(&mut conns[0], &script.open)?;
            let mut records = client::collect(&mut conns[0], open)?;
            records.extend(client::capacity(conns, script, script.closed_s)?);
            records
        }
        Workload::ColdDistinct | Workload::Requote => {
            client::closed_loop(conns, script, script.closed_s)?
        }
        Workload::TenantFlood => {
            let (quiet, flood) = client::flood(conns, script)?;
            let mut records = client::collect(&mut conns[0], quiet)?;
            records.extend(flood);
            records
        }
    };
    records.sort_by_key(|r| r.sent.sent);
    Ok(records)
}

/// The high-water resident set of this process, in MB (Linux).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart a daemon on `journal` and check it answers `status` for the
/// highest id with the snapshot the live daemon gave.
fn check_recovery(journal: &Path, last: &Record) -> Result<(), String> {
    let expected = last.snap.as_ref().map_err(Clone::clone)?;
    let daemon = Daemon::start(Some(journal)).map_err(|e| e.to_string())?;
    let answer = Conn::connect(daemon.addr())
        .and_then(|mut c| c.call(&json!({ "op": "status", "id": expected.id })))
        .map_err(|e| e.to_string());
    daemon.stop();
    let recovered = client::decode(&answer?["job"])?;
    if &recovered != expected {
        return Err(format!("job {} changed across a restart", expected.id));
    }
    Ok(())
}

/// Run one workload.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let name = opts.workload.name();
    // Set-up `n`'s journal path, cleared of any earlier file (the
    // flood's daemon journals; the others run without one).
    let fresh_journal = |n: usize| {
        let path = opts.workload.journaled().then(|| {
            opts.out_dir
                .join(format!("journal-{name}-{}-{n}.bin", std::process::id()))
        })?;
        let _ = std::fs::remove_file(&path);
        Some(path)
    };
    let script = Script::new(opts.workload, opts.seed, opts.seconds);

    // The measured daemon is the first set-up, in a process that has
    // built nothing but the reference bands, so the peak RSS is its own;
    // the other set-ups are timed afterwards and torn down at once.
    let journal = fresh_journal(0);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let started = Instant::now();
    let (daemon, mut conns, warmup) = set_up(&script, journal.as_deref())?;
    setup_s.push(started.elapsed().as_secs_f64());
    let records = drive(&script, &mut conns)?;
    let ping_us = if opts.trace {
        conns[0].ping_rtts_us(PINGS)?
    } else {
        Vec::new()
    };
    drop(conns);
    daemon.stop();
    let peak_rss_mb = peak_rss_mb();

    let mut problems = Vec::new();
    if let Some(path) = &journal {
        let last = records
            .iter()
            .max_by_key(|r| r.snap.as_ref().map_or(0, |s| s.id));
        if let Some(last) = last {
            if let Err(e) = check_recovery(path, last) {
                problems.push(format!("journal recovery: {e}"));
            }
        }
        let _ = std::fs::remove_file(path);
    }

    let mut warmups = warmup.clone();
    for setup in 1..SETUPS {
        let journal = fresh_journal(setup);
        let started = Instant::now();
        let (daemon, conns, warmup) = set_up(&script, journal.as_deref())?;
        setup_s.push(started.elapsed().as_secs_f64());
        warmups.extend(warmup);
        drop(conns);
        daemon.stop();
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
        }
    }

    problems.extend(
        verify::check(opts.workload, opts.seed, &warmups)
            .into_iter()
            .chain(verify::check(opts.workload, opts.seed, &records))
            .map(|(_, problem)| problem),
    );
    let end_to_end = metrics::end_to_end(opts.workload, median(&setup_s), peak_rss_mb, &records);

    let (per_layer, replay) = if opts.trace {
        let requests = |records: &[Record]| -> Vec<_> {
            records.iter().map(|r| r.sent.req.request.clone()).collect()
        };
        let replay = trace::replay(
            &requests(&warmup),
            &requests(&records),
            opts.seconds * REPLAY_SHARE,
            &opts
                .out_dir
                .join(format!("journal-{name}-{}-replay.bin", std::process::id())),
        )?;
        for (j, job) in replay.jobs.iter().enumerate() {
            if let Err(e) = job {
                problems.push(format!("replay job {j}: {e}"));
            }
        }
        let trace_path = opts.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(
            &trace_path,
            serde_json::to_string(&replay.tracer.chrome_json())
                .expect("JSON encoding is infallible"),
        )?;
        eprintln!("trace written to {}", trace_path.display());
        (
            metrics::per_layer(opts.workload, &records, &ping_us, &replay),
            Some(replay),
        )
    } else {
        (Vec::new(), None)
    };

    let failed = problems.len() as u64;
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted: (warmups.len() + records.len()) as u64,
        failed,
        problems,
        records,
        warmup,
        replay,
    })
}
