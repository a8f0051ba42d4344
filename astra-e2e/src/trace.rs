//! The traced replay. The run's request stream is driven again, serially
//! and in-process, through the layers' public functions in the daemon's
//! order, with a span around each call:
//!
//! 1. `wire::job_request_from_str`
//! 2. `JobRequest::validate`
//! 3. `SessionKey::for_inputs` + `SessionCache::get_or_patch`, with a
//!    child span around the `Astra::session_with_space` build
//! 4. `PlannerSession::plan` (admission), then 3–4 again (worker)
//! 5. `astra_mapreduce::compile`, then `SimBatch::run`
//! 6. `wire::snapshot_to_json` + `serde_json::to_string`
//!
//! Every job's journal records (`Journal::record_submitted` and
//! `record_transition`) are appended afterwards, each in its own span,
//! so the journal layer is measured on every workload; they count
//! toward a job's traced time only where the daemon journals.
//!
//! Spans stay in memory and are written as a Chrome trace at the end.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use astra_core::{Astra, ConfigSpace, Plan, PlannerSession};
use astra_faas::{derive_seed, SimBatch, SimConfig};
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;
use astra_service::{
    wire, CacheLookup, JobMetrics, JobRequest, JobSnapshot, JobStatus, Journal, NetConfig,
    NetServer, PlanOutcome, ServiceConfig, ServiceDaemon, SessionCache, SessionCacheStats,
    SessionKey, SimOutcome,
};
use astra_telemetry::{wall_clock_ns, Telemetry};
use serde_json::{json, Value};

use crate::client::Conn;
use crate::gen::NS;

/// Requests replayed at most.
const MAX_JOBS: usize = 2000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function name.
    pub name: &'static str,
    /// Replayed job index.
    pub job: usize,
    /// Wall-clock start (ns).
    pub start: u64,
    /// Wall-clock end (ns).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans of one replay, in start order.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span recorded.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Run `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        job: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            start: wall_clock_ns(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = wall_clock_ns();
        result
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children are sequential, so their durations add).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end - span.start;
            }
        }
        own
    }

    /// Durations (or self times) of every span called `name`, in ns.
    pub fn times(&self, name: &str, self_time: bool) -> Vec<f64> {
        let own = self_time.then(|| self.self_ns());
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| match &own {
                Some(own) => own[i] as f64,
                None => (s.end - s.start) as f64,
            })
            .collect()
    }

    /// The spans in Chrome-trace (`chrome://tracing`, Perfetto) form.
    pub fn chrome_json(&self) -> Value {
        let own = self.self_ns();
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "name": s.name,
                    "cat": "astra-e2e",
                    "ph": "X",
                    "ts": s.start as f64 / 1e3,
                    "dur": (s.end - s.start) as f64 / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span": i,
                        "parent": s.parent.map(Value::from).unwrap_or(Value::Null),
                        "job": s.job,
                        "self_us": own[i] as f64 / 1e3,
                    },
                })
            })
            .collect();
        json!({ "traceEvents": Value::Array(events) })
    }
}

/// Everything one replay measured.
#[derive(Debug)]
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    /// Each replayed job's final snapshot (or why it failed), in replay
    /// order — what the fidelity test compares with the daemon's.
    pub jobs: Vec<Result<JobSnapshot, String>>,
    /// The replay's session-cache statistics.
    pub cache: SessionCacheStats,
    /// `planner.session.memo_hits` / `memo_misses`.
    pub memo: (u64, u64),
    /// `edges_stored` of every session built or patched.
    pub dag_edges: Vec<usize>,
    /// Journal file size after every job was appended.
    pub journal_bytes: u64,
    /// Seconds `Journal::open` took to replay the journal.
    pub journal_replay_s: f64,
    /// Seconds from a daemon restart on the journal until `status`
    /// answered for the highest id over TCP.
    pub recovery_s: f64,
}

struct Layers {
    astra: Astra,
    platform: Platform,
    catalog: PriceCatalog,
    cache: SessionCache,
    dag_edges: Vec<usize>,
}

impl Layers {
    /// `SessionKey::for_inputs` + `SessionCache::get_or_patch`, with the
    /// cold build as a child span (the daemon's `session_cached`).
    fn lookup(&mut self, tr: &mut Tracer, job_index: usize, job: &JobSpec) -> Arc<PlannerSession> {
        let (session, outcome) = tr.scope("cache.lookup", job_index, |tr| {
            let space = ConfigSpace::full(job, &self.platform);
            let key = SessionKey::for_inputs(
                job,
                &space,
                &self.platform,
                &self.catalog,
                self.astra.strategy(),
                self.astra.prune_config(),
            );
            let astra = &self.astra;
            self.cache.get_or_patch(
                key,
                job,
                &space,
                &self.platform,
                &self.catalog,
                astra.strategy(),
                astra.prune_config(),
                || {
                    tr.scope("core.session_build", job_index, |_| {
                        astra.session_with_space(job, &space)
                    })
                },
            )
        });
        if outcome != CacheLookup::Hit {
            self.dag_edges.push(session.dag().soa().edges_stored());
        }
        session
    }

    fn plan(&mut self, tr: &mut Tracer, j: usize, request: &JobRequest) -> Result<Plan, String> {
        let session = self.lookup(tr, j, &request.job);
        tr.scope("solver.plan", j, |_| session.plan(request.objective))
            .map_err(|e| e.to_string())
    }

    /// One job through the daemon's path; `body` is the request JSON as
    /// it arrives on the wire.
    fn job(&mut self, tr: &mut Tracer, j: usize, body: &str) -> Result<JobSnapshot, String> {
        let request = tr
            .scope("wire.decode", j, |_| wire::job_request_from_str(body))
            .map_err(|e| e.to_string())?;
        let accepted = wall_clock_ns();
        tr.scope("daemon.admit", j, |tr| {
            tr.scope("request.validate", j, |_| request.validate())?;
            self.plan(tr, j, &request)
        })?;
        let picked_up = wall_clock_ns();
        let plan = tr.scope("worker.plan", j, |tr| {
            let plan = self.plan(tr, j, &request)?;
            let outcome = PlanOutcome {
                spec: plan.spec.clone(),
                predicted_jct_s: plan.predicted_jct_s(),
                predicted_cost: plan.predicted_cost(),
                summary: plan.summary(),
            };
            Ok::<_, String>((plan, outcome))
        })?;
        let planned = wall_clock_ns();
        let mut history = vec![
            (JobStatus::Accepted, accepted),
            (JobStatus::Planned, planned),
        ];
        let replications = request.sim.replications as u64;
        let sim = if replications == 0 {
            None
        } else {
            history.push((JobStatus::Simulating, wall_clock_ns()));
            let compiled = tr.scope("sim.compile", j, |_| {
                astra_mapreduce::compile(&request.job, &plan.0)
            });
            let reports = tr.scope("sim.run", j, |_| {
                let mut batch = SimBatch::with_capacity(replications as usize);
                for rep in 0..replications {
                    let config = SimConfig::deterministic(self.platform.clone())
                        .with_catalog(self.catalog)
                        .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep))
                        .with_telemetry(Telemetry::disabled());
                    batch.push(config, compiled.roots.clone(), compiled.inputs.clone());
                }
                batch.run()
            });
            let mut sim = SimOutcome::default();
            for report in reports {
                let report = report.map_err(|e| format!("simulation failed: {e}"))?;
                sim.jct_s.push(report.jct_s());
                sim.cost.push(report.total_cost());
                sim.events.push(report.events);
            }
            Some(sim)
        };
        let done = wall_clock_ns();
        history.push((JobStatus::Done, done));
        let snapshot = JobSnapshot {
            id: j as u64 + 1,
            request,
            status: JobStatus::Done,
            history,
            reason: None,
            plan: Some(plan.1),
            sim,
            metrics: JobMetrics {
                queue_wait_ns: picked_up - accepted,
                plan_ns: planned - picked_up,
                sim_ns: done - planned,
                total_ns: done - accepted,
            },
            session_cache_hit: false,
            retry_after_ms: None,
        };
        tr.scope("wire.encode", j, |_| {
            serde_json::to_string(&wire::snapshot_to_json(&snapshot))
        })
        .map_err(|e| e.to_string())?;
        Ok(snapshot)
    }
}

/// Replay the `warmup` requests, then the `timed` ones until `cap_s` has
/// passed (at least one, at most [`MAX_JOBS`] requests in all); then
/// journal every finished job to `journal_path`, time the journal's
/// replay, and time a daemon restart on it.
pub fn replay(
    warmup: &[JobRequest],
    timed: &[JobRequest],
    cap_s: f64,
    journal_path: &Path,
) -> io::Result<Replay> {
    let config = ServiceConfig::default();
    let (telemetry, recorder) = astra_telemetry::sinks::in_memory();
    let mut layers = Layers {
        astra: Astra::new(config.platform.clone(), config.catalog, config.strategy)
            .with_prune_config(config.prune)
            .with_telemetry(telemetry),
        platform: config.platform.clone(),
        catalog: config.catalog,
        cache: SessionCache::new(config.cache_capacity, Telemetry::disabled()),
        dag_edges: Vec::new(),
    };
    let mut tracer = Tracer::default();
    let mut jobs = Vec::new();
    let mut deadline = u64::MAX;
    for (j, request) in warmup.iter().chain(timed).take(MAX_JOBS).enumerate() {
        if j == warmup.len() {
            deadline = wall_clock_ns() + (cap_s * NS) as u64;
        } else if wall_clock_ns() > deadline {
            break;
        }
        let body = serde_json::to_string(&wire::job_request_to_json(request))
            .expect("JSON encoding is infallible");
        jobs.push(tracer.scope("job", j, |tr| layers.job(tr, j, &body)));
    }

    let _ = std::fs::remove_file(journal_path);
    let (journal, _) = Journal::open(journal_path, Telemetry::disabled())?;
    for (j, snap) in jobs.iter().enumerate() {
        let Ok(snap) = snap else {
            continue;
        };
        tracer.scope("journal.append", j, |_| {
            journal.record_submitted(snap.id, &snap.request, snap.history[0].1)
        });
        for entries in 2..=snap.history.len() {
            let mut partial = snap.clone();
            partial.history.truncate(entries);
            partial.status = partial.history[entries - 1].0;
            tracer.scope("journal.append", j, |_| journal.record_transition(&partial));
        }
    }
    drop(journal);
    let journal_bytes = std::fs::metadata(journal_path)?.len();

    let started = Instant::now();
    let (journal, recovered) = Journal::open(journal_path, Telemetry::disabled())?;
    let journal_replay_s = started.elapsed().as_secs_f64();
    drop(journal);
    let max_id = recovered.max_id().unwrap_or(0);

    let started = Instant::now();
    let daemon = ServiceDaemon::try_start(
        ServiceConfig::default()
            .with_workers(crate::run::WORKERS)
            .with_journal_path(journal_path),
    )?;
    let server = NetServer::start(
        daemon.handle(),
        "127.0.0.1:0",
        NetConfig::default(),
        Telemetry::disabled(),
    )?;
    let answer =
        Conn::connect(server.local_addr())?.call(&json!({ "op": "status", "id": max_id }))?;
    let recovery_s = started.elapsed().as_secs_f64();
    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_file(journal_path);
    if answer["job"]["status"].as_str() != Some("DONE") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("restarted daemon lost job {max_id}: {answer:?}"),
        ));
    }

    Ok(Replay {
        tracer,
        jobs,
        cache: layers.cache.stats(),
        memo: (
            recorder.counter_value("planner.session.memo_hits"),
            recorder.counter_value("planner.session.memo_misses"),
        ),
        dag_edges: layers.dag_edges,
        journal_bytes,
        journal_replay_s,
        recovery_s,
    })
}
