//! The daemon: a worker pool over the scheduler, the job table, and
//! the synchronous client handle.
//!
//! ## Submission path
//!
//! [`ServiceHandle::submit`] never fails — every outcome is a job id
//! whose snapshot tells the story. The submitter thread validates the
//! request, plans it once through the shared session cache (the
//! *admission plan*, whose predicted cost becomes the job's envelope
//! claim) and enqueues it; anything that goes wrong — invalid spec,
//! infeasible objective, claim larger than the whole envelope, full
//! queue, shutdown — lands the job in `Rejected` with a reason. The
//! admission plan is the job's plan: it rides in the job's queue
//! entry to the worker, and a refused job's plan is dropped with the
//! refusal. [`FaultSite::CacheBuild`] fires here, at admission.
//!
//! ## Worker path
//!
//! Workers block in [`crate::scheduler::Scheduler::next`], which hands
//! them the job with its admission plan, and drive the job
//! `Accepted → Planned → Simulating → Done` (skipping `Simulating` for
//! plan-only requests) without touching the session cache again.
//!
//! The job is the unit of parallelism: a job's session build and its
//! replications run on the worker's own thread, and the pool (one
//! worker per core by default) runs jobs side by side. Replications run
//! with [`SimBatch::run_serial`], so they reuse the worker thread's
//! parked simulator arena; results are bit-identical to
//! [`SimBatch::run`] at any thread count, and with the scheduler's FIFO
//! dispatch this yields the service determinism contract (crate docs).
//!
//! A worker panic is caught per job and recorded as `Failed` with the
//! captured panic payload as its reason (plus a
//! `service.worker.panics` count) — the claim is always released, so
//! one poisoned job cannot wedge the envelope.
//!
//! ## Crash safety
//!
//! With [`ServiceConfig::with_journal_path`] every lifecycle transition
//! is appended to a durable [`crate::journal::Journal`] before the
//! daemon acknowledges it. A daemon restarted on the same path replays
//! the log: jobs that reached a terminal state are restored verbatim
//! (their ids keep answering `status`/`await`), and jobs caught
//! mid-flight are re-admitted under their original ids — safe because
//! results are deterministic, so the re-run is bit-identical to what
//! the dead daemon would have produced. `tests/service_chaos.rs`
//! proves the invariant under injected crashes
//! ([`crate::faults::FaultPlan`], threaded here via
//! [`ServiceConfig::with_faults`]): same terminal set, bit-identical
//! results, no leaked claims.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use astra_core::{Astra, ConfigSpace, Plan, PruneConfig, Strategy};
use astra_faas::{derive_seed, SimBatch, SimConfig};
use astra_model::{JobSpec, Platform, WorkloadProfile};
use astra_pricing::PriceCatalog;
use astra_telemetry::{wall_clock_ns, Telemetry};

use crate::admission::Envelope;
use crate::cache::{CacheLookup, SessionCache, SessionCacheStats, SessionKey};
use crate::fairness::{FairnessConfig, TenantStats};
use crate::faults::{FaultAction, FaultPlan, FaultSite};
use crate::journal::Journal;
use crate::scheduler::{OverloadConfig, Scheduler, SubmitError};
use crate::types::{
    FrontierPoint, JobId, JobRequest, JobSnapshot, JobStatus, PlanOutcome, SimOutcome,
};
use crate::wire;

/// The panic payload a [`FaultAction::Crash`] throws: the worker loop
/// recognizes it and dies *without* failing the job or releasing its
/// claim, modeling a process that vanished mid-job. Everything a real
/// crash would leak, this leaks — recovery is the journal's problem.
struct CrashSignal;

/// Human-readable panic payload (panics carry `String` or `&str`;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Everything a daemon is configured with. The planner quadruple
/// (platform, catalog, strategy, prune) is fixed per daemon — it is
/// part of every session-cache key, and keeping it daemon-wide is what
/// lets jobs share sessions at all.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads driving job lifecycles; defaults to the number of
    /// cores, since each job runs on one thread.
    pub workers: usize,
    /// Bounded submission-queue length; submissions beyond it are
    /// rejected (never silently dropped).
    pub queue_capacity: usize,
    /// Maximum resident [`crate::cache::SessionCache`] sessions.
    pub cache_capacity: usize,
    /// Shared concurrency/budget envelope (see [`crate::admission`]).
    pub envelope: Envelope,
    /// Multi-tenant fairness: DRR quantum and per-tenant envelopes
    /// (see [`crate::fairness`]).
    pub fairness: FairnessConfig,
    /// Platform every job is planned and simulated against.
    pub platform: Platform,
    /// Price catalog in effect.
    pub catalog: PriceCatalog,
    /// Solver strategy.
    pub strategy: Strategy,
    /// Dominance-pruning configuration.
    pub prune: PruneConfig,
    /// Telemetry handle; defaults to a snapshot of the process-global
    /// one, so a binary that installed a recorder gets `service.*`
    /// spans and counters with no extra plumbing.
    pub telemetry: Telemetry,
    /// Durable journal path; `None` (the default) runs without crash
    /// safety. See the module docs' crash-safety section.
    pub journal_path: Option<PathBuf>,
    /// Fault-injection plan; defaults to disabled (production).
    pub faults: FaultPlan,
    /// Overload-shedding thresholds; defaults to disabled.
    pub overload: OverloadConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 1024,
            cache_capacity: 32,
            envelope: Envelope::unbounded(),
            fairness: FairnessConfig::default(),
            platform: Platform::aws_lambda(),
            catalog: PriceCatalog::aws_2020(),
            strategy: Strategy::default(),
            prune: PruneConfig::default(),
            telemetry: astra_telemetry::global(),
            journal_path: None,
            faults: FaultPlan::disabled(),
            overload: OverloadConfig::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Override the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Override the admission envelope.
    pub fn with_envelope(mut self, envelope: Envelope) -> Self {
        self.envelope = envelope;
        self
    }

    /// Override the fairness configuration.
    pub fn with_fairness(mut self, fairness: FairnessConfig) -> Self {
        self.fairness = fairness;
        self
    }

    /// Override the telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Persist every lifecycle transition to a journal at `path` and
    /// replay it on startup (see module docs).
    pub fn with_journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Inject deterministic faults (chaos testing only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the overload-shedding thresholds.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }
}

struct JobTable {
    next_id: JobId,
    /// Boxed, so a table resize moves pointers rather than whole
    /// snapshots, and the old and new slot arrays stay small.
    jobs: HashMap<JobId, Box<JobSnapshot>>,
}

struct Inner {
    astra: Astra,
    /// Queued jobs, each carrying its admission plan to the worker.
    scheduler: Scheduler<Plan>,
    cache: SessionCache,
    telemetry: Telemetry,
    table: Mutex<JobTable>,
    job_changed: Condvar,
    journal: Option<Journal>,
    faults: FaultPlan,
    /// Set when an injected [`FaultAction::Crash`] fires — the daemon
    /// is then simulating a dead process and only a journal-replaying
    /// restart makes progress.
    crashed: AtomicBool,
}

impl Inner {
    /// Insert a fresh `Accepted` record under `id` (journaled).
    fn insert_accepted(&self, table: &mut JobTable, id: JobId, request: JobRequest) {
        let snap = JobSnapshot {
            id,
            request,
            status: JobStatus::Accepted,
            history: vec![(JobStatus::Accepted, wall_clock_ns())],
            reason: None,
            plan: None,
            sim: None,
            metrics: Default::default(),
            session_cache_hit: false,
            retry_after_ms: None,
        };
        if let Some(journal) = &self.journal {
            journal.record_submitted(id, &snap.request, snap.history[0].1);
        }
        table.jobs.insert(id, Box::new(snap));
    }

    /// Insert a fresh `Accepted` record and return its id.
    fn register(&self, request: JobRequest) -> JobId {
        let mut table = self.table.lock().unwrap();
        table.next_id += 1;
        let id = table.next_id;
        self.insert_accepted(&mut table, id, request);
        id
    }

    /// Take a lifecycle edge, asserting it is legal, stamping the
    /// history, and waking `await_done` waiters on terminal states.
    /// Journaled before the lock drops, so the log's transition order
    /// matches the table's.
    fn transition(&self, id: JobId, to: JobStatus, mutate: impl FnOnce(&mut JobSnapshot)) {
        let mut table = self.table.lock().unwrap();
        let snap = table.jobs.get_mut(&id).expect("transition on unknown job");
        assert!(
            snap.status.can_transition_to(to),
            "illegal lifecycle edge {} -> {to} (job {id})",
            snap.status
        );
        let now = wall_clock_ns();
        snap.status = to;
        snap.history.push((to, now));
        mutate(snap);
        if to.is_terminal() {
            snap.metrics.total_ns = now.saturating_sub(snap.history[0].1);
        }
        if let Some(journal) = &self.journal {
            journal.record_transition(snap);
        }
        if to.is_terminal() {
            self.job_changed.notify_all();
        }
    }

    /// Evaluate the fault plan at a worker lifecycle site. `Ok` means
    /// no fault; `Err` is a synthetic failure reason; `Panic`/`Crash`
    /// actions do not return.
    fn inject(&self, site: FaultSite, id: JobId) -> Result<(), String> {
        match self.faults.decide(site, id) {
            None => Ok(()),
            Some(action) => {
                self.telemetry.counter("service.faults.injected", 1);
                match action {
                    FaultAction::Error => Err(format!("injected fault: {site} error (job {id})")),
                    FaultAction::Panic => {
                        panic!("injected fault: {site} panic (job {id})")
                    }
                    FaultAction::Crash => {
                        self.telemetry.counter("service.faults.crashes", 1);
                        self.crashed.store(true, Ordering::SeqCst);
                        // Freeze the queue and held claims in place —
                        // nothing of this "process" survives but the
                        // journal.
                        self.scheduler.halt();
                        self.job_changed.notify_all();
                        std::panic::panic_any(CrashSignal)
                    }
                }
            }
        }
    }

    fn reject(&self, id: JobId, reason: String) {
        self.telemetry.counter("service.rejected", 1);
        self.transition(id, JobStatus::Rejected, |snap| snap.reason = Some(reason));
    }

    /// Record a post-admission failure, from whatever non-terminal
    /// state the job is in.
    fn fail(&self, id: JobId, reason: String) {
        let already_terminal = {
            let table = self.table.lock().unwrap();
            table.jobs.get(&id).map(|s| s.is_terminal()).unwrap_or(true)
        };
        if already_terminal {
            return;
        }
        self.telemetry.counter("service.failed", 1);
        self.transition(id, JobStatus::Failed, |snap| snap.reason = Some(reason));
    }

    /// Fetch or create the session for `job` through the shared cache:
    /// a resident session for the same model inputs (a renamed spec
    /// included) is a hit, anything else one cold build (see
    /// [`SessionCache::get_or_patch`]).
    fn session_cached(&self, job: &JobSpec) -> (Arc<astra_core::PlannerSession>, CacheLookup) {
        let (platform, catalog) = (self.astra.platform(), self.astra.catalog());
        let (strategy, prune) = (self.astra.strategy(), self.astra.prune_config());
        let space = ConfigSpace::full(job, platform);
        let key = SessionKey::for_inputs(job, &space, platform, catalog, strategy, prune);
        self.cache
            .get_or_patch(key, job, &space, platform, catalog, strategy, prune, || {
                self.astra.session_with_space(job, &space)
            })
    }

    /// The admission plan: `job` planned through the shared session
    /// cache, and whether the cache hit.
    fn plan_cached(&self, id: JobId, request: &JobRequest) -> (Result<Plan, String>, bool) {
        if self.faults.fires(FaultSite::CacheBuild, id) {
            self.telemetry.counter("service.faults.injected", 1);
            let reason = format!(
                "injected fault: {} failure (job {id})",
                FaultSite::CacheBuild
            );
            return (Err(reason), false);
        }
        let (session, lookup) = self.session_cached(&request.job);
        (
            session.plan(request.objective).map_err(|e| e.to_string()),
            lookup == CacheLookup::Hit,
        )
    }

    /// The whole per-job worker path up to (not including) the `Done`
    /// transition, which [`Inner::finish`] takes once the worker has
    /// released the job's claim. `Ok` carries the simulation outcome and
    /// its wall time (`None` when no replication was asked for); `Err`
    /// is a failure reason.
    fn run_job(&self, id: JobId, plan: &Plan) -> Result<Option<(SimOutcome, u64)>, String> {
        let (request, accepted_ns) = {
            let table = self.table.lock().unwrap();
            let snap = table.jobs.get(&id).expect("dispatched unknown job");
            (snap.request.clone(), snap.history[0].1)
        };
        let _span = self
            .telemetry
            .wall_span("service", "service.job", "service");
        let picked_up = wall_clock_ns();

        self.inject(FaultSite::WorkerPlan, id)?;
        let outcome = PlanOutcome {
            spec: plan.spec.clone(),
            predicted_jct_s: plan.predicted_jct_s(),
            predicted_cost: plan.predicted_cost(),
            summary: plan.summary(),
        };
        self.telemetry.counter("service.planned", 1);
        self.transition(id, JobStatus::Planned, |snap| {
            snap.plan = Some(outcome);
            snap.metrics.queue_wait_ns = picked_up.saturating_sub(accepted_ns);
        });

        if request.sim.replications == 0 {
            self.inject(FaultSite::WorkerFinish, id)?;
            return Ok(None);
        }

        self.inject(FaultSite::WorkerSim, id)?;
        self.transition(id, JobStatus::Simulating, |_| {});
        let sim_started = wall_clock_ns();
        let compiled = astra_mapreduce::compile(&request.job, plan);
        let mut batch = SimBatch::with_capacity(request.sim.replications as usize);
        for rep in 0..request.sim.replications as u64 {
            let config = SimConfig::deterministic(self.astra.platform().clone())
                .with_catalog(*self.astra.catalog())
                .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep))
                .with_telemetry(self.telemetry.clone());
            batch.push(config, compiled.roots.clone(), compiled.inputs.clone());
        }
        let mut sim = SimOutcome::default();
        for report in batch.run_serial() {
            let report = report.map_err(|e| format!("simulation failed: {e}"))?;
            sim.jct_s.push(report.jct_s());
            sim.cost.push(report.total_cost());
            sim.events.push(report.events);
        }
        let sim_ns = wall_clock_ns().saturating_sub(sim_started);
        self.inject(FaultSite::WorkerFinish, id)?;
        Ok(Some((sim, sim_ns)))
    }

    /// Publish a finished job's `Done` snapshot.
    fn finish(&self, id: JobId, sim: Option<(SimOutcome, u64)>) {
        self.telemetry.counter("service.completed", 1);
        self.transition(id, JobStatus::Done, |snap| {
            if let Some((sim, sim_ns)) = sim {
                snap.sim = Some(sim);
                snap.metrics.sim_ns = sim_ns;
            }
        });
    }

    /// The admission path a registered `Accepted` job takes to the
    /// queue: validate, admission-plan through the session cache, then
    /// enqueue the job with its plan under the scheduler's
    /// envelope/overload policy. Every refusal lands the job in
    /// `Rejected` with a reason and drops its plan; shed refusals also
    /// stamp `retry_after_ms`. Shared by live submission
    /// ([`ServiceHandle::submit`]) and startup recovery, so a replayed
    /// job is re-admitted by exactly the rules a fresh one faces.
    fn admit(&self, id: JobId, request: &JobRequest) {
        if let Err(reason) = request.validate() {
            self.reject(id, reason);
            return;
        }
        // The model layer asserts on inputs validate() vouched for; a
        // panic past this point is a validation gap, answered as a
        // rejection rather than a dead submitter thread.
        let started = wall_clock_ns();
        let admission =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.plan_cached(id, request)));
        let plan_ns = wall_clock_ns().saturating_sub(started);
        let (planned, hit) = match admission {
            Ok(result) => result,
            Err(payload) => {
                self.telemetry.counter("service.worker.panics", 1);
                self.reject(
                    id,
                    format!(
                        "request failed admission planning: {}",
                        panic_message(payload.as_ref())
                    ),
                );
                return;
            }
        };
        {
            let mut table = self.table.lock().unwrap();
            if let Some(snap) = table.jobs.get_mut(&id) {
                snap.session_cache_hit = hit;
                snap.metrics.plan_ns = plan_ns;
            }
        }
        let plan = match planned {
            Ok(plan) => plan,
            Err(reason) => {
                self.reject(id, reason);
                return;
            }
        };
        match self.scheduler.submit(
            id,
            &request.tenant,
            plan.predicted_cost(),
            request.carries_deadline(),
            plan,
        ) {
            Ok(()) => {}
            Err(SubmitError::Refused(reason)) => self.reject(id, reason),
            Err(SubmitError::Overloaded {
                reason,
                retry_after_ms,
            }) => {
                self.telemetry.counter("service.rejected", 1);
                self.transition(id, JobStatus::Rejected, |snap| {
                    snap.reason = Some(reason);
                    snap.retry_after_ms = Some(retry_after_ms);
                });
            }
        }
    }

    fn jobs_sorted(&self) -> Vec<JobSnapshot> {
        let table = self.table.lock().unwrap();
        let mut jobs: Vec<JobSnapshot> = table.jobs.values().map(|s| (**s).clone()).collect();
        jobs.sort_by_key(|s| s.id);
        jobs
    }
}

fn worker_loop(inner: Arc<Inner>) {
    while let Some(queued) = inner.scheduler.next() {
        let run = || inner.run_job(queued.id, &queued.payload);
        let result = std::panic::catch_unwind(AssertUnwindSafe(run));
        if let Err(payload) = &result {
            if payload.is::<CrashSignal>() {
                // Simulated process death: the job stays non-terminal
                // and the claim stays held, exactly as a kill -9 would
                // leave them. The journal is the only way back.
                return;
            }
        }
        // Unconditionally (short of a crash), and before the terminal
        // snapshot is published: a client that saw its job finish must
        // never still see the job's claim held.
        inner.scheduler.complete(&queued);
        match result {
            Ok(Ok(sim)) => inner.finish(queued.id, sim),
            Ok(Err(reason)) => inner.fail(queued.id, reason),
            Err(payload) => {
                inner.telemetry.counter("service.worker.panics", 1);
                inner.fail(
                    queued.id,
                    format!("worker panicked: {}", panic_message(payload.as_ref())),
                );
            }
        }
    }
}

/// The running daemon: owns the worker threads. Dropping it (or calling
/// [`ServiceDaemon::shutdown`]) closes the queue, drains queued jobs
/// and joins the pool.
pub struct ServiceDaemon {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceDaemon {
    /// Start a daemon: spin up the worker pool against a fresh queue,
    /// job table and session cache.
    ///
    /// # Panics
    /// If `config.workers` is 0 — a poolless daemon would accept jobs
    /// and never run them — or if the configured journal cannot be
    /// opened ([`ServiceDaemon::try_start`] surfaces that as an error
    /// instead).
    pub fn start(config: ServiceConfig) -> ServiceDaemon {
        ServiceDaemon::try_start(config).expect("open service journal")
    }

    /// [`ServiceDaemon::start`], with journal I/O errors surfaced.
    /// When the config names a journal path, the existing log is
    /// replayed before any worker starts: terminal jobs are restored
    /// verbatim, mid-flight jobs are re-admitted under their original
    /// ids, and fresh submissions continue the recovered id sequence.
    pub fn try_start(config: ServiceConfig) -> std::io::Result<ServiceDaemon> {
        assert!(config.workers > 0, "a daemon needs at least one worker");
        let (journal, recovery) = match &config.journal_path {
            None => (None, None),
            Some(path) => {
                let (journal, recovery) = Journal::open(path, config.telemetry.clone())?;
                (Some(journal), Some(recovery))
            }
        };
        let astra = Astra::new(config.platform.clone(), config.catalog, config.strategy)
            .with_prune_config(config.prune)
            .with_telemetry(config.telemetry.clone());
        let inner = Arc::new(Inner {
            astra,
            scheduler: Scheduler::new(
                config.queue_capacity,
                config.envelope,
                config.fairness,
                config.overload,
                config.telemetry.clone(),
            ),
            cache: SessionCache::new(config.cache_capacity, config.telemetry.clone()),
            telemetry: config.telemetry,
            table: Mutex::new(JobTable {
                next_id: 0,
                jobs: HashMap::new(),
            }),
            job_changed: Condvar::new(),
            journal,
            faults: config.faults,
            crashed: AtomicBool::new(false),
        });
        if let Some(recovery) = recovery {
            // Before any worker runs: restore terminal snapshots
            // verbatim, then re-admit mid-flight jobs under their
            // original ids through the normal admission path.
            {
                let mut table = inner.table.lock().unwrap();
                table.next_id = recovery.max_id().unwrap_or(0);
                for job in &recovery.jobs {
                    if let Some(snapshot) = &job.terminal {
                        table.jobs.insert(job.id, Box::new(snapshot.clone()));
                    }
                }
            }
            for job in recovery.in_flight() {
                {
                    let mut table = inner.table.lock().unwrap();
                    inner.insert_accepted(&mut table, job.id, job.request.clone());
                }
                inner.admit(job.id, &job.request);
            }
        }
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("astra-service-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(ServiceDaemon { inner, workers })
    }

    /// A clonable client handle onto this daemon.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// True once an injected [`FaultAction::Crash`] fired — the daemon
    /// is simulating a dead process (queue frozen, claims held); only
    /// [`ServiceDaemon::abandon`] and a journal-replaying restart make
    /// progress.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Tear down *without* draining: halt the scheduler where it
    /// stands (queued jobs stay queued, held claims stay held) and
    /// join the workers. This is how a chaos test disposes of a
    /// "crashed" daemon before restarting from its journal — the live
    /// path is [`ServiceDaemon::shutdown`].
    pub fn abandon(mut self) {
        self.inner.scheduler.halt();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stop accepting submissions, drain every queued job to a terminal
    /// state and join the workers. The job table outlives the daemon:
    /// handles keep answering [`ServiceHandle::status`] and
    /// [`ServiceHandle::jobs`] for every id afterwards.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.inner.scheduler.close();
        for handle in self.workers.drain(..) {
            // Worker panics are caught per job; a join error here means
            // the loop itself died, and shutdown should still proceed.
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceDaemon {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Synchronous client handle: submit jobs, poll status, block on
/// completion, ask frontier questions. Clone freely — handles share the
/// daemon.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl ServiceHandle {
    /// Submit a job. Infallible by design: the returned id's snapshot
    /// carries the outcome, with every refusal an explicit `Rejected`
    /// reason. The admission plan runs on the submitter thread, through
    /// the shared session cache.
    pub fn submit(&self, request: JobRequest) -> JobId {
        let _span = self
            .inner
            .telemetry
            .wall_span("service", "service.submit", "service");
        self.inner.telemetry.counter("service.submitted", 1);
        let id = self.inner.register(request.clone());
        self.inner.admit(id, &request);
        id
    }

    /// Register a `Rejected` job carrying `reason`, without ever
    /// touching the queue — the service's answer to a request that
    /// could not even be parsed (framing errors, malformed JSON). The
    /// snapshot's request field holds a placeholder; the id is real and
    /// pollable like any other.
    pub fn reject_submission(&self, reason: String) -> JobId {
        self.inner.telemetry.counter("service.submitted", 1);
        let placeholder = JobRequest::new(
            "<unparsed>",
            JobSpec::uniform("<unparsed>", 1, 1.0, WorkloadProfile::uniform_test()),
            astra_core::Objective::cheapest(),
        );
        let id = self.inner.register(placeholder);
        self.inner.reject(id, reason);
        id
    }

    /// Parse a JSON request body and submit it. Parse and validation
    /// failures still get a job id whose snapshot is `Rejected` with
    /// the wire error as reason (the request field holds a placeholder).
    pub fn submit_json(&self, body: &str) -> JobId {
        match wire::job_request_from_str(body) {
            Ok(request) => self.submit(request),
            Err(e) => self.reject_submission(e.to_string()),
        }
    }

    /// Resubmit a prior job, optionally with a revised request — the
    /// interactive re-quote path. Returns `None` when `prior` was never
    /// issued by this daemon; otherwise the new job id. The new job is
    /// an ordinary submission: its session is one cache lookup, which
    /// hits when the spec's model inputs are unchanged (a verbatim
    /// replay, or a rename) and otherwise builds one session cold.
    /// When `revised` is `None` the prior request is replayed verbatim.
    pub fn resubmit(&self, prior: JobId, revised: Option<JobRequest>) -> Option<JobId> {
        let prior_request = {
            let table = self.inner.table.lock().unwrap();
            table.jobs.get(&prior)?.request.clone()
        };
        self.inner.telemetry.counter("service.resubmitted", 1);
        Some(self.submit(revised.unwrap_or(prior_request)))
    }

    /// A point-in-time copy of one job's record.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        let table = self.inner.table.lock().unwrap();
        table.jobs.get(&id).map(|s| (**s).clone())
    }

    /// Block until the job reaches a terminal state; returns its final
    /// snapshot (`None` for an unknown id).
    pub fn await_done(&self, id: JobId) -> Option<JobSnapshot> {
        let mut table = self.inner.table.lock().unwrap();
        loop {
            match table.jobs.get(&id) {
                None => return None,
                Some(snap) if snap.is_terminal() => return Some((**snap).clone()),
                Some(_) => table = self.inner.job_changed.wait(table).unwrap(),
            }
        }
    }

    /// Walk the cost–performance Pareto frontier for a job spec,
    /// through the shared session cache (so a frontier question about a
    /// job the daemon has planned costs label searches only).
    pub fn frontier(&self, job: &JobSpec, points: usize) -> Result<Vec<FrontierPoint>, String> {
        let _span = self
            .inner
            .telemetry
            .wall_span("service", "service.frontier", "service");
        let (session, _) = self.inner.session_cached(job);
        session
            .pareto_frontier(points)
            .map(|plans| {
                plans
                    .iter()
                    .map(|p| FrontierPoint {
                        cost: p.predicted_cost(),
                        jct_s: p.predicted_jct_s(),
                        summary: p.summary(),
                    })
                    .collect()
            })
            .map_err(|e| e.to_string())
    }

    /// All job records so far, in id order.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        self.inner.jobs_sorted()
    }

    /// Session-cache statistics (hits / misses / evictions /
    /// residency).
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.inner.cache.stats()
    }

    /// Jobs waiting in the submission queue right now.
    pub fn queue_len(&self) -> usize {
        self.inner.scheduler.queue_len()
    }

    /// Jobs currently holding envelope admission.
    pub fn in_flight(&self) -> usize {
        self.inner.scheduler.in_flight()
    }

    /// The admission envelope in force.
    pub fn envelope(&self) -> Envelope {
        self.inner.scheduler.envelope()
    }

    /// Occupancy of one tenant's lane (`None` if the tenant has never
    /// had a job queued).
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.inner.scheduler.tenant_stats(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Objective;

    fn request(n: usize) -> JobRequest {
        JobRequest::new(
            format!("daemon-{n}"),
            JobSpec::uniform(
                format!("daemon-{n}"),
                n,
                1.0,
                WorkloadProfile::uniform_test(),
            ),
            Objective::min_time_with_budget_dollars(5.0),
        )
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            platform: Platform::paper_literal(10.0),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn a_job_runs_to_done() {
        let daemon = ServiceDaemon::start(small_config());
        let handle = daemon.handle();
        let id = handle.submit(request(4));
        let snap = handle.await_done(id).unwrap();
        assert_eq!(snap.status, JobStatus::Done);
        snap.check_history().unwrap();
        assert!(snap.plan.is_some());
        let sim = snap.sim.as_ref().unwrap();
        assert_eq!(sim.jct_s.len(), 1);
        assert!(sim.jct_s[0] > 0.0);
        assert!(snap.metrics.total_ns > 0);
    }

    #[test]
    fn plan_only_requests_skip_simulating() {
        let daemon = ServiceDaemon::start(small_config());
        let handle = daemon.handle();
        let id = handle.submit(request(4).with_sim(crate::types::SimOptions {
            replications: 0,
            ..Default::default()
        }));
        let snap = handle.await_done(id).unwrap();
        assert_eq!(snap.status, JobStatus::Done);
        assert!(snap.sim.is_none());
        assert!(!snap
            .history
            .iter()
            .any(|&(s, _)| s == JobStatus::Simulating));
        snap.check_history().unwrap();
    }

    #[test]
    fn invalid_and_infeasible_requests_are_rejected_with_reasons() {
        let daemon = ServiceDaemon::start(small_config());
        let handle = daemon.handle();

        let mut bad = request(4);
        bad.job.object_sizes_mb[0] = -3.0;
        let id = handle.submit(bad);
        let snap = handle.await_done(id).unwrap();
        assert_eq!(snap.status, JobStatus::Rejected);
        assert!(snap.reason.as_ref().unwrap().contains("invalid size"));
        snap.check_history().unwrap();

        let mut hopeless = request(4);
        hopeless.objective = Objective::MinimizeTime {
            budget: astra_pricing::Money::from_nanos(1),
        };
        let id = handle.submit(hopeless);
        let snap = handle.await_done(id).unwrap();
        assert_eq!(snap.status, JobStatus::Rejected);
        assert!(snap.reason.as_ref().unwrap().contains("no configuration"));
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_late_submissions() {
        let daemon = ServiceDaemon::start(small_config().with_workers(1));
        let handle = daemon.handle();
        let ids: Vec<JobId> = (0..4).map(|i| handle.submit(request(3 + i))).collect();
        daemon.shutdown();
        assert_eq!(handle.jobs().len(), 4);
        for id in ids {
            // The table outlives the pool: handles still answer for it.
            let snap = handle.status(id).expect("drained job still answers");
            assert_eq!(snap.status, JobStatus::Done, "job {id} not drained");
        }
        let late = handle.submit(request(4));
        let snap = handle.await_done(late).unwrap();
        assert_eq!(snap.status, JobStatus::Rejected);
        assert!(snap.reason.as_ref().unwrap().contains("shutting down"));
    }

    #[test]
    fn replications_reuse_the_worker_arena() {
        // One worker thread runs every replication of every job, so only
        // the very first simulator allocates its scratch arena.
        let (tel, rec) = astra_telemetry::sinks::in_memory();
        let daemon = ServiceDaemon::start(small_config().with_workers(1).with_telemetry(tel));
        let handle = daemon.handle();
        let sim = crate::types::SimOptions {
            replications: 4,
            ..Default::default()
        };
        for n in [3, 4] {
            let id = handle.submit(request(n).with_sim(sim));
            assert_eq!(handle.await_done(id).unwrap().status, JobStatus::Done);
        }
        daemon.shutdown();
        assert_eq!(rec.counter_value("batch.arena.alloc"), 1);
        assert_eq!(rec.counter_value("batch.arena.reuse"), 7);
    }

    #[test]
    fn each_job_is_planned_once() {
        let config = small_config();
        let library = Astra::new(config.platform.clone(), config.catalog, config.strategy)
            .with_prune_config(config.prune);
        let daemon = ServiceDaemon::start(config);
        let handle = daemon.handle();
        // Three rounds over the same three specs, one objective a round.
        let specs = 3;
        let objectives = [
            Objective::min_time_with_budget_dollars(5.0),
            Objective::cheapest(),
            Objective::fastest(),
        ];
        let ids: Vec<JobId> = objectives
            .iter()
            .flat_map(|&o| {
                (0..specs).map(move |n| JobRequest {
                    objective: o,
                    ..request(3 + n)
                })
            })
            .map(|r| handle.submit(r))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let snap = handle.await_done(id).unwrap();
            assert_eq!(snap.status, JobStatus::Done, "job {id}");
            assert_eq!(snap.session_cache_hit, i >= specs, "job {id}");
            let plan = library
                .session(&snap.request.job)
                .plan(snap.request.objective)
                .unwrap();
            let outcome = snap.plan.unwrap();
            assert_eq!(
                (
                    outcome.spec,
                    outcome.predicted_cost,
                    outcome.predicted_jct_s.to_bits()
                ),
                (
                    plan.spec.clone(),
                    plan.predicted_cost(),
                    plan.predicted_jct_s().to_bits()
                ),
                "job {id}"
            );
        }
        let stats = handle.cache_stats();
        assert_eq!(stats.hits + stats.misses, ids.len() as u64, "{stats:?}");
        assert_eq!(stats.misses, specs as u64, "{stats:?}");
    }

    #[test]
    fn resubmit_replays_and_requotes_through_the_cache() {
        let daemon = ServiceDaemon::start(small_config());
        let handle = daemon.handle();

        let id = handle.submit(request(4));
        assert_eq!(handle.await_done(id).unwrap().status, JobStatus::Done);

        // Verbatim resubmit: a fresh job with the prior spec, planned
        // from the already-resident session.
        let replay = handle.resubmit(id, None).unwrap();
        assert_ne!(replay, id);
        let snap = handle.await_done(replay).unwrap();
        assert_eq!(snap.status, JobStatus::Done);
        assert_eq!(snap.request.job, request(4).job);
        assert!(snap.session_cache_hit);

        // Revised resubmit differing only by a mapper coefficient: one
        // cold build, whose plan matches a cold daemon's.
        let mut revised = request(4);
        revised.job.profile.map_secs_per_mb_128 *= 1.3;
        let requote = handle.resubmit(id, Some(revised.clone())).unwrap();
        let snap = handle.await_done(requote).unwrap();
        assert_eq!(snap.status, JobStatus::Done);
        assert_eq!(snap.request.job, revised.job);
        let cold = ServiceDaemon::start(small_config());
        let cold_handle = cold.handle();
        let cold_id = cold_handle.submit(revised);
        let cold_snap = cold_handle.await_done(cold_id).unwrap();
        assert_eq!(snap.plan, cold_snap.plan);
        assert_eq!(snap.sim, cold_snap.sim);
        cold.shutdown();

        // A prior id the daemon never issued is a lookup miss.
        assert!(handle.resubmit(99_999, None).is_none());
    }

    #[test]
    fn frontier_answers_through_the_cache() {
        let daemon = ServiceDaemon::start(small_config());
        let handle = daemon.handle();
        let job = request(6).job;
        let frontier = handle.frontier(&job, 6).unwrap();
        assert!(frontier.len() >= 2);
        for pair in frontier.windows(2) {
            assert!(pair[1].cost >= pair[0].cost);
            assert!(pair[1].jct_s <= pair[0].jct_s + 1e-9);
        }
    }
}
