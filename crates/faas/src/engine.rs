//! The event-driven execution engine.

use std::sync::Arc;

use astra_model::Platform;
use astra_pricing::{Money, PriceCatalog};
use astra_simcore::{EventQueue, FifoTokens, NoiseModel, SimDuration, SimTime, SpanKind, TraceLog};
use astra_storage::StorageLedger;
use astra_telemetry::{Clock, SpanRecord, Telemetry};

use crate::ops::{LambdaSpec, Op, StoreKind};
use crate::report::{Invoice, SimReport};

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The platform envelope (tiers, concurrency, timeout, cold start,
    /// network).
    pub platform: Platform,
    /// Prices for billing.
    pub catalog: PriceCatalog,
    /// Coefficient of variation of the multiplicative runtime noise
    /// (0 = deterministic; the model-agreement tests rely on that).
    pub noise_cv: f64,
    /// RNG seed.
    pub seed: u64,
    /// Probability that an invocation crashes at launch (container
    /// failure). Crashed asynchronous invocations are retried, as AWS
    /// does, up to `max_retries` extra attempts.
    pub failure_rate: f64,
    /// Extra attempts after the first (AWS retries async invocations
    /// twice).
    pub max_retries: u32,
    /// Reuse warm containers within the job: a finished function's
    /// container can serve the next invocation at the same memory tier
    /// without a cold start (AWS keeps containers warm between the
    /// phases of a single job). Off by default — the paper-era framework
    /// saw mostly cold starts; the `exp_warm` ablation measures the
    /// difference.
    pub container_reuse: bool,
    /// Observability sink. Disabled by default; [`SimConfig::deterministic`]
    /// snapshots the process-global handle (`astra_telemetry::global()`),
    /// so binaries that install a recorder before building configs get
    /// engine spans and counters with no extra plumbing. Telemetry is
    /// purely observational — enabling it never changes a report bit (see
    /// `astra-telemetry`'s determinism contract).
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// Deterministic (noise-free) simulation of `platform`.
    pub fn deterministic(platform: Platform) -> Self {
        SimConfig {
            platform,
            catalog: PriceCatalog::aws_2020(),
            noise_cv: 0.0,
            seed: 0,
            failure_rate: 0.0,
            max_retries: 2,
            container_reuse: false,
            telemetry: astra_telemetry::global(),
        }
    }

    /// Set the runtime-noise CV and seed.
    pub fn with_noise(mut self, cv: f64, seed: u64) -> Self {
        self.noise_cv = cv;
        self.seed = seed;
        self
    }

    /// Enable failure injection.
    pub fn with_failures(mut self, rate: f64, max_retries: u32) -> Self {
        self.failure_rate = rate;
        self.max_retries = max_retries;
        self
    }

    /// Enable warm-container reuse.
    pub fn with_container_reuse(mut self) -> Self {
        self.container_reuse = true;
        self
    }

    /// Replace the price catalog.
    pub fn with_catalog(mut self, catalog: PriceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Attach an explicit telemetry handle (overriding the process-global
    /// snapshot taken by [`SimConfig::deterministic`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Why a simulated run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A function exceeded the platform timeout and was killed.
    Timeout {
        /// The offending invocation.
        lambda: String,
        /// Elapsed handler seconds when the timeout fired.
        elapsed_s: f64,
    },
    /// A function read a key that no completed PUT (or job input)
    /// produced — an orchestration bug.
    MissingObject {
        /// The reading invocation.
        lambda: String,
        /// The missing key.
        key: String,
    },
    /// An invocation used a memory size that is not a platform tier.
    InvalidMemory {
        /// The offending invocation.
        lambda: String,
        /// Its memory request.
        memory_mb: u32,
    },
    /// An invocation crashed on every attempt (initial + retries).
    RetriesExhausted {
        /// The failing invocation.
        lambda: String,
        /// Total attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout { lambda, elapsed_s } => {
                write!(f, "{lambda} timed out after {elapsed_s:.1}s")
            }
            SimError::MissingObject { lambda, key } => {
                write!(f, "{lambda} read missing object {key}")
            }
            SimError::InvalidMemory { lambda, memory_mb } => {
                write!(f, "{lambda} requested invalid memory {memory_mb} MB")
            }
            SimError::RetriesExhausted { lambda, attempts } => {
                write!(f, "{lambda} crashed on all {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrive(usize),
    Start(usize),
    Ready(usize),
    OpDone(usize),
}

struct LambdaState {
    spec: LambdaSpec,
    /// The invocation name as a shared string: cloned into every trace
    /// span and the invoice without copying the bytes.
    name: Arc<str>,
    parent: Option<usize>,
    arrived: SimTime,
    handler_start: SimTime,
    op_idx: usize,
    op_started: SimTime,
    wait_started: SimTime,
    pending_children: usize,
    waiting: bool,
    queued: bool,
    attempts: u32,
    /// Telemetry id of this invocation's span (0 when telemetry is
    /// disabled). Allocated at enqueue time so child phases and child
    /// invocations can parent under it before the span itself is
    /// reported at finish.
    span_id: u64,
}

/// The static span names the engine emits, interned once per simulator.
///
/// `tel_span` fires per op on the hot path; cloning a pre-built
/// `Arc<str>` is a refcount bump, where `Arc::from("get")` would be a
/// fresh allocation plus copy for every span.
struct SpanNames {
    queued: Arc<str>,
    cold_start: Arc<str>,
    retry_cold_start: Arc<str>,
    get: Arc<str>,
    put: Arc<str>,
    compute: Arc<str>,
    spawn: Arc<str>,
    wait_children: Arc<str>,
    invocation: Arc<str>,
}

impl SpanNames {
    fn intern() -> Self {
        SpanNames {
            queued: Arc::from("queued"),
            cold_start: Arc::from("cold_start"),
            retry_cold_start: Arc::from("retry_cold_start"),
            get: Arc::from("get"),
            put: Arc::from("put"),
            compute: Arc::from("compute"),
            spawn: Arc::from("spawn"),
            wait_children: Arc::from("wait_children"),
            invocation: Arc::from("invocation"),
        }
    }
}

/// Reusable per-thread scratch for simulator construction: the event
/// heap, the lifecycle slab, both storage ledgers, the warm-container
/// map, and the interned span names. Everything here is either cleared
/// back to its freshly-constructed state before it re-enters the pool
/// (queue, slab, ledgers, pool map — each documents that its reset is
/// observationally identical to `new()`) or immutable by construction
/// (the interned names), so a checked-out arena can never leak one
/// case's state into the next and batch replays stay bit-deterministic.
///
/// The payoff is on sweep workers: a `SimBatch` thread runs thousands of
/// cases, and without the arena each case pays the queue/slab/ledger
/// growth reallocations and nine `Arc<str>` interning allocations from
/// scratch.
struct SimArena {
    queue: EventQueue<Event>,
    states: Vec<LambdaState>,
    ledger: StorageLedger,
    inter_ledger: StorageLedger,
    warm_pool: std::collections::HashMap<u32, usize>,
    names: SpanNames,
}

impl SimArena {
    fn fresh() -> Self {
        SimArena {
            queue: EventQueue::with_capacity(64),
            states: Vec::with_capacity(64),
            ledger: StorageLedger::new(),
            inter_ledger: StorageLedger::new(),
            warm_pool: std::collections::HashMap::new(),
            names: SpanNames::intern(),
        }
    }
}

thread_local! {
    /// One parked arena per thread. `FaasSim::new` takes it (leaving
    /// `None`), `run()` returns the recycled pieces when the simulation
    /// ends — including on error paths, since sweep workers keep going
    /// after a failed case.
    static ARENA: std::cell::RefCell<Option<SimArena>> = const { std::cell::RefCell::new(None) };
}

/// The simulator. Create one per job run.
///
/// Lifecycle state lives in a slab (`states`, indexed by invocation id);
/// events carry indices, not payloads, so the hot pop/handle/schedule
/// cycle moves no owned data and performs no per-event allocation beyond
/// the queue's amortized growth. The slab, queue, ledgers and interned
/// names come from a per-thread `SimArena` so consecutive runs on one
/// thread (a sweep worker's case loop) reuse their allocations.
pub struct FaasSim {
    config: SimConfig,
    queue: EventQueue<Event>,
    states: Vec<LambdaState>,
    tokens: FifoTokens<usize>,
    noise: NoiseModel,
    /// Persistent (S3) objects: job input and, without an intermediate
    /// store, everything else too.
    ledger: StorageLedger,
    /// Ephemeral objects when the platform has an intermediate store.
    inter_ledger: StorageLedger,
    trace: TraceLog,
    invoices: Vec<Invoice>,
    running: usize,
    peak_running: usize,
    crashes: u64,
    /// Warm containers available per memory tier (container reuse only).
    warm_pool: std::collections::HashMap<u32, usize>,
    warm_starts: u64,
    /// Interned telemetry span names (see [`SpanNames`]).
    names: SpanNames,
    /// `config.telemetry.enabled()`, cached at construction: the config
    /// is immutable once the engine exists, and the flag is consulted on
    /// every event.
    tel_enabled: bool,
    /// Wall stamp shared by every sim-clock span this run emits. Sim
    /// spans live on the simulated timeline; their wall fields are pure
    /// cross-reference metadata (degenerate start == end intervals), so
    /// one `wall_clock_ns()` read at construction replaces one clock
    /// read per span on the hot path.
    wall_anchor: u64,
}

impl FaasSim {
    /// A fresh simulator with `inputs` pre-existing in the object store
    /// (the job's input objects, billed for storage but not for PUTs).
    pub fn new(config: SimConfig, inputs: &[(String, f64)]) -> Self {
        let noise = NoiseModel::new(config.seed, config.noise_cv);
        let tokens = FifoTokens::new(config.platform.max_concurrency as usize);
        let tel_enabled = config.telemetry.enabled();
        let arena = ARENA.with(|slot| slot.borrow_mut().take());
        let reused = arena.is_some();
        let mut arena = arena.unwrap_or_else(SimArena::fresh);
        if tel_enabled {
            config.telemetry.counter(
                if reused {
                    "batch.arena.reuse"
                } else {
                    "batch.arena.alloc"
                },
                1,
            );
        }
        for (key, size) in inputs {
            arena.ledger.register_preexisting(key.clone(), *size);
        }
        FaasSim {
            config,
            queue: arena.queue,
            states: arena.states,
            tokens,
            noise,
            ledger: arena.ledger,
            inter_ledger: arena.inter_ledger,
            trace: TraceLog::new(),
            invoices: Vec::with_capacity(64),
            running: 0,
            peak_running: 0,
            crashes: 0,
            warm_pool: arena.warm_pool,
            warm_starts: 0,
            names: arena.names,
            tel_enabled,
            wall_anchor: if tel_enabled {
                astra_telemetry::wall_clock_ns()
            } else {
                0
            },
        }
    }

    /// True when ephemeral ops go to a separate intermediate store.
    fn has_intermediate(&self) -> bool {
        self.config.platform.intermediate.is_some()
    }

    /// The ledger an op of `store` kind belongs to.
    fn ledger_for(&mut self, store: StoreKind) -> &mut StorageLedger {
        if store == StoreKind::Ephemeral && self.has_intermediate() {
            &mut self.inter_ledger
        } else {
            &mut self.ledger
        }
    }

    /// Mirror an engine trace interval as a sim-clock telemetry span
    /// parented to invocation `id`'s span. Callers check
    /// `self.tel_enabled` first so the disabled path never allocates the
    /// payload; `name` comes pre-interned from [`SpanNames`] so the hot
    /// path clones a refcount instead of allocating a string.
    fn tel_span(
        &self,
        id: usize,
        name: &Arc<str>,
        kind: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let tel = &self.config.telemetry;
        let wall = self.wall_anchor;
        let parent = self.states[id].span_id;
        tel.span(SpanRecord {
            track: self.states[id].name.clone(),
            name: Arc::clone(name),
            kind,
            clock: Clock::Sim,
            sim_start_us: start.as_micros(),
            sim_end_us: end.as_micros(),
            wall_start_ns: wall,
            wall_end_ns: wall,
            id: tel.next_span_id(),
            parent: (parent != 0).then_some(parent),
        });
    }

    /// Execute `roots` (invoked at t = 0) to completion.
    pub fn run(mut self, roots: Vec<LambdaSpec>) -> Result<SimReport, SimError> {
        let result = self.run_to_completion(roots);
        self.recycle();
        result
    }

    /// Park the reusable pieces back in this thread's arena for the next
    /// [`FaasSim::new`]. Every piece is cleared to its `new()`-identical
    /// state first; report-bound state (invoices, trace, snapshots) has
    /// already moved out, or is dropped here on the error path.
    fn recycle(mut self) {
        self.queue.clear();
        self.states.clear();
        self.ledger.reset();
        self.inter_ledger.reset();
        self.warm_pool.clear();
        let arena = SimArena {
            queue: self.queue,
            states: self.states,
            ledger: self.ledger,
            inter_ledger: self.inter_ledger,
            warm_pool: self.warm_pool,
            names: self.names,
        };
        ARENA.with(|slot| *slot.borrow_mut() = Some(arena));
    }

    fn run_to_completion(&mut self, roots: Vec<LambdaSpec>) -> Result<SimReport, SimError> {
        self.states.reserve(roots.len());
        self.queue.reserve(roots.len());
        for spec in roots {
            self.enqueue(spec, None)?;
        }
        while let Some((_, event)) = self.queue.pop() {
            self.handle(event)?;
        }
        let now = self.queue.now();
        let makespan = now.since(SimTime::ZERO);
        let snapshot = self.ledger.snapshot(now);
        let inter_snapshot = self.inter_ledger.snapshot(now);
        let storage_cost = self.ledger.bill(now, &self.config.catalog.s3);
        // The intermediate store bills its own request/storage prices
        // plus rent for the job's duration.
        let ephemeral_cost = match &self.config.platform.intermediate {
            None => Money::ZERO,
            Some(store) => {
                store.per_get * inter_snapshot.gets
                    + store.per_put * inter_snapshot.puts
                    + store.storage_cost(inter_snapshot.mb_seconds, 1.0)
                    + store.rental_cost(makespan.as_secs_f64())
            }
        };
        let lambda_cost: Money = self.invoices.iter().map(|i| i.cost).sum();
        let events = self.queue.events_processed();
        let tel = &self.config.telemetry;
        if tel.enabled() {
            tel.counter("engine.events", events);
            tel.counter("engine.heap_sifts", self.queue.heap_sifts());
            tel.counter("engine.interned_names", self.states.len() as u64);
            tel.counter("engine.invocations", self.invoices.len() as u64);
            tel.counter("engine.crashes", self.crashes);
            tel.counter("engine.warm_starts", self.warm_starts);
            tel.counter("engine.queued", self.tokens.total_waits());
            tel.gauge("engine.peak_concurrency", self.peak_running as f64);
        }
        Ok(SimReport {
            makespan,
            lambda_cost,
            storage_cost,
            ephemeral_cost,
            invoices: std::mem::take(&mut self.invoices),
            ledger: snapshot,
            inter_ledger: inter_snapshot,
            trace: std::mem::take(&mut self.trace),
            peak_concurrency: self.peak_running,
            queued_invocations: self.tokens.total_waits(),
            crashes: self.crashes,
            warm_starts: self.warm_starts,
            events,
        })
    }

    fn enqueue(&mut self, spec: LambdaSpec, parent: Option<usize>) -> Result<usize, SimError> {
        if !spec.client && !self.config.platform.is_valid_tier(spec.memory_mb) {
            return Err(SimError::InvalidMemory {
                lambda: spec.name.clone(),
                memory_mb: spec.memory_mb,
            });
        }
        let id = self.states.len();
        let name: Arc<str> = Arc::from(spec.name.as_str());
        self.states.push(LambdaState {
            spec,
            name,
            parent,
            arrived: self.queue.now(),
            handler_start: SimTime::ZERO,
            op_idx: 0,
            op_started: SimTime::ZERO,
            wait_started: SimTime::ZERO,
            pending_children: 0,
            waiting: false,
            queued: false,
            attempts: 0,
            span_id: self.config.telemetry.next_span_id(),
        });
        self.queue.schedule_now(Event::Arrive(id));
        Ok(id)
    }

    fn handle(&mut self, event: Event) -> Result<(), SimError> {
        match event {
            Event::Arrive(id) => {
                if self.states[id].spec.client {
                    self.queue.schedule_now(Event::Ready(id));
                } else if self.tokens.acquire(id) {
                    self.queue.schedule_now(Event::Start(id));
                } else {
                    self.states[id].queued = true;
                }
                Ok(())
            }
            Event::Start(id) => {
                let now = self.queue.now();
                self.running += 1;
                self.peak_running = self.peak_running.max(self.running);
                if self.states[id].queued {
                    let arrived = self.states[id].arrived;
                    let name = self.states[id].name.clone();
                    self.trace
                        .record(name, SpanKind::QueuedConcurrency, arrived, now);
                    if self.tel_enabled {
                        self.tel_span(id, &self.names.queued, "queued", arrived, now);
                    }
                }
                let mem = self.states[id].spec.memory_mb;
                let warm =
                    self.config.container_reuse && self.warm_pool.get(&mem).is_some_and(|&n| n > 0);
                let cold = if warm {
                    *self.warm_pool.get_mut(&mem).expect("checked") -= 1;
                    self.warm_starts += 1;
                    SimDuration::ZERO
                } else {
                    self.noise.jitter(SimDuration::from_secs_f64(
                        self.config.platform.cold_start_s,
                    ))
                };
                if cold > SimDuration::ZERO {
                    let name = self.states[id].name.clone();
                    self.trace
                        .record(name, SpanKind::ColdStart, now, now + cold);
                    if self.tel_enabled {
                        self.tel_span(id, &self.names.cold_start, "cold_start", now, now + cold);
                    }
                }
                self.queue.schedule(now + cold, Event::Ready(id));
                Ok(())
            }
            Event::Ready(id) => {
                self.states[id].attempts += 1;
                // Container crash at launch? Retried like AWS async
                // invocations; client drivers never fail.
                if !self.states[id].spec.client
                    && self.config.failure_rate > 0.0
                    && self.noise.uniform() < self.config.failure_rate
                {
                    self.crashes += 1;
                    let attempts = self.states[id].attempts;
                    if attempts > self.config.max_retries {
                        return Err(SimError::RetriesExhausted {
                            lambda: self.states[id].spec.name.clone(),
                            attempts,
                        });
                    }
                    // Restart from the first op after a fresh cold start;
                    // PUT overwrites make the script idempotent.
                    self.states[id].op_idx = 0;
                    let now = self.queue.now();
                    let cold = self.noise.jitter(SimDuration::from_secs_f64(
                        self.config.platform.cold_start_s,
                    ));
                    if cold > SimDuration::ZERO {
                        let name = self.states[id].name.clone();
                        self.trace
                            .record(name, SpanKind::ColdStart, now, now + cold);
                    }
                    if self.tel_enabled {
                        self.config.telemetry.counter("engine.retries", 1);
                        // Annotated `retry` name so traces distinguish a
                        // first-launch cold start from a retry's.
                        self.tel_span(
                            id,
                            &self.names.retry_cold_start,
                            "cold_start",
                            now,
                            now + cold,
                        );
                    }
                    self.queue.schedule(now + cold, Event::Ready(id));
                    return Ok(());
                }
                self.states[id].handler_start = self.queue.now();
                self.advance(id)
            }
            Event::OpDone(id) => {
                let now = self.queue.now();
                let st = &self.states[id];
                let (kind, tel_name, tel_kind) = match &st.spec.ops[st.op_idx] {
                    Op::Get { .. } => (SpanKind::StorageGet, &self.names.get, "storage_get"),
                    Op::Put { .. } => (SpanKind::StoragePut, &self.names.put, "storage_put"),
                    Op::Compute { .. } => (SpanKind::Compute, &self.names.compute, "compute"),
                    Op::Spawn { .. } => (SpanKind::Compute, &self.names.spawn, "compute"),
                };
                let start = st.op_started;
                let name = st.name.clone();
                self.trace.record(name, kind, start, now);
                if self.tel_enabled {
                    self.tel_span(id, tel_name, tel_kind, start, now);
                }
                self.check_timeout(id)?;
                let st = &mut self.states[id];
                match &mut st.spec.ops[st.op_idx] {
                    Op::Put {
                        key,
                        size_mb,
                        store,
                    } => {
                        let (key, size, store) = (key.clone(), *size_mb, *store);
                        self.ledger_for(store).record_put(key, size, now);
                        self.states[id].op_idx += 1;
                        self.advance(id)
                    }
                    Op::Spawn { children, wait } => {
                        // The launch latency has elapsed; the children
                        // arrive now. Each spawn fires at most once per
                        // run (crashes restart an invocation *before* its
                        // first op executes), so the children move out of
                        // the script instead of being cloned.
                        let wait = *wait;
                        let children = std::mem::take(children);
                        let n = children.len();
                        self.states.reserve(n);
                        for child in children {
                            self.enqueue(child, Some(id))?;
                        }
                        if wait && n > 0 {
                            let st = &mut self.states[id];
                            st.waiting = true;
                            st.pending_children = n;
                            st.wait_started = now;
                            Ok(())
                        } else {
                            self.states[id].op_idx += 1;
                            self.advance(id)
                        }
                    }
                    Op::Get { .. } | Op::Compute { .. } => {
                        self.states[id].op_idx += 1;
                        self.advance(id)
                    }
                }
            }
        }
    }

    /// Execute the next op of lambda `id`, or finish it.
    ///
    /// Reads the op in place (no clone — `Op::Spawn` payloads can be
    /// whole subtrees); the only allocation on this path is the error
    /// case.
    fn advance(&mut self, id: usize) -> Result<(), SimError> {
        let now = self.queue.now();
        let op_idx = self.states[id].op_idx;
        if op_idx >= self.states[id].spec.ops.len() {
            return self.finish(id);
        }
        self.states[id].op_started = now;
        let has_inter = self.config.platform.intermediate.is_some();
        let st = &self.states[id];
        let mem = st.spec.memory_mb;
        let secs = match &st.spec.ops[op_idx] {
            Op::Get { key, store } => {
                let use_inter = *store == StoreKind::Ephemeral && has_inter;
                let ledger = if use_inter {
                    &mut self.inter_ledger
                } else {
                    &mut self.ledger
                };
                let Some(size) = ledger.size_of(key) else {
                    return Err(SimError::MissingObject {
                        lambda: st.spec.name.clone(),
                        key: key.clone(),
                    });
                };
                ledger.record_get(size);
                if use_inter {
                    self.config.platform.inter_get_secs(mem, size)
                } else {
                    self.config.platform.get_secs(mem, size)
                }
            }
            Op::Put { size_mb, store, .. } => {
                if *store == StoreKind::Ephemeral && has_inter {
                    self.config.platform.inter_put_secs(mem, *size_mb)
                } else {
                    self.config.platform.put_secs(mem, *size_mb)
                }
            }
            Op::Compute { secs_at_128 } => secs_at_128 / self.config.platform.speed_factor(mem),
            // Launching a batch takes the platform's orchestration
            // overhead plus one invoke call per child; children arrive
            // when it completes (handled at OpDone).
            Op::Spawn { children, .. } => self.config.platform.spawn_secs(children.len()),
        };
        let d = self.noise.jitter(SimDuration::from_secs_f64(secs));
        self.queue.schedule(now + d, Event::OpDone(id));
        Ok(())
    }

    fn finish(&mut self, id: usize) -> Result<(), SimError> {
        let now = self.queue.now();
        self.check_timeout(id)?;
        if self.tel_enabled {
            // The invocation span covers arrival → finish (so queueing,
            // cold starts and every op nest inside it), unlike the
            // billing-oriented TraceLog span which starts at the handler.
            // Clients get one too: they are the roots of the spawn tree.
            let st = &self.states[id];
            let parent = st
                .parent
                .map(|p| self.states[p].span_id)
                .filter(|&p| p != 0);
            let wall = self.wall_anchor;
            self.config.telemetry.span(SpanRecord {
                track: st.name.clone(),
                name: Arc::clone(&self.names.invocation),
                kind: "invocation",
                clock: Clock::Sim,
                sim_start_us: st.arrived.as_micros(),
                sim_end_us: now.as_micros(),
                wall_start_ns: wall,
                wall_end_ns: wall,
                id: st.span_id,
                parent,
            });
        }
        if !self.states[id].spec.client {
            self.running -= 1;
            if self.config.container_reuse {
                *self
                    .warm_pool
                    .entry(self.states[id].spec.memory_mb)
                    .or_insert(0) += 1;
            }
            self.bill(id, now);
            // Hand the concurrency token to the oldest queued arrival.
            if let Some(waiter) = self.tokens.release() {
                self.queue.schedule_now(Event::Start(waiter));
            }
        }
        // Wake a waiting parent once its last child finishes.
        if let Some(parent) = self.states[id].parent {
            if self.states[parent].waiting {
                self.states[parent].pending_children -= 1;
                if self.states[parent].pending_children == 0 {
                    let st = &mut self.states[parent];
                    st.waiting = false;
                    st.op_idx += 1;
                    let wait_start = st.wait_started;
                    let name = st.name.clone();
                    self.trace
                        .record(name, SpanKind::WaitChildren, wait_start, now);
                    if self.tel_enabled {
                        self.tel_span(
                            parent,
                            &self.names.wait_children,
                            "wait_children",
                            wait_start,
                            now,
                        );
                    }
                    self.check_timeout(parent)?;
                    return self.advance(parent);
                }
            }
        }
        Ok(())
    }

    fn bill(&mut self, id: usize, now: SimTime) {
        let st = &self.states[id];
        let started = st.handler_start;
        let duration_us = now.since(started).as_micros();
        let billed_us = self.config.catalog.lambda.billed_duration_us(duration_us);
        let cost = self
            .config
            .catalog
            .lambda
            .invocation_cost(st.spec.memory_mb, duration_us);
        self.trace
            .record(st.name.clone(), SpanKind::Invocation, started, now);
        self.invoices.push(Invoice {
            name: st.name.clone(),
            memory_mb: st.spec.memory_mb,
            started,
            finished: now,
            billed_us,
            cost,
        });
    }

    fn check_timeout(&self, id: usize) -> Result<(), SimError> {
        let st = &self.states[id];
        if st.spec.client {
            return Ok(());
        }
        let elapsed = self.queue.now().since(st.handler_start).as_secs_f64();
        if elapsed > self.config.platform.timeout_s {
            return Err(SimError::Timeout {
                lambda: st.spec.name.clone(),
                elapsed_s: elapsed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        let mut p = Platform::paper_literal(10.0);
        p.cold_start_s = 0.0;
        p
    }

    fn run_one(ops: Vec<Op>, inputs: &[(String, f64)]) -> SimReport {
        let sim = FaasSim::new(SimConfig::deterministic(platform()), inputs);
        sim.run(vec![LambdaSpec::new("f", 128, ops)]).unwrap()
    }

    #[test]
    fn compute_duration_scales_with_memory() {
        let sim = FaasSim::new(SimConfig::deterministic(platform()), &[]);
        let report = sim
            .run(vec![
                LambdaSpec::new("slow", 128, vec![Op::Compute { secs_at_128: 10.0 }]),
                LambdaSpec::new("fast", 1280, vec![Op::Compute { secs_at_128: 10.0 }]),
            ])
            .unwrap();
        assert_eq!(
            report.invoice("slow").unwrap().duration(),
            SimDuration::from_secs(10)
        );
        assert_eq!(
            report.invoice("fast").unwrap().duration(),
            SimDuration::from_secs(1)
        );
        assert_eq!(report.jct_s(), 10.0);
    }

    #[test]
    fn get_and_put_follow_the_transfer_model() {
        // 10 MB/s bandwidth: GET 20 MB = 2 s, PUT 5 MB = 0.5 s.
        let report = run_one(
            vec![
                Op::Get {
                    key: "in".into(),
                    store: StoreKind::Persistent,
                },
                Op::Put {
                    key: "out".into(),
                    size_mb: 5.0,
                    store: StoreKind::Persistent,
                },
            ],
            &[("in".into(), 20.0)],
        );
        assert_eq!(report.jct_s(), 2.5);
        assert_eq!(report.ledger.gets, 1);
        assert_eq!(report.ledger.puts, 1);
        assert_eq!(report.ledger.read_mb, 20.0);
        assert_eq!(report.ledger.written_mb, 5.0);
    }

    #[test]
    fn missing_object_is_an_orchestration_error() {
        let sim = FaasSim::new(SimConfig::deterministic(platform()), &[]);
        let err = sim
            .run(vec![LambdaSpec::new(
                "f",
                128,
                vec![Op::Get {
                    key: "ghost".into(),
                    store: StoreKind::Persistent,
                }],
            )])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::MissingObject {
                lambda: "f".into(),
                key: "ghost".into()
            }
        );
    }

    #[test]
    fn concurrency_cap_serialises_execution() {
        let mut p = platform();
        p.max_concurrency = 1;
        let sim = FaasSim::new(SimConfig::deterministic(p), &[]);
        let report = sim
            .run(vec![
                LambdaSpec::new("a", 128, vec![Op::Compute { secs_at_128: 5.0 }]),
                LambdaSpec::new("b", 128, vec![Op::Compute { secs_at_128: 5.0 }]),
            ])
            .unwrap();
        assert_eq!(report.jct_s(), 10.0);
        assert_eq!(report.peak_concurrency, 1);
        assert_eq!(report.queued_invocations, 1);
        // The queued lambda's invoice starts when the first finishes.
        assert_eq!(
            report.invoice("b").unwrap().started,
            SimTime::from_micros(5_000_000)
        );
    }

    #[test]
    fn spawn_wait_blocks_until_slowest_child() {
        let children = vec![
            LambdaSpec::new("c1", 128, vec![Op::Compute { secs_at_128: 1.0 }]),
            LambdaSpec::new("c2", 128, vec![Op::Compute { secs_at_128: 7.0 }]),
        ];
        let report = run_one(
            vec![
                Op::Spawn {
                    children,
                    wait: true,
                },
                Op::Compute { secs_at_128: 1.0 },
            ],
            &[],
        );
        // Parent: waits 7 s for c2, then computes 1 s.
        assert_eq!(report.jct_s(), 8.0);
        assert_eq!(
            report.invoice("f").unwrap().duration(),
            SimDuration::from_secs(8)
        );
    }

    #[test]
    fn fire_and_forget_lets_parent_exit_early() {
        let children = vec![LambdaSpec::new(
            "c",
            128,
            vec![Op::Compute { secs_at_128: 10.0 }],
        )];
        let report = run_one(
            vec![Op::Spawn {
                children,
                wait: false,
            }],
            &[],
        );
        // Parent exits immediately; job completes when the child does.
        assert_eq!(report.invoice("f").unwrap().duration(), SimDuration::ZERO);
        assert_eq!(report.jct_s(), 10.0);
    }

    #[test]
    fn timeout_kills_the_run() {
        let mut p = platform();
        p.timeout_s = 5.0;
        let sim = FaasSim::new(SimConfig::deterministic(p), &[]);
        let err = sim
            .run(vec![LambdaSpec::new(
                "f",
                128,
                vec![Op::Compute { secs_at_128: 6.0 }],
            )])
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
    }

    #[test]
    fn billing_matches_the_price_sheet() {
        let report = run_one(vec![Op::Compute { secs_at_128: 1.0 }], &[]);
        let inv = report.invoice("f").unwrap();
        // 1 s at 128 MB, 100 ms granularity: billed exactly 1 s.
        assert_eq!(inv.billed_us, 1_000_000);
        let expected = PriceCatalog::aws_2020()
            .lambda
            .invocation_cost(128, 1_000_000);
        assert_eq!(inv.cost, expected);
        assert_eq!(report.lambda_cost, expected);
    }

    #[test]
    fn cold_start_delays_handler_but_is_not_billed() {
        let mut p = platform();
        p.cold_start_s = 0.5;
        let sim = FaasSim::new(SimConfig::deterministic(p), &[]);
        let report = sim
            .run(vec![LambdaSpec::new(
                "f",
                128,
                vec![Op::Compute { secs_at_128: 1.0 }],
            )])
            .unwrap();
        let inv = report.invoice("f").unwrap();
        assert_eq!(inv.started, SimTime::from_micros(500_000));
        assert_eq!(inv.duration(), SimDuration::from_secs(1));
        assert_eq!(report.jct_s(), 1.5);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = SimConfig {
            noise_cv: 0.3,
            seed: 42,
            ..SimConfig::deterministic(platform())
        };
        let specs = vec![LambdaSpec::new(
            "f",
            128,
            vec![
                Op::Compute { secs_at_128: 2.0 },
                Op::Put {
                    key: "o".into(),
                    size_mb: 1.0,
                    store: StoreKind::Persistent,
                },
            ],
        )];
        let a = FaasSim::new(cfg.clone(), &[]).run(specs.clone()).unwrap();
        let b = FaasSim::new(cfg, &[]).run(specs).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn noise_perturbs_durations() {
        let base = SimConfig::deterministic(platform());
        let noisy = SimConfig {
            noise_cv: 0.3,
            seed: 7,
            ..base.clone()
        };
        let specs = vec![LambdaSpec::new(
            "f",
            128,
            vec![Op::Compute { secs_at_128: 2.0 }],
        )];
        let a = FaasSim::new(base, &[]).run(specs.clone()).unwrap();
        let b = FaasSim::new(noisy, &[]).run(specs).unwrap();
        assert_ne!(a.makespan, b.makespan);
    }

    #[test]
    fn put_then_get_within_one_run() {
        // Dataflow through the ledger: f1 writes, f2 (spawned after) reads.
        let child = LambdaSpec::new(
            "reader",
            128,
            vec![Op::Get {
                key: "x".into(),
                store: StoreKind::Persistent,
            }],
        );
        let report = run_one(
            vec![
                Op::Put {
                    key: "x".into(),
                    size_mb: 10.0,
                    store: StoreKind::Persistent,
                },
                Op::Spawn {
                    children: vec![child],
                    wait: true,
                },
            ],
            &[],
        );
        // PUT 1 s, then child GET 1 s.
        assert_eq!(report.jct_s(), 2.0);
    }

    #[test]
    fn failures_are_retried_and_job_completes() {
        let cfg = SimConfig {
            failure_rate: 0.3,
            seed: 9,
            ..SimConfig::deterministic(platform())
        };
        let specs: Vec<LambdaSpec> = (0..20)
            .map(|i| LambdaSpec::new(format!("f{i}"), 128, vec![Op::Compute { secs_at_128: 1.0 }]))
            .collect();
        let report = FaasSim::new(cfg, &[]).run(specs).unwrap();
        // With 30% failure over 20 lambdas, some crashes are near-certain.
        assert!(report.crashes > 0, "expected injected crashes");
        // Every lambda still completed exactly once.
        assert_eq!(report.invocation_count(), 20);
    }

    #[test]
    fn crash_restarts_the_script_idempotently() {
        // A put-then-compute lambda that crashes must redo the put, and
        // the ledger must count both attempts' requests but only one
        // live object.
        let cfg = SimConfig {
            failure_rate: 0.5,
            max_retries: 50,
            seed: 3,
            ..SimConfig::deterministic(platform())
        };
        let spec = LambdaSpec::new(
            "f",
            128,
            vec![
                Op::Put {
                    key: "x".into(),
                    size_mb: 1.0,
                    store: StoreKind::Persistent,
                },
                Op::Compute { secs_at_128: 1.0 },
            ],
        );
        let report = FaasSim::new(cfg, &[]).run(vec![spec]).unwrap();
        assert_eq!(report.invocation_count(), 1);
        // puts >= 1; if a crash happened after the put, it re-ran.
        assert!(report.ledger.puts >= 1);
    }

    #[test]
    fn exhausted_retries_fail_the_run() {
        let cfg = SimConfig {
            failure_rate: 1.0, // always crashes
            max_retries: 2,
            seed: 1,
            ..SimConfig::deterministic(platform())
        };
        let spec = LambdaSpec::new("doomed", 128, vec![Op::Compute { secs_at_128: 1.0 }]);
        let err = FaasSim::new(cfg, &[]).run(vec![spec]).unwrap_err();
        assert_eq!(
            err,
            SimError::RetriesExhausted {
                lambda: "doomed".into(),
                attempts: 3
            }
        );
    }

    #[test]
    fn client_drivers_never_crash() {
        let cfg = SimConfig {
            failure_rate: 1.0,
            max_retries: 0,
            seed: 1,
            ..SimConfig::deterministic(platform())
        };
        // Driver spawning nothing: would crash instantly if eligible.
        let driver = LambdaSpec::client_driver("d", vec![]);
        let report = FaasSim::new(cfg, &[]).run(vec![driver]).unwrap();
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn warm_containers_skip_cold_starts() {
        let mut p = platform();
        p.cold_start_s = 1.0;
        // Two sequential waves at the same tier: parent spawns child
        // after finishing, so the child can reuse the parent's container.
        let child = LambdaSpec::new("second", 128, vec![Op::Compute { secs_at_128: 1.0 }]);
        let spec = LambdaSpec::new(
            "first",
            128,
            vec![
                Op::Compute { secs_at_128: 1.0 },
                Op::Spawn {
                    children: vec![child],
                    wait: false,
                },
            ],
        );
        let cold_only = FaasSim::new(SimConfig::deterministic(p.clone()), &[])
            .run(vec![spec.clone()])
            .unwrap();
        let reused = FaasSim::new(SimConfig::deterministic(p).with_container_reuse(), &[])
            .run(vec![spec])
            .unwrap();
        assert_eq!(cold_only.warm_starts, 0);
        assert_eq!(reused.warm_starts, 1);
        // One cold start saved = 1 s faster.
        assert!((cold_only.jct_s() - reused.jct_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_pool_is_per_memory_tier() {
        let mut p = platform();
        p.cold_start_s = 1.0;
        // The second lambda runs at a different tier: no reuse possible.
        let child = LambdaSpec::new("second", 1024, vec![Op::Compute { secs_at_128: 1.0 }]);
        let spec = LambdaSpec::new(
            "first",
            128,
            vec![
                Op::Compute { secs_at_128: 1.0 },
                Op::Spawn {
                    children: vec![child],
                    wait: false,
                },
            ],
        );
        let report = FaasSim::new(SimConfig::deterministic(p).with_container_reuse(), &[])
            .run(vec![spec])
            .unwrap();
        assert_eq!(report.warm_starts, 0);
    }

    #[test]
    fn telemetry_spans_nest_under_invocations_and_change_nothing() {
        let mut p = platform();
        p.cold_start_s = 0.5;
        let spec = LambdaSpec::new(
            "f",
            128,
            vec![
                Op::Get {
                    key: "in".into(),
                    store: StoreKind::Persistent,
                },
                Op::Compute { secs_at_128: 1.0 },
            ],
        );
        let inputs = [("in".to_string(), 20.0)];
        let plain = FaasSim::new(SimConfig::deterministic(p.clone()), &inputs)
            .run(vec![spec.clone()])
            .unwrap();
        let (tel, rec) = astra_telemetry::sinks::in_memory();
        let traced = FaasSim::new(SimConfig::deterministic(p).with_telemetry(tel), &inputs)
            .run(vec![spec])
            .unwrap();
        // Observational only: the report is bit-identical.
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.invoices, traced.invoices);
        assert_eq!(plain.events, traced.events);
        // Structure: one invocation span; phases parent under it.
        let spans = rec.spans();
        let inv: Vec<_> = spans.iter().filter(|s| s.kind == "invocation").collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].sim_start_us, 0);
        assert_eq!(inv[0].sim_end_us, traced.makespan.as_micros());
        for s in spans.iter().filter(|s| s.kind != "invocation") {
            assert_eq!(s.parent, Some(inv[0].id), "{} must nest", s.name);
        }
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&"cold_start"));
        assert!(kinds.contains(&"storage_get"));
        assert!(kinds.contains(&"compute"));
        assert_eq!(rec.counter_value("engine.events"), traced.events);
        assert_eq!(rec.counter_value("engine.invocations"), 1);
    }

    #[test]
    fn retries_are_counted_and_annotated() {
        let cfg = SimConfig {
            failure_rate: 0.5,
            max_retries: 50,
            seed: 3,
            ..SimConfig::deterministic(platform())
        };
        let (tel, rec) = astra_telemetry::sinks::in_memory();
        let specs: Vec<LambdaSpec> = (0..20)
            .map(|i| LambdaSpec::new(format!("f{i}"), 128, vec![Op::Compute { secs_at_128: 1.0 }]))
            .collect();
        let report = FaasSim::new(cfg.with_telemetry(tel), &[])
            .run(specs)
            .unwrap();
        assert!(report.crashes > 0);
        assert_eq!(rec.counter_value("engine.retries"), report.crashes);
        assert_eq!(rec.counter_value("engine.crashes"), report.crashes);
        let retry_spans = rec
            .spans()
            .iter()
            .filter(|s| &*s.name == "retry_cold_start")
            .count();
        assert_eq!(retry_spans as u64, report.crashes);
    }

    #[test]
    fn arena_recycles_across_runs_and_error_paths() {
        let (tel, rec) = astra_telemetry::sinks::in_memory();
        let cfg = || SimConfig::deterministic(platform()).with_telemetry(tel.clone());
        let specs = || {
            vec![LambdaSpec::new(
                "f",
                128,
                vec![Op::Compute { secs_at_128: 1.0 }],
            )]
        };
        let a = FaasSim::new(cfg(), &[]).run(specs()).unwrap();
        let b = FaasSim::new(cfg(), &[]).run(specs()).unwrap();
        // Reused scratch leaks nothing: the second report is identical.
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.invoices, b.invoices);
        assert_eq!(a.events, b.events);
        assert_eq!(a.ledger, b.ledger);
        // A failing run still parks its arena for the next case...
        let err = FaasSim::new(cfg(), &[]).run(vec![LambdaSpec::new("t", 128, vec![])]);
        assert!(err.is_ok(), "setup");
        let failed = FaasSim::new(cfg(), &[]).run(vec![LambdaSpec::new("bad", 100, vec![])]);
        assert!(failed.is_err());
        let c = FaasSim::new(cfg(), &[]).run(specs()).unwrap();
        assert_eq!(a.makespan, c.makespan);
        // ...so on this fresh test thread, exactly one construction
        // allocated and every later one reused.
        assert_eq!(rec.counter_value("batch.arena.alloc"), 1);
        assert_eq!(rec.counter_value("batch.arena.reuse"), 4);
    }

    #[test]
    fn invalid_memory_rejected() {
        let sim = FaasSim::new(SimConfig::deterministic(platform()), &[]);
        let err = sim
            .run(vec![LambdaSpec::new("f", 100, vec![])])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidMemory { memory_mb: 100, .. }
        ));
    }
}
