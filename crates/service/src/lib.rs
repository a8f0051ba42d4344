#![warn(missing_docs)]

//! Planner-as-a-service: a long-running, in-process job-submission
//! daemon over the Astra planner and simulator.
//!
//! The planner core answers one constrained question about one job very
//! fast; this crate turns that library call into a *service* that
//! accepts many jobs from many tenants and tracks each one through an
//! explicit lifecycle:
//!
//! ```text
//! Accepted ──► Planned ──► Simulating ──► Done
//!    │            │             │
//!    └► Rejected  └──► Done     └──► Failed      (Planned→Done when the
//!    └► Failed    └──► Failed                     request asks plan-only)
//! ```
//!
//! The moving parts, one module each:
//!
//! * [`types`] — serde-style [`JobRequest`] / [`JobStatus`] /
//!   [`JobSnapshot`] spec and status types (the wire-format twins live
//!   in [`wire`]);
//! * [`wire`] — strict JSON encode/decode over the `serde_json` shim:
//!   unknown fields and invalid specs are rejected with a reason, which
//!   the daemon maps onto the `Rejected` terminal state;
//! * [`admission`] — shared concurrency/budget envelopes: every admitted
//!   job debits its planned cost from the envelope, so the sum of
//!   admitted claims never exceeds it, and FIFO ordering guarantees an
//!   admissible job is never starved;
//! * [`cache`] — a bounded LRU of [`PlannerSession`]s keyed by
//!   `(job, space, platform, prices)`, through which admission plans
//!   each job once (`service.cache.*` telemetry counts reuse);
//! * [`fairness`] — per-tenant submission lanes with deficit-round-robin
//!   dispatch and per-tenant envelopes, so one tenant flooding the
//!   queue defers only itself;
//! * [`scheduler`] — the bounded submission queue plus the
//!   envelope-gated DRR dispatch the workers pull from;
//! * [`daemon`] — the worker pool itself, the job table, and the
//!   synchronous client handle (`submit` / `status` / `await_done` /
//!   `frontier`);
//! * [`journal`] — the durable, checksummed append-only job log a
//!   daemon replays on restart, recovering terminal results verbatim
//!   and re-admitting mid-flight jobs;
//! * [`faults`] — seeded, deterministic fault injection (worker
//!   panics and crashes, cache-build failures, connection resets and
//!   short writes) for the chaos suite;
//! * [`net`] — the std-TCP line-protocol server and client speaking the
//!   newline-delimited JSON protocol specified in `PROTOCOL.md`, with
//!   idle timeouts, overload answers, and backoff reconnects.
//!
//! ## Determinism contract
//!
//! Every per-job result the service reports — the chosen [`PlanSpec`],
//! predicted JCT/cost, and each simulated replication's JCT/cost — is a
//! pure function of the [`JobRequest`] and the daemon's planner
//! configuration. Worker-pool size, `RAYON_NUM_THREADS`, queue timing
//! and admission deferrals change *latency* only, never a result bit:
//! `tests/service_determinism.rs` pins service output against direct
//! `Astra` library calls at 1/2/8 threads and several pool sizes.
//!
//! [`PlannerSession`]: astra_core::PlannerSession
//! [`PlanSpec`]: astra_core::PlanSpec
//! [`JobRequest`]: types::JobRequest
//! [`JobStatus`]: types::JobStatus
//! [`JobSnapshot`]: types::JobSnapshot

pub mod admission;
pub mod cache;
pub mod daemon;
pub mod fairness;
pub mod faults;
pub mod journal;
pub mod net;
pub mod scheduler;
pub mod types;
pub mod wire;

pub use admission::{Admission, AdmissionController, Envelope};
pub use cache::{CacheLookup, SessionCache, SessionCacheStats, SessionKey};
pub use daemon::{ServiceConfig, ServiceDaemon, ServiceHandle};
pub use fairness::{FairnessConfig, TenantEnvelope, TenantStats};
pub use faults::{FaultAction, FaultPlan, FaultRule, FaultSite};
pub use journal::{Journal, JournalRecovery, RecoveredJob};
pub use net::{BackoffPolicy, NetClient, NetConfig, NetServer};
pub use scheduler::{OverloadConfig, SubmitError};
pub use types::{
    FrontierPoint, JobId, JobMetrics, JobRequest, JobSnapshot, JobStatus, PlanOutcome, SimOptions,
    SimOutcome,
};
pub use wire::WireError;
