//! Multi-tenant fairness: per-tenant submission lanes dispatched by
//! deficit round-robin (DRR), each gated by a per-tenant admission
//! envelope.
//!
//! PR 5's scheduler was one FIFO queue: a tenant flooding the daemon
//! with a thousand submissions put every other tenant's jobs behind all
//! of them. This module gives every tenant its own *lane* (a FIFO queue
//! keyed by the request's `tenant` field) and replaces global FIFO
//! dispatch with DRR over the lanes:
//!
//! * each lane carries a **deficit counter** denominated in planned-cost
//!   nanodollars;
//! * when the round-robin cursor reaches a lane, the lane earns one
//!   [`FairnessConfig::quantum`] of credit, then dispatches queue-head
//!   jobs while its deficit covers their claims;
//! * when the head's claim exceeds the deficit, the cursor moves on and
//!   the lane keeps its credit — over R rounds every backlogged lane
//!   receives R·quantum of dispatch credit, so long-run dispatch *cost
//!   rate* is equal across tenants regardless of how many requests each
//!   one queues.
//!
//! A flooding tenant therefore defers only itself: other lanes are
//! visited every round, and a quiet tenant's job waits for at most a
//! quantum's worth of each other lane's work, never the flood's whole
//! backlog. Within a lane, order is strictly FIFO.
//!
//! ## Per-tenant envelopes
//!
//! Each lane also enforces a [`TenantEnvelope`] — a concurrency cap and
//! a planned-cost budget share, the per-tenant twin of the global
//! [`Envelope`](crate::admission::Envelope). The reject-vs-defer line
//! drawn by [`crate::admission`] is preserved exactly:
//!
//! * **Reject** stays *state-independent*: a claim larger than the
//!   tenant's whole budget share (or a tenant whose envelope admits no
//!   jobs at all) is refused at submit time, before anything queues —
//!   the verdict depends only on the request and the configuration.
//! * **Defer** stays *state-dependent and latency-only*: a lane whose
//!   head would overflow the tenant's envelope is skipped (earning no
//!   credit) until that tenant's own completions make room. Other
//!   lanes are unaffected.
//!
//! The *global* envelope keeps its head-gate discipline, applied to the
//! DRR-chosen head instead of the FIFO head: once DRR selects a job and
//! the global envelope defers it, no other lane may overtake it — the
//! selection is sticky until capacity frees up, so a large admissible
//! job is never starved by a stream of small ones.
//!
//! `tests/service_net.rs` property-checks the lot: per-tenant claims
//! never exceed the tenant envelope, lanes drain in FIFO order, and no
//! lane is starved under adversarial claim mixes.

use std::collections::HashMap;
use std::sync::Arc;

use astra_pricing::Money;
use astra_telemetry::Telemetry;

use crate::admission::{Admission, AdmissionController};
use crate::types::JobId;

/// The per-tenant resource envelope: how much of the daemon one tenant
/// may occupy at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantEnvelope {
    /// Maximum jobs from this tenant holding admission at once.
    pub max_in_flight: usize,
    /// Total planned cost this tenant's in-flight set may claim.
    pub budget: Money,
}

impl TenantEnvelope {
    /// An envelope that never constrains the tenant (the global
    /// envelope still applies).
    pub fn unbounded() -> Self {
        TenantEnvelope {
            max_in_flight: usize::MAX,
            // Same headroom convention as Envelope::unbounded().
            budget: Money::from_nanos(i128::MAX / 2),
        }
    }
}

impl Default for TenantEnvelope {
    fn default() -> Self {
        TenantEnvelope::unbounded()
    }
}

/// Fairness configuration for the scheduler: the DRR quantum plus the
/// per-tenant envelopes.
#[derive(Debug, Clone)]
pub struct FairnessConfig {
    /// Planned-cost credit a lane earns each time the DRR cursor visits
    /// it. Larger quanta approach per-job round-robin; smaller quanta
    /// approximate cost-proportional sharing more finely. Must be
    /// positive.
    pub quantum: Money,
    /// Envelope applied to tenants with no explicit entry.
    pub default_envelope: TenantEnvelope,
    /// Per-tenant envelope overrides, keyed by the request's `tenant`
    /// field (the empty string is the anonymous tenant).
    pub tenant_envelopes: HashMap<String, TenantEnvelope>,
}

impl FairnessConfig {
    /// Override the DRR quantum.
    pub fn with_quantum(mut self, quantum: Money) -> Self {
        assert!(quantum > Money::ZERO, "DRR quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Set one tenant's envelope.
    pub fn with_tenant_envelope(
        mut self,
        tenant: impl Into<String>,
        envelope: TenantEnvelope,
    ) -> Self {
        self.tenant_envelopes.insert(tenant.into(), envelope);
        self
    }

    /// Override the envelope used by tenants without an explicit entry.
    pub fn with_default_envelope(mut self, envelope: TenantEnvelope) -> Self {
        self.default_envelope = envelope;
        self
    }

    /// The envelope in force for `tenant`.
    pub fn envelope_for(&self, tenant: &str) -> TenantEnvelope {
        self.tenant_envelopes
            .get(tenant)
            .copied()
            .unwrap_or(self.default_envelope)
    }
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            // One cent of planned cost per visit. Each backlogged lane
            // earns exactly this much dispatch credit per round, so a
            // lane of sub-cent jobs bursts several per visit while a
            // lane of pricier jobs accrues across rounds — equal cost
            // rate either way. Tune it toward the deployment's typical
            // claim to trade per-job interleaving against round count.
            quantum: Money::from_dollars_f64(0.01),
            default_envelope: TenantEnvelope::unbounded(),
            tenant_envelopes: HashMap::new(),
        }
    }
}

/// A queued dispatch unit: the job, the tenant lane it belongs to, the
/// admission claim its planned cost debits while it runs, and what it
/// carries to its worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob<P = ()> {
    /// The job to run.
    pub id: JobId,
    /// Planned-cost claim held until released on completion.
    pub claim: Money,
    /// The tenant lane this job queued in ("" = anonymous).
    pub tenant: Arc<str>,
    /// Wall-clock enqueue stamp (the scheduler's head-of-line age
    /// signal for overload shedding).
    pub enqueued_ns: u64,
    /// What the worker that dispatches the job runs (the daemon's
    /// admission plan).
    pub payload: P,
}

/// Point-in-time occupancy of one tenant's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Jobs waiting in this tenant's lane.
    pub queued: usize,
    /// Jobs from this tenant currently holding admission.
    pub in_flight: usize,
    /// Planned cost currently claimed by this tenant's in-flight jobs.
    pub claimed: Money,
}

struct Lane<P> {
    queue: std::collections::VecDeque<QueuedJob<P>>,
    /// DRR credit, in nanodollars of planned cost.
    deficit: Money,
    in_flight: usize,
    claimed: Money,
    envelope: TenantEnvelope,
}

impl<P> Lane<P> {
    /// Would this lane's envelope admit `claim` right now?
    fn admits(&self, claim: Money) -> bool {
        self.in_flight < self.envelope.max_in_flight
            && self.claimed + claim <= self.envelope.budget
    }
}

/// The outcome of one dispatch attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch<P = ()> {
    /// A job was selected and its claims (global and tenant) debited.
    Job(QueuedJob<P>),
    /// Nothing can dispatch right now: every non-empty lane is deferred
    /// by its tenant envelope, or the DRR-chosen head is head-gated on
    /// the global envelope. Retry after a release or a submission.
    Blocked,
}

/// The DRR lane set. Not internally synchronized — the scheduler holds
/// it under its own lock, exactly like [`AdmissionController`].
pub struct DrrLanes<P = ()> {
    config: FairnessConfig,
    lanes: Vec<Lane<P>>,
    index: HashMap<Arc<str>, usize>,
    /// Round-robin cursor into `lanes`.
    cursor: usize,
    /// Whether the lane under the cursor already earned its quantum for
    /// the current visit (so a burst of dispatches from one visit never
    /// double-credits).
    granted_at_cursor: bool,
    /// Lane whose head the global envelope deferred: while set, only
    /// that head may dispatch (no overtaking — the no-starvation
    /// guarantee of PR 5's FIFO head gate, transplanted to DRR).
    gate: Option<usize>,
    queued: usize,
    telemetry: Telemetry,
}

impl<P> DrrLanes<P> {
    /// An empty lane set under `config`.
    pub fn new(config: FairnessConfig, telemetry: Telemetry) -> Self {
        assert!(config.quantum > Money::ZERO, "DRR quantum must be positive");
        DrrLanes {
            config,
            lanes: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            granted_at_cursor: false,
            gate: None,
            queued: 0,
            telemetry,
        }
    }

    /// Total jobs waiting across all lanes.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Number of lanes ever created (lanes persist once a tenant has
    /// submitted).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The earliest enqueue stamp among all lane heads — the oldest
    /// head-of-line job's age drives overload shedding. `None` when
    /// nothing is queued. Only heads matter: within a lane order is
    /// FIFO, so the head is the oldest job in it.
    pub fn oldest_enqueued_ns(&self) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.queue.front().map(|job| job.enqueued_ns))
            .min()
    }

    /// Occupancy of `tenant`'s lane, if that tenant has ever submitted.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.index.get(tenant).map(|&i| {
            let lane = &self.lanes[i];
            TenantStats {
                queued: lane.queue.len(),
                in_flight: lane.in_flight,
                claimed: lane.claimed,
            }
        })
    }

    /// State-independent per-tenant feasibility: could this claim ever
    /// be admitted under `tenant`'s envelope, regardless of occupancy?
    /// `Err` carries the rejection reason. The global-envelope twin is
    /// [`AdmissionController::feasible`].
    pub fn feasible(&self, tenant: &str, claim: Money) -> Result<(), String> {
        let envelope = self.config.envelope_for(tenant);
        if envelope.max_in_flight == 0 {
            return Err(format!(
                "tenant '{tenant}' envelope admits no jobs (max_in_flight = 0)"
            ));
        }
        if claim > envelope.budget {
            return Err(format!(
                "planned cost {} exceeds tenant '{}' budget share {}",
                claim, tenant, envelope.budget
            ));
        }
        Ok(())
    }

    fn lane_for(&mut self, tenant: &str) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        let tenant: Arc<str> = Arc::from(tenant);
        let envelope = self.config.envelope_for(&tenant);
        self.lanes.push(Lane {
            queue: std::collections::VecDeque::new(),
            deficit: Money::ZERO,
            in_flight: 0,
            claimed: Money::ZERO,
            envelope,
        });
        let i = self.lanes.len() - 1;
        self.index.insert(tenant, i);
        self.telemetry
            .gauge("service.tenant.lanes", self.lanes.len() as f64);
        i
    }

    /// Append a job to its tenant's lane (creating the lane on first
    /// sight of the tenant). The caller has already checked
    /// [`DrrLanes::feasible`] and the queue bound.
    pub fn enqueue(&mut self, job: QueuedJob<P>) {
        let i = self.lane_for(&job.tenant);
        self.lanes[i].queue.push_back(job);
        self.queued += 1;
    }

    /// Debit the dispatch of lane `i`'s head out of its deficit and its
    /// tenant envelope, and hand the job out.
    fn pop_dispatch(&mut self, i: usize) -> Dispatch<P> {
        let lane = &mut self.lanes[i];
        let job = lane.queue.pop_front().expect("dispatch from empty lane");
        lane.deficit -= job.claim;
        lane.in_flight += 1;
        lane.claimed += job.claim;
        if lane.queue.is_empty() {
            // Classic DRR: an emptied lane forfeits leftover credit, so
            // idle tenants cannot bank a burst.
            lane.deficit = Money::ZERO;
        }
        self.queued -= 1;
        self.telemetry.counter("service.tenant.dispatched", 1);
        Dispatch::Job(job)
    }

    /// Advance the cursor one lane, resetting the per-visit grant.
    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len().max(1);
        self.granted_at_cursor = false;
    }

    /// One DRR dispatch attempt against the shared `global` controller.
    ///
    /// Runs rounds of the cursor until a head dispatches, the chosen
    /// head is globally head-gated, or every non-empty lane is deferred
    /// by its tenant envelope — the two latter cases return
    /// [`Dispatch::Blocked`] and the caller waits for a release.
    pub fn try_dispatch(&mut self, global: &mut AdmissionController) -> Dispatch<P> {
        if self.queued == 0 {
            return Dispatch::Blocked;
        }
        // A gated head bypasses lane scanning entirely: it was already
        // selected and credited, and nothing may overtake it.
        if let Some(i) = self.gate {
            let claim = self.lanes[i].queue.front().expect("gated empty lane").claim;
            return match global.admit(claim) {
                Admission::Admit => {
                    self.gate = None;
                    self.pop_dispatch(i)
                }
                Admission::Defer => Dispatch::Blocked,
                Admission::Reject(reason) => {
                    unreachable!("infeasible claim reached the gate: {reason}")
                }
            };
        }
        loop {
            // One full round of the cursor. Tracks whether any lane was
            // blocked only by an insufficient deficit — those earn
            // credit every round, so looping terminates (the deficit
            // reaches the head claim in at most claim/quantum rounds).
            let mut deficit_blocked = false;
            let mut visited = 0;
            let n = self.lanes.len();
            while visited < n {
                let lane = &mut self.lanes[self.cursor];
                let Some(head) = lane.queue.front() else {
                    lane.deficit = Money::ZERO;
                    self.advance();
                    visited += 1;
                    continue;
                };
                let claim = head.claim;
                if !lane.admits(claim) {
                    // Tenant-envelope deferral: the lane defers itself
                    // and earns no credit while it cannot run.
                    self.telemetry.counter("service.tenant.lane_skips", 1);
                    self.advance();
                    visited += 1;
                    continue;
                }
                if !self.granted_at_cursor {
                    lane.deficit += self.config.quantum;
                    self.granted_at_cursor = true;
                }
                if claim <= self.lanes[self.cursor].deficit {
                    match global.admit(claim) {
                        Admission::Admit => {
                            // Cursor stays put: the lane may keep
                            // dispatching on the next call until its
                            // deficit runs dry (the DRR burst), but the
                            // per-visit grant is already spent.
                            return self.pop_dispatch(self.cursor);
                        }
                        Admission::Defer => {
                            self.gate = Some(self.cursor);
                            self.telemetry.counter("service.tenant.gate_waits", 1);
                            return Dispatch::Blocked;
                        }
                        Admission::Reject(reason) => {
                            unreachable!("infeasible claim reached a lane: {reason}")
                        }
                    }
                }
                deficit_blocked = true;
                self.advance();
                visited += 1;
            }
            if !deficit_blocked {
                // Every non-empty lane is tenant-deferred; only a
                // release can change that.
                return Dispatch::Blocked;
            }
            self.telemetry.counter("service.tenant.rounds", 1);
        }
    }

    /// Release a dispatched job's tenant-envelope claim. The caller
    /// releases the global claim separately.
    ///
    /// # Panics
    /// If the tenant has nothing in flight — releases must pair with
    /// dispatches.
    pub fn release(&mut self, tenant: &str, claim: Money) {
        let &i = self
            .index
            .get(tenant)
            .expect("release for a tenant that never dispatched");
        let lane = &mut self.lanes[i];
        assert!(lane.in_flight > 0, "tenant release without a dispatch");
        lane.in_flight -= 1;
        lane.claimed -= claim;
        assert!(
            lane.claimed >= Money::ZERO,
            "tenant released more budget than claimed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Envelope;

    fn dollars(d: f64) -> Money {
        Money::from_dollars_f64(d)
    }

    fn job(id: JobId, tenant: &str, claim: f64) -> QueuedJob {
        QueuedJob {
            id,
            claim: dollars(claim),
            tenant: Arc::from(tenant),
            enqueued_ns: id,
            payload: (),
        }
    }

    fn lanes(config: FairnessConfig) -> (DrrLanes, AdmissionController) {
        (
            DrrLanes::new(config, Telemetry::disabled()),
            AdmissionController::new(Envelope::unbounded()),
        )
    }

    /// Drain everything, returning dispatch order; releases immediately.
    fn drain(drr: &mut DrrLanes, global: &mut AdmissionController) -> Vec<JobId> {
        let mut order = Vec::new();
        while let Dispatch::Job(j) = drr.try_dispatch(global) {
            order.push(j.id);
            global.release(j.claim);
            drr.release(&j.tenant, j.claim);
        }
        order
    }

    #[test]
    fn single_tenant_is_fifo() {
        let (mut drr, mut global) = lanes(FairnessConfig::default());
        for id in 0..5 {
            drr.enqueue(job(id, "", 0.001));
        }
        assert_eq!(drain(&mut drr, &mut global), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn flooding_tenant_defers_only_itself() {
        // Tenant "flood" queues 6 jobs before "quiet" queues 2; with
        // equal claims and a quantum covering one job, DRR alternates
        // lanes instead of draining the flood first.
        let (mut drr, mut global) = lanes(FairnessConfig::default());
        for id in 0..6 {
            drr.enqueue(job(id, "flood", 0.005));
        }
        drr.enqueue(job(100, "quiet", 0.005));
        drr.enqueue(job(101, "quiet", 0.005));
        let order = drain(&mut drr, &mut global);
        let quiet_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &id)| id >= 100)
            .map(|(pos, _)| pos)
            .collect();
        assert!(
            quiet_positions[1] <= 3,
            "quiet tenant finished at {quiet_positions:?} of {order:?}"
        );
        // Within each lane, FIFO order held.
        let flood: Vec<JobId> = order.iter().copied().filter(|&id| id < 100).collect();
        assert_eq!(flood, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn deficit_accrues_until_a_large_job_fits() {
        // A head costing 3 quanta accrues credit over 3 rounds while
        // the cheap lane spends one quantum (5 jobs) per round: the big
        // job dispatches 11th of 41, neither first (cost fairness held
        // it back) nor starved behind the whole cheap backlog.
        let config = FairnessConfig::default().with_quantum(dollars(0.01));
        let (mut drr, mut global) = lanes(config);
        drr.enqueue(job(0, "big", 0.03));
        for id in 1..41 {
            drr.enqueue(job(id, "small", 0.002));
        }
        let order = drain(&mut drr, &mut global);
        let big_pos = order.iter().position(|&id| id == 0).unwrap();
        assert!(
            (5..=12).contains(&big_pos),
            "big job at {big_pos} of {}: {order:?}",
            order.len()
        );
    }

    #[test]
    fn tenant_envelope_defers_only_that_tenant() {
        let config = FairnessConfig::default().with_tenant_envelope(
            "capped",
            TenantEnvelope {
                max_in_flight: 1,
                budget: dollars(10.0),
            },
        );
        let (mut drr, mut global) = lanes(config);
        drr.enqueue(job(0, "capped", 0.001));
        drr.enqueue(job(1, "capped", 0.001));
        drr.enqueue(job(2, "free", 0.001));

        // First capped job dispatches and holds its slot.
        let Dispatch::Job(first) = drr.try_dispatch(&mut global) else {
            panic!("expected a dispatch");
        };
        assert_eq!(first.id, 0);
        // Second capped job is deferred, but "free" still dispatches.
        let Dispatch::Job(second) = drr.try_dispatch(&mut global) else {
            panic!("capped tenant blocked an unrelated lane");
        };
        assert_eq!(second.id, 2);
        // Nothing else can run until the capped slot frees.
        assert_eq!(drr.try_dispatch(&mut global), Dispatch::Blocked);
        global.release(first.claim);
        drr.release("capped", first.claim);
        let Dispatch::Job(third) = drr.try_dispatch(&mut global) else {
            panic!("released slot not re-used");
        };
        assert_eq!(third.id, 1);
        let stats = drr.tenant_stats("capped").unwrap();
        assert_eq!((stats.queued, stats.in_flight), (0, 1));
    }

    #[test]
    fn tenant_budget_share_rejects_oversized_claims_statelessly() {
        let config = FairnessConfig::default().with_tenant_envelope(
            "metered",
            TenantEnvelope {
                max_in_flight: 8,
                budget: dollars(1.0),
            },
        );
        let (drr, _) = lanes(config);
        assert!(drr.feasible("metered", dollars(0.5)).is_ok());
        let reason = drr.feasible("metered", dollars(1.5)).unwrap_err();
        assert!(reason.contains("budget share"), "{reason}");
        assert!(drr.feasible("other", dollars(1.5)).is_ok());
    }

    #[test]
    fn global_gate_prevents_overtaking() {
        // Global envelope: one slot. Lane "a" head dispatches; lane "b"
        // head becomes the gated candidate; a later cheap job in lane
        // "c" must NOT overtake it when the slot frees.
        let mut drr = DrrLanes::new(FairnessConfig::default(), Telemetry::disabled());
        let mut global = AdmissionController::new(Envelope {
            max_in_flight: 1,
            budget: dollars(100.0),
        });
        drr.enqueue(job(0, "a", 0.005));
        drr.enqueue(job(1, "b", 0.005));
        let Dispatch::Job(first) = drr.try_dispatch(&mut global) else {
            panic!()
        };
        assert_eq!(first.id, 0);
        assert_eq!(drr.try_dispatch(&mut global), Dispatch::Blocked);
        drr.enqueue(job(2, "c", 0.001));
        assert_eq!(drr.try_dispatch(&mut global), Dispatch::Blocked);
        global.release(first.claim);
        drr.release("a", first.claim);
        let Dispatch::Job(second) = drr.try_dispatch(&mut global) else {
            panic!()
        };
        assert_eq!(second.id, 1, "gated head was overtaken");
    }

    #[test]
    fn empty_lane_forfeits_credit() {
        let config = FairnessConfig::default().with_quantum(dollars(0.01));
        let (mut drr, mut global) = lanes(config);
        drr.enqueue(job(0, "bursty", 0.001));
        assert!(matches!(drr.try_dispatch(&mut global), Dispatch::Job(_)));
        global.release(dollars(0.001));
        drr.release("bursty", dollars(0.001));
        // The lane emptied; its banked credit is gone, so a fresh big
        // job must accrue from zero (three rounds of one quantum), not
        // dispatch instantly off stale credit.
        drr.enqueue(job(1, "bursty", 0.03));
        drr.enqueue(job(2, "steady", 0.001));
        let order = drain(&mut drr, &mut global);
        assert_eq!(order[0], 2, "stale credit let the burst overtake: {order:?}");
    }

    #[test]
    #[should_panic(expected = "tenant release without a dispatch")]
    fn unmatched_tenant_release_panics() {
        let (mut drr, _) = lanes(FairnessConfig::default());
        drr.enqueue(job(0, "t", 0.001));
        drr.release("t", dollars(0.001));
    }
}
