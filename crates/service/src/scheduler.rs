//! The bounded submission queue and the envelope-gated dispatch that
//! the worker pool pulls from.
//!
//! One mutex guards the whole scheduler state (tenant lanes + global
//! admission occupancy); one condvar wakes workers when either changes.
//! Since PR 8 the dispatch discipline is **deficit round-robin over
//! per-tenant lanes** ([`crate::fairness`]) instead of one global FIFO:
//! jobs queue in their tenant's lane, lanes are served round-robin with
//! planned-cost credit, and each lane additionally respects its
//! tenant's own concurrency/budget envelope. The properties the service
//! promises are preserved:
//!
//! * **no starvation** — every lane is visited each round and accrues
//!   credit until its head fits, and the DRR-chosen head keeps PR 5's
//!   head gate against the *global* envelope (nothing overtakes it
//!   while it waits for capacity), so every admissible job is
//!   eventually dispatched;
//! * **determinism of results** — per-job results depend only on the
//!   request and the daemon's planner configuration. Dispatch *order*
//!   is now a fairness decision rather than submission order, but order
//!   (like worker count and timing) only ever affects latency.
//!
//! Submission failures (queue full, globally or per-tenant infeasible
//! claim, shutting down) are returned to the submitter as reasons; the
//! daemon maps them onto the `Rejected` terminal state. All of them are
//! independent of what is currently running — reject stays
//! state-independent, deferral stays latency-only — with one deliberate
//! exception: **overload shedding** ([`OverloadConfig`]). When queue
//! depth or head-of-line age crosses its thresholds, new *non-priority*
//! submissions are refused with a retryable
//! [`SubmitError::Overloaded`] carrying a `retry_after_ms` hint, while
//! deadline-carrying (QoS) jobs are still accepted. Shedding is
//! load-dependent by design — it exists precisely so that under
//! pressure the deadline class keeps meeting QoS instead of every
//! tenant's work going stale together — and it never touches a job
//! that was already accepted.

use std::sync::{Condvar, Mutex};

use astra_pricing::Money;
use astra_telemetry::{wall_clock_ns, Telemetry};

use crate::admission::{AdmissionController, Envelope};
use crate::fairness::{Dispatch, DrrLanes, FairnessConfig, TenantStats};
use crate::types::JobId;

pub use crate::fairness::QueuedJob;

/// Queue-pressure thresholds for overload shedding. The default is
/// fully disabled (both thresholds at their `MAX` sentinel), preserving
/// the pre-overload behavior: deferral only, no shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Shed non-priority submissions once this many jobs are queued
    /// across all lanes. `usize::MAX` disables the depth trigger.
    pub shed_queue_depth: usize,
    /// Shed non-priority submissions once the oldest head-of-line job
    /// has waited this long. `u64::MAX` disables the age trigger.
    pub shed_head_age_ms: u64,
    /// The `retry_after_ms` hint attached to shed rejections.
    pub retry_after_ms: u64,
}

impl OverloadConfig {
    /// No shedding (the default).
    pub fn disabled() -> Self {
        OverloadConfig {
            shed_queue_depth: usize::MAX,
            shed_head_age_ms: u64::MAX,
            retry_after_ms: 250,
        }
    }

    /// Shed when the queue holds `depth` or more jobs.
    pub fn with_shed_queue_depth(mut self, depth: usize) -> Self {
        self.shed_queue_depth = depth;
        self
    }

    /// Shed when the oldest head-of-line job is `ms` or more old.
    pub fn with_shed_head_age_ms(mut self, ms: u64) -> Self {
        self.shed_head_age_ms = ms;
        self
    }

    /// Override the retry hint on shed rejections.
    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::disabled()
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// A permanent refusal: infeasible claim, full queue, shutdown.
    /// Retrying the identical request gains nothing (full-queue and
    /// shutdown refusals may clear, but carry no retry contract).
    Refused(String),
    /// Overload shedding: the service is degrading gracefully and this
    /// non-priority submission should be retried after the hint.
    Overloaded {
        /// Why the shed triggered (depth or head age).
        reason: String,
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
}

impl SubmitError {
    /// The human-readable reason (what lands in the `Rejected`
    /// snapshot).
    pub fn reason(&self) -> &str {
        match self {
            SubmitError::Refused(reason) => reason,
            SubmitError::Overloaded { reason, .. } => reason,
        }
    }
}

struct SchedState<P> {
    lanes: DrrLanes<P>,
    admission: AdmissionController,
    closed: bool,
    /// A halted scheduler (simulated process crash) refuses submissions
    /// AND stops dispatching, leaving queued jobs and held claims
    /// frozen — unlike `closed`, which drains.
    halted: bool,
}

/// The submission queue + admission gate (see module docs).
pub struct Scheduler<P = ()> {
    state: Mutex<SchedState<P>>,
    wakeup: Condvar,
    capacity: usize,
    overload: OverloadConfig,
    telemetry: Telemetry,
}

impl<P> Scheduler<P> {
    /// A scheduler with a bounded queue, a fresh global envelope, DRR
    /// tenant lanes under `fairness`, and `overload` shedding
    /// thresholds.
    pub fn new(
        queue_capacity: usize,
        envelope: Envelope,
        fairness: FairnessConfig,
        overload: OverloadConfig,
        telemetry: Telemetry,
    ) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                lanes: DrrLanes::new(fairness, telemetry.clone()),
                admission: AdmissionController::new(envelope),
                closed: false,
                halted: false,
            }),
            wakeup: Condvar::new(),
            capacity: queue_capacity,
            overload,
            telemetry,
        }
    }

    /// Enqueue a job in its tenant's lane, with the `payload` that
    /// [`Scheduler::next`] hands its worker. `Err` carries the refusal:
    /// [`SubmitError::Refused`] when the queue is full, the claim can
    /// never fit the global envelope or the tenant's budget share, or
    /// the scheduler is shutting down — all independent of what is
    /// currently running; [`SubmitError::Overloaded`] when queue
    /// pressure sheds this non-priority submission (`priority`
    /// submissions — deadline-carrying jobs — are never shed).
    pub fn submit(
        &self,
        id: JobId,
        tenant: &str,
        claim: Money,
        priority: bool,
        payload: P,
    ) -> Result<(), SubmitError> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.halted {
            return Err(SubmitError::Refused(
                "service is shutting down".to_string(),
            ));
        }
        state.admission.feasible(claim).map_err(SubmitError::Refused)?;
        state
            .lanes
            .feasible(tenant, claim)
            .map_err(SubmitError::Refused)?;
        if state.lanes.queued() >= self.capacity {
            return Err(SubmitError::Refused(format!(
                "submission queue is full ({} pending)",
                self.capacity
            )));
        }
        let now_ns = wall_clock_ns();
        if !priority {
            if let Err(reason) = self.shed_check(&state, now_ns) {
                return Err(SubmitError::Overloaded {
                    reason,
                    retry_after_ms: self.overload.retry_after_ms,
                });
            }
        }
        state.lanes.enqueue(QueuedJob {
            id,
            claim,
            tenant: tenant.into(),
            enqueued_ns: now_ns,
            payload,
        });
        self.wakeup.notify_all();
        Ok(())
    }

    /// Overload verdict under the current queue state: `Err(reason)`
    /// when a shed threshold is crossed.
    fn shed_check(&self, state: &SchedState<P>, now_ns: u64) -> Result<(), String> {
        let depth = state.lanes.queued();
        if depth >= self.overload.shed_queue_depth {
            self.telemetry.counter("service.shed.total", 1);
            self.telemetry.counter("service.shed.queue_depth", 1);
            return Err(format!(
                "service overloaded: {depth} jobs queued (threshold {})",
                self.overload.shed_queue_depth
            ));
        }
        if self.overload.shed_head_age_ms < u64::MAX {
            if let Some(oldest_ns) = state.lanes.oldest_enqueued_ns() {
                let age_ms = now_ns.saturating_sub(oldest_ns) / 1_000_000;
                if age_ms >= self.overload.shed_head_age_ms {
                    self.telemetry.counter("service.shed.total", 1);
                    self.telemetry.counter("service.shed.head_age", 1);
                    return Err(format!(
                        "service overloaded: oldest queued job waited {age_ms} ms \
                         (threshold {} ms)",
                        self.overload.shed_head_age_ms
                    ));
                }
            }
        }
        Ok(())
    }

    /// Block until DRR selects an admissible job, then dispatch it (its
    /// global and tenant claims debited). Returns `None` once the
    /// scheduler is closed and every lane has drained — the worker's
    /// signal to exit — or immediately after a halt.
    pub fn next(&self) -> Option<QueuedJob<P>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.halted {
                return None;
            }
            let SchedState {
                lanes, admission, ..
            } = &mut *state;
            match lanes.try_dispatch(admission) {
                Dispatch::Job(job) => return Some(job),
                Dispatch::Blocked => {
                    if state.closed && state.lanes.queued() == 0 {
                        return None;
                    }
                }
            }
            state = self.wakeup.wait(state).unwrap();
        }
    }

    /// Release a dispatched job's global and tenant claims and wake
    /// deferred workers.
    pub fn complete(&self, job: &QueuedJob<P>) {
        let mut state = self.state.lock().unwrap();
        state.admission.release(job.claim);
        state.lanes.release(&job.tenant, job.claim);
        self.wakeup.notify_all();
    }

    /// Refuse new submissions; queued jobs still drain. Workers exit
    /// from [`Scheduler::next`] once the lanes are empty.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        self.wakeup.notify_all();
    }

    /// Simulate a process crash: stop dispatching immediately, refuse
    /// submissions, and freeze queued jobs and held claims in place (no
    /// release, no drain). Workers return from [`Scheduler::next`] with
    /// `None` at their next wakeup. Only journal replay in a fresh
    /// daemon recovers the frozen work — this is the fault-injection
    /// path [`crate::faults::FaultAction::Crash`] takes.
    pub fn halt(&self) {
        let mut state = self.state.lock().unwrap();
        state.halted = true;
        self.wakeup.notify_all();
    }

    /// Jobs waiting across all lanes right now.
    pub fn queue_len(&self) -> usize {
        self.state.lock().unwrap().lanes.queued()
    }

    /// Jobs currently holding global admission.
    pub fn in_flight(&self) -> usize {
        self.state.lock().unwrap().admission.in_flight()
    }

    /// The global envelope being enforced.
    pub fn envelope(&self) -> Envelope {
        self.state.lock().unwrap().admission.envelope()
    }

    /// Occupancy of one tenant's lane (`None` if the tenant has never
    /// submitted).
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.state.lock().unwrap().lanes.tenant_stats(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::TenantEnvelope;
    use std::sync::Arc;

    fn dollars(d: f64) -> Money {
        Money::from_dollars_f64(d)
    }

    fn sched(capacity: usize, envelope: Envelope) -> Scheduler {
        Scheduler::new(
            capacity,
            envelope,
            FairnessConfig::default(),
            OverloadConfig::disabled(),
            Telemetry::disabled(),
        )
    }

    #[test]
    fn single_tenant_dispatch_is_fifo() {
        let sched = sched(8, Envelope::unbounded());
        for id in 0..5 {
            sched.submit(id, "t", dollars(0.1), false, ()).unwrap();
        }
        sched.close();
        let mut order = Vec::new();
        while let Some(job) = sched.next() {
            order.push(job.id);
            sched.complete(&job);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_rejects_with_reason() {
        let sched = sched(2, Envelope::unbounded());
        sched.submit(0, "a", Money::ZERO, false, ()).unwrap();
        sched.submit(1, "b", Money::ZERO, false, ()).unwrap();
        let err = sched.submit(2, "c", Money::ZERO, false, ()).unwrap_err();
        assert!(err.reason().contains("queue is full"), "{err:?}");
        assert!(matches!(err, SubmitError::Refused(_)));
    }

    #[test]
    fn infeasible_claim_rejected_at_submit() {
        let sched = sched(
            8,
            Envelope {
                max_in_flight: 4,
                budget: dollars(1.0),
            },
        );
        let err = sched.submit(0, "t", dollars(2.0), false, ()).unwrap_err();
        assert!(err.reason().contains("exceeds"), "{err:?}");
        assert_eq!(sched.queue_len(), 0);
    }

    #[test]
    fn tenant_infeasible_claim_rejected_at_submit() {
        let sched = Scheduler::new(
            8,
            Envelope::unbounded(),
            FairnessConfig::default().with_tenant_envelope(
                "metered",
                TenantEnvelope {
                    max_in_flight: 4,
                    budget: dollars(1.0),
                },
            ),
            OverloadConfig::disabled(),
            Telemetry::disabled(),
        );
        let err = sched.submit(0, "metered", dollars(2.0), false, ()).unwrap_err();
        assert!(err.reason().contains("budget share"), "{err:?}");
        // Another tenant with the same claim is fine.
        sched.submit(1, "other", dollars(2.0), false, ()).unwrap();
    }

    #[test]
    fn closed_scheduler_rejects_submissions_but_drains() {
        let sched = sched(8, Envelope::unbounded());
        sched.submit(0, "t", Money::ZERO, false, ()).unwrap();
        sched.close();
        assert!(sched
            .submit(1, "t", Money::ZERO, false, ())
            .unwrap_err()
            .reason()
            .contains("shutting down"));
        let job = sched.next().unwrap();
        assert_eq!(job.id, 0);
        sched.complete(&job);
        assert!(sched.next().is_none());
    }

    #[test]
    fn halted_scheduler_freezes_queue_and_claims() {
        let sched = sched(8, Envelope::unbounded());
        sched.submit(0, "t", dollars(0.5), false, ()).unwrap();
        sched.submit(1, "t", dollars(0.5), false, ()).unwrap();
        let running = sched.next().unwrap();
        assert_eq!(running.id, 0);
        sched.halt();
        // No drain: the queued job stays queued, the claim stays held.
        assert!(sched.next().is_none());
        assert_eq!(sched.queue_len(), 1);
        assert_eq!(sched.in_flight(), 1);
        assert!(sched
            .submit(2, "t", Money::ZERO, false, ())
            .unwrap_err()
            .reason()
            .contains("shutting down"));
    }

    #[test]
    fn depth_shed_spares_priority_submissions() {
        let sched = Scheduler::new(
            64,
            Envelope::unbounded(),
            FairnessConfig::default(),
            OverloadConfig::disabled()
                .with_shed_queue_depth(2)
                .with_retry_after_ms(125),
            Telemetry::disabled(),
        );
        sched.submit(0, "t", Money::ZERO, false, ()).unwrap();
        sched.submit(1, "t", Money::ZERO, false, ()).unwrap();
        // Depth threshold reached: non-priority submissions shed with
        // the retry hint…
        let err = sched.submit(2, "t", Money::ZERO, false, ()).unwrap_err();
        let SubmitError::Overloaded {
            reason,
            retry_after_ms,
        } = err
        else {
            panic!("expected an overload shed, got {err:?}");
        };
        assert!(reason.contains("overloaded"), "{reason}");
        assert_eq!(retry_after_ms, 125);
        // …while a deadline-class submission is still accepted.
        sched.submit(3, "t", Money::ZERO, true, ()).unwrap();
        assert_eq!(sched.queue_len(), 3);
    }

    #[test]
    fn head_age_shed_triggers_on_stale_queue() {
        let sched = Scheduler::new(
            64,
            Envelope::unbounded(),
            FairnessConfig::default(),
            OverloadConfig::disabled().with_shed_head_age_ms(0),
            Telemetry::disabled(),
        );
        // An empty queue has no head to be stale — first job accepted.
        sched.submit(0, "t", Money::ZERO, false, ()).unwrap();
        // Threshold 0 ms: the queued head is instantly "stale".
        let err = sched.submit(1, "t", Money::ZERO, false, ()).unwrap_err();
        assert!(
            matches!(err, SubmitError::Overloaded { .. }),
            "expected head-age shed, got {err:?}"
        );
        // Draining the head clears the pressure signal.
        let job = sched.next().unwrap();
        sched.complete(&job);
        sched.submit(2, "t", Money::ZERO, false, ()).unwrap();
    }

    #[test]
    fn deferred_candidate_blocks_until_release() {
        let sched = Arc::new(sched(
            8,
            Envelope {
                max_in_flight: 1,
                budget: dollars(10.0),
            },
        ));
        sched.submit(0, "t", dollars(1.0), false, ()).unwrap();
        sched.submit(1, "t", dollars(1.0), false, ()).unwrap();

        let first = sched.next().unwrap();
        assert_eq!(first.id, 0);

        // Job 1 is head-gated on the single slot; a worker thread
        // blocks in next() until job 0 completes.
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.next().map(|j| j.id))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !worker.is_finished(),
            "candidate must be deferred while the slot is held"
        );

        sched.complete(&first);
        assert_eq!(worker.join().unwrap(), Some(1));
    }

    #[test]
    fn two_tenants_interleave() {
        // Quantum = one claim, so DRR serves one job per lane per round.
        let sched = Scheduler::new(
            16,
            Envelope::unbounded(),
            FairnessConfig::default().with_quantum(dollars(0.001)),
            OverloadConfig::disabled(),
            Telemetry::disabled(),
        );
        for id in 0..4 {
            sched.submit(id, "flood", dollars(0.001), false, ()).unwrap();
        }
        for id in 10..12 {
            sched.submit(id, "quiet", dollars(0.001), false, ()).unwrap();
        }
        sched.close();
        let mut order = Vec::new();
        while let Some(job) = sched.next() {
            order.push(job.id);
            sched.complete(&job);
        }
        let quiet_done = order.iter().position(|&id| id == 11).unwrap();
        assert!(
            quiet_done <= 3,
            "quiet tenant waited behind the flood: {order:?}"
        );
        assert_eq!(sched.tenant_stats("flood").unwrap().queued, 0);
    }
}
