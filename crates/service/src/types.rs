//! Job specification, lifecycle and result types.
//!
//! [`JobRequest`] is what a tenant submits; [`JobSnapshot`] is what the
//! service answers status queries with. Both have strict JSON twins in
//! [`crate::wire`]. The lifecycle state machine is encoded once, in
//! [`JobStatus::can_transition_to`], and the daemon asserts every edge
//! it takes against it — the integration suite re-checks recorded
//! histories with the same predicate.

use astra_core::{Objective, PlanSpec};
use astra_model::JobSpec;
use astra_pricing::Money;
use serde::{Deserialize, Serialize};

/// Service-assigned job identifier, dense in submission order (the first
/// accepted submission gets id 1).
pub type JobId = u64;

/// Simulation parameters of one request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Runtime-noise coefficient of variation (0 = deterministic).
    pub noise_cv: f64,
    /// Base seed; replication `i` runs with
    /// `astra_faas::derive_seed(seed, i)`.
    pub seed: u64,
    /// Number of simulated replications; 0 means plan-only (the job goes
    /// `Planned → Done` without a `Simulating` phase).
    pub replications: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            noise_cv: 0.1,
            seed: 42,
            replications: 1,
        }
    }
}

/// One job submission: who wants what planned (and simulated) under
/// which objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Client-visible job name (reports, spans).
    pub name: String,
    /// Tenant label for multi-tenant bookkeeping ("" = anonymous).
    pub tenant: String,
    /// The workload to plan.
    pub job: JobSpec,
    /// Budget or deadline requirement.
    pub objective: Objective,
    /// Simulation parameters.
    pub sim: SimOptions,
}

impl JobRequest {
    /// A request with default simulation options and no tenant label.
    pub fn new(name: impl Into<String>, job: JobSpec, objective: Objective) -> Self {
        JobRequest {
            name: name.into(),
            tenant: String::new(),
            job,
            objective,
            sim: SimOptions::default(),
        }
    }

    /// Attach a tenant label.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Replace the simulation options.
    pub fn with_sim(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// Validate the request without panicking (the model types assert on
    /// bad values; the service must answer `Rejected` instead).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("job name must not be empty".to_string());
        }
        if self.job.object_sizes_mb.is_empty() {
            return Err("job needs at least one input object".to_string());
        }
        for (i, &mb) in self.job.object_sizes_mb.iter().enumerate() {
            if !(mb > 0.0 && mb.is_finite()) {
                return Err(format!("object {i} has invalid size {mb} MB"));
            }
        }
        let p = &self.job.profile;
        if !(p.map_secs_per_mb_128 >= 0.0
            && p.reduce_secs_per_mb_128 >= 0.0
            && p.coord_secs_per_mb_128 >= 0.0
            && p.state_object_mb >= 0.0)
        {
            return Err("profile intensities must be non-negative".to_string());
        }
        if !(p.shuffle_ratio > 0.0 && p.shuffle_ratio.is_finite()) {
            return Err(format!("shuffle ratio {} out of range", p.shuffle_ratio));
        }
        if !(p.reduce_ratio > 0.0 && p.reduce_ratio <= 1.0) {
            return Err(format!("reduce ratio {} out of (0, 1]", p.reduce_ratio));
        }
        match self.objective {
            Objective::MinimizeTime { budget } => {
                if budget <= Money::ZERO {
                    return Err(format!("budget {budget} must be positive"));
                }
            }
            Objective::MinimizeCost { deadline_s } => {
                if deadline_s.is_nan() || deadline_s <= 0.0 {
                    return Err(format!("deadline {deadline_s}s must be positive"));
                }
            }
        }
        if !(self.sim.noise_cv >= 0.0 && self.sim.noise_cv.is_finite()) {
            return Err(format!("noise CV {} out of range", self.sim.noise_cv));
        }
        Ok(())
    }

    /// True when this request carries a finite completion deadline —
    /// the QoS-bearing class the scheduler's overload shedding protects
    /// (deadline jobs are never shed; see [`crate::scheduler`]).
    pub fn carries_deadline(&self) -> bool {
        matches!(
            self.objective,
            Objective::MinimizeCost { deadline_s } if deadline_s.is_finite()
        )
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobStatus {
    /// Past admission, waiting in the submission queue.
    Accepted,
    /// A worker took up the job's admission plan.
    Planned,
    /// Replications are running on the simulator.
    Simulating,
    /// Terminal: planned (and, if requested, simulated) successfully.
    Done,
    /// Terminal: refused — invalid spec, infeasible objective, envelope
    /// overflow or queue overload. The snapshot carries the reason.
    Rejected,
    /// Terminal: an internal error after admission. Should not happen;
    /// the snapshot carries the reason.
    Failed,
}

impl JobStatus {
    /// Every status, in lifecycle order.
    pub const ALL: [JobStatus; 6] = [
        JobStatus::Accepted,
        JobStatus::Planned,
        JobStatus::Simulating,
        JobStatus::Done,
        JobStatus::Rejected,
        JobStatus::Failed,
    ];

    /// True for `Done`, `Rejected` and `Failed`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Rejected | JobStatus::Failed
        )
    }

    /// The legal lifecycle edges. `Planned → Done` covers plan-only
    /// requests (`replications == 0`); there is no skipping `Planned`
    /// and no leaving a terminal state.
    pub fn can_transition_to(self, next: JobStatus) -> bool {
        use JobStatus::*;
        matches!(
            (self, next),
            (Accepted, Planned)
                | (Accepted, Rejected)
                | (Accepted, Failed)
                | (Planned, Simulating)
                | (Planned, Done)
                | (Planned, Failed)
                | (Simulating, Done)
                | (Simulating, Failed)
        )
    }

    /// Canonical SCREAMING_SNAKE_CASE wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Accepted => "ACCEPTED",
            JobStatus::Planned => "PLANNED",
            JobStatus::Simulating => "SIMULATING",
            JobStatus::Done => "DONE",
            JobStatus::Rejected => "REJECTED",
            JobStatus::Failed => "FAILED",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobStatus> {
        JobStatus::ALL.into_iter().find(|j| j.as_str() == s)
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The planning half of a job's result.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The chosen configuration.
    pub spec: PlanSpec,
    /// Model-predicted completion time (s).
    pub predicted_jct_s: f64,
    /// Model-predicted bill.
    pub predicted_cost: Money,
    /// One-line human summary.
    pub summary: String,
}

/// The simulation half of a job's result: one entry per replication, in
/// replication order (replication `i` used seed `derive_seed(seed, i)`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOutcome {
    /// Simulated completion time per replication (s).
    pub jct_s: Vec<f64>,
    /// Simulated bill per replication.
    pub cost: Vec<Money>,
    /// Engine events per replication.
    pub events: Vec<u64>,
}

impl SimOutcome {
    /// Mean simulated JCT across replications.
    pub fn mean_jct_s(&self) -> f64 {
        if self.jct_s.is_empty() {
            0.0
        } else {
            self.jct_s.iter().sum::<f64>() / self.jct_s.len() as f64
        }
    }

    /// Mean simulated bill across replications (nanodollar-exact sum,
    /// rounded division).
    pub fn mean_cost(&self) -> Money {
        if self.cost.is_empty() {
            Money::ZERO
        } else {
            let total: i128 = self.cost.iter().map(|c| c.nanos()).sum();
            Money::from_nanos(total).div_round(self.cost.len() as i128)
        }
    }
}

/// Wall-clock accounting of one job's trip through the service, in
/// nanoseconds (monotonic process clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobMetrics {
    /// Submission → picked up by a worker.
    pub queue_wait_ns: u64,
    /// Wall time of the admission plan (session lookup or build,
    /// solve, evaluation).
    pub plan_ns: u64,
    /// Time inside the simulation phase.
    pub sim_ns: u64,
    /// Submission → terminal state.
    pub total_ns: u64,
}

/// One point of a cost–performance frontier answer.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Predicted bill of this plan.
    pub cost: Money,
    /// Predicted completion time (s).
    pub jct_s: f64,
    /// One-line plan summary.
    pub summary: String,
}

/// A point-in-time copy of one job's record: what `status` and
/// `await_done` return.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// Service-assigned id.
    pub id: JobId,
    /// The submitted request (parse failures keep a placeholder).
    pub request: JobRequest,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Every state entered, oldest first, with monotonic wall-clock
    /// stamps (`astra_telemetry::wall_clock_ns`). The first entry is
    /// always `Accepted`.
    pub history: Vec<(JobStatus, u64)>,
    /// Why the job was rejected or failed, if it was.
    pub reason: Option<String>,
    /// Planning result, present from `Planned` on.
    pub plan: Option<PlanOutcome>,
    /// Simulation result, present on `Done` when replications > 0.
    pub sim: Option<SimOutcome>,
    /// Wall-clock accounting (complete once terminal).
    pub metrics: JobMetrics,
    /// Whether the admission plan reused a cached session.
    pub session_cache_hit: bool,
    /// Set only on overload-shed rejections: how long the client should
    /// wait before retrying (the `OVERLOADED` protocol error carries
    /// it; see PROTOCOL.md).
    pub retry_after_ms: Option<u64>,
}

impl JobSnapshot {
    /// True once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        self.status.is_terminal()
    }

    /// Assert that the recorded history walks only legal lifecycle
    /// edges, starts at `Accepted`, has non-decreasing timestamps, and
    /// agrees with the current status. Returns an error string instead
    /// of panicking so property tests can report context.
    pub fn check_history(&self) -> Result<(), String> {
        let Some(&(first, _)) = self.history.first() else {
            return Err(format!("job {}: empty history", self.id));
        };
        if first != JobStatus::Accepted {
            return Err(format!("job {}: history starts at {first}", self.id));
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
        let (last, _) = *self.history.last().expect("non-empty");
        if last != self.status {
            return Err(format!(
                "job {}: status {} but history ends at {last}",
                self.id, self.status
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn request() -> JobRequest {
        JobRequest::new(
            "t",
            JobSpec::uniform("t", 4, 1.0, WorkloadProfile::uniform_test()),
            Objective::fastest(),
        )
    }

    #[test]
    fn terminal_states_have_no_exits() {
        for s in [JobStatus::Done, JobStatus::Rejected, JobStatus::Failed] {
            assert!(s.is_terminal());
            for t in JobStatus::ALL {
                assert!(!s.can_transition_to(t), "{s} -> {t} must be illegal");
            }
        }
    }

    #[test]
    fn lifecycle_has_no_skips_or_backsteps() {
        use JobStatus::*;
        assert!(Accepted.can_transition_to(Planned));
        assert!(Planned.can_transition_to(Simulating));
        assert!(Simulating.can_transition_to(Done));
        assert!(Planned.can_transition_to(Done), "plan-only shortcut");
        // No skipping the planning phase, no going backwards.
        assert!(!Accepted.can_transition_to(Simulating));
        assert!(!Accepted.can_transition_to(Done));
        assert!(!Planned.can_transition_to(Accepted));
        assert!(!Simulating.can_transition_to(Planned));
        // Rejection only happens before planning.
        assert!(!Planned.can_transition_to(Rejected));
        assert!(!Simulating.can_transition_to(Rejected));
    }

    #[test]
    fn status_names_round_trip() {
        for s in JobStatus::ALL {
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(request().validate().is_ok());

        let mut r = request();
        r.job.object_sizes_mb[0] = -1.0;
        assert!(r.validate().unwrap_err().contains("invalid size"));

        let mut r = request();
        r.job.profile.reduce_ratio = 2.0;
        assert!(r.validate().unwrap_err().contains("reduce ratio"));

        let mut r = request();
        r.objective = Objective::MinimizeTime {
            budget: Money::ZERO,
        };
        assert!(r.validate().unwrap_err().contains("budget"));

        let mut r = request();
        r.sim.noise_cv = f64::NAN;
        assert!(r.validate().unwrap_err().contains("noise"));
    }

    #[test]
    fn sim_outcome_means() {
        let out = SimOutcome {
            jct_s: vec![1.0, 3.0],
            cost: vec![Money::from_nanos(10), Money::from_nanos(20)],
            events: vec![5, 6],
        };
        assert!((out.mean_jct_s() - 2.0).abs() < 1e-12);
        assert_eq!(out.mean_cost(), Money::from_nanos(15));
        assert_eq!(SimOutcome::default().mean_cost(), Money::ZERO);
    }

    #[test]
    fn history_checker_flags_violations() {
        let mut snap = JobSnapshot {
            id: 1,
            request: request(),
            status: JobStatus::Done,
            history: vec![
                (JobStatus::Accepted, 0),
                (JobStatus::Planned, 1),
                (JobStatus::Simulating, 2),
                (JobStatus::Done, 3),
            ],
            reason: None,
            plan: None,
            sim: None,
            metrics: JobMetrics::default(),
            session_cache_hit: false,
            retry_after_ms: None,
        };
        assert!(snap.check_history().is_ok());

        snap.history[1].0 = JobStatus::Simulating; // skipped Planned
        assert!(snap.check_history().unwrap_err().contains("illegal edge"));

        snap.history[1].0 = JobStatus::Planned;
        snap.status = JobStatus::Failed; // disagrees with history tail
        assert!(snap.check_history().unwrap_err().contains("ends at"));
    }
}
