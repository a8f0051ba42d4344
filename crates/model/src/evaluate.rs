//! One-call evaluation of a configuration: feasibility, time and cost.

use astra_pricing::{Money, PriceCatalog};
use serde::{Deserialize, Serialize};

use crate::config::JobConfig;
use crate::cost::{full_cost, CostBreakdown};
use crate::job::JobSpec;
use crate::perf::{full_perf, PerfBreakdown};
use crate::platform::Platform;
use crate::schedule;

/// Why a configuration cannot run on the platform (paper constraint
/// Eq. 18 plus the per-function timeout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Infeasibility {
    /// More parallel lambdas requested than the concurrency limit `R`.
    ConcurrencyExceeded {
        /// Lambdas requested in the widest phase.
        requested: usize,
        /// The platform limit.
        limit: u32,
    },
    /// Job data exceeds the storage cap `O`.
    StorageExceeded {
        /// Peak MB the job stores.
        required_mb: f64,
        /// The platform cap.
        limit_mb: f64,
    },
    /// Some lambda would exceed the execution timeout.
    TimeoutExceeded {
        /// Which lambda ("mapper", "coordinator", "reducer").
        role: &'static str,
        /// Its modelled lifetime.
        lifetime_s: f64,
        /// The platform timeout.
        limit_s: f64,
    },
    /// A memory size that is not an allocatable tier.
    InvalidMemoryTier {
        /// The offending size in MB.
        mem_mb: u32,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::ConcurrencyExceeded { requested, limit } => {
                write!(
                    f,
                    "{requested} concurrent lambdas exceed the limit of {limit}"
                )
            }
            Infeasibility::StorageExceeded {
                required_mb,
                limit_mb,
            } => write!(
                f,
                "{required_mb:.0} MB exceeds the {limit_mb:.0} MB storage cap"
            ),
            Infeasibility::TimeoutExceeded {
                role,
                lifetime_s,
                limit_s,
            } => write!(
                f,
                "{role} would run {lifetime_s:.1}s, over the {limit_s:.0}s timeout"
            ),
            Infeasibility::InvalidMemoryTier { mem_mb } => {
                write!(f, "{mem_mb} MB is not an allocatable memory size")
            }
        }
    }
}

impl std::error::Error for Infeasibility {}

/// The model's verdict on one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Completion-time breakdown.
    pub perf: PerfBreakdown,
    /// Cost breakdown.
    pub cost: CostBreakdown,
}

impl Evaluation {
    /// Modelled job completion time in seconds.
    pub fn jct_s(&self) -> f64 {
        self.perf.jct_s()
    }

    /// Modelled total bill.
    pub fn total_cost(&self) -> Money {
        self.cost.total()
    }
}

/// Evaluate a configuration end to end, checking the platform constraints
/// the paper's Eq. 18 imposes (concurrency, storage) plus per-function
/// timeouts.
pub fn evaluate(
    job: &JobSpec,
    platform: &Platform,
    config: &JobConfig,
    catalog: &PriceCatalog,
) -> Result<Evaluation, Infeasibility> {
    for mem in [
        config.mapper_mem_mb,
        config.coordinator_mem_mb,
        config.reducer_mem_mb,
    ] {
        if !platform.is_valid_tier(mem) {
            return Err(Infeasibility::InvalidMemoryTier { mem_mb: mem });
        }
    }

    let perf = full_perf(job, platform, config);
    check_feasibility(job, platform, &perf)?;
    let cost = full_cost(job, config, &perf, platform, catalog);
    Ok(Evaluation { perf, cost })
}

/// Check the platform constraints (Eq. 18 plus timeouts) against an
/// already-computed performance breakdown. Factored out so that
/// explicitly-scheduled plans (Baseline 3) get the same checks.
pub fn check_feasibility(
    job: &JobSpec,
    platform: &Platform,
    perf: &PerfBreakdown,
) -> Result<(), Infeasibility> {
    // Concurrency (j mappers is the widest mapper phase; step 1 has the
    // most reducers; the coordinator overlaps reducers).
    let j = perf.mapper.per_mapper_secs.len();
    let max_step_reducers = perf
        .reduce
        .structure
        .steps
        .iter()
        .map(|s| s.reducers())
        .max()
        .unwrap_or(0);
    let widest = j.max(max_step_reducers + 1);
    if widest > platform.max_concurrency as usize {
        return Err(Infeasibility::ConcurrencyExceeded {
            requested: widest,
            limit: platform.max_concurrency,
        });
    }

    // Storage cap (Eq. 18: D + S + Q <= O).
    let state_mb = job.profile.state_object_mb * perf.reduce.structure.num_steps() as f64;
    let required =
        job.total_mb() + state_mb + schedule::total_input_mb(&perf.reduce.structure.steps);
    if required > platform.max_storage_mb {
        return Err(Infeasibility::StorageExceeded {
            required_mb: required,
            limit_mb: platform.max_storage_mb,
        });
    }

    // Timeouts.
    let slowest_mapper = perf.mapper.duration_s;
    if slowest_mapper > platform.timeout_s {
        return Err(Infeasibility::TimeoutExceeded {
            role: "mapper",
            lifetime_s: slowest_mapper,
            limit_s: platform.timeout_s,
        });
    }
    if perf.coordinator_billed_s() > platform.timeout_s {
        return Err(Infeasibility::TimeoutExceeded {
            role: "coordinator",
            lifetime_s: perf.coordinator_billed_s(),
            limit_s: platform.timeout_s,
        });
    }
    for p in 0..perf.reduce.structure.num_steps() {
        for r in 0..perf.reduce.structure.steps[p].reducers() {
            let t = perf.reduce.reducer_time_s(p, r);
            if t > platform.timeout_s {
                return Err(Infeasibility::TimeoutExceeded {
                    role: "reducer",
                    lifetime_s: t,
                    limit_s: platform.timeout_s,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadProfile;

    fn cfg(mem: u32, k_m: usize, k_r: usize) -> JobConfig {
        JobConfig {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: k_m,
            objects_per_reducer: k_r,
        }
    }

    #[test]
    fn feasible_configuration_evaluates() {
        let job = JobSpec::uniform("t", 10, 0.2, WorkloadProfile::uniform_test());
        let ev = evaluate(
            &job,
            &Platform::aws_lambda(),
            &cfg(128, 2, 2),
            &PriceCatalog::aws_2020(),
        )
        .unwrap();
        assert!(ev.jct_s() > 0.0);
        assert!(ev.total_cost() > Money::ZERO);
    }

    #[test]
    fn invalid_tier_rejected() {
        let job = JobSpec::uniform("t", 10, 0.2, WorkloadProfile::uniform_test());
        let err = evaluate(
            &job,
            &Platform::aws_lambda(),
            &cfg(100, 2, 2),
            &PriceCatalog::aws_2020(),
        )
        .unwrap_err();
        assert_eq!(err, Infeasibility::InvalidMemoryTier { mem_mb: 100 });
    }

    #[test]
    fn concurrency_limit_enforced() {
        let mut platform = Platform::aws_lambda();
        platform.max_concurrency = 4;
        let job = JobSpec::uniform("t", 10, 0.2, WorkloadProfile::uniform_test());
        let err =
            evaluate(&job, &platform, &cfg(128, 1, 2), &PriceCatalog::aws_2020()).unwrap_err();
        assert!(matches!(
            err,
            Infeasibility::ConcurrencyExceeded { requested: 10, .. }
        ));
    }

    #[test]
    fn timeout_enforced_for_slow_mapper() {
        let mut platform = Platform::paper_literal(10.0);
        platform.timeout_s = 5.0;
        // 1 mapper processing 100 MB at 1 s/MB will far exceed 5 s.
        let job = JobSpec::uniform("t", 2, 50.0, WorkloadProfile::uniform_test());
        let err =
            evaluate(&job, &platform, &cfg(128, 2, 2), &PriceCatalog::aws_2020()).unwrap_err();
        assert!(matches!(
            err,
            Infeasibility::TimeoutExceeded { role: "mapper", .. }
        ));
    }

    #[test]
    fn storage_cap_enforced() {
        let mut platform = Platform::aws_lambda();
        platform.max_storage_mb = 10.0;
        let job = JobSpec::uniform("t", 10, 5.0, WorkloadProfile::uniform_test());
        let err =
            evaluate(&job, &platform, &cfg(128, 2, 2), &PriceCatalog::aws_2020()).unwrap_err();
        assert!(matches!(err, Infeasibility::StorageExceeded { .. }));
    }

    #[test]
    fn infeasibility_display_is_informative() {
        let e = Infeasibility::TimeoutExceeded {
            role: "reducer",
            lifetime_s: 1000.0,
            limit_s: 900.0,
        };
        assert!(e.to_string().contains("reducer"));
        assert!(e.to_string().contains("900"));
    }
}
