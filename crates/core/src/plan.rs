//! Execution plans: a fully-specified, executable configuration plus its
//! model-predicted time and cost.

use astra_model::evaluate::check_feasibility;
use astra_model::perf::{
    coordinator_compute_secs, coordinator_state_put_secs, mapper_phase,
    reduce_structure_from_steps, reduce_tier_times, PerfBreakdown, ReducePhase,
};
use astra_model::schedule::{explicit_schedule, schedule_steps};
use astra_model::{cost, Evaluation, Infeasibility, JobConfig, JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};
use serde::{Deserialize, Serialize};

/// How the reducing phase is organised.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceSpec {
    /// Derive the Table II schedule from `k_R` objects per reducer (what
    /// Astra and Baselines 1–2 do).
    PerReducer(usize),
    /// An explicit per-step reducer count with even object splits (what
    /// Baseline 3 does). Must end with a single reducer.
    ExplicitSteps(Vec<usize>),
}

/// A configuration to evaluate into a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Mapper lambda memory (MB).
    pub mapper_mem_mb: u32,
    /// Coordinator lambda memory (MB).
    pub coordinator_mem_mb: u32,
    /// Reducer lambda memory (MB).
    pub reducer_mem_mb: u32,
    /// Objects per mapper (`k_M`).
    pub objects_per_mapper: usize,
    /// Reducing-phase organisation.
    pub reduce_spec: ReduceSpec,
}

impl From<JobConfig> for PlanSpec {
    fn from(c: JobConfig) -> Self {
        PlanSpec {
            mapper_mem_mb: c.mapper_mem_mb,
            coordinator_mem_mb: c.coordinator_mem_mb,
            reducer_mem_mb: c.reducer_mem_mb,
            objects_per_mapper: c.objects_per_mapper,
            reduce_spec: ReduceSpec::PerReducer(c.objects_per_reducer),
        }
    }
}

/// A validated, executable plan: the spec plus the model's evaluation of
/// it. This is what `Astra::plan` returns, what Table III summarises, and
/// what the MapReduce engine executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The configuration.
    pub spec: PlanSpec,
    /// Model-predicted performance and cost.
    pub evaluation: Evaluation,
}

impl Plan {
    /// Evaluate `spec` against the model, checking platform feasibility.
    pub fn evaluate(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        spec: PlanSpec,
    ) -> Result<Plan, Infeasibility> {
        for mem in [
            spec.mapper_mem_mb,
            spec.coordinator_mem_mb,
            spec.reducer_mem_mb,
        ] {
            if !platform.is_valid_tier(mem) {
                return Err(Infeasibility::InvalidMemoryTier { mem_mb: mem });
            }
        }
        let perf = perf_for_spec(job, platform, &spec);
        check_feasibility(job, platform, &perf)?;
        let config = JobConfig {
            mapper_mem_mb: spec.mapper_mem_mb,
            coordinator_mem_mb: spec.coordinator_mem_mb,
            reducer_mem_mb: spec.reducer_mem_mb,
            objects_per_mapper: spec.objects_per_mapper,
            // Only the memory fields of the config are read by the cost
            // model; the partitioning is already baked into `perf`.
            objects_per_reducer: 1,
        };
        let cost = cost::full_cost(job, &config, &perf, platform, catalog);
        Ok(Plan {
            spec,
            evaluation: Evaluation { perf, cost },
        })
    }

    /// Number of mapper lambdas.
    pub fn mappers(&self) -> usize {
        self.evaluation.perf.mapper.per_mapper_secs.len()
    }

    /// Total number of reducer lambdas across steps.
    pub fn reducers(&self) -> usize {
        self.evaluation.perf.reduce.structure.total_reducers()
    }

    /// Number of reducing steps (`P`).
    pub fn reduce_steps(&self) -> usize {
        self.evaluation.perf.reduce.structure.num_steps()
    }

    /// Reducer count of each step, in order (`g_1 .. g_P`).
    pub fn reducers_per_step(&self) -> Vec<usize> {
        self.evaluation
            .perf
            .reduce
            .structure
            .steps
            .iter()
            .map(|s| s.reducers())
            .collect()
    }

    /// Model-predicted completion time in seconds.
    pub fn predicted_jct_s(&self) -> f64 {
        self.evaluation.jct_s()
    }

    /// Model-predicted total bill.
    pub fn predicted_cost(&self) -> Money {
        self.evaluation.total_cost()
    }

    /// One-line Table III-style summary.
    pub fn summary(&self) -> String {
        format!(
            "mem(map/co/red)={}/{}/{}MB k_M={} {} mappers={} reducers={} steps={} | pred {:.1}s {}",
            self.spec.mapper_mem_mb,
            self.spec.coordinator_mem_mb,
            self.spec.reducer_mem_mb,
            self.spec.objects_per_mapper,
            match &self.spec.reduce_spec {
                ReduceSpec::PerReducer(k) => format!("k_R={k}"),
                ReduceSpec::ExplicitSteps(v) => format!("steps={v:?}"),
            },
            self.mappers(),
            self.reducers(),
            self.reduce_steps(),
            self.predicted_jct_s(),
            self.predicted_cost(),
        )
    }
}

/// Build the performance breakdown for a spec (generalises
/// `astra_model::perf::full_perf` to explicit reduce schedules).
pub fn perf_for_spec(job: &JobSpec, platform: &Platform, spec: &PlanSpec) -> PerfBreakdown {
    let mapper = mapper_phase(job, platform, spec.mapper_mem_mb, spec.objects_per_mapper);
    let steps = match &spec.reduce_spec {
        ReduceSpec::PerReducer(k_r) => schedule_steps(
            &mapper.output_sizes_mb,
            *k_r,
            job.profile.reduce_ratio,
            job.profile.single_pass_reduce,
        ),
        ReduceSpec::ExplicitSteps(counts) => {
            explicit_schedule(&mapper.output_sizes_mb, counts, job.profile.reduce_ratio)
        }
    };
    let structure = reduce_structure_from_steps(steps, &job.profile, platform);
    let times = reduce_tier_times(&structure, platform, &job.profile, spec.reducer_mem_mb);
    let coord_compute_s = coordinator_compute_secs(
        job.shuffle_mb(),
        platform,
        &job.profile,
        spec.coordinator_mem_mb,
    );
    let coord_state_put_s = coordinator_state_put_secs(
        structure.num_steps(),
        platform,
        &job.profile,
        spec.coordinator_mem_mb,
    );
    PerfBreakdown {
        mapper,
        coord_compute_s,
        coord_state_put_s,
        reduce: ReducePhase { structure, times },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn job() -> JobSpec {
        JobSpec::uniform("t", 10, 1.0, WorkloadProfile::uniform_test())
    }

    fn spec(k_m: usize, reduce: ReduceSpec) -> PlanSpec {
        PlanSpec {
            mapper_mem_mb: 128,
            coordinator_mem_mb: 128,
            reducer_mem_mb: 128,
            objects_per_mapper: k_m,
            reduce_spec: reduce,
        }
    }

    #[test]
    fn per_reducer_plan_matches_full_perf() {
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let plan = Plan::evaluate(
            &job(),
            &platform,
            &catalog,
            spec(2, ReduceSpec::PerReducer(2)),
        )
        .unwrap();
        let config = JobConfig {
            mapper_mem_mb: 128,
            coordinator_mem_mb: 128,
            reducer_mem_mb: 128,
            objects_per_mapper: 2,
            objects_per_reducer: 2,
        };
        let reference = astra_model::evaluate(&job(), &platform, &config, &catalog).unwrap();
        assert_eq!(plan.predicted_jct_s(), reference.jct_s());
        assert_eq!(plan.predicted_cost(), reference.total_cost());
        assert_eq!(plan.mappers(), 5);
        assert_eq!(plan.reducers_per_step(), vec![3, 2, 1]);
    }

    #[test]
    fn explicit_steps_plan_evaluates() {
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        // Baseline 3 layout: 10 mappers, reducers (2, 1).
        let plan = Plan::evaluate(
            &job(),
            &platform,
            &catalog,
            spec(1, ReduceSpec::ExplicitSteps(vec![2, 1])),
        )
        .unwrap();
        assert_eq!(plan.mappers(), 10);
        assert_eq!(plan.reducers_per_step(), vec![2, 1]);
        assert_eq!(plan.reduce_steps(), 2);
        assert!(plan.predicted_jct_s() > 0.0);
    }

    #[test]
    fn invalid_tier_is_rejected() {
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let mut s = spec(2, ReduceSpec::PerReducer(2));
        s.reducer_mem_mb = 100;
        let err = Plan::evaluate(&job(), &platform, &catalog, s).unwrap_err();
        assert_eq!(err, Infeasibility::InvalidMemoryTier { mem_mb: 100 });
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let plan = Plan::evaluate(
            &job(),
            &platform,
            &catalog,
            spec(2, ReduceSpec::PerReducer(2)),
        )
        .unwrap();
        let s = plan.summary();
        assert!(s.contains("k_M=2"));
        assert!(s.contains("mappers=5"));
        assert!(s.contains("steps=3"));
    }

    #[test]
    fn config_roundtrips_into_spec() {
        let c = JobConfig {
            mapper_mem_mb: 256,
            coordinator_mem_mb: 512,
            reducer_mem_mb: 1024,
            objects_per_mapper: 3,
            objects_per_reducer: 4,
        };
        let s: PlanSpec = c.into();
        assert_eq!(s.mapper_mem_mb, 256);
        assert_eq!(s.reduce_spec, ReduceSpec::PerReducer(4));
    }
}
