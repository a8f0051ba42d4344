#![warn(missing_docs)]

//! Fixtures and shared machinery for the fixed-size bench runners.
//!
//! `astra-bench` times the planner (DAG builds, the guided constrained
//! solve, session sweeps, the exhaustive search) and `astra-sim-bench`
//! the simulator and the daemon's journal replay. Both write a
//! `BENCH_*.json` report or gate a run against one on `min_ms` (see
//! [`runner`]). The paper's Discussion overhead claim and the Algorithm 1
//! ablation are reproduced by the `exp_solvers` experiment, not here.

use astra_core::{Astra, ConfigSpace, Objective, Strategy};
use astra_model::{JobSpec, Platform, WorkloadProfile};
use astra_pricing::PriceCatalog;

pub mod runner;

/// The default planner over the evaluation platform.
pub fn planner(strategy: Strategy) -> Astra {
    Astra::new(Platform::aws_lambda(), PriceCatalog::aws_2020(), strategy)
}

/// A uniform synthetic job with `n` objects for scaling benches.
pub fn synthetic_job(n: usize) -> JobSpec {
    JobSpec::uniform("bench", n, 4.0, WorkloadProfile::uniform_test())
}

/// A production-scale analytics job: `n` small objects with an
/// aggregation-shaped profile (light per-MB compute, strong per-step
/// data reduction). The featureless `uniform_test` profile is
/// deliberately infeasible at N=10^5 on the stock AWS platform — with
/// `reduce_ratio` 1.0 the final reducer alone digests the whole input
/// and blows the Lambda timeout — so production-N planning benches and
/// tests use this shape instead, where mid-range configurations are
/// feasible and the planner has real work to do.
pub fn production_job(n: usize) -> JobSpec {
    let profile = WorkloadProfile {
        name: "aggregation".to_string(),
        map_secs_per_mb_128: 0.05,
        reduce_secs_per_mb_128: 0.05,
        coord_secs_per_mb_128: 0.001,
        shuffle_ratio: 0.2,
        reduce_ratio: 0.05,
        state_object_mb: 1.0,
        single_pass_reduce: false,
    };
    JobSpec::uniform("bench-prod", n, 1.0, profile)
}

/// A job shaped like the repository benchmark's `cold_distinct`
/// requests: `n` objects of 64 MB, each scaled by up to ±20% from a fixed
/// xorshift stream, under the wordcount profile. Ragged sizes take the
/// model's open-form mapper path, which the uniform fixtures never run.
pub fn jittered_job(n: usize) -> JobSpec {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let object_sizes_mb = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            64.0 * (0.8 + 0.4 * (state >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect();
    JobSpec {
        name: format!("bench-jittered-{n}"),
        object_sizes_mb,
        profile: astra_workloads::profiles::wordcount(),
    }
}

/// A binding budget objective for `job` (midpoint of the cost range).
pub fn binding_budget(astra: &Astra, job: &JobSpec) -> Objective {
    let cheapest = astra.plan(job, Objective::cheapest()).unwrap();
    let fastest = astra.plan(job, Objective::fastest()).unwrap();
    let lo = cheapest.predicted_cost().nanos();
    let hi = fastest.predicted_cost().nanos();
    Objective::MinimizeTime {
        budget: astra_pricing::Money::from_nanos((lo + hi) / 2),
    }
}

/// The full configuration space for `job`.
pub fn full_space(astra: &Astra, job: &JobSpec) -> ConfigSpace {
    ConfigSpace::full(job, astra.platform())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let astra = planner(Strategy::ExactCsp);
        let job = synthetic_job(6);
        let objective = binding_budget(&astra, &job);
        assert!(astra.plan(&job, objective).is_ok());
    }
}
