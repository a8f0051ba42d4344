//! Run a compiled job on the discrete-event FaaS simulator.

use astra_core::Plan;
use astra_faas::{FaasSim, SimConfig, SimError, SimReport};
use astra_model::JobSpec;
use rayon::prelude::*;

use crate::compile::compile;

/// Compile `plan` and execute it on the simulator.
///
/// With `config.noise_cv == 0` and `platform.cold_start_s == 0`, the
/// returned makespan matches the analytical model's prediction for
/// uniform-object jobs (the `model_vs_sim` integration tests assert it);
/// with realistic noise and cold starts, the gap is the model error the
/// paper's predictor also incurs.
pub fn simulate(job: &JobSpec, plan: &Plan, config: SimConfig) -> Result<SimReport, SimError> {
    let compiled = compile(job, plan);
    let sim = FaasSim::new(config, &compiled.inputs);
    sim.run(compiled.roots)
}

/// One entry of a [`simulate_batch`] sweep.
#[derive(Debug, Clone)]
pub struct SimCase<'a> {
    /// The job to simulate.
    pub job: &'a JobSpec,
    /// The execution plan.
    pub plan: &'a Plan,
    /// Engine parameters (noise CV and seed distinguish replications).
    pub config: SimConfig,
}

/// Compile and execute every case in parallel across all cores.
///
/// Each case is compiled and simulated independently inside the worker,
/// and results are collected in input order — so the returned vector is
/// bit-identical to `cases.map(|c| simulate(c.job, c.plan, c.config))`
/// run serially, at any `RAYON_NUM_THREADS`. This is the fan-out point
/// for the experiment harness's Monte-Carlo sweeps: seeds × plans × jobs
/// flatten into one batch and saturate the machine.
///
/// When a case's telemetry handle is enabled, the case is wrapped in a
/// wall-clock span on a per-worker-thread track (`sweep-worker-…`), so a
/// Chrome trace shows how the sweep was scheduled across cores. Purely
/// observational: the reports are unchanged.
pub fn simulate_batch(cases: Vec<SimCase<'_>>) -> Vec<Result<SimReport, SimError>> {
    cases
        .into_par_iter()
        .enumerate()
        .with_min_len(1)
        .map(|(index, c)| {
            let tel = c.config.telemetry.clone();
            let _span = if tel.enabled() {
                let track = format!("sweep-worker-{:?}", std::thread::current().id());
                let name = format!("case-{index}-{}", c.job.name);
                Some(tel.wall_span(track, name, "sim_case"))
            } else {
                None
            };
            simulate(c.job, c.plan, c.config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::{Plan, PlanSpec, ReduceSpec};
    use astra_model::{Platform, WorkloadProfile};
    use astra_pricing::PriceCatalog;
    use astra_simcore::summary::relative_error;

    fn setup(
        n: usize,
        size_mb: f64,
        k_m: usize,
        k_r: usize,
        mems: (u32, u32, u32),
    ) -> (JobSpec, Platform, Plan) {
        let job = JobSpec::uniform("sim", n, size_mb, WorkloadProfile::uniform_test());
        let mut platform = Platform::paper_literal(10.0);
        platform.cold_start_s = 0.0;
        let plan = Plan::evaluate(
            &job,
            &platform,
            &PriceCatalog::aws_2020(),
            PlanSpec {
                mapper_mem_mb: mems.0,
                coordinator_mem_mb: mems.1,
                reducer_mem_mb: mems.2,
                objects_per_mapper: k_m,
                reduce_spec: ReduceSpec::PerReducer(k_r),
            },
        )
        .unwrap();
        (job, platform, plan)
    }

    #[test]
    fn noise_free_sim_matches_model_jct() {
        for (k_m, k_r) in [(1, 2), (2, 2), (3, 4), (5, 2), (10, 2)] {
            let (job, platform, plan) = setup(10, 1.0, k_m, k_r, (128, 128, 128));
            let report = simulate(&job, &plan, SimConfig::deterministic(platform.clone())).unwrap();
            let err = relative_error(report.jct_s(), plan.predicted_jct_s());
            assert!(
                err < 1e-6,
                "k_m={k_m} k_r={k_r}: sim {} vs model {} (err {err})",
                report.jct_s(),
                plan.predicted_jct_s()
            );
        }
    }

    #[test]
    fn noise_free_sim_matches_model_cost() {
        let (job, platform, plan) = setup(10, 1.0, 2, 2, (128, 256, 1024));
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        // Lambda bills match exactly (same durations, same rounding);
        // storage differs slightly (ledger integral vs phase approximation)
        // so compare totals loosely and requests exactly.
        let err = relative_error(
            report.total_cost().dollars(),
            plan.predicted_cost().dollars(),
        );
        assert!(err < 0.02, "cost err {err}");
        // Request counts: model says N + j(puts) ... compare GET/PUT tallies.
        let structure = &plan.evaluation.perf.reduce.structure;
        let expected_gets = job.num_objects() as u64
            + structure
                .steps
                .iter()
                .map(|s| s.input_objects() as u64 + s.reducers() as u64)
                .sum::<u64>();
        let expected_puts =
            plan.mappers() as u64 + structure.num_steps() as u64 + plan.reducers() as u64;
        assert_eq!(report.ledger.gets, expected_gets);
        assert_eq!(report.ledger.puts, expected_puts);
    }

    #[test]
    fn invocation_roster_is_complete() {
        let (job, platform, plan) = setup(10, 1.0, 2, 2, (128, 128, 128));
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        // 5 mappers + 1 coordinator + 6 reducers (3+2+1); driver unbilled.
        assert_eq!(report.invocation_count(), 12);
        assert!(report.invoice("client-driver").is_none());
        assert!(report.invoice("coordinator").is_some());
        assert!(report.invoice("reducer-3-0").is_some());
    }

    #[test]
    fn coordinator_exits_before_final_step() {
        let (job, platform, plan) = setup(10, 1.0, 2, 2, (128, 128, 128));
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        let coord = report.invoice("coordinator").unwrap();
        let last_reducer = report.invoice("reducer-3-0").unwrap();
        assert!(
            coord.finished <= last_reducer.started,
            "coordinator must fire-and-forget the final step"
        );
        // And the job ends when the last reducer's PUT lands (after its
        // handler finish plus nothing else).
        assert!(report.makespan.as_secs_f64() >= last_reducer.finished.as_secs_f64());
    }

    #[test]
    fn bigger_memory_runs_faster_but_bills_more_per_second() {
        let (job, platform, small_plan) = setup(10, 2.0, 2, 2, (128, 128, 128));
        let (_, _, big_plan) = setup(10, 2.0, 2, 2, (1792, 1792, 1792));
        let small = simulate(
            &job,
            &small_plan,
            SimConfig::deterministic(platform.clone()),
        )
        .unwrap();
        let big = simulate(&job, &big_plan, SimConfig::deterministic(platform)).unwrap();
        assert!(big.jct_s() < small.jct_s());
    }

    #[test]
    fn cold_starts_lengthen_the_sim_but_not_the_model() {
        let (job, mut platform, plan) = setup(10, 1.0, 2, 2, (128, 128, 128));
        platform.cold_start_s = 1.0;
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        // 1 s per launch wave: mappers, coordinator, three reducer steps.
        assert!(report.jct_s() > plan.predicted_jct_s() + 4.0);
    }

    #[test]
    fn cache_intermediate_sim_matches_model() {
        // The ephemeral-storage extension: with an ElastiCache-like tier,
        // the noise-free simulator still reproduces the model exactly —
        // timing (cache latency/bandwidth) and billing (rent instead of
        // requests) both flow through the same Platform.
        let job = JobSpec::uniform("cache", 10, 5.0, WorkloadProfile::uniform_test());
        let mut platform = Platform::paper_literal(20.0).with_elasticache();
        platform.cold_start_s = 0.0;
        let plan = Plan::evaluate(
            &job,
            &platform,
            &PriceCatalog::aws_2020(),
            PlanSpec {
                mapper_mem_mb: 512,
                coordinator_mem_mb: 256,
                reducer_mem_mb: 1024,
                objects_per_mapper: 2,
                reduce_spec: ReduceSpec::PerReducer(2),
            },
        )
        .unwrap();
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        let err = relative_error(report.jct_s(), plan.predicted_jct_s());
        assert!(err < 1e-6, "jct err {err}");
        // Requests land on the intermediate ledger, not S3's.
        assert_eq!(report.ledger.puts, 0, "no S3 puts with a cache tier");
        assert!(report.inter_ledger.puts > 0);
        assert!(
            report.ephemeral_cost > astra_pricing::Money::ZERO,
            "rent is billed"
        );
        let cost_err = relative_error(
            report.total_cost().dollars(),
            plan.predicted_cost().dollars(),
        );
        assert!(cost_err < 0.02, "cost err {cost_err}");
    }

    #[test]
    fn explicit_step_plans_simulate_too() {
        let job = JobSpec::uniform("sim", 10, 1.0, WorkloadProfile::uniform_test());
        let mut platform = Platform::paper_literal(10.0);
        platform.cold_start_s = 0.0;
        let plan = Plan::evaluate(
            &job,
            &platform,
            &PriceCatalog::aws_2020(),
            PlanSpec {
                mapper_mem_mb: 128,
                coordinator_mem_mb: 128,
                reducer_mem_mb: 1536,
                objects_per_mapper: 1,
                reduce_spec: ReduceSpec::ExplicitSteps(vec![2, 1]),
            },
        )
        .unwrap();
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        assert_eq!(report.invoice("reducer-1-1").unwrap().memory_mb, 1536);
        let err = relative_error(report.jct_s(), plan.predicted_jct_s());
        assert!(err < 1e-6, "err {err}");
    }
}
