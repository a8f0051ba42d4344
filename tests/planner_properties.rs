//! Cross-crate planner properties: optimality against brute force, and
//! the monotonicity a correct constrained optimizer must exhibit.

use astra::core::{Astra, ConfigSpace, Objective, Strategy as SolverStrategy};
use astra::model::{evaluate, JobSpec, Platform, WorkloadProfile};
use astra::pricing::{Money, PriceCatalog};
use proptest::prelude::*;

fn planner(platform: &Platform, strategy: SolverStrategy) -> Astra {
    Astra::new(platform.clone(), PriceCatalog::aws_2020(), strategy)
}

/// A small randomized job family for property tests.
fn arb_job() -> impl proptest::strategy::Strategy<Value = JobSpec> + Clone {
    (
        2usize..12,
        0.5f64..20.0,
        0.2f64..1.5,
        0.05f64..1.0,
        0.3f64..1.0,
    )
        .prop_map(|(n, size_mb, map_u, alpha, beta)| {
            let profile = WorkloadProfile {
                name: "prop".to_string(),
                map_secs_per_mb_128: map_u,
                reduce_secs_per_mb_128: map_u * 0.7,
                coord_secs_per_mb_128: 0.002,
                shuffle_ratio: alpha,
                reduce_ratio: beta,
                state_object_mb: 0.5,
                single_pass_reduce: false,
            };
            JobSpec::uniform("prop", n, size_mb, profile)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DAG solver's budget-constrained optimum equals brute force
    /// over the same (reduced) space.
    #[test]
    fn dag_solver_is_optimal_for_min_time(job in arb_job(), frac in 0.1f64..0.95) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 768, 1792]);
        let astra = planner(&platform, SolverStrategy::ExactCsp);
        let cheapest = astra.plan_with_space(&job, Objective::cheapest(), &space).unwrap();
        let fastest = astra.plan_with_space(&job, Objective::fastest(), &space).unwrap();
        let lo = cheapest.predicted_cost().nanos();
        let hi = fastest.predicted_cost().nanos();
        let budget = Money::from_nanos(lo + ((hi - lo) as f64 * frac) as i128);
        let objective = Objective::MinimizeTime { budget };

        let dag_plan = astra.plan_with_space(&job, objective, &space).unwrap();
        let brute = planner(&platform, SolverStrategy::Exhaustive)
            .plan_with_space(&job, objective, &space)
            .unwrap();
        prop_assert!(
            (dag_plan.predicted_jct_s() - brute.predicted_jct_s()).abs() < 1e-9,
            "dag {} vs brute {}",
            dag_plan.predicted_jct_s(),
            brute.predicted_jct_s()
        );
        // Constraint honoured (modulo the solver's nano-dollar slack).
        prop_assert!(dag_plan.predicted_cost() <= budget + Money::from_nanos(100));
    }

    /// Dual direction: cost minimization under a deadline is optimal too.
    #[test]
    fn dag_solver_is_optimal_for_min_cost(job in arb_job(), slack in 1.05f64..8.0) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 768, 1792]);
        let astra = planner(&platform, SolverStrategy::ExactCsp);
        let fastest = astra.plan_with_space(&job, Objective::fastest(), &space).unwrap();
        let deadline = fastest.predicted_jct_s() * slack;
        let objective = Objective::min_cost_with_deadline_s(deadline);

        let dag_plan = astra.plan_with_space(&job, objective, &space).unwrap();
        let brute = planner(&platform, SolverStrategy::Exhaustive)
            .plan_with_space(&job, objective, &space)
            .unwrap();
        prop_assert_eq!(dag_plan.predicted_cost(), brute.predicted_cost());
        prop_assert!(dag_plan.predicted_jct_s() <= deadline * (1.0 + 1e-9) + 1e-9);
    }

    /// More budget can never hurt: predicted JCT is non-increasing in the
    /// budget.
    #[test]
    fn jct_is_monotone_in_budget(job in arb_job()) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 512, 1792]);
        let astra = planner(&platform, SolverStrategy::ExactCsp);
        let cheapest = astra.plan_with_space(&job, Objective::cheapest(), &space).unwrap();
        let fastest = astra.plan_with_space(&job, Objective::fastest(), &space).unwrap();
        let lo = cheapest.predicted_cost().nanos();
        let hi = fastest.predicted_cost().nanos().max(lo + 1);
        let mut last = f64::INFINITY;
        for step in 0..6 {
            let budget = Money::from_nanos(lo + (hi - lo) * step / 5);
            let plan = astra
                .plan_with_space(&job, Objective::MinimizeTime { budget }, &space)
                .unwrap();
            prop_assert!(
                plan.predicted_jct_s() <= last + 1e-9,
                "budget up, jct {} -> {}",
                last,
                plan.predicted_jct_s()
            );
            last = plan.predicted_jct_s();
        }
    }

    /// Looser deadlines can never cost more.
    #[test]
    fn cost_is_monotone_in_deadline(job in arb_job()) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 512, 1792]);
        let astra = planner(&platform, SolverStrategy::ExactCsp);
        let fastest = astra.plan_with_space(&job, Objective::fastest(), &space).unwrap();
        let base = fastest.predicted_jct_s();
        let mut last = Money::from_nanos(i128::MAX);
        for mult in [1.0, 1.5, 2.5, 5.0, 20.0] {
            let plan = astra
                .plan_with_space(&job, Objective::min_cost_with_deadline_s(base * mult), &space)
                .unwrap();
            prop_assert!(plan.predicted_cost() <= last);
            last = plan.predicted_cost();
        }
    }

    /// The memoized model cache is transparent: for every configuration
    /// in the space, cached evaluation agrees with the uncached model to
    /// the last nano-dollar (and the last JCT bit), including which
    /// configurations are infeasible and why.
    #[test]
    fn model_cache_is_transparent(job in arb_job()) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 768, 1792]);
        let catalog = PriceCatalog::aws_2020();
        let cache = astra::core::ModelCache::new(&job, &platform);
        for config in space.iter_configs(&job) {
            let cached = cache.evaluate(&config, &catalog);
            let uncached = evaluate(&job, &platform, &config, &catalog);
            match (cached, uncached) {
                (Ok(c), Ok(u)) => {
                    prop_assert_eq!(c.total_cost(), u.total_cost(), "cost for {:?}", config);
                    prop_assert_eq!(
                        c.jct_s().to_bits(),
                        u.jct_s().to_bits(),
                        "jct {} vs {} for {:?}",
                        c.jct_s(),
                        u.jct_s(),
                        config
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (c, u) => prop_assert!(false, "feasibility disagrees for {:?}: cached {:?}, uncached {:?}", config, c, u),
            }
        }
    }

    /// Whatever the planner returns must re-evaluate to the same numbers
    /// through the public model API (no internal inconsistencies).
    #[test]
    fn plans_reevaluate_consistently(job in arb_job()) {
        let platform = Platform::aws_lambda();
        let space = ConfigSpace::with_tiers(&job, &platform, &[128, 1792]);
        let astra = planner(&platform, SolverStrategy::ExactCsp);
        let plan = astra.plan_with_space(&job, Objective::fastest(), &space).unwrap();
        let astra_core::plan::ReduceSpec::PerReducer(k_r) = plan.spec.reduce_spec else {
            panic!("planner emits k_R plans");
        };
        let config = astra::model::JobConfig {
            mapper_mem_mb: plan.spec.mapper_mem_mb,
            coordinator_mem_mb: plan.spec.coordinator_mem_mb,
            reducer_mem_mb: plan.spec.reducer_mem_mb,
            objects_per_mapper: plan.spec.objects_per_mapper,
            objects_per_reducer: k_r,
        };
        let ev = evaluate(&job, &platform, &config, &PriceCatalog::aws_2020()).unwrap();
        prop_assert_eq!(ev.total_cost(), plan.predicted_cost());
        prop_assert!((ev.jct_s() - plan.predicted_jct_s()).abs() < 1e-12);
    }
}

/// Algorithm 1, when it succeeds, returns a feasible plan that is never
/// better than the exact optimum.
#[test]
fn algorithm1_is_sound_when_it_succeeds() {
    let platform = Platform::aws_lambda();
    let job = JobSpec::uniform("a1", 8, 4.0, WorkloadProfile::uniform_test());
    let space = ConfigSpace::with_tiers(&job, &platform, &[128, 768, 1792]);
    let exact_astra = planner(&platform, SolverStrategy::ExactCsp);
    let alg1_astra = planner(&platform, SolverStrategy::Algorithm1);
    let cheapest = exact_astra
        .plan_with_space(&job, Objective::cheapest(), &space)
        .unwrap();
    let fastest = exact_astra
        .plan_with_space(&job, Objective::fastest(), &space)
        .unwrap();
    let lo = cheapest.predicted_cost().nanos();
    let hi = fastest.predicted_cost().nanos();
    for step in 1..10 {
        let budget = Money::from_nanos(lo + (hi - lo) * step / 10);
        let objective = Objective::MinimizeTime { budget };
        let exact = exact_astra
            .plan_with_space(&job, objective, &space)
            .unwrap();
        if let Ok(a) = alg1_astra.plan_with_space(&job, objective, &space) {
            assert!(a.predicted_jct_s() >= exact.predicted_jct_s() - 1e-9);
            assert!(a.predicted_cost() <= budget + Money::from_nanos(100));
        }
    }
}
