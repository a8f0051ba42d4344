//! Ablation bench (DESIGN.md `alg1_vs_exact`): the paper's Algorithm 1
//! versus the exact solver at matched budgets, on the Wordcount-1GB
//! planner DAG.

use astra_bench::{binding_budget, planner};
use astra_core::{Objective, Strategy};
use astra_workloads::WorkloadSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let job = WorkloadSpec::wordcount_gb(1).into_job();
    let exact = planner(Strategy::ExactCsp);
    let binding = binding_budget(&exact, &job);
    // The exact solver is also benched at a loose budget (the fastest
    // plan's own cost), where the constraint never binds.
    let loose = {
        let fastest = exact.plan(&job, Objective::fastest()).unwrap();
        Objective::MinimizeTime {
            budget: fastest.predicted_cost(),
        }
    };

    let mut group = c.benchmark_group("solver_strategy_wc1gb");
    group.sample_size(10);
    for (name, strategy, objective) in [
        ("exact_csp_binding", Strategy::ExactCsp, binding),
        ("algorithm1_binding", Strategy::Algorithm1, binding),
        ("exact_csp_loose", Strategy::ExactCsp, loose),
    ] {
        let astra = planner(strategy);
        group.bench_function(name, |b| {
            b.iter(|| {
                // Algorithm 1 may legitimately fail on binding budgets;
                // the bench measures the attempt either way.
                astra
                    .plan(black_box(&job), objective)
                    .ok()
                    .map(|p| p.mappers())
            })
        });
    }
    group.finish();
}

fn bench_exhaustive_small_space(c: &mut Criterion) {
    // Exhaustive scan over a reduced 3-tier space — the validation
    // configuration the tests use; shows why it cannot be the default.
    let job = WorkloadSpec::wordcount_gb(1).into_job();
    let exact = planner(Strategy::ExactCsp);
    let objective = binding_budget(&exact, &job);
    let space = astra_core::ConfigSpace::with_tiers(&job, exact.platform(), &[128, 768, 1792]);
    let ex = planner(Strategy::Exhaustive);
    let dag = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("exhaustive_vs_dag_3tiers");
    group.sample_size(10);
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            ex.plan_with_space(black_box(&job), objective, &space)
                .unwrap()
                .mappers()
        })
    });
    group.bench_function("dag_exact_csp", |b| {
        b.iter(|| {
            dag.plan_with_space(black_box(&job), objective, &space)
                .unwrap()
                .mappers()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_exhaustive_small_space);
criterion_main!(benches);
