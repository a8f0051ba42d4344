//! The paper's Discussion overhead claim: "The overhead of Astra …
//! is within a few seconds on a laptop." One bench per paper workload,
//! covering DAG construction and the end-to-end plan() call (both
//! objectives).

use astra_bench::{binding_budget, full_space, paper_jobs, planner};
use astra_core::{Objective, Strategy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_dag_build(c: &mut Criterion) {
    let astra = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("dag_build");
    group.sample_size(10);
    for (label, job) in paper_jobs() {
        let space = full_space(&astra, &job);
        group.bench_function(&label, |b| {
            b.iter(|| {
                black_box(astra.build_dag(&job, &space))
                    .soa()
                    .edges_stored()
            })
        });
    }
    group.finish();
}

fn bench_plan_budget(c: &mut Criterion) {
    let astra = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("plan_min_time_under_budget");
    group.sample_size(10);
    for (label, job) in paper_jobs() {
        let objective = binding_budget(&astra, &job);
        group.bench_function(&label, |b| {
            b.iter(|| astra.plan(black_box(&job), objective).unwrap().mappers())
        });
    }
    group.finish();
}

fn bench_plan_deadline(c: &mut Criterion) {
    let astra = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("plan_min_cost_under_deadline");
    group.sample_size(10);
    for (label, job) in paper_jobs() {
        let fastest = astra.plan(&job, Objective::fastest()).unwrap();
        let objective = Objective::min_cost_with_deadline_s(fastest.predicted_jct_s() * 2.0);
        group.bench_function(&label, |b| {
            b.iter(|| astra.plan(black_box(&job), objective).unwrap().reducers())
        });
    }
    group.finish();
}

fn bench_dag_scaling(c: &mut Criterion) {
    // DESIGN.md's `dag_scaling` ablation: build + solve time vs N.
    let astra = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("dag_scaling_by_objects");
    group.sample_size(10);
    for n in [10usize, 40, 100, 202, 400] {
        let job = astra_bench::synthetic_job(n);
        let space = full_space(&astra, &job);
        group.bench_function(format!("N={n}"), |b| {
            b.iter(|| {
                let dag = astra.build_dag(&job, &space);
                astra_graph::shortest_path(
                    &mut dag.soa().time_view(),
                    dag.source().0,
                    dag.sink().0,
                    None,
                    |_| true,
                )
                .unwrap()
                .weight
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dag_build,
    bench_plan_budget,
    bench_plan_deadline,
    bench_dag_scaling
);
criterion_main!(benches);
