//! Discrete-event simulator throughput: end-to-end simulation of the
//! paper-scale jobs (hundreds of lambdas, thousands of events each).

use astra_bench::planner;
use astra_core::{Objective, Strategy};
use astra_faas::SimConfig;
use astra_mapreduce::simulate;
use astra_model::Platform;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_simulate_paper_jobs(c: &mut Criterion) {
    let astra = planner(Strategy::ExactCsp);
    let mut group = c.benchmark_group("simulate_job");
    for (label, job) in astra_bench::paper_jobs() {
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        group.bench_function(&label, |b| {
            b.iter(|| {
                let config = SimConfig::deterministic(Platform::aws_lambda())
                    .with_catalog(astra_pricing::PriceCatalog::aws_2020())
                    .with_noise(0.1, 7);
                simulate(black_box(&job), &plan, config).unwrap().jct_s()
            })
        });
    }
    group.finish();
}

fn bench_simulate_wide_fanout(c: &mut Criterion) {
    // A single-step 1000-mapper job: stresses the concurrency token pool
    // and the event queue.
    let astra = planner(Strategy::ExactCsp);
    let job = astra_model::JobSpec::uniform(
        "wide",
        1000,
        1.0,
        astra_model::WorkloadProfile::uniform_test(),
    );
    let plan = astra.plan(&job, Objective::fastest()).unwrap();
    c.bench_function("simulate_1000_mappers", |b| {
        b.iter(|| {
            simulate(
                black_box(&job),
                &plan,
                SimConfig::deterministic(Platform::aws_lambda()),
            )
            .unwrap()
            .invocation_count()
        })
    });
}

criterion_group!(
    benches,
    bench_simulate_paper_jobs,
    bench_simulate_wide_fanout
);
criterion_main!(benches);
