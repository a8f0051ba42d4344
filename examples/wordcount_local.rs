//! Run a *real* distributed wordcount through the full Astra pipeline:
//! plan → generate data → execute with threads over an in-memory object
//! store → verify against a single-pass reference count.
//!
//! ```text
//! cargo run --release --example wordcount_local
//! ```

use std::sync::Arc;

use astra::core::{Astra, Objective};
use astra::mapreduce::{keys, run_local};
use astra::storage::MemStore;
use astra::workloads::{WordCountApp, WorkloadSpec};

fn main() {
    // A miniature wordcount: 12 objects of 64 KB of Zipf text. The plan
    // is computed by the same planner that handles the paper-scale jobs.
    let spec = WorkloadSpec::wordcount_gb(1);
    let job = spec.tiny_job(12, 64);
    let plan = Astra::with_defaults()
        .plan(&job, Objective::min_cost_with_deadline_s(600.0))
        .expect("tiny job plans");
    println!("Plan: {}", plan.summary());

    // Generate seeded input data into the in-memory store.
    let store = Arc::new(MemStore::new());
    let bytes = spec.generate_inputs(&job, &store, 2024);
    println!(
        "Generated {bytes} bytes across {} objects",
        job.num_objects()
    );

    // Execute for real (rayon-parallel mappers and reducers).
    let report = run_local(&job, &plan, &store, &WordCountApp).expect("local run succeeds");
    println!(
        "Ran {} mappers, {} reducers in {} steps ({:?} wall time)",
        report.mappers, report.reducers, report.steps, report.wall
    );

    // Verify against a single-pass reference over the concatenated input.
    let mut all_input = Vec::new();
    for i in 0..job.num_objects() {
        all_input.extend_from_slice(&store.get(&keys::input(&job.name, i)).unwrap());
    }
    let reference = WordCountApp::reference_count(&all_input);
    let total_ref: u64 = reference.values().sum();

    let result = String::from_utf8(report.result.to_vec()).unwrap();
    let total_distributed: u64 = result
        .lines()
        .map(|l| l.rsplit_once('\t').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(total_distributed, total_ref, "word totals must agree");
    println!(
        "Verified: {} distinct words, {} total occurrences — distributed result matches the reference.",
        result.lines().count(),
        total_distributed
    );
    let top: Vec<&str> = result.lines().take(3).collect();
    println!("Sample rows: {top:?}");
}
