//! Beyond the paper's three benchmarks: a sketch-based analytics job —
//! COUNT(DISTINCT sourceIP) over uservisits — planned by Astra and
//! executed for real through the byte-level MapReduce runtime.
//!
//! ```text
//! cargo run --release --example distinct_users
//! ```
//!
//! Sketch workloads are the ideal shape for serverless MapReduce: each
//! mapper emits a ~4 KB HyperLogLog whatever its input size, so the
//! shuffle is constant and the reduce merge is exactly associative.

use std::sync::Arc;

use astra::core::{Astra, Objective};
use astra::mapreduce::{keys, run_local};
use astra::model::JobSpec;
use astra::storage::MemStore;
use astra::workloads::apps_sketch::{sketch_profile, DistinctUsersApp};
use astra::workloads::datagen;

fn main() {
    // A small uservisits corpus: 8 objects x 96 KB of synthetic CSV.
    let job = JobSpec::uniform(
        "distinct",
        8,
        96.0 / 1024.0,
        sketch_profile("distinct-users"),
    );
    let plan = Astra::with_defaults()
        .plan(&job, Objective::min_cost_with_deadline_s(600.0))
        .expect("plans");
    println!("Plan: {}", plan.summary());

    let store = Arc::new(MemStore::new());
    let mut all = Vec::new();
    for i in 0..job.num_objects() {
        let data = datagen::uservisits(100 + i as u64, 96 * 1024);
        all.extend_from_slice(&data);
        store.put(keys::input(&job.name, i), data);
    }

    let app = DistinctUsersApp::default();
    let report = run_local(&job, &plan, &store, &app).expect("runs");
    let sketch = DistinctUsersApp::parse_result(&report.result).expect("valid sketch");

    let estimate = sketch.estimate();
    let truth = DistinctUsersApp::reference_distinct(&all);
    let err = (estimate - truth as f64).abs() / truth as f64 * 100.0;
    println!(
        "Distributed HLL estimate: {estimate:.0} distinct IPs (exact: {truth}, error {err:.2}%)"
    );
    println!(
        "Shuffle totals: each of the {} mappers emitted a {}-byte sketch from ~96 KB of input.",
        report.mappers,
        report.result.len(),
    );
    assert!(err < 8.0, "HLL precision-12 should be well under 8%");
}
