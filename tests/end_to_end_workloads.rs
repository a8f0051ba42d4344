//! Cross-crate integration: every paper workload, planned by the real
//! planner and executed by the real byte-level runtime, produces
//! analytics output that matches a single-pass reference computation.

use std::sync::Arc;

use astra::core::{Astra, Objective, Strategy};
use astra::mapreduce::{keys, run_local};
use astra::model::Platform;
use astra::pricing::PriceCatalog;
use astra::storage::MemStore;
use astra::workloads::{QueryApp, SortApp, WordCountApp, WorkloadSpec};
use astra_simcore::summary::relative_error;

fn planner() -> Astra {
    Astra::new(
        Platform::aws_lambda(),
        PriceCatalog::aws_2020(),
        Strategy::ExactCsp,
    )
}

/// Plan a tiny job, generate data, run it, return (store, result bytes).
fn run_workload(spec: WorkloadSpec, n: usize, kb: usize, seed: u64) -> (Arc<MemStore>, Vec<u8>) {
    let job = spec.tiny_job(n, kb);
    let plan = planner()
        .plan(&job, Objective::min_cost_with_deadline_s(3600.0))
        .expect("tiny jobs always plan");
    let store = Arc::new(MemStore::new());
    spec.generate_inputs(&job, &store, seed);
    let report = run_local(&job, &plan, &store, spec.app().as_ref()).expect("runs");
    (store, report.result.to_vec())
}

fn concatenated_input(store: &MemStore, job_name: &str, n: usize) -> Vec<u8> {
    let mut all = Vec::new();
    for i in 0..n {
        all.extend_from_slice(&store.get(&keys::input(job_name, i)).unwrap());
    }
    all
}

#[test]
fn wordcount_distributed_equals_reference() {
    let spec = WorkloadSpec::wordcount_gb(1);
    let n = 10;
    let (store, result) = run_workload(spec, n, 32, 7);
    let job_name = spec.tiny_job(n, 32).name;
    let reference = WordCountApp::reference_count(&concatenated_input(&store, &job_name, n));

    let mut distributed = std::collections::BTreeMap::new();
    for line in String::from_utf8(result).unwrap().lines() {
        let (w, c) = line.rsplit_once('\t').unwrap();
        distributed.insert(w.to_string(), c.parse::<u64>().unwrap());
    }
    assert_eq!(distributed, reference);
}

#[test]
fn query_distributed_equals_reference() {
    let spec = WorkloadSpec::QueryUservisits;
    let n = 8;
    let (store, result) = run_workload(spec, n, 24, 9);
    let job_name = spec.tiny_job(n, 24).name;
    let reference = QueryApp::reference_aggregate(&concatenated_input(&store, &job_name, n));

    let mut distributed = std::collections::BTreeMap::new();
    for line in String::from_utf8(result).unwrap().lines() {
        let (k, cents) = line.rsplit_once('\t').unwrap();
        distributed.insert(k.to_string(), cents.parse::<u64>().unwrap());
    }
    assert_eq!(distributed, reference);
}

#[test]
fn sort_outputs_are_sorted_runs_conserving_all_records() {
    // Sort uses the single-pass schedule: each final reducer emits one
    // sorted run; together the runs must contain exactly the input
    // record multiset.
    let spec = WorkloadSpec::Sort100;
    let n = 8;
    let job = spec.tiny_job(n, 20);
    let plan = planner()
        .plan(&job, Objective::min_cost_with_deadline_s(3600.0))
        .unwrap();
    let store = Arc::new(MemStore::new());
    spec.generate_inputs(&job, &store, 3);
    let report = run_local(&job, &plan, &store, spec.app().as_ref()).unwrap();

    let app = SortApp::default();
    let steps = report.steps;
    let mut all_out: Vec<Vec<u8>> = Vec::new();
    for r in 0.. {
        let key = keys::reduce_out(&job.name, steps, r);
        match store.get(&key) {
            Ok(bytes) => {
                assert!(app.is_sorted(&bytes), "run {r} is not sorted");
                all_out.extend(bytes.chunks(100).map(|c| c.to_vec()));
            }
            Err(_) => break,
        }
    }
    let mut input_records: Vec<Vec<u8>> = concatenated_input(&store, &job.name, n)
        .chunks(100)
        .map(|c| c.to_vec())
        .collect();
    input_records.sort();
    all_out.sort();
    assert_eq!(all_out, input_records, "records must be conserved");
}

#[test]
fn simulated_and_local_runs_share_the_same_dataflow() {
    // The simulator executes the same plan the byte-level runtime does;
    // their mapper/reducer rosters must agree.
    use astra::faas::SimConfig;
    use astra::mapreduce::simulate;

    let spec = WorkloadSpec::wordcount_gb(1);
    let job = spec.tiny_job(9, 16);
    let plan = planner()
        .plan(&job, Objective::min_cost_with_deadline_s(3600.0))
        .unwrap();

    let store = Arc::new(MemStore::new());
    spec.generate_inputs(&job, &store, 5);
    let local = run_local(&job, &plan, &store, &WordCountApp).unwrap();

    let sim = simulate(
        &job,
        &plan,
        SimConfig::deterministic(Platform::aws_lambda()),
    )
    .unwrap();
    // Invocations = mappers + coordinator + reducers.
    assert_eq!(sim.invocation_count(), local.mappers + 1 + local.reducers);
    // PUT counts: sim writes state objects + shuffle + reduce outputs;
    // the local store saw the same writes.
    assert_eq!(
        sim.ledger.puts as usize,
        local.mappers + local.steps + local.reducers
    );
}

#[test]
fn model_predicts_simulated_jct_exactly_when_clean() {
    // End-to-end: the planner's prediction matches a noise-free,
    // cold-start-free simulation for the actual paper-scale jobs.
    use astra::faas::SimConfig;
    use astra::mapreduce::simulate;

    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let mut platform = Platform::aws_lambda();
        platform.cold_start_s = 0.0;
        let astra = Astra::new(
            platform.clone(),
            PriceCatalog::aws_2020(),
            Strategy::ExactCsp,
        );
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        let report = simulate(&job, &plan, SimConfig::deterministic(platform)).unwrap();
        let err = relative_error(report.jct_s(), plan.predicted_jct_s());
        assert!(err < 1e-6, "{}: err {err}", spec.label());
    }
}
