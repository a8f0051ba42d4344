//! The real (byte-level) runtime: the same orchestration as the
//! simulator, executed by threads over a [`MemStore`].

use std::sync::Arc;
use std::time::Instant;

use astra_core::Plan;
use astra_model::distribute::distribute_counts;
use astra_model::JobSpec;
use astra_storage::MemStore;
use bytes::Bytes;
use rayon::prelude::*;

use crate::apps::MapReduceApp;
use crate::keys;

/// Outcome of a byte-level run.
#[derive(Debug)]
pub struct LocalReport {
    /// Key of the final result object (still in the store).
    pub result_key: String,
    /// The final result bytes.
    pub result: Bytes,
    /// Mappers executed.
    pub mappers: usize,
    /// Reducers executed (all steps).
    pub reducers: usize,
    /// Reduce steps executed.
    pub steps: usize,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
}

/// Errors from the byte-level runtime.
#[derive(Debug)]
pub enum LocalError {
    /// An input object named by the job is missing from the store.
    MissingInput(String),
}

impl std::fmt::Display for LocalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalError::MissingInput(k) => write!(f, "missing input object {k}"),
        }
    }
}

impl std::error::Error for LocalError {}

/// Execute `plan` for `job` over real bytes.
///
/// Expects the job's input objects at `keys::input(job.name, i)` in
/// `store`. Mappers run in parallel (rayon), then each reduce step's
/// reducers run in parallel with a barrier between steps — exactly the
/// coordinator semantics of the simulated runtime. Object counts per
/// mapper/reducer follow the plan's schedule, so the dataflow graph is
/// identical to the simulated one.
pub fn run_local(
    job: &JobSpec,
    plan: &Plan,
    store: &Arc<MemStore>,
    app: &dyn MapReduceApp,
) -> Result<LocalReport, LocalError> {
    let t0 = Instant::now();
    let name = job.name.as_str();

    for i in 0..job.num_objects() {
        let key = keys::input(name, i);
        if !store.contains(&key) {
            return Err(LocalError::MissingInput(key));
        }
    }

    // Mapping phase.
    let counts = distribute_counts(job.num_objects(), plan.spec.objects_per_mapper);
    let mut ranges = Vec::with_capacity(counts.len());
    let mut next = 0usize;
    for &c in &counts {
        ranges.push(next..next + c);
        next += c;
    }
    ranges.into_par_iter().enumerate().for_each(|(m, range)| {
        let mut input = Vec::new();
        for i in range {
            let obj = store.get(&keys::input(name, i)).expect("checked above");
            input.extend_from_slice(&obj);
        }
        let out = app.map(&input);
        store.put(keys::shuffle(name, m), out);
    });

    // Reducing phase: the plan's schedule gives per-step reducer object
    // counts; sizes in the schedule are model estimates, the counts are
    // what the coordinator actually uses.
    let structure = &plan.evaluation.perf.reduce.structure;
    let mut total_reducers = 0usize;
    for (p_idx, step) in structure.steps.iter().enumerate() {
        let p = p_idx + 1;
        // The coordinator writes the state object (content: reducer count
        // + object count, as the paper describes).
        let state = format!(
            "step={p} reducers={} objects={}\n",
            step.reducers(),
            step.input_objects()
        );
        store.put(keys::state(name, p), state.into_bytes());

        let mut assignments = Vec::with_capacity(step.reducers());
        let mut next_input = 0usize;
        for objs in &step.assignments {
            assignments.push(next_input..next_input + objs.len());
            next_input += objs.len();
        }
        total_reducers += assignments.len();
        assignments
            .into_par_iter()
            .enumerate()
            .for_each(|(r, range)| {
                let inputs: Vec<Bytes> = range
                    .map(|idx| {
                        store
                            .get(&keys::step_input(name, p, idx))
                            .expect("producer ran in a previous step")
                    })
                    .collect();
                let out = app.reduce(&inputs);
                store.put(keys::reduce_out(name, p, r), out);
            });
    }

    let result_key = keys::result(name, structure.num_steps());
    let result = store.get(&result_key).expect("final reducer wrote it");
    Ok(LocalReport {
        result_key,
        result,
        mappers: counts.len(),
        reducers: total_reducers,
        steps: structure.num_steps(),
        wall: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ConcatApp;
    use astra_core::{PlanSpec, ReduceSpec};
    use astra_model::{Platform, WorkloadProfile};
    use astra_pricing::PriceCatalog;

    fn plan_for(job: &JobSpec, k_m: usize, k_r: usize) -> Plan {
        Plan::evaluate(
            job,
            &Platform::paper_literal(10.0),
            &PriceCatalog::aws_2020(),
            PlanSpec {
                mapper_mem_mb: 128,
                coordinator_mem_mb: 128,
                reducer_mem_mb: 128,
                objects_per_mapper: k_m,
                reduce_spec: ReduceSpec::PerReducer(k_r),
            },
        )
        .unwrap()
    }

    fn store_with_inputs(job: &JobSpec, payload: impl Fn(usize) -> Vec<u8>) -> Arc<MemStore> {
        let store = Arc::new(MemStore::new());
        for i in 0..job.num_objects() {
            store.put(keys::input(&job.name, i), payload(i));
        }
        store
    }

    #[test]
    fn concat_preserves_every_input_byte_in_order() {
        let job = JobSpec::uniform("local", 10, 0.001, WorkloadProfile::uniform_test());
        let plan = plan_for(&job, 2, 2);
        let store = store_with_inputs(&job, |i| format!("[obj{i}]").into_bytes());
        let report = run_local(&job, &plan, &store, &ConcatApp).unwrap();
        // Consecutive assignment at every level keeps global order.
        let expected: String = (0..10).map(|i| format!("[obj{i}]")).collect();
        assert_eq!(report.result, Bytes::from(expected.into_bytes()));
        assert_eq!(report.mappers, 5);
        assert_eq!(report.steps, 3);
        assert_eq!(report.reducers, 6);
    }

    #[test]
    fn single_mapper_single_reducer() {
        let job = JobSpec::uniform("local1", 3, 0.001, WorkloadProfile::uniform_test());
        let plan = plan_for(&job, 3, 2);
        let store = store_with_inputs(&job, |i| vec![b'a' + i as u8]);
        let report = run_local(&job, &plan, &store, &ConcatApp).unwrap();
        assert_eq!(report.result, Bytes::from_static(b"abc"));
        assert_eq!(report.mappers, 1);
        assert_eq!(report.steps, 1);
    }

    #[test]
    fn missing_input_is_reported() {
        let job = JobSpec::uniform("missing", 2, 0.001, WorkloadProfile::uniform_test());
        let plan = plan_for(&job, 1, 2);
        let store = Arc::new(MemStore::new());
        store.put(keys::input("missing", 0), vec![1]);
        let err = run_local(&job, &plan, &store, &ConcatApp).unwrap_err();
        assert!(err.to_string().contains("input/000001"));
    }

    #[test]
    fn state_objects_are_written() {
        let job = JobSpec::uniform("state", 10, 0.001, WorkloadProfile::uniform_test());
        let plan = plan_for(&job, 2, 2);
        let store = store_with_inputs(&job, |_| vec![0u8]);
        run_local(&job, &plan, &store, &ConcatApp).unwrap();
        for p in 1..=3 {
            let state = store.get(&keys::state("state", p)).unwrap();
            let text = String::from_utf8(state.to_vec()).unwrap();
            assert!(text.contains(&format!("step={p}")), "{text}");
        }
    }

    #[test]
    fn request_counts_match_model_prediction() {
        // The MemStore's GET/PUT counters should line up with what the
        // cost model bills (modulo the driver's existence checks which use
        // contains(), not get()).
        let job = JobSpec::uniform("req", 10, 0.001, WorkloadProfile::uniform_test());
        let plan = plan_for(&job, 2, 2);
        let store = store_with_inputs(&job, |_| vec![0u8]);
        let before_puts = store.put_count();
        run_local(&job, &plan, &store, &ConcatApp).unwrap();
        // PUTs: 5 shuffle + 3 state + 6 reduce outputs = 14.
        assert_eq!(store.put_count() - before_puts, 14);
        // GETs: 10 inputs + step inputs (5 + 3 + 2) + 1 final read = 21.
        // (Real reducers don't GET the state object — its content is only
        // needed by the coordinator logic, which runs in-process here.)
        assert_eq!(store.get_count(), 21);
    }
}
