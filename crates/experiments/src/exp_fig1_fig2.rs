//! Fig. 1 + Fig. 2: job completion time and monetary cost versus the
//! number of objects processed per lambda, for three memory allocations.
//!
//! The motivation experiment of Sec. II-C: a MapReduce job over 10 input
//! objects, 2 MB total. Both `k_M` and `k_R` are set to the swept `k`.
//! Expected shapes (paper): JCT and cost fall from k = 1 to ~4 (fewer
//! reduce steps, fewer lambdas/requests) and rise past 5 (skewed object
//! distribution makes a straggler).

use astra_core::{Plan, PlanSpec, ReduceSpec};
use astra_model::{JobSpec, WorkloadProfile};
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Memory allocations swept in the paper's Figs. 1–2.
pub const MEMORIES: [u32; 3] = [128, 1536, 3008];
/// Objects-per-lambda sweep range.
pub const K_RANGE: std::ops::RangeInclusive<usize> = 1..=9;

/// The motivation job: 10 objects, 2 MB total, wordcount-like compute.
pub fn motivation_job() -> JobSpec {
    let profile = WorkloadProfile {
        name: "motivation".to_string(),
        // Small objects: per-request latency and reduce-step count
        // dominate, exactly the regime of the paper's toy example.
        map_secs_per_mb_128: 0.9,
        reduce_secs_per_mb_128: 0.6,
        coord_secs_per_mb_128: 0.002,
        shuffle_ratio: 1.0,
        reduce_ratio: 1.0,
        // A 1 MB state object would dwarf the 0.2 MB data objects; the
        // motivation experiment's state lines are tiny.
        state_object_mb: 0.01,
        single_pass_reduce: false,
    };
    JobSpec::uniform("motivation", 10, 0.2, profile)
}

/// Evaluate one sweep point (model + measured).
pub fn sweep_point(job: &JobSpec, k: usize, mem: u32) -> (Plan, harness::Measured) {
    let spec = PlanSpec {
        mapper_mem_mb: mem,
        coordinator_mem_mb: mem,
        reducer_mem_mb: mem,
        objects_per_mapper: k,
        reduce_spec: ReduceSpec::PerReducer(k),
    };
    let plan = harness::evaluate_relaxed(job, spec);
    let measured = harness::measure(job, &plan);
    (plan, measured)
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    let job = motivation_job();
    out.heading("Fig. 1 / Fig. 2: JCT and cost vs objects per lambda (10 objects, 2 MB total)");
    out.blank();

    // Evaluate all 27 plans up front, then measure the whole k × memory
    // grid as one parallel batch (results come back in grid order).
    let grid: Vec<(usize, u32, Plan)> = K_RANGE
        .flat_map(|k| MEMORIES.iter().map(move |&mem| (k, mem)))
        .map(|(k, mem)| {
            let spec = PlanSpec {
                mapper_mem_mb: mem,
                coordinator_mem_mb: mem,
                reducer_mem_mb: mem,
                objects_per_mapper: k,
                reduce_spec: ReduceSpec::PerReducer(k),
            };
            (k, mem, harness::evaluate_relaxed(&job, spec))
        })
        .collect();
    let cases: Vec<_> = grid.iter().map(|(_, _, plan)| (&job, plan)).collect();
    let measurements = harness::measure_batch(&cases, harness::NOISE_CV, &harness::SEEDS);

    let mut jct_rows = Vec::new();
    let mut cost_rows = Vec::new();
    let mut json_points = Vec::new();
    for ((k, mem, plan), measured) in grid.iter().zip(&measurements) {
        if *mem == MEMORIES[0] {
            jct_rows.push(vec![k.to_string()]);
            cost_rows.push(vec![k.to_string()]);
        }
        jct_rows
            .last_mut()
            .unwrap()
            .push(format!("{:.2}", measured.jct_s));
        cost_rows
            .last_mut()
            .unwrap()
            .push(format!("{:.6}", measured.cost.dollars()));
        json_points.push(json!({
            "k": *k,
            "memory_mb": *mem,
            "jct_s": measured.jct_s,
            "cost_dollars": measured.cost.dollars(),
            "predicted_jct_s": plan.predicted_jct_s(),
            "predicted_cost_dollars": plan.predicted_cost().dollars(),
        }));
    }

    out.line("Fig. 1 — job completion time (s), measured on the simulator:");
    out.table(&["objects/lambda", "128MB", "1536MB", "3008MB"], &jct_rows);
    out.blank();
    out.line("Fig. 2 — monetary cost ($):");
    out.table(&["objects/lambda", "128MB", "1536MB", "3008MB"], &cost_rows);
    out.record("points", json!(json_points));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jct(k: usize, mem: u32) -> f64 {
        sweep_point(&motivation_job(), k, mem).1.jct_s
    }

    /// The paper's headline shape: decreasing from k=1 to k=4.
    #[test]
    fn jct_falls_from_k1_to_k4() {
        let job = motivation_job();
        for &mem in &MEMORIES {
            let j1 = sweep_point(&job, 1, mem).1.jct_s;
            let j4 = sweep_point(&job, 4, mem).1.jct_s;
            assert!(j4 < j1, "mem {mem}: k=4 ({j4}) not faster than k=1 ({j1})");
        }
    }

    /// Skew penalty: k=9 (objects split 9/1) is slower than k=5 (5/5).
    #[test]
    fn skew_raises_jct_past_k5() {
        assert!(jct(9, 128) > jct(5, 128));
    }

    /// Cost falls from k=1 to k=4 too (fewer lambdas and requests).
    #[test]
    fn cost_falls_from_k1_to_k4() {
        let job = motivation_job();
        let c1 = sweep_point(&job, 1, 128).1.cost;
        let c4 = sweep_point(&job, 4, 128).1.cost;
        assert!(c4 < c1);
    }

    /// Fig. 3's companion observation: 3008 MB beats 128 MB on time.
    #[test]
    fn more_memory_is_faster() {
        assert!(jct(2, 3008) < jct(2, 128));
    }
}
