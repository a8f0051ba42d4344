//! Fig. 6: completion time, mapper-phase time and cost as the memory
//! allocation varies (serverless Wordcount).
//!
//! Expected shapes: JCT and mapper time fall steeply at small memories
//! and flatten past ~1536 MB (the vCPU ceiling); cost has a sweet spot —
//! rising again at large memories because the GB-s rate keeps growing
//! while speed no longer does.

use astra_core::{PlanSpec, ReduceSpec};
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Fig. 6: JCT, mapper time and cost vs memory allocation (Wordcount 1GB)");
    out.line("(fixed k_M = 2, k_R = 2; all three roles share the swept memory)");
    out.blank();

    let job = WorkloadSpec::wordcount_gb(1).into_job();
    // Evaluate every memory tier's plan, then measure the whole sweep as
    // one parallel batch.
    let tiers = harness::platform().memory_tiers_mb.clone();
    let plans: Vec<_> = tiers
        .iter()
        .map(|&mem| {
            let spec = PlanSpec {
                mapper_mem_mb: mem,
                coordinator_mem_mb: mem,
                reducer_mem_mb: mem,
                objects_per_mapper: 2,
                reduce_spec: ReduceSpec::PerReducer(2),
            };
            harness::evaluate_relaxed(&job, spec)
        })
        .collect();
    let cases: Vec<_> = plans.iter().map(|plan| (&job, plan)).collect();
    let measurements = harness::measure_batch(&cases, harness::NOISE_CV, &harness::SEEDS);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for ((&mem, plan), measured) in tiers.iter().zip(&plans).zip(&measurements) {
        // Sample every other tier for the table; JSON gets them all.
        let mapper_s = plan.evaluation.perf.mapper.duration_s;
        points.push(json!({
            "memory_mb": mem,
            "jct_s": measured.jct_s,
            "mapper_phase_s": mapper_s,
            "cost_dollars": measured.cost.dollars(),
        }));
        if mem % 256 == 0 || mem == 128 || mem == 3008 {
            rows.push(vec![
                mem.to_string(),
                format!("{:.1}", measured.jct_s),
                format!("{:.1}", mapper_s),
                format!("{:.5}", measured.cost.dollars()),
            ]);
        }
    }
    out.table(
        &["memory (MB)", "JCT (s)", "mapper phase (s)", "cost ($)"],
        &rows,
    );
    out.blank();
    out.line("Shape check: times plateau past the vCPU ceiling (1792 MB);");
    out.line("cost reaches a minimum then climbs once speed stops improving.");
    out.record("points", json!(points));
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Plan;

    fn eval(mem: u32) -> (Plan, harness::Measured) {
        let job = WorkloadSpec::wordcount_gb(1).into_job();
        let spec = PlanSpec {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: 2,
            reduce_spec: ReduceSpec::PerReducer(2),
        };
        let plan = harness::evaluate_relaxed(&job, spec);
        let m = harness::measure_with(&job, &plan, 0.0, &[1]);
        (plan, m)
    }

    #[test]
    fn jct_falls_then_plateaus() {
        let (_, small) = eval(128);
        let (_, mid) = eval(1536);
        let (_, big) = eval(3008);
        assert!(
            mid.jct_s < small.jct_s / 2.0,
            "big speedup below the ceiling"
        );
        // Past the ceiling: within a few percent (only noise-free compute
        // shares the plateau; 1536 -> 1792 still gains a little).
        let rel = (mid.jct_s - big.jct_s).abs() / mid.jct_s;
        assert!(
            rel < 0.25,
            "plateau: 1536 {} vs 3008 {}",
            mid.jct_s,
            big.jct_s
        );
    }

    #[test]
    fn cost_rises_at_the_top_end() {
        let (_, at_ceiling) = eval(1792);
        let (_, top) = eval(3008);
        assert!(
            top.cost > at_ceiling.cost,
            "paying for memory that adds no speed"
        );
    }

    #[test]
    fn mapper_time_tracks_memory() {
        let (p128, _) = eval(128);
        let (p1024, _) = eval(1024);
        assert!(p1024.evaluation.perf.mapper.duration_s < p128.evaluation.perf.mapper.duration_s);
    }
}
