//! Ablation: how close is the analytical predictor (paper Sec. III) to
//! the event simulator's "measured" behaviour?
//!
//! The paper's Discussion notes the modeling "could be dynamically
//! adjusted and refined to achieve better accuracy" — this experiment
//! quantifies the gap: exact at zero noise / zero cold start (by
//! construction; the planner DAG's optimality proof rests on it), and a
//! few percent once cold starts and lognormal runtime noise are enabled.

use astra_core::{PlanSpec, ReduceSpec};
use astra_faas::SimConfig;
use astra_mapreduce::simulate;
use astra_simcore::summary::{relative_error, Summary};
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Sampled configurations per workload.
fn sample_specs(n_objects: usize) -> Vec<PlanSpec> {
    let mut specs = Vec::new();
    for (mem, k_m, k_r) in [
        (128u32, 1usize, 2usize),
        (512, 2, 2),
        (1024, 4, 4),
        (1792, 1, 8),
        (3008, 2, 2),
    ] {
        specs.push(PlanSpec {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: k_m.min(n_objects),
            reduce_spec: ReduceSpec::PerReducer(k_r),
        });
    }
    specs
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Ablation: analytical model vs event simulator");
    out.blank();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let mut clean_errs = Vec::new();
        let mut noisy_errs = Vec::new();
        for plan_spec in sample_specs(job.num_objects()) {
            let plan = harness::evaluate_relaxed(&job, plan_spec);
            // Idealised platform: no noise, no cold start.
            let mut ideal = harness::platform();
            ideal.cold_start_s = 0.0;
            ideal.timeout_s = f64::INFINITY;
            let clean = simulate(&job, &plan, SimConfig::deterministic(ideal)).expect("clean sim");
            clean_errs.push(relative_error(clean.jct_s(), plan.predicted_jct_s()));
            // Realistic platform: cold starts + 10% CV noise.
            let noisy = harness::measure(&job, &plan);
            noisy_errs.push(relative_error(noisy.jct_s, plan.predicted_jct_s()));
        }
        let clean = Summary::of(&clean_errs).unwrap();
        let noisy = Summary::of(&noisy_errs).unwrap();
        rows.push(vec![
            spec.label(),
            format!("{:.4}%", clean.mean * 100.0),
            format!("{:.4}%", clean.max * 100.0),
            format!("{:.2}%", noisy.mean * 100.0),
            format!("{:.2}%", noisy.max * 100.0),
        ]);
        json_rows.push(json!({
            "workload": spec.label(),
            "clean_mean_rel_err": clean.mean,
            "clean_max_rel_err": clean.max,
            "noisy_mean_rel_err": noisy.mean,
            "noisy_max_rel_err": noisy.max,
        }));
    }
    out.line("JCT prediction error, 5 sampled configurations per workload:");
    out.table(
        &[
            "workload",
            "clean mean",
            "clean max",
            "noisy mean",
            "noisy max",
        ],
        &rows,
    );
    out.blank();
    out.line("clean = no noise / no cold start (model-exactness check);");
    out.line("noisy = 250 ms cold starts + 10% CV lognormal runtime noise.");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exactness half of the claim, on one workload.
    #[test]
    fn clean_sim_error_is_negligible() {
        let job = WorkloadSpec::wordcount_gb(1).into_job();
        for plan_spec in sample_specs(job.num_objects()) {
            let plan = harness::evaluate_relaxed(&job, plan_spec.clone());
            let mut ideal = harness::platform();
            ideal.cold_start_s = 0.0;
            ideal.timeout_s = f64::INFINITY;
            let clean = simulate(&job, &plan, SimConfig::deterministic(ideal)).unwrap();
            let err = relative_error(clean.jct_s(), plan.predicted_jct_s());
            assert!(err < 1e-6, "{plan_spec:?}: err {err}");
        }
    }
}
