//! Ablation (DESIGN.md `noise_sensitivity`): how robust are Astra's
//! plans to runtime variance and container failures the model does not
//! see?
//!
//! The planner commits to a configuration using noise-free predictions;
//! real lambdas are noisy and occasionally crash-and-retry. This
//! experiment sweeps the simulator's noise CV and failure rate and
//! reports how often the QoS-constrained plan still meets its deadline.

use astra_core::Objective;
use astra_faas::SimConfig;
use astra_mapreduce::simulate;
use astra_simcore::summary::Summary;
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Noise levels swept.
pub const NOISE_LEVELS: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
/// Failure rates swept.
pub const FAILURE_RATES: [f64; 3] = [0.0, 0.02, 0.10];
/// Runs per cell.
pub const RUNS: u64 = 20;

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Ablation: plan robustness under runtime noise and failures");
    out.line("(Wordcount 1GB, QoS plan at a 2x-fastest deadline; 20 seeded runs per cell)");
    out.blank();

    let spec = WorkloadSpec::wordcount_gb(1);
    let job = spec.into_job();
    let astra = harness::astra();
    let fastest = astra.plan(&job, Objective::fastest()).unwrap();
    let deadline = fastest.predicted_jct_s() * 2.0;
    let plan = astra
        .plan(&job, Objective::min_cost_with_deadline_s(deadline))
        .unwrap();
    out.line(format!(
        "plan: {} | deadline {:.1}s",
        plan.summary(),
        deadline
    ));
    out.blank();

    let mut relaxed = harness::platform();
    relaxed.timeout_s = f64::INFINITY;

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for noise in NOISE_LEVELS {
        for failure in FAILURE_RATES {
            let mut jcts = Vec::new();
            let mut met = 0u64;
            let mut crashes = 0u64;
            for seed in 0..RUNS {
                let report = simulate(
                    &job,
                    &plan,
                    SimConfig::deterministic(relaxed.clone())
                        .with_noise(noise, 1000 + seed)
                        .with_failures(failure, 2),
                )
                .expect("retries absorb failures at these rates");
                if report.jct_s() <= deadline {
                    met += 1;
                }
                crashes += report.crashes;
                jcts.push(report.jct_s());
            }
            let stats = Summary::of(&jcts).unwrap();
            rows.push(vec![
                format!("{noise:.2}"),
                format!("{failure:.2}"),
                format!("{:.1}", stats.mean),
                format!("{:.1}", stats.max),
                format!("{:.0}%", met as f64 / RUNS as f64 * 100.0),
                crashes.to_string(),
            ]);
            json_rows.push(json!({
                "noise_cv": noise,
                "failure_rate": failure,
                "mean_jct_s": stats.mean,
                "max_jct_s": stats.max,
                "deadline_met_pct": met as f64 / RUNS as f64 * 100.0,
                "total_crashes": crashes,
            }));
        }
    }
    out.table(
        &[
            "noise CV",
            "failure rate",
            "mean JCT (s)",
            "max JCT (s)",
            "deadline met",
            "crashes",
        ],
        &rows,
    );
    out.blank();
    out.line("Cold starts + noise push measured JCT past the noise-free prediction,");
    out.line("so tight deadlines need planner headroom — the gap the paper's");
    out.line("'dynamically adjusted and refined' modelling remark points at.");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_runs_are_identical_and_fast() {
        let spec = WorkloadSpec::wordcount_gb(1);
        let job = spec.into_job();
        let astra = harness::astra();
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        let mut relaxed = harness::platform();
        relaxed.timeout_s = f64::INFINITY;
        let run = |seed| {
            simulate(
                &job,
                &plan,
                SimConfig::deterministic(relaxed.clone()).with_noise(0.0, seed),
            )
            .unwrap()
            .jct_s()
        };
        assert_eq!(run(1), run(2), "no noise, no seed dependence");
    }

    #[test]
    fn failures_slow_things_down_but_jobs_complete() {
        let spec = WorkloadSpec::wordcount_gb(1);
        let job = spec.into_job();
        let astra = harness::astra();
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        let mut relaxed = harness::platform();
        relaxed.timeout_s = f64::INFINITY;
        let run = |failure_rate| {
            simulate(
                &job,
                &plan,
                SimConfig::deterministic(relaxed.clone())
                    .with_noise(0.0, 5)
                    .with_failures(failure_rate, 2),
            )
            .unwrap()
        };
        let clean = run(0.0);
        let faulty = run(0.15);
        assert_eq!(clean.crashes, 0);
        assert!(faulty.crashes > 0);
        assert!(faulty.jct_s() >= clean.jct_s());
    }
}
