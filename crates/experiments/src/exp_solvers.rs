//! Ablation: the paper's Algorithm 1 versus the exact constrained
//! solvers, plus the planner-overhead measurement from the Discussion
//! ("within a few seconds on a laptop").

use std::time::Instant;

use astra_core::{Objective, Strategy};
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Budget tightness levels swept (fraction of the cheapest→fastest cost
/// range).
pub const TIGHTNESS: [f64; 4] = [0.1, 0.3, 0.5, 0.9];

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Ablation: Algorithm 1 (paper) vs exact constrained shortest path");
    out.blank();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        // One session per strategy: the DAG (and, for the exact solver,
        // its backward potentials) is built once and reused across the
        // whole tightness sweep — the per-query numbers below are pure
        // solve time.
        let t0 = Instant::now();
        let exact_session = harness::astra_with(Strategy::ExactCsp).session(&job);
        let exact_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let alg1_session = harness::astra_with(Strategy::Algorithm1).session(&job);
        let alg1_build_ms = t1.elapsed().as_secs_f64() * 1e3;
        let bounds = harness::bounds_on(&exact_session);
        for frac in TIGHTNESS {
            let budget = harness::budget_between(&bounds, frac);
            let objective = Objective::MinimizeTime { budget };

            let t0 = Instant::now();
            let exact = exact_session.plan(objective);
            let exact_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let alg1 = alg1_session.plan(objective);
            let alg1_ms = t1.elapsed().as_secs_f64() * 1e3;

            let (gap, alg1_result) = match (&exact, &alg1) {
                (Ok(e), Ok(a)) => {
                    let gap =
                        (a.predicted_jct_s() - e.predicted_jct_s()) / e.predicted_jct_s() * 100.0;
                    (format!("{gap:.2}%"), format!("{:.1}s", a.predicted_jct_s()))
                }
                (Ok(_), Err(_)) => ("FAILED".to_string(), "gave up".to_string()),
                (Err(_), _) => ("-".to_string(), "infeasible".to_string()),
            };
            rows.push(vec![
                spec.label(),
                format!("{frac:.1}"),
                exact
                    .as_ref()
                    .map(|p| format!("{:.1}s", p.predicted_jct_s()))
                    .unwrap_or_else(|_| "infeasible".to_string()),
                alg1_result.clone(),
                gap.clone(),
                format!("{exact_ms:.0}"),
                format!("{alg1_ms:.0}"),
            ]);
            json_rows.push(json!({
                "workload": spec.label(),
                "budget_frac": frac,
                "exact_jct_s": exact.as_ref().ok().map(|p| p.predicted_jct_s()),
                "alg1_jct_s": alg1.as_ref().ok().map(|p| p.predicted_jct_s()),
                "alg1_failed": alg1.is_err(),
                "exact_ms": exact_ms,
                "alg1_ms": alg1_ms,
                "exact_build_ms": exact_build_ms,
                "alg1_build_ms": alg1_build_ms,
            }));
        }
    }
    out.table(
        &[
            "workload",
            "tightness",
            "exact JCT",
            "Alg.1 JCT",
            "gap",
            "exact ms",
            "Alg.1 ms",
        ],
        &rows,
    );
    out.blank();
    out.line("Alg. 1 removes one edge per Dijkstra round (capped at 2000 removals);");
    out.line("on tight budgets it can fail where the exact solver succeeds.");
    out.line("The DAG is built once per workload (planner session) and the ms");
    out.line("columns are pure per-query solve time; build + all solves stay");
    out.line("within the paper's 'few seconds on a laptop' on every workload.");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_never_beats_exact() {
        let job = WorkloadSpec::wordcount_gb(1).into_job();
        let bounds = harness::bounds(&job);
        for frac in [0.3, 0.9] {
            let budget = harness::budget_between(&bounds, frac);
            let objective = Objective::MinimizeTime { budget };
            let exact = harness::astra_with(Strategy::ExactCsp)
                .plan(&job, objective)
                .unwrap();
            if let Ok(a) = harness::astra_with(Strategy::Algorithm1).plan(&job, objective) {
                assert!(a.predicted_jct_s() >= exact.predicted_jct_s() - 1e-9);
                // The solver admits a few nano-dollars of float slack.
                assert!(a.predicted_cost() <= budget + astra_pricing::Money::from_nanos(100));
            }
        }
    }
}
