//! Fig. 7 + Table III: budget-constrained performance optimization —
//! Astra versus Baselines 1–3 on all five workloads, plus the resource
//! allocations Astra chose.

use astra_baselines::Baseline;
use astra_core::{Objective, Plan, ReduceSpec};
use astra_model::JobSpec;
use astra_pricing::Money;
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness::{self, Measured};
use crate::output::Output;

/// The Fig. 7 budget: what the most expensive baseline is predicted to
/// spend. This matches the paper's framing — given the money a
/// practitioner's hand configuration already costs, Astra buys strictly
/// more performance — and guarantees the comparison is apples-to-apples
/// (every baseline configuration is inside Astra's search space, so with
/// this budget the planner's choice can only be faster).
pub fn fig7_budget(job: &JobSpec) -> Money {
    Baseline::all()
        .into_iter()
        .map(|b| harness::evaluate_relaxed(job, b.spec_for(job)).predicted_cost())
        .max()
        .expect("three baselines")
}

/// One workload's comparison result.
#[derive(Debug)]
pub struct Comparison {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The binding budget.
    pub budget: Money,
    /// Astra's plan.
    pub astra_plan: Plan,
    /// Astra measured.
    pub astra: Measured,
    /// `(name, measured)` for Baselines 1–3.
    pub baselines: Vec<(&'static str, Measured)>,
}

/// Plan and measure one workload under a binding budget.
pub fn compare(spec: WorkloadSpec) -> Comparison {
    let job = spec.into_job();
    let budget = fig7_budget(&job);
    let astra_plan = harness::astra()
        .plan(&job, Objective::MinimizeTime { budget })
        .expect("the baselines' own spend is a feasible budget");
    let baseline_plans: Vec<(&'static str, Plan)> = Baseline::all()
        .into_iter()
        .map(|b| (b.name, harness::evaluate_relaxed(&job, b.spec_for(&job))))
        .collect();
    // Astra and all three baselines share one parallel measurement batch.
    let mut cases = vec![(&job, &astra_plan)];
    cases.extend(baseline_plans.iter().map(|(_, p)| (&job, p)));
    let mut measured = harness::measure_batch(&cases, harness::NOISE_CV, &harness::SEEDS);
    let astra = measured.remove(0);
    let baselines = baseline_plans
        .iter()
        .zip(measured)
        .map(|(&(name, _), m)| (name, m))
        .collect();
    Comparison {
        spec,
        budget,
        astra_plan,
        astra,
        baselines,
    }
}

fn table3_row(label: &str, job: &JobSpec, plan: &Plan) -> Vec<String> {
    let _ = job;
    vec![
        label.to_string(),
        format!(
            "{}/{}/{}",
            plan.spec.mapper_mem_mb, plan.spec.coordinator_mem_mb, plan.spec.reducer_mem_mb
        ),
        plan.spec.objects_per_mapper.to_string(),
        match &plan.spec.reduce_spec {
            ReduceSpec::PerReducer(k) => k.to_string(),
            ReduceSpec::ExplicitSteps(v) => format!("{v:?}"),
        },
        plan.mappers().to_string(),
        plan.reducers().to_string(),
        plan.reduce_steps().to_string(),
    ]
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Fig. 7: JCT under a budget — Astra vs Baselines 1-3");
    out.line("(budget = the most expensive baseline's predicted spend; 5 noisy seeds each)");
    out.blank();

    let mut fig7_rows = Vec::new();
    let mut table3_rows = Vec::new();
    let mut phase_rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut json_phases = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let c = compare(spec);
        let best_baseline = c
            .baselines
            .iter()
            .map(|(_, m)| m.jct_s)
            .fold(f64::INFINITY, f64::min);
        fig7_rows.push(vec![
            spec.label(),
            format!("{:.1}", c.astra.jct_s),
            format!("{:.1}", c.baselines[0].1.jct_s),
            format!("{:.1}", c.baselines[1].1.jct_s),
            format!("{:.1}", c.baselines[2].1.jct_s),
            format!(
                "{:.1}%",
                harness::improvement_pct(c.astra.jct_s, best_baseline)
            ),
            format!("({}, {})", c.budget, c.astra.cost),
        ]);
        table3_rows.push(table3_row(&spec.label(), &job, &c.astra_plan));
        // Exclusive phase partition of the last seed's run: where did
        // the makespan go? Rows sum to 100 % by construction.
        let breakdown = c.astra.last_report.phase_breakdown();
        let jct = breakdown.total().as_secs_f64();
        let pct = |d: astra_simcore::SimDuration| {
            if jct > 0.0 {
                100.0 * d.as_secs_f64() / jct
            } else {
                0.0
            }
        };
        let mut phase_row = vec![spec.label(), format!("{jct:.1}")];
        phase_row.extend(
            breakdown
                .rows()
                .iter()
                .map(|&(_, d)| format!("{:.1}%", pct(d))),
        );
        phase_rows.push(phase_row);
        json_phases.push(json!({
            "workload": spec.label(),
            "jct_s": jct,
            "phases": breakdown
                .rows()
                .iter()
                .map(|&(label, d)| json!({"phase": label, "seconds": d.as_secs_f64(), "pct": pct(d)}))
                .collect::<Vec<_>>(),
        }));
        for (name, m) in &c.baselines {
            if !m.timeout_violations.is_empty() {
                notes.push(format!(
                    "{} / {}: {} lambda(s) exceed the 900 s AWS timeout ({}) — \
                     a real deployment would have been killed; simulated with a \
                     relaxed timeout and reported here",
                    spec.label(),
                    name,
                    m.timeout_violations.len(),
                    m.timeout_violations.first().cloned().unwrap_or_default()
                ));
            }
        }
        json_rows.push(json!({
            "workload": spec.label(),
            "budget_dollars": c.budget.dollars(),
            "astra_jct_s": c.astra.jct_s,
            "astra_cost_dollars": c.astra.cost.dollars(),
            "baseline_jct_s": c.baselines.iter().map(|(n, m)| json!({"name": n, "jct_s": m.jct_s, "cost": m.cost.dollars()})).collect::<Vec<_>>(),
            "improvement_vs_best_baseline_pct": harness::improvement_pct(c.astra.jct_s, best_baseline),
            "plan": c.astra_plan.summary(),
        }));
    }

    out.table(
        &[
            "workload",
            "Astra (s)",
            "B1 (s)",
            "B2 (s)",
            "B3 (s)",
            "vs best",
            "(budget, Astra cost)",
        ],
        &fig7_rows,
    );
    out.blank();

    out.heading("Table III: resource allocations achieved by Astra (perf-opt)");
    out.table(
        &[
            "workload",
            "mem map/co/red (MB)",
            "obj/mapper",
            "obj/reducer",
            "mappers",
            "reducers",
            "steps",
        ],
        &table3_rows,
    );
    out.blank();
    out.heading("Phase breakdown of Astra's runs (exclusive share of JCT, last seed)");
    out.line("(priority when phases overlap: cold > GET > PUT > compute > wait > queued)");
    out.table(
        &[
            "workload", "JCT (s)", "cold", "get", "put", "compute", "wait", "queued", "idle",
        ],
        &phase_rows,
    );
    if !notes.is_empty() {
        out.blank();
        out.line("Timeout notes:");
        for n in &notes {
            out.line(format!("  - {n}"));
        }
    }
    out.record("rows", json!(json_rows));
    out.record("phase_breakdown", json!(json_phases));
    out.record("timeout_notes", json!(notes));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's core claim on a representative workload: Astra beats
    /// every baseline under a binding budget without exceeding it.
    #[test]
    fn astra_wins_wordcount_1gb_within_budget() {
        let c = compare(WorkloadSpec::wordcount_gb(1));
        for (name, m) in &c.baselines {
            assert!(
                c.astra.jct_s < m.jct_s,
                "Astra {:.1}s not faster than {name} {:.1}s",
                c.astra.jct_s,
                m.jct_s
            );
        }
        // Predicted cost respects the budget; measured cost is noisy but
        // must stay in the ballpark.
        assert!(c.astra_plan.predicted_cost() <= c.budget);
        assert!(c.astra.cost.dollars() <= c.budget.dollars() * 1.25);
    }

    #[test]
    fn astra_wins_query_within_budget() {
        let c = compare(WorkloadSpec::QueryUservisits);
        let best = c
            .baselines
            .iter()
            .map(|(_, m)| m.jct_s)
            .fold(f64::INFINITY, f64::min);
        assert!(harness::improvement_pct(c.astra.jct_s, best) > 0.0);
    }
}
