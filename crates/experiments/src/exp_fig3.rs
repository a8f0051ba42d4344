//! Fig. 3: job timeline decomposition for two sample configurations.
//!
//! (a) every lambda handles 3 objects with 128 MB memory — 4 mappers,
//!     then 2 reduce steps (2 reducers, 1 reducer);
//! (b) every lambda handles 2 objects with 3008 MB — 5 mappers, then 3
//!     steps (3, 2, 1). More steps, but each function is much faster, so
//!     the job finishes sooner.

use astra_core::{PlanSpec, ReduceSpec};
use astra_faas::SimConfig;
use astra_mapreduce::simulate;
use serde_json::json;

use crate::exp_fig1_fig2::motivation_job;
use crate::harness;
use crate::output::Output;

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Fig. 3: job timelines for two sample configurations");
    out.blank();

    let job = motivation_job();
    let mut results = Vec::new();
    for (label, k, mem) in [
        ("(a) 3 objects per lambda, 128 MB", 3usize, 128u32),
        ("(b) 2 objects per lambda, 3008 MB", 2, 3008),
    ] {
        let spec = PlanSpec {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: k,
            reduce_spec: ReduceSpec::PerReducer(k),
        };
        let plan = harness::evaluate_relaxed(&job, spec);
        // Deterministic run for a clean timeline.
        let config = SimConfig::deterministic(harness::platform());
        let report = simulate(&job, &plan, config).expect("motivation job simulates");

        out.line(label);
        out.line(format!(
            "  mappers={} reduce steps={} ({:?}), JCT={:.2}s, cost={}",
            plan.mappers(),
            plan.reduce_steps(),
            plan.reducers_per_step(),
            report.jct_s(),
            report.total_cost(),
        ));
        out.blank();
        out.line("  legend: c=cold start  r=GET  #=compute  w=PUT  .=wait children");
        for line in report.trace.ascii_gantt(96).lines() {
            out.line(format!("  {line}"));
        }
        out.blank();
        results.push(json!({
            "label": label,
            "k": k,
            "memory_mb": mem,
            "jct_s": report.jct_s(),
            "cost_dollars": report.total_cost().dollars(),
            "reducers_per_step": plan.reducers_per_step(),
        }));
    }

    // The paper's point: (b) has more steps yet finishes first.
    let faster = results[1]["jct_s"].as_f64().unwrap() < results[0]["jct_s"].as_f64().unwrap();
    out.line(format!(
        "Observation: config (b) has more reduce steps but {} config (a).",
        if faster {
            "still beats"
        } else {
            "does NOT beat"
        }
    ));
    out.record("configs", json!(results));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_b_wins_despite_more_steps() {
        let mut out = Output::new("fig3-test");
        run(&mut out);
        assert!(out.text().contains("still beats"), "{}", out.text());
    }

    #[test]
    fn gantt_shows_phases() {
        let mut out = Output::new("fig3-test");
        run(&mut out);
        assert!(out.text().contains("mapper-0"));
        assert!(out.text().contains("coordinator"));
        assert!(out.text().contains("reducer-1-0"));
    }
}
