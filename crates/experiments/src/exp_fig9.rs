//! Fig. 9: Astra versus the VM-based solution (Amazon EMR, 3× m3.xlarge,
//! 100 concurrent map tasks) on Wordcount 20 GB and Sort 100 GB.

use astra_baselines::EmrCluster;
use astra_core::Objective;
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::exp_fig7_table3::fig7_budget;
use crate::harness;
use crate::output::Output;

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Fig. 9: Astra vs EMR (3 x m3.xlarge, 100 map slots)");
    out.blank();

    let cluster = EmrCluster::paper_setup();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [WorkloadSpec::wordcount_gb(20), WorkloadSpec::Sort100] {
        let job = spec.into_job();
        // Astra plans for performance under the same budget as Fig. 7.
        let budget = fig7_budget(&job);
        let plan = harness::astra()
            .plan(&job, Objective::MinimizeTime { budget })
            .expect("feasible");
        let astra = harness::measure(&job, &plan);
        let emr = cluster.run(&job);
        rows.push(vec![
            spec.label(),
            format!("{:.1}", astra.jct_s),
            format!("{:.1}", emr.jct_s),
            format!("{:.1}%", harness::improvement_pct(astra.jct_s, emr.jct_s)),
            format!("{:.4}", astra.cost.dollars()),
            format!("{:.4}", emr.cost.dollars()),
            format!(
                "{:.1}%",
                harness::improvement_pct(astra.cost.dollars(), emr.cost.dollars())
            ),
        ]);
        json_rows.push(json!({
            "workload": spec.label(),
            "astra_jct_s": astra.jct_s,
            "emr_jct_s": emr.jct_s,
            "jct_improvement_pct": harness::improvement_pct(astra.jct_s, emr.jct_s),
            "astra_cost_dollars": astra.cost.dollars(),
            "emr_cost_dollars": emr.cost.dollars(),
            "cost_saving_pct": harness::improvement_pct(astra.cost.dollars(), emr.cost.dollars()),
            "emr_breakdown": {"map_s": emr.map_s, "shuffle_s": emr.shuffle_s, "reduce_s": emr.reduce_s},
        }));
    }
    out.table(
        &[
            "workload",
            "Astra JCT (s)",
            "EMR JCT (s)",
            "JCT gain",
            "Astra $",
            "EMR $",
            "cost saving",
        ],
        &rows,
    );
    out.blank();
    out.line("Paper shape: Astra wins both metrics on both workloads. (The paper's");
    out.line("JCT margin is larger on Wordcount than Sort; under our calibration the");
    out.line("Sort margin is larger because the single-pass reduce schedule avoids");
    out.line("the shuffle wall the authors' measured deployment hit — see");
    out.line("EXPERIMENTS.md.)");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Objective;

    #[test]
    fn astra_beats_emr_on_wordcount_20gb() {
        let job = WorkloadSpec::wordcount_gb(20).into_job();
        let budget = fig7_budget(&job);
        let plan = harness::astra()
            .plan(&job, Objective::MinimizeTime { budget })
            .unwrap();
        let astra = harness::measure(&job, &plan);
        let emr = EmrCluster::paper_setup().run(&job);
        assert!(
            astra.jct_s < emr.jct_s,
            "astra {} emr {}",
            astra.jct_s,
            emr.jct_s
        );
        assert!(astra.cost.dollars() < emr.cost.dollars());
    }
}
