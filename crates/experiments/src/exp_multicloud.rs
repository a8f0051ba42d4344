//! Extension experiment (paper Discussion): "Astra can be adapted to
//! Google Functions and Azure Functions by using their respective
//! platform quotas and pricing mechanisms."
//!
//! Same jobs, same planner — only the platform envelope (memory tiers,
//! timeout, concurrency, network) and price sheet change. The planner
//! re-derives the optimal configuration per provider.

use astra_core::{Astra, Objective, Strategy};
use astra_model::Platform;
use astra_pricing::PriceCatalog;
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::output::Output;

/// The three provider setups.
pub fn providers() -> Vec<(&'static str, Platform, PriceCatalog)> {
    vec![
        (
            "AWS Lambda",
            Platform::aws_lambda(),
            PriceCatalog::aws_2020(),
        ),
        (
            "Google Cloud Functions",
            Platform::gcp_functions(),
            PriceCatalog::gcp_2020(),
        ),
        (
            "Azure Functions",
            Platform::azure_functions(),
            PriceCatalog::azure_2020(),
        ),
    ]
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Extension: Astra across providers (same jobs, provider-specific quotas & prices)");
    out.line("(model-predicted fastest plan and cheapest-within-2x plan per provider)");
    out.blank();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [
        WorkloadSpec::wordcount_gb(1),
        WorkloadSpec::Sort100,
        WorkloadSpec::QueryUservisits,
    ] {
        let job = spec.into_job();
        for (name, platform, catalog) in providers() {
            let astra = Astra::new(platform, catalog, Strategy::ExactCsp);
            match astra.plan(&job, Objective::fastest()) {
                Ok(fastest) => {
                    let qos = astra
                        .plan(
                            &job,
                            Objective::min_cost_with_deadline_s(fastest.predicted_jct_s() * 2.0),
                        )
                        .expect("2x deadline feasible");
                    rows.push(vec![
                        spec.label(),
                        name.to_string(),
                        format!("{:.1}", fastest.predicted_jct_s()),
                        format!("{:.5}", qos.predicted_cost().dollars()),
                        format!(
                            "{}/{}/{}",
                            qos.spec.mapper_mem_mb,
                            qos.spec.coordinator_mem_mb,
                            qos.spec.reducer_mem_mb
                        ),
                    ]);
                    json_rows.push(json!({
                        "workload": spec.label(),
                        "provider": name,
                        "fastest_jct_s": fastest.predicted_jct_s(),
                        "qos_cost_dollars": qos.predicted_cost().dollars(),
                        "qos_plan": qos.summary(),
                    }));
                }
                Err(e) => {
                    rows.push(vec![
                        spec.label(),
                        name.to_string(),
                        "infeasible".into(),
                        e.to_string(),
                        String::new(),
                    ]);
                }
            }
        }
    }
    out.table(
        &[
            "workload",
            "provider",
            "fastest JCT (s)",
            "QoS-opt cost ($)",
            "QoS mem (MB)",
        ],
        &rows,
    );
    out.blank();
    out.line("Provider quotas matter: GCF's 5 memory sizes and lower bandwidth cap,");
    out.line("and Azure's 200-instance scale-out limit, reshape the optimal plans.");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_provider_plans_every_sampled_workload() {
        for (name, platform, catalog) in providers() {
            let astra = Astra::new(platform, catalog, Strategy::ExactCsp);
            let job = WorkloadSpec::wordcount_gb(1).into_job();
            let plan = astra
                .plan(&job, Objective::fastest())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(plan.predicted_jct_s() > 0.0);
        }
    }

    #[test]
    fn azure_concurrency_cap_limits_fanout() {
        // Query has 202 objects; Azure's 200-instance limit forbids
        // k_M = 1 (202 mappers).
        let job = WorkloadSpec::QueryUservisits.into_job();
        let astra = Astra::new(
            Platform::azure_functions(),
            PriceCatalog::azure_2020(),
            Strategy::ExactCsp,
        );
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        assert!(plan.spec.objects_per_mapper >= 2, "{}", plan.summary());
        assert!(plan.mappers() <= 200);
    }

    #[test]
    fn gcf_plans_use_only_its_five_tiers() {
        let job = WorkloadSpec::Sort100.into_job();
        let astra = Astra::new(
            Platform::gcp_functions(),
            PriceCatalog::gcp_2020(),
            Strategy::ExactCsp,
        );
        let plan = astra.plan(&job, Objective::fastest()).unwrap();
        let tiers = [128u32, 256, 512, 1024, 2048];
        for mem in [
            plan.spec.mapper_mem_mb,
            plan.spec.coordinator_mem_mb,
            plan.spec.reducer_mem_mb,
        ] {
            assert!(tiers.contains(&mem), "{mem} not a GCF tier");
        }
    }
}
