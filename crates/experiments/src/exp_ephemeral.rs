//! Extension experiment (paper Discussion): S3 versus an ElastiCache-like
//! in-memory tier for intermediate data.
//!
//! The Locus observation this reproduces: a provisioned cache removes
//! per-request latency and per-request charges from the shuffle path —
//! a large win for shuffle-heavy jobs (Sort) — but adds rent for the
//! whole job duration, which a shuffle-light job (Wordcount) cannot
//! amortise.

use astra_core::{Astra, Objective, Strategy};
use astra_model::Platform;
use astra_pricing::PriceCatalog;
use astra_workloads::WorkloadSpec;
use serde_json::json;

use crate::harness;
use crate::output::Output;

/// Plan and measure one workload on a platform variant.
fn best_on(platform: Platform, spec: WorkloadSpec) -> (f64, f64, String) {
    let job = spec.into_job();
    let astra = Astra::new(
        platform.clone(),
        PriceCatalog::aws_2020(),
        Strategy::ExactCsp,
    );
    // Compare at matched QoS: cheapest plan within 2x of the S3-fastest.
    let fastest_s3 = harness::astra().plan(&job, Objective::fastest()).unwrap();
    let deadline = fastest_s3.predicted_jct_s() * 2.0;
    let plan = astra
        .plan(&job, Objective::min_cost_with_deadline_s(deadline))
        .expect("deadline feasible on both platforms");
    // Measure on the matching simulator platform.
    let mut relaxed = platform;
    relaxed.timeout_s = f64::INFINITY;
    let mut jct = 0.0;
    let mut cost = 0.0;
    for &seed in &harness::SEEDS {
        let report = astra_mapreduce::simulate(
            &job,
            &plan,
            astra_faas::SimConfig::deterministic(relaxed.clone())
                .with_noise(harness::NOISE_CV, seed),
        )
        .expect("simulates");
        jct += report.jct_s();
        cost += report.total_cost().dollars();
    }
    let n = harness::SEEDS.len() as f64;
    (jct / n, cost / n, plan.summary())
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Extension: intermediate data on S3 vs an ElastiCache-like tier");
    out.line("(cost-optimal plans at a matched 2x-fastest QoS threshold; 5 noisy seeds)");
    out.blank();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [
        WorkloadSpec::wordcount_gb(1),
        WorkloadSpec::wordcount_gb(20),
        WorkloadSpec::Sort100,
        WorkloadSpec::QueryUservisits,
    ] {
        let (s3_jct, s3_cost, _) = best_on(harness::platform(), spec);
        let (cache_jct, cache_cost, plan) = best_on(harness::platform().with_elasticache(), spec);
        rows.push(vec![
            spec.label(),
            format!("{s3_jct:.1}"),
            format!("{cache_jct:.1}"),
            format!("{s3_cost:.5}"),
            format!("{cache_cost:.5}"),
            format!("{:+.1}%", (cache_cost / s3_cost - 1.0) * 100.0),
        ]);
        json_rows.push(json!({
            "workload": spec.label(),
            "s3_jct_s": s3_jct,
            "cache_jct_s": cache_jct,
            "s3_cost_dollars": s3_cost,
            "cache_cost_dollars": cache_cost,
            "cache_plan": plan,
        }));
    }
    out.table(
        &[
            "workload",
            "S3 JCT (s)",
            "cache JCT (s)",
            "S3 $",
            "cache $",
            "cache cost delta",
        ],
        &rows,
    );
    out.blank();
    out.line("Expected shape (Locus): the cache speeds up request-bound shuffles");
    out.line("but its rent penalises short or shuffle-light jobs.");
    out.record("rows", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_speeds_up_the_shuffle_heavy_sort() {
        let (s3_jct, _, _) = best_on(harness::platform(), WorkloadSpec::Sort100);
        let (cache_jct, _, _) = best_on(
            harness::platform().with_elasticache(),
            WorkloadSpec::Sort100,
        );
        // At matched QoS both meet the deadline; the cache platform must
        // not be slower by more than noise.
        assert!(
            cache_jct <= s3_jct * 1.15,
            "cache {cache_jct} vs s3 {s3_jct}"
        );
    }
}
