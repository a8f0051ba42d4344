//! Shared fixtures for the service-level test suite: a deterministic
//! heterogeneous request mix, and the serial library reference every
//! service result must match bit-for-bit.
#![allow(dead_code)] // each test binary uses a subset of the helpers

use astra::core::{Astra, Objective, Plan, Strategy};
use astra::faas::{derive_seed, SimConfig, SimReport};
use astra::mapreduce::simulate;
use astra::model::{JobSpec, Platform, WorkloadProfile};
use astra::pricing::PriceCatalog;
use astra::service::{JobRequest, JobSnapshot, JobStatus, SimOptions};
use astra::workloads::WorkloadSpec;

/// The platform every service test plans and simulates against —
/// identical to `ServiceConfig::default()`.
pub fn platform() -> Platform {
    Platform::aws_lambda()
}

/// A library planner configured exactly like the default daemon.
pub fn library_planner() -> Astra {
    Astra::new(platform(), PriceCatalog::aws_2020(), Strategy::ExactCsp)
}

/// A deterministic heterogeneous mix of `n` feasible requests: four job
/// families (two uniform shapes, 1 GB wordcount, a few large objects)
/// crossed with five objectives (fastest, cheapest, two budgets, a
/// deadline derived from the cheapest plan) and varying noise/seed/
/// replication settings — including plan-only requests.
pub fn mixed_requests(n: usize) -> Vec<JobRequest> {
    let planner = library_planner();
    let families: Vec<JobSpec> = vec![
        JobSpec::uniform("mix-small", 6, 2.0, WorkloadProfile::uniform_test()),
        JobSpec::uniform("mix-wide", 10, 1.0, WorkloadProfile::uniform_test()),
        WorkloadSpec::wordcount_gb(1).into_job(),
        JobSpec::uniform("mix-chunky", 4, 8.0, WorkloadProfile::uniform_test()),
    ];
    (0..n)
        .map(|i| {
            let job = families[i % families.len()].clone();
            let objective = match i % 5 {
                0 => Objective::fastest(),
                1 => Objective::cheapest(),
                2 => Objective::min_time_with_budget_dollars(4.0),
                3 => {
                    let cheapest = planner.plan(&job, Objective::cheapest()).unwrap();
                    Objective::min_cost_with_deadline_s(cheapest.predicted_jct_s() * 1.5)
                }
                _ => Objective::min_time_with_budget_dollars(8.0),
            };
            let sim = SimOptions {
                noise_cv: 0.1 * (i % 3) as f64,
                seed: 1000 + i as u64,
                replications: (i % 3) as u32,
            };
            JobRequest::new(format!("mix-{i}"), job, objective)
                .with_tenant(format!("tenant-{}", i % 2))
                .with_sim(sim)
        })
        .collect()
}

/// What the plain library API produces for one request, run serially:
/// the plan over the full space, then one `simulate()` per replication
/// with the service's exact seed derivation.
pub struct Reference {
    /// The library plan.
    pub plan: Plan,
    /// One report per replication, in replication order.
    pub reports: Vec<SimReport>,
}

/// Compute the serial library reference for `request`.
pub fn reference(request: &JobRequest) -> Reference {
    let plan = library_planner()
        .plan(&request.job, request.objective)
        .expect("mixed_requests are feasible");
    let reports = (0..request.sim.replications as u64)
        .map(|rep| {
            let config = SimConfig::deterministic(platform())
                .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep));
            simulate(&request.job, &plan, config).expect("reference simulation")
        })
        .collect();
    Reference { plan, reports }
}

/// Assert a service snapshot is `Done` and bit-identical to the serial
/// library reference: same plan spec, same predicted JCT bits and exact
/// cost, and per-replication simulated JCT/cost/events equal.
pub fn assert_matches_reference(snap: &JobSnapshot, reference: &Reference, context: &str) {
    assert_eq!(
        snap.status,
        JobStatus::Done,
        "job {} not Done ({:?}) [{context}]",
        snap.id,
        snap.reason
    );
    let plan = snap.plan.as_ref().expect("Done jobs carry a plan");
    assert_eq!(
        plan.spec, reference.plan.spec,
        "plan spec, job {} [{context}]",
        snap.id
    );
    assert_eq!(
        plan.predicted_jct_s.to_bits(),
        reference.plan.predicted_jct_s().to_bits(),
        "predicted JCT bits, job {} [{context}]",
        snap.id
    );
    assert_eq!(
        plan.predicted_cost,
        reference.plan.predicted_cost(),
        "predicted cost, job {} [{context}]",
        snap.id
    );
    if snap.request.sim.replications == 0 {
        assert!(
            snap.sim.is_none(),
            "plan-only job {} has sim [{context}]",
            snap.id
        );
        return;
    }
    let sim = snap.sim.as_ref().expect("simulated jobs carry results");
    assert_eq!(
        sim.jct_s.len(),
        reference.reports.len(),
        "job {} [{context}]",
        snap.id
    );
    for (rep, report) in reference.reports.iter().enumerate() {
        assert_eq!(
            sim.jct_s[rep].to_bits(),
            report.jct_s().to_bits(),
            "sim JCT bits, job {} rep {rep} [{context}]",
            snap.id
        );
        assert_eq!(
            sim.cost[rep],
            report.total_cost(),
            "sim cost, job {} rep {rep} [{context}]",
            snap.id
        );
        assert_eq!(
            sim.events[rep], report.events,
            "sim events, job {} rep {rep} [{context}]",
            snap.id
        );
    }
}
