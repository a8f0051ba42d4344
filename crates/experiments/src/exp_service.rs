//! Service-layer acceptance run: a 200-job heterogeneous mix submitted
//! through the `astra-service` daemon must produce plans and simulated
//! JCTs/costs bit-identical to the same jobs run serially through the
//! plain `Astra` library API — at every worker-pool size — while the
//! session cache reports a non-zero hit rate.

use std::sync::Arc;
use std::time::Instant;

use astra_core::{Astra, Objective, Plan, Strategy};
use astra_faas::{derive_seed, SimConfig, SimReport};
use astra_mapreduce::simulate;
use astra_model::{JobSpec, Platform, WorkloadProfile};
use astra_pricing::PriceCatalog;
use astra_service::{JobRequest, JobSnapshot, JobStatus, ServiceConfig, ServiceDaemon, SimOptions};
use astra_telemetry::{sinks::InMemoryRecorder, Telemetry};
use serde_json::json;

use crate::output::Output;

/// Jobs in the acceptance mix.
pub const JOBS: usize = 200;
/// Worker-pool sizes swept.
pub const WORKER_POOLS: [usize; 3] = [1, 2, 8];

fn library_planner() -> Astra {
    Astra::new(Platform::aws_lambda(), PriceCatalog::aws_2020(), Strategy::ExactCsp)
}

/// The deterministic 200-job mix: four job families crossed with five
/// objectives and rotating noise/seed/replication settings (including
/// plan-only jobs). Identical shape to the service test-suite mix.
pub fn mixed_requests(n: usize) -> Vec<JobRequest> {
    let planner = library_planner();
    let families: Vec<JobSpec> = vec![
        JobSpec::uniform("mix-small", 6, 2.0, WorkloadProfile::uniform_test()),
        JobSpec::uniform("mix-wide", 10, 1.0, WorkloadProfile::uniform_test()),
        astra_workloads::WorkloadSpec::wordcount_gb(1).into_job(),
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

struct Reference {
    plan: Plan,
    reports: Vec<SimReport>,
}

fn reference(request: &JobRequest) -> Reference {
    let plan = library_planner()
        .plan(&request.job, request.objective)
        .expect("mixed requests are feasible");
    let reports = (0..request.sim.replications as u64)
        .map(|rep| {
            let config = SimConfig::deterministic(Platform::aws_lambda())
                .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep));
            simulate(&request.job, &plan, config).expect("reference simulation")
        })
        .collect();
    Reference { plan, reports }
}

/// Bit-level comparison of a daemon snapshot against the serial library
/// reference; returns a description of the first divergence, if any.
fn divergence(snap: &JobSnapshot, reference: &Reference) -> Option<String> {
    if snap.status != JobStatus::Done {
        return Some(format!("status {} ({:?})", snap.status, snap.reason));
    }
    let plan = snap.plan.as_ref()?;
    if plan.spec != reference.plan.spec {
        return Some("plan spec".into());
    }
    if plan.predicted_jct_s.to_bits() != reference.plan.predicted_jct_s().to_bits() {
        return Some("predicted JCT bits".into());
    }
    if plan.predicted_cost != reference.plan.predicted_cost() {
        return Some("predicted cost".into());
    }
    match &snap.sim {
        None if reference.reports.is_empty() => None,
        None => Some("missing sim results".into()),
        Some(sim) => {
            if sim.jct_s.len() != reference.reports.len() {
                return Some("replication count".into());
            }
            for (rep, report) in reference.reports.iter().enumerate() {
                if sim.jct_s[rep].to_bits() != report.jct_s().to_bits() {
                    return Some(format!("sim JCT bits, rep {rep}"));
                }
                if sim.cost[rep] != report.total_cost() {
                    return Some(format!("sim cost, rep {rep}"));
                }
                if sim.events[rep] != report.events {
                    return Some(format!("sim event count, rep {rep}"));
                }
            }
            None
        }
    }
}

/// Run the experiment.
pub fn run(out: &mut Output) {
    out.heading("Service daemon vs serial library: 200-job bit-identity + throughput");
    out.blank();

    let requests = mixed_requests(JOBS);
    let t0 = Instant::now();
    let references: Vec<Reference> = requests.iter().map(reference).collect();
    let serial_s = t0.elapsed().as_secs_f64();
    out.line(format!(
        "serial library reference: {JOBS} jobs planned+simulated in {serial_s:.1}s"
    ));
    out.blank();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for workers in WORKER_POOLS {
        let recorder = Arc::new(InMemoryRecorder::new());
        let config = ServiceConfig::default()
            .with_workers(workers)
            .with_telemetry(Telemetry::new(recorder.clone()));
        let t0 = Instant::now();
        let daemon = ServiceDaemon::start(config);
        let handle = daemon.handle();
        let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
        let snapshots: Vec<JobSnapshot> = ids
            .iter()
            .map(|&id| handle.await_done(id).expect("job vanished"))
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();

        let mismatches: Vec<String> = snapshots
            .iter()
            .zip(&references)
            .filter_map(|(snap, reference)| {
                divergence(snap, reference).map(|d| format!("job {}: {d}", snap.id))
            })
            .collect();
        let stats = handle.cache_stats();
        let hits = recorder.counter_value("service.cache.hits");
        let lookups = hits + recorder.counter_value("service.cache.misses");
        let hit_rate = hits as f64 / lookups.max(1) as f64;
        drop(handle);
        daemon.shutdown();

        rows.push(vec![
            workers.to_string(),
            format!("{wall_s:.1}s"),
            format!("{:.1}", JOBS as f64 / wall_s),
            format!("{:.2}x", serial_s / wall_s),
            if mismatches.is_empty() {
                "bit-identical".to_string()
            } else {
                format!("{} DIVERGED", mismatches.len())
            },
            format!("{:.0}%", hit_rate * 100.0),
        ]);
        json_rows.push(json!({
            "workers": workers,
            "wall_s": wall_s,
            "jobs_per_s": JOBS as f64 / wall_s,
            "speedup_vs_serial": serial_s / wall_s,
            "mismatches": mismatches,
            "cache_hits": hits,
            "cache_lookups": lookups,
            "cache_hit_rate": hit_rate,
            "cache_evictions": stats.evictions,
        }));
        for m in mismatches.iter().take(5) {
            out.line(format!("  DIVERGENCE at {workers} workers: {m}"));
        }
        assert!(hits > 0, "session cache never hit at {workers} workers");
    }

    out.table(
        &["workers", "wall", "jobs/s", "speedup", "results", "cache hits"],
        &rows,
    );
    out.blank();
    out.line("Every worker-pool size must report 'bit-identical': the daemon");
    out.line("reorders execution, never results. The cache-hit column counts");
    out.line("planner-session reuse across the 200-job mix (each job is planned");
    out.line("once, at admission; every repeat of a spec reuses its session).");
    out.record("serial_s", json!(serial_s));
    out.record("jobs", json!(JOBS));
    out.record("pools", json!(json_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down acceptance run: the daemon matches the serial
    /// library bit-for-bit and the cache reports hits.
    #[test]
    fn small_mix_is_bit_identical_with_cache_hits() {
        let requests = mixed_requests(10);
        let references: Vec<Reference> = requests.iter().map(reference).collect();
        let daemon = ServiceDaemon::start(ServiceConfig::default().with_workers(3));
        let handle = daemon.handle();
        let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
        for (&id, reference) in ids.iter().zip(&references) {
            let snap = handle.await_done(id).unwrap();
            assert_eq!(divergence(&snap, reference), None, "job {id}");
        }
        assert!(handle.cache_stats().hits > 0);
    }
}
