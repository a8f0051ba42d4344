//! Output verification: every job reaches DONE over a legal lifecycle,
//! and a seeded sample is re-derived bit for bit with direct library
//! calls — `PlannerSession::plan` plus `astra_mapreduce::simulate` with
//! `derive_seed(seed, rep)` — which is what the determinism contract
//! promises the daemon returns.

use std::collections::HashMap;

use astra_core::ConfigSpace;
use astra_faas::{derive_seed, SimConfig};
use astra_service::{JobStatus, SessionKey};
use astra_telemetry::Telemetry;

use crate::client::{Record, Snap};
use crate::gen::{planner, Workload};

/// Whether record `index` of a run with workload seed `seed` is in the
/// re-derived sample (one in `workload.verify_every()`).
fn sampled(workload: Workload, seed: u64, index: usize) -> bool {
    derive_seed(seed ^ 0x7665_7269_6679, index as u64).is_multiple_of(workload.verify_every())
}

/// Check `records`; returns `(record index, problem)` for every job that
/// failed, was refused, walked an illegal history or disagrees with the
/// library.
pub fn check(workload: Workload, seed: u64, records: &[Record]) -> Vec<(usize, String)> {
    let mut problems = Vec::new();
    let mut sample: HashMap<SessionKey, Vec<usize>> = HashMap::new();
    let astra = planner();
    for (index, record) in records.iter().enumerate() {
        let snap = match &record.snap {
            Ok(snap) => snap,
            Err(e) => {
                problems.push((index, e.clone()));
                continue;
            }
        };
        if let Err(e) = snap.check_history() {
            problems.push((index, e));
        } else if snap.status != JobStatus::Done {
            problems.push((index, format!("job {} ended {}", snap.id, snap.status)));
        } else if sampled(workload, seed, index) {
            let job = &record.sent.req.request.job;
            let key = SessionKey::for_inputs(
                job,
                &ConfigSpace::full(job, astra.platform()),
                astra.platform(),
                astra.catalog(),
                astra.strategy(),
                astra.prune_config(),
            );
            sample.entry(key).or_default().push(index);
        }
    }
    // One session per distinct spec, dropped before the next is built.
    for indices in sample.into_values() {
        let job = &records[indices[0]].sent.req.request.job;
        let session = astra.session_with_space(job, &ConfigSpace::full(job, astra.platform()));
        for index in indices {
            let record = &records[index];
            let snap = record.snap.as_ref().expect("sampled records decoded");
            if let Err(e) = compare(&astra, &session, record, snap) {
                problems.push((index, format!("job {}: {e}", snap.id)));
            }
        }
    }
    problems.sort_by_key(|(index, _)| *index);
    problems
}

fn compare(
    astra: &astra_core::Astra,
    session: &astra_core::PlannerSession,
    record: &Record,
    snap: &Snap,
) -> Result<(), String> {
    let request = &record.sent.req.request;
    let plan = session
        .plan(request.objective)
        .map_err(|e| format!("library cannot plan it: {e}"))?;
    let expected = (plan.predicted_cost(), plan.predicted_jct_s().to_bits());
    match snap.plan {
        Some((cost, jct)) if (cost, jct.to_bits()) == expected => {}
        other => return Err(format!("plan {other:?} != library {expected:?}")),
    }
    let replications = request.sim.replications as u64;
    let Some(sim) = &snap.sim else {
        return if replications == 0 {
            Ok(())
        } else {
            Err("no simulation results".to_string())
        };
    };
    if sim.jct_s.len() as u64 != replications || sim.cost.len() as u64 != replications {
        return Err(format!(
            "{} replications reported, {replications} asked",
            sim.jct_s.len()
        ));
    }
    for rep in 0..replications {
        let config = SimConfig::deterministic(astra.platform().clone())
            .with_catalog(*astra.catalog())
            .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep))
            .with_telemetry(Telemetry::disabled());
        let report = astra_mapreduce::simulate(&request.job, &plan, config)
            .map_err(|e| format!("library simulation failed: {e}"))?;
        let (jct, cost) = (sim.jct_s[rep as usize], sim.cost[rep as usize]);
        if jct.to_bits() != report.jct_s().to_bits() || cost != report.total_cost() {
            return Err(format!(
                "replication {rep}: ({jct}, {cost}) != library ({}, {})",
                report.jct_s(),
                report.total_cost()
            ));
        }
    }
    Ok(())
}
