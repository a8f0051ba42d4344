//! Service determinism: a fixed submission order with fixed seeds must
//! produce bit-identical per-job results at any `RAYON_NUM_THREADS`,
//! any worker-pool size, and under admission deferral — the daemon may
//! change *when* a job runs, never *what* it computes. The reference is
//! the same jobs run serially through the plain `Astra` library API.

mod service_support;

use astra::pricing::Money;
use astra::service::{Envelope, JobStatus, ServiceConfig, ServiceDaemon};
use service_support::{assert_matches_reference, mixed_requests, reference, Reference};

/// The thread counts swept in every test. The rayon shim re-reads
/// `RAYON_NUM_THREADS` on each parallel call, so sweeping it inside one
/// process is sound.
const THREADS: [&str; 3] = ["1", "2", "8"];
const WORKER_POOLS: [usize; 3] = [1, 2, 8];

fn run_mix_through_daemon(
    config: ServiceConfig,
    requests: &[astra::service::JobRequest],
) -> Vec<astra::service::JobSnapshot> {
    let daemon = ServiceDaemon::start(config);
    let handle = daemon.handle();
    let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
    ids.iter()
        .map(|&id| handle.await_done(id).unwrap())
        .collect()
}

#[test]
fn results_are_bit_identical_across_threads_and_worker_pools() {
    let requests = mixed_requests(8);
    let references: Vec<Reference> = requests.iter().map(reference).collect();

    for workers in WORKER_POOLS {
        for threads in THREADS {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let snapshots =
                run_mix_through_daemon(ServiceConfig::default().with_workers(workers), &requests);
            for (snap, reference) in snapshots.iter().zip(&references) {
                snap.check_history().unwrap();
                assert_matches_reference(
                    snap,
                    reference,
                    &format!("{workers} workers @{threads} threads"),
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn admission_deferral_changes_latency_not_results() {
    let requests = mixed_requests(6);
    let references: Vec<Reference> = requests.iter().map(reference).collect();

    // A one-slot envelope forces every job to wait for its predecessor:
    // maximal deferral pressure, identical results.
    let serialized = ServiceConfig::default()
        .with_workers(4)
        .with_envelope(Envelope {
            max_in_flight: 1,
            budget: Money::from_dollars_f64(1_000_000.0),
        });
    for (snap, reference) in run_mix_through_daemon(serialized, &requests)
        .iter()
        .zip(&references)
    {
        assert_matches_reference(snap, reference, "max_in_flight=1");
    }

    // A budget just big enough for the most expensive single plan also
    // defers aggressively without rejecting anything.
    let max_claim = references
        .iter()
        .map(|r| r.plan.predicted_cost())
        .max()
        .unwrap();
    let tight_budget = ServiceConfig::default()
        .with_workers(4)
        .with_envelope(Envelope {
            max_in_flight: 64,
            budget: max_claim,
        });
    for (snap, reference) in run_mix_through_daemon(tight_budget, &requests)
        .iter()
        .zip(&references)
    {
        assert_matches_reference(snap, reference, "budget=max_claim");
    }
}

#[test]
fn repeated_runs_of_the_same_mix_are_identical() {
    let requests = mixed_requests(6);
    let first = run_mix_through_daemon(ServiceConfig::default().with_workers(3), &requests);
    let second = run_mix_through_daemon(ServiceConfig::default().with_workers(3), &requests);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.status, JobStatus::Done);
        assert_eq!(a.plan.as_ref().unwrap().spec, b.plan.as_ref().unwrap().spec);
        assert_eq!(
            a.plan.as_ref().unwrap().predicted_cost,
            b.plan.as_ref().unwrap().predicted_cost
        );
        match (&a.sim, &b.sim) {
            (Some(sa), Some(sb)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sa.jct_s), bits(&sb.jct_s));
                assert_eq!(sa.cost, sb.cost);
                assert_eq!(sa.events, sb.events);
            }
            (None, None) => {}
            other => panic!("sim presence diverged: {other:?}"),
        }
    }
}
