//! Admission-control properties: the envelope is never over-committed
//! (the sum of admitted claims stays within budget, concurrency within
//! slots), and no admissible job is ever starved — at the controller,
//! the scheduler, and the full service level.

mod service_support;

use astra::pricing::Money;
use astra::service::scheduler::Scheduler;
use astra::service::{
    Admission, AdmissionController, Envelope, JobStatus, ServiceConfig, ServiceDaemon,
};
use proptest::prelude::*;
use service_support::mixed_requests;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

fn dollars(d: f64) -> Money {
    Money::from_dollars_f64(d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Driving a random claim sequence through the controller with a
    /// FIFO release discipline: occupancy never exceeds the envelope at
    /// any step, infeasible claims are rejected (never deferred), and
    /// every feasible claim is eventually admitted.
    #[test]
    fn controller_never_over_admits_and_admits_every_feasible_claim(
        claims in proptest::collection::vec(0.01f64..2.0, 1..24),
        slots in 1usize..5,
        budget in 0.5f64..3.0,
    ) {
        let envelope = Envelope { max_in_flight: slots, budget: dollars(budget) };
        let mut controller = AdmissionController::new(envelope);
        let mut in_flight: VecDeque<Money> = VecDeque::new();
        let mut admitted = 0usize;
        let feasible = claims.iter().filter(|&&c| dollars(c) <= envelope.budget).count();

        for &claim_dollars in &claims {
            let claim = dollars(claim_dollars);
            loop {
                match controller.admit(claim) {
                    Admission::Admit => {
                        in_flight.push_back(claim);
                        admitted += 1;
                        break;
                    }
                    Admission::Defer => {
                        // FIFO release: the oldest admitted job finishes.
                        let done = in_flight.pop_front().expect("deferred with empty envelope");
                        controller.release(done);
                    }
                    Admission::Reject(reason) => {
                        prop_assert!(
                            claim > envelope.budget,
                            "feasible claim {claim} rejected: {reason}"
                        );
                        break;
                    }
                }
                // The envelope invariants hold after every step.
                prop_assert!(controller.in_flight() <= slots);
                prop_assert!(controller.claimed() <= envelope.budget);
            }
            prop_assert!(controller.in_flight() <= slots, "slots over-committed");
            prop_assert!(controller.claimed() <= envelope.budget, "budget over-committed");
            let held: i128 = in_flight.iter().map(|m| m.nanos()).sum();
            prop_assert_eq!(controller.claimed(), Money::from_nanos(held), "claim ledger drifted");
        }
        prop_assert_eq!(admitted, feasible, "an admissible claim was starved");
        for done in in_flight {
            controller.release(done);
        }
        prop_assert_eq!(controller.in_flight(), 0);
        prop_assert_eq!(controller.claimed(), Money::ZERO);
    }

    /// The threaded scheduler path: with a worker pool draining a tight
    /// envelope, every feasible submission is dispatched exactly once
    /// and every infeasible one is rejected at submit time.
    #[test]
    fn scheduler_dispatches_every_feasible_job(
        claims in proptest::collection::vec(0.01f64..2.0, 1..16),
        slots in 1usize..4,
        budget in 0.5f64..3.0,
    ) {
        let envelope = Envelope { max_in_flight: slots, budget: dollars(budget) };
        let sched = Arc::new(Scheduler::new(
            claims.len(),
            envelope,
            astra::service::FairnessConfig::default(),
            astra::service::OverloadConfig::disabled(),
            astra::telemetry::Telemetry::disabled(),
        ));
        let mut expected: Vec<u64> = Vec::new();
        for (id, &claim) in claims.iter().enumerate() {
            // Spread the mix over two tenants so the DRR lanes are
            // exercised, not just the single-lane degenerate case.
            let tenant = if id % 2 == 0 { "even" } else { "odd" };
            match sched.submit(id as u64, tenant, dollars(claim), false, ()) {
                Ok(()) => expected.push(id as u64),
                Err(reason) => prop_assert!(
                    dollars(claim) > envelope.budget,
                    "feasible job {id} rejected: {reason:?}"
                ),
            }
        }
        sched.close();

        let dispatched = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let dispatched = Arc::clone(&dispatched);
                std::thread::spawn(move || {
                    while let Some(job) = sched.next() {
                        dispatched.lock().unwrap().push(job.id);
                        sched.complete(&job);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }

        let mut dispatched = Arc::try_unwrap(dispatched).unwrap().into_inner().unwrap();
        dispatched.sort_unstable();
        prop_assert_eq!(dispatched, expected, "dispatch set != feasible submissions");
        prop_assert_eq!(sched.in_flight(), 0, "claims leaked");
    }
}

/// Full-service check: an envelope budget strictly between the smallest
/// and largest planned cost splits the mix deterministically — every
/// job whose claim fits is `Done`, every oversized one is `Rejected`
/// with the budget named, and nothing is left non-terminal.
#[test]
fn service_rejects_oversized_claims_and_completes_the_rest() {
    let requests = mixed_requests(8);
    let claims: Vec<Money> = requests
        .iter()
        .map(|r| service_support::reference(r).plan.predicted_cost())
        .collect();
    let (min_claim, max_claim) = (*claims.iter().min().unwrap(), *claims.iter().max().unwrap());
    assert!(min_claim < max_claim, "mix too uniform to split");
    let budget = Money::from_nanos((min_claim.nanos() + max_claim.nanos()) / 2);

    let daemon = ServiceDaemon::start(ServiceConfig::default().with_workers(3).with_envelope(
        Envelope {
            max_in_flight: 2,
            budget,
        },
    ));
    let handle = daemon.handle();
    let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
    for (&id, claim) in ids.iter().zip(&claims) {
        let snap = handle.await_done(id).unwrap();
        snap.check_history().unwrap();
        if *claim > budget {
            assert_eq!(snap.status, JobStatus::Rejected, "oversized job {id}");
            assert!(snap.reason.as_ref().unwrap().contains("admission budget"));
        } else {
            assert_eq!(snap.status, JobStatus::Done, "admissible job {id} starved");
        }
    }
    assert_eq!(handle.in_flight(), 0, "claims leaked after drain");
}
