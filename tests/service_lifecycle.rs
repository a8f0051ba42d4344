//! Service-level lifecycle suite: a heterogeneous submission mix must
//! drive every job through legal lifecycle edges to a terminal state,
//! with results bit-identical to direct `Astra` library calls, and the
//! session cache must observably absorb repeated planning work.

mod service_support;

use astra::pricing::Money;
use astra::service::{JobStatus, ServiceConfig, ServiceDaemon};
use astra::telemetry::{InMemoryRecorder, Telemetry};
use service_support::{assert_matches_reference, mixed_requests, reference};
use std::sync::Arc;

#[test]
fn mixed_submissions_reach_done_with_library_identical_results() {
    let requests = mixed_requests(12);
    let daemon = ServiceDaemon::start(ServiceConfig::default().with_workers(4));
    let handle = daemon.handle();

    let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
    // Ids are dense in submission order, starting at 1.
    for (index, &id) in ids.iter().enumerate() {
        assert_eq!(id, index as u64 + 1);
    }

    for (&id, request) in ids.iter().zip(&requests) {
        let snap = handle.await_done(id).expect("known id");
        snap.check_history().unwrap();
        assert_eq!(&snap.request, request, "stored request mutated");
        assert_matches_reference(&snap, &reference(request), "lifecycle mix");

        // The lifecycle passed through the documented phases.
        let states: Vec<JobStatus> = snap.history.iter().map(|&(s, _)| s).collect();
        assert_eq!(states[0], JobStatus::Accepted);
        assert!(states.contains(&JobStatus::Planned));
        assert_eq!(
            states.contains(&JobStatus::Simulating),
            request.sim.replications > 0,
            "Simulating phase presence, job {id}"
        );
        assert!(snap.metrics.total_ns > 0);
        assert!(snap.metrics.plan_ns > 0);
    }

    // Four job families × 12 jobs: plenty of keyed session reuse.
    let stats = handle.cache_stats();
    assert!(stats.hits > 0, "no session reuse: {stats:?}");
    assert!(stats.hit_rate() > 0.0);
    assert!(handle.jobs().iter().any(|s| s.session_cache_hit));
}

#[test]
fn every_refusal_is_a_rejected_snapshot_with_a_reason() {
    let daemon = ServiceDaemon::start(ServiceConfig::default());
    let handle = daemon.handle();

    // Invalid spec.
    let mut invalid = mixed_requests(1).remove(0);
    invalid.job.object_sizes_mb[0] = f64::NAN;
    let id = handle.submit(invalid);
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    snap.check_history().unwrap();
    assert!(snap.reason.as_ref().unwrap().contains("invalid size"));

    // Infeasible objective.
    let mut hopeless = mixed_requests(1).remove(0);
    hopeless.objective = astra::core::Objective::MinimizeTime {
        budget: Money::from_nanos(1),
    };
    let id = handle.submit(hopeless);
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    assert!(snap.reason.as_ref().unwrap().contains("no configuration"));

    // Unparsable JSON body.
    let id = handle.submit_json("{definitely not json");
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    snap.check_history().unwrap();
    assert!(snap.reason.as_ref().unwrap().contains("invalid JSON"));

    // Rejections are terminal immediately: no worker involvement.
    for snap in handle.jobs() {
        assert_eq!(snap.status, JobStatus::Rejected);
        assert_eq!(snap.history.len(), 2, "Accepted then Rejected only");
    }
}

#[test]
fn shutdown_drains_the_queue_to_terminal_states() {
    let requests = mixed_requests(6);
    let daemon = ServiceDaemon::start(ServiceConfig::default().with_workers(1));
    let handle = daemon.handle();
    for request in &requests {
        handle.submit(request.clone());
    }
    daemon.shutdown();
    let snapshots = handle.jobs();
    assert_eq!(snapshots.len(), requests.len());
    for snap in &snapshots {
        assert!(
            snap.is_terminal(),
            "job {} left at {}",
            snap.id,
            snap.status
        );
        assert_eq!(snap.status, JobStatus::Done);
        snap.check_history().unwrap();
    }
}

#[test]
fn service_counters_and_cache_telemetry_are_recorded() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let telemetry = Telemetry::new(recorder.clone());
    let requests = mixed_requests(8);
    let daemon = ServiceDaemon::start(
        ServiceConfig::default()
            .with_workers(2)
            .with_telemetry(telemetry),
    );
    let handle = daemon.handle();
    let ids: Vec<_> = requests.iter().map(|r| handle.submit(r.clone())).collect();
    for id in ids {
        assert_eq!(handle.await_done(id).unwrap().status, JobStatus::Done);
    }
    // One bad one for the rejected counter.
    let mut bad = mixed_requests(1).remove(0);
    bad.name.clear();
    let id = handle.submit(bad);
    assert_eq!(handle.await_done(id).unwrap().status, JobStatus::Rejected);
    drop(daemon);

    assert_eq!(recorder.counter_value("service.submitted"), 9);
    assert_eq!(recorder.counter_value("service.rejected"), 1);
    assert_eq!(recorder.counter_value("service.planned"), 8);
    assert_eq!(recorder.counter_value("service.completed"), 8);
    assert_eq!(recorder.counter_value("service.failed"), 0);

    // The session cache reports its activity, and the in-memory stats
    // agree with the telemetry counters exactly.
    let stats = handle.cache_stats();
    assert!(stats.hits > 0);
    assert_eq!(recorder.counter_value("service.cache.hits"), stats.hits);
    assert_eq!(recorder.counter_value("service.cache.misses"), stats.misses);

    // Spans for the submit and worker paths were emitted.
    let spans = recorder.spans();
    assert!(spans.iter().any(|s| s.name.as_ref() == "service.submit"));
    assert!(spans.iter().any(|s| s.name.as_ref() == "service.job"));
}
