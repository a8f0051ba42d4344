//! Wire-format guarantees: JSON round-trips are lossless (budgets to
//! the nanodollar), unknown fields are rejected at every nesting level,
//! and malformed or invalid bodies submitted through the daemon land in
//! `Rejected` with the wire error as the reason.

mod service_support;

use astra::core::Objective;
use astra::pricing::Money;
use astra::service::wire;
use astra::service::{JobStatus, ServiceConfig, ServiceDaemon, SimOptions, WireError};
use serde_json::Value;
use service_support::mixed_requests;

#[test]
fn every_mixed_request_round_trips_losslessly() {
    for (i, request) in mixed_requests(10).into_iter().enumerate() {
        let text = serde_json::to_string_pretty(&wire::job_request_to_json(&request)).unwrap();
        let back = wire::job_request_from_str(&text)
            .unwrap_or_else(|e| panic!("request {i} failed to re-parse: {e}\n{text}"));
        assert_eq!(back, request, "request {i} round-trip drifted");
    }
}

#[test]
fn budgets_round_trip_to_the_nanodollar() {
    // Objective::fastest() carries a budget near the i128 ceiling that
    // no f64 can represent; the string encoding must preserve it.
    let mut request = mixed_requests(1).remove(0);
    request.objective = Objective::fastest();
    let text = serde_json::to_string(&wire::job_request_to_json(&request)).unwrap();
    assert_eq!(
        wire::job_request_from_str(&text).unwrap().objective,
        request.objective
    );

    request.objective = Objective::MinimizeTime {
        budget: Money::from_nanos(123_456_789_000_000_007),
    };
    let text = serde_json::to_string(&wire::job_request_to_json(&request)).unwrap();
    assert_eq!(
        wire::job_request_from_str(&text).unwrap().objective,
        request.objective
    );
}

#[test]
fn status_names_round_trip() {
    for status in JobStatus::ALL {
        assert_eq!(JobStatus::parse(status.as_str()), Some(status));
        assert_eq!(status.to_string(), status.as_str());
    }
    assert_eq!(JobStatus::parse("PENDING"), None);
}

#[test]
fn unknown_fields_fail_parsing_and_reject_through_the_daemon() {
    let request = mixed_requests(1).remove(0);
    let mut value = wire::job_request_to_json(&request);
    let Value::Object(map) = &mut value else {
        panic!()
    };
    map.insert("priority".to_string(), Value::from(9));
    let body = serde_json::to_string(&value).unwrap();

    // Direct parse: a typed unknown-field error naming the key.
    match wire::job_request_from_str(&body) {
        Err(WireError::UnknownField { context, field }) => {
            assert_eq!(context, "request");
            assert_eq!(field, "priority");
        }
        other => panic!("expected UnknownField, got {other:?}"),
    }

    // Through the daemon: a Rejected snapshot carrying that reason.
    let daemon = ServiceDaemon::start(ServiceConfig::default());
    let handle = daemon.handle();
    let id = handle.submit_json(&body);
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    snap.check_history().unwrap();
    assert!(
        snap.reason
            .as_ref()
            .unwrap()
            .contains("unknown field 'priority'"),
        "reason: {:?}",
        snap.reason
    );
}

#[test]
fn invalid_specs_parse_but_reject_with_validation_reasons() {
    // Structurally valid JSON, semantically invalid spec: parsing
    // succeeds, validation rejects, and the reason is the validator's.
    let mut request = mixed_requests(1).remove(0);
    request.job.object_sizes_mb[0] = -5.0;
    let body = serde_json::to_string(&wire::job_request_to_json(&request)).unwrap();

    let daemon = ServiceDaemon::start(ServiceConfig::default());
    let handle = daemon.handle();
    let id = handle.submit_json(&body);
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    assert!(
        snap.reason.as_ref().unwrap().contains("invalid size"),
        "reason: {:?}",
        snap.reason
    );

    // The placeholder path: an unparsable body still gets an id and a
    // Rejected snapshot, and valid JSON submissions round-trip through
    // a snapshot encoding that names the same status.
    let id = handle.submit_json("[1, 2, 3]");
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected);
    let encoded = wire::snapshot_to_json(&snap);
    let Value::Object(map) = &encoded else {
        panic!()
    };
    assert_eq!(map.get("status").unwrap().as_str().unwrap(), "REJECTED");
    assert!(map.get("reason").unwrap().as_str().is_some());
}

#[test]
fn done_snapshots_encode_results_exactly() {
    let request = mixed_requests(2).remove(1).with_sim(SimOptions {
        noise_cv: 0.1,
        seed: 7,
        replications: 2,
    });
    let daemon = ServiceDaemon::start(ServiceConfig::default());
    let handle = daemon.handle();
    let id = handle.submit(request);
    let snap = handle.await_done(id).unwrap();
    assert_eq!(snap.status, JobStatus::Done);

    let encoded = wire::snapshot_to_json(&snap);
    let Value::Object(map) = &encoded else {
        panic!()
    };
    assert_eq!(map.get("id").unwrap().as_u64().unwrap(), snap.id);
    assert_eq!(map.get("status").unwrap().as_str().unwrap(), "DONE");
    let Some(Value::Object(plan)) = map.get("plan") else {
        panic!("Done snapshot must encode its plan")
    };
    // Predicted cost encodes as the exact nanodollar string.
    assert_eq!(
        plan.get("predicted_cost_nanos").unwrap().as_str().unwrap(),
        snap.plan
            .as_ref()
            .unwrap()
            .predicted_cost
            .nanos()
            .to_string()
    );
    let Some(Value::Object(sim)) = map.get("sim") else {
        panic!("simulated snapshot must encode sim results")
    };
    assert_eq!(sim.get("jct_s").unwrap().as_array().unwrap().len(), 2);
    let history = map.get("history").unwrap().as_array().unwrap();
    assert_eq!(history.len(), snap.history.len());
    let Some(Value::Object(first)) = history.first() else {
        panic!()
    };
    assert_eq!(first.get("status").unwrap().as_str().unwrap(), "ACCEPTED");
}
