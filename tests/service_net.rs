//! The TCP line-protocol suite: loopback results must be bit-identical
//! to the in-process handle (and so to the serial library reference),
//! framing errors must reject without dropping the connection, the
//! connection budget must refuse explicitly, shutdown must drain, and
//! the DRR fairness layer must neither starve a lane nor over-admit a
//! tenant envelope. The transcript in `PROTOCOL.md` is replayed against
//! a live server to keep the spec byte-accurate.

mod service_support;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use astra::core::Objective;
use astra::model::{JobSpec, WorkloadProfile};
use astra::pricing::Money;
use astra::service::fairness::{Dispatch, DrrLanes, QueuedJob};
use astra::service::net::{codes, PROTO_VERSION};
use astra::service::wire;
use astra::service::{
    AdmissionController, Envelope, FairnessConfig, JobId, JobRequest, JobStatus, NetClient,
    NetConfig, NetServer, ServiceConfig, ServiceDaemon, SimOptions, TenantEnvelope,
};
use astra::telemetry::{InMemoryRecorder, Telemetry};
use proptest::prelude::*;
use serde_json::Value;
use service_support::{assert_matches_reference, library_planner, mixed_requests, reference};

fn dollars(d: f64) -> Money {
    Money::from_dollars_f64(d)
}

/// A quiet daemon + TCP server on an ephemeral loopback port.
fn start_server(
    config: ServiceConfig,
    net: NetConfig,
    telemetry: Telemetry,
) -> (ServiceDaemon, NetServer, String) {
    let daemon = ServiceDaemon::start(config);
    let server =
        NetServer::start(daemon.handle(), "127.0.0.1:0", net, telemetry).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (daemon, server, addr)
}

fn quiet_config() -> ServiceConfig {
    ServiceConfig::default().with_telemetry(Telemetry::disabled())
}

/// Zero every `*_ns` field (timestamps and durations are the only
/// nondeterministic bytes in a response line).
fn normalize_times(value: &mut Value) {
    match value {
        Value::Object(map) => {
            let keys: Vec<String> = map.keys().cloned().collect();
            for key in keys {
                if key.ends_with("_ns") {
                    map.insert(key, Value::from(0u64));
                } else {
                    normalize_times(map.get_mut(&key).unwrap());
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                normalize_times(item);
            }
        }
        _ => {}
    }
}

fn normalized_line(line: &str) -> String {
    let mut value: Value = serde_json::from_str(line.trim_end()).expect("response line is JSON");
    normalize_times(&mut value);
    serde_json::to_string(&value).unwrap()
}

// ------------------------------------------------------------- lifecycle

#[test]
fn loopback_jobs_match_the_in_process_handle_and_the_library() {
    let (daemon, server, addr) = start_server(
        quiet_config(),
        NetConfig::default(),
        Telemetry::disabled(),
    );
    let handle = daemon.handle();
    let mut client = NetClient::connect(&addr).unwrap();
    assert_eq!(
        client.hello().as_object().and_then(|o| o.get("proto")),
        Some(&Value::from(PROTO_VERSION)),
        "hello must announce the protocol version"
    );

    for request in &mixed_requests(12) {
        let lib = reference(request);
        let id = client.submit_id(request).unwrap();
        let response = client.await_done(id).unwrap();
        let over_tcp = response
            .as_object()
            .and_then(|o| o.get("job"))
            .cloned()
            .expect("await responses carry the snapshot");
        // The transport adds nothing: the TCP job object is exactly the
        // wire encoding of the in-process snapshot, and that snapshot is
        // bit-identical to the serial library run.
        let snap = handle.status(id).expect("tcp-issued id is pollable in-process");
        assert_eq!(over_tcp, wire::snapshot_to_json(&snap), "tcp vs in-process encoding");
        snap.check_history().unwrap();
        assert_matches_reference(&snap, &lib, "over tcp");
    }

    server.shutdown();
    daemon.shutdown();
}

#[test]
fn shutdown_drains_every_job_accepted_over_tcp() {
    let (daemon, server, addr) = start_server(
        quiet_config().with_workers(1),
        NetConfig::default(),
        Telemetry::disabled(),
    );
    let mut client = NetClient::connect(&addr).unwrap();
    let ids: Vec<JobId> = mixed_requests(6)
        .iter()
        .map(|r| client.submit_id(r).unwrap())
        .collect();
    // The graceful ordering: stop the transport first, then drain the
    // daemon — nothing accepted is abandoned.
    server.shutdown();
    let snapshots = daemon.shutdown();
    for id in ids {
        let snap = snapshots.iter().find(|s| s.id == id).unwrap();
        assert_eq!(snap.status, JobStatus::Done, "job {id} was not drained");
    }
}

// --------------------------------------------------------------- framing

#[test]
fn framing_errors_reject_without_dropping_the_connection() {
    let (daemon, server, addr) = start_server(
        quiet_config(),
        NetConfig::default().with_max_line_bytes(512),
        Telemetry::disabled(),
    );
    let mut client = NetClient::connect(&addr).unwrap();

    let oversize = "x".repeat(600);
    let cases: Vec<(&str, &str)> = vec![
        (oversize.as_str(), codes::OVERSIZE_LINE),
        ("{not json", codes::INVALID_JSON),
        (r#"{"op":"ping"} trailing"#, codes::TRAILING_GARBAGE),
        ("[1,2,3]", codes::BAD_ENVELOPE),
        (r#"{"request":{}}"#, codes::BAD_ENVELOPE),
        (r#"{"op":7}"#, codes::BAD_ENVELOPE),
        (r#"{"op":"frobnicate"}"#, codes::UNKNOWN_OP),
        (r#"{"op":"ping","extra":1}"#, codes::BAD_ENVELOPE),
        (r#"{"op":"submit","request":{}}"#, codes::BAD_REQUEST),
        (r#"{"op":"status"}"#, codes::BAD_ENVELOPE),
    ];
    let mut rejected_ids = Vec::new();
    for (line, code) in cases {
        let response: Value = serde_json::from_str(&client.send_raw(line).unwrap()).unwrap();
        let obj = response.as_object().unwrap();
        assert_eq!(obj.get("ok"), Some(&Value::from(false)), "line {line:?}");
        let got = obj["error"]["code"].as_str().unwrap();
        assert_eq!(got, code, "line {line:?}");
        // Every framing failure registers a real Rejected job whose
        // snapshot rides the error line and whose reason names the code.
        let job = obj.get("job").and_then(|j| j.as_object()).unwrap_or_else(|| {
            panic!("no job snapshot on {code} response")
        });
        assert_eq!(job.get("status"), Some(&Value::from("REJECTED")), "{code}");
        let reason = job["reason"].as_str().unwrap();
        assert!(reason.starts_with(code), "reason {reason:?} does not lead with {code}");
        rejected_ids.push(job["id"].as_u64().unwrap());
    }

    // UNKNOWN_JOB is a pure lookup miss: no placeholder job registered.
    let miss = client.status(99_999).unwrap();
    let obj = miss.as_object().unwrap();
    assert_eq!(obj["error"]["code"].as_str().unwrap(), codes::UNKNOWN_JOB);
    assert!(obj.get("job").is_none(), "lookup misses must not register jobs");

    // Blank lines are keep-alive no-ops: two lines in one write, the
    // blank one produces no response.
    let pong: Value =
        serde_json::from_str(&client.send_raw("\n{\"op\":\"ping\"}").unwrap()).unwrap();
    assert_eq!(pong["op"].as_str(), Some("ping"));

    // The connection survived all of the above, and every placeholder
    // is pollable like any other job.
    for id in rejected_ids {
        let polled = client.status(id).unwrap();
        assert_eq!(polled["job"]["status"].as_str(), Some("REJECTED"));
    }

    // Invalid UTF-8 needs a raw socket (NetClient only sends strings).
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    raw.write_all(b"{\"op\":\"ping\xFF\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let response: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(
        response["error"]["code"].as_str().unwrap(),
        codes::INVALID_UTF8
    );
    // And the raw connection is still usable afterwards.
    raw.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(pong["ok"], Value::from(true));

    server.shutdown();
    daemon.shutdown();
}

#[test]
fn connection_budget_refuses_explicitly_and_recovers() {
    let (daemon, server, addr) = start_server(
        quiet_config(),
        NetConfig::default().with_max_connections(1),
        Telemetry::disabled(),
    );
    let mut first = NetClient::connect(&addr).unwrap();
    first.ping().unwrap();

    // The second connection gets exactly one refusal line, then EOF.
    {
        let raw = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let refusal: Value = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(refusal["ok"], Value::from(false));
        assert_eq!(
            refusal["error"]["code"].as_str().unwrap(),
            codes::CONNECTION_LIMIT
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "a refused connection must be closed"
        );
    }

    // Freeing the slot makes the budget available again (the reader
    // thread notices EOF asynchronously, so poll briefly).
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut again) = NetClient::connect(&addr) {
            let is_hello = again
                .hello()
                .as_object()
                .is_some_and(|o| o.get("op") == Some(&Value::from("hello")));
            if is_hello && again.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
    daemon.shutdown();
}

// ---------------------------------------------------------- determinism

/// The thread counts swept (the rayon shim re-reads the env var on each
/// parallel call, so sweeping inside one process is sound).
const THREADS: [&str; 3] = ["1", "2", "8"];

#[test]
fn concurrent_connections_stay_deterministic_across_thread_counts() {
    let requests = mixed_requests(12);
    let references: Vec<_> = requests.iter().map(reference).collect();
    const CONNECTIONS: usize = 3;

    for threads in THREADS {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (daemon, server, addr) = start_server(
            quiet_config().with_workers(2),
            NetConfig::default(),
            Telemetry::disabled(),
        );
        let handle = daemon.handle();

        // Each connection submits its share concurrently and awaits its
        // own jobs; interleaving changes latency, never a result bit.
        let mut joins = Vec::new();
        for lane in 0..CONNECTIONS {
            let addr = addr.clone();
            let mine: Vec<(usize, JobRequest)> = requests
                .iter()
                .cloned()
                .enumerate()
                .filter(|(i, _)| i % CONNECTIONS == lane)
                .collect();
            joins.push(std::thread::spawn(move || {
                let mut client = NetClient::connect(&addr).unwrap();
                let ids: Vec<(usize, JobId)> = mine
                    .iter()
                    .map(|(i, request)| (*i, client.submit_id(request).unwrap()))
                    .collect();
                for &(_, id) in &ids {
                    let response = client.await_done(id).unwrap();
                    assert_eq!(response["ok"], Value::from(true));
                }
                ids
            }));
        }
        for join in joins {
            for (request_index, id) in join.join().unwrap() {
                let snap = handle.status(id).expect("id issued over tcp");
                assert_matches_reference(
                    &snap,
                    &references[request_index],
                    &format!("{CONNECTIONS} connections @{threads} threads"),
                );
            }
        }
        server.shutdown();
        daemon.shutdown();
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

// ------------------------------------------------------------- fairness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Driving random claim mixes across three tenants through the DRR
    /// lanes with a FIFO release discipline: tenant occupancy never
    /// exceeds the tenant envelope at any step, the dispatch loop always
    /// converges (no lane is starved), every job dispatches exactly
    /// once, and order within a lane stays FIFO.
    #[test]
    fn drr_never_starves_a_lane_and_never_over_admits_a_tenant(
        jobs in proptest::collection::vec((0usize..3, 0.001f64..0.04), 1..40),
        tenant_slots in 1usize..4,
        global_slots in 1usize..6,
    ) {
        let tenants = ["t0", "t1", "t2"];
        let envelope = TenantEnvelope {
            max_in_flight: tenant_slots,
            budget: dollars(0.05),
        };
        let mut drr = DrrLanes::new(
            FairnessConfig::default().with_default_envelope(envelope),
            Telemetry::disabled(),
        );
        let mut global = AdmissionController::new(Envelope {
            max_in_flight: global_slots,
            budget: dollars(100.0),
        });
        for (id, (tenant, claim)) in jobs.iter().enumerate() {
            drr.enqueue(QueuedJob {
                id: id as JobId,
                claim: dollars(*claim),
                tenant: Arc::from(tenants[*tenant]),
                enqueued_ns: id as u64,
                payload: (),
            });
        }

        let mut in_flight: VecDeque<QueuedJob> = VecDeque::new();
        let mut dispatched: Vec<QueuedJob> = Vec::new();
        let mut steps = 0usize;
        while dispatched.len() < jobs.len() {
            steps += 1;
            prop_assert!(steps < 100_000, "dispatch loop did not converge");
            match drr.try_dispatch(&mut global) {
                Dispatch::Job(job) => {
                    for tenant in tenants {
                        if let Some(stats) = drr.tenant_stats(tenant) {
                            prop_assert!(
                                stats.in_flight <= tenant_slots,
                                "tenant {tenant} over max_in_flight: {stats:?}"
                            );
                            prop_assert!(
                                stats.claimed <= envelope.budget,
                                "tenant {tenant} over budget share: {stats:?}"
                            );
                        }
                    }
                    in_flight.push_back(job.clone());
                    dispatched.push(job);
                }
                Dispatch::Blocked => {
                    // Progress must always be one release away; blocked
                    // with nothing in flight would be starvation.
                    let done = in_flight.pop_front();
                    prop_assert!(done.is_some(), "blocked with nothing in flight");
                    let done = done.unwrap();
                    global.release(done.claim);
                    drr.release(&done.tenant, done.claim);
                }
            }
        }

        prop_assert_eq!(dispatched.len(), jobs.len());
        for tenant in tenants {
            let order: Vec<JobId> = dispatched
                .iter()
                .filter(|j| &*j.tenant == tenant)
                .map(|j| j.id)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(order, sorted, "lane order not FIFO for {}", tenant);
        }
    }
}

#[test]
fn a_flooding_tenant_defers_only_itself_over_tcp() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let telemetry = Telemetry::new(recorder.clone());

    // One family + one objective → equal claims, so a quantum of exactly
    // one claim makes DRR serve one job per lane per round.
    let job = JobSpec::uniform("fair-mix", 4, 2.0, WorkloadProfile::uniform_test());
    let claim = library_planner()
        .plan(&job, Objective::cheapest())
        .unwrap()
        .predicted_cost();

    let (daemon, server, addr) = start_server(
        ServiceConfig::default()
            .with_workers(1)
            .with_fairness(FairnessConfig::default().with_quantum(claim))
            .with_telemetry(telemetry.clone()),
        NetConfig::default(),
        telemetry,
    );
    let handle = daemon.handle();
    let mut client = NetClient::connect(&addr).unwrap();

    let mk = |name: String, tenant: &str, sim: SimOptions| {
        JobRequest::new(name, job.clone(), Objective::cheapest())
            .with_tenant(tenant)
            .with_sim(sim)
    };
    let sim = |seed: u64| SimOptions {
        noise_cv: 0.2,
        seed,
        replications: 2,
    };

    // Warm the session cache so the backlog below queues faster than the
    // single worker drains it, then plug the worker with a heavy job
    // (hundreds of 1 GB wordcount replications) while the flood forms.
    let warm = client
        .submit_id(&mk("warm".into(), "flood", SimOptions { noise_cv: 0.0, seed: 0, replications: 0 }))
        .unwrap();
    client.await_done(warm).unwrap();
    let plug_request = JobRequest::new(
        "plug",
        astra::workloads::WorkloadSpec::wordcount_gb(1).into_job(),
        Objective::cheapest(),
    )
    .with_tenant("flood")
    .with_sim(SimOptions { noise_cv: 0.2, seed: 42, replications: 1024 });
    let plug = client.submit_id(&plug_request).unwrap();

    const FLOOD: usize = 30;
    const QUIET: usize = 3;
    let flood_ids: Vec<JobId> = (0..FLOOD)
        .map(|i| client.submit_id(&mk(format!("flood-{i}"), "flood", sim(100 + i as u64))).unwrap())
        .collect();
    let quiet_ids: Vec<JobId> = (0..QUIET)
        .map(|i| client.submit_id(&mk(format!("quiet-{i}"), "quiet", sim(200 + i as u64))).unwrap())
        .collect();
    for &id in flood_ids.iter().chain(&quiet_ids) {
        let done = client.await_done(id).unwrap();
        assert_eq!(done["job"]["status"].as_str(), Some("DONE"));
    }
    client.await_done(plug).unwrap();

    // Reconstruct dispatch order from Planned stamps (one worker →
    // strictly serial) for the flood/quiet mix.
    let jobs = handle.jobs();
    let planned_at = |id: JobId| {
        jobs.iter()
            .find(|s| s.id == id)
            .unwrap()
            .history
            .iter()
            .find(|&&(status, _)| status == JobStatus::Planned)
            .map(|&(_, at)| at)
            .unwrap()
    };
    let mut order: Vec<(u64, bool)> = flood_ids
        .iter()
        .map(|&id| (planned_at(id), false))
        .chain(quiet_ids.iter().map(|&id| (planned_at(id), true)))
        .collect();
    order.sort_unstable();
    let quiet_positions: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(_, &(_, quiet))| quiet)
        .map(|(pos, _)| pos)
        .collect();

    // The backlog must actually have formed while the plug ran —
    // otherwise the assertions below would be vacuous.
    let first_quiet_accepted = quiet_ids
        .iter()
        .map(|&id| jobs.iter().find(|s| s.id == id).unwrap().history[0].1)
        .min()
        .unwrap();
    let floods_behind_quiet = flood_ids
        .iter()
        .filter(|&&id| planned_at(id) > first_quiet_accepted)
        .count();
    assert!(
        floods_behind_quiet >= 15,
        "backlog never formed ({floods_behind_quiet} flood jobs left): grow the plug"
    );

    // Fairness: with quantum = claim, DRR alternates lanes, so the quiet
    // jobs dispatch within a few rounds of each other instead of behind
    // the flood's whole backlog.
    let spread = quiet_positions.last().unwrap() - quiet_positions[0];
    assert!(
        spread <= QUIET - 1 + 4,
        "quiet tenant was spread across the flood backlog: {quiet_positions:?}"
    );
    assert!(
        *quiet_positions.last().unwrap() <= 2 * QUIET + 4,
        "quiet tenant waited behind the flood: {quiet_positions:?}"
    );

    // The quiet tenant's median queue wait sits well below the flood's.
    let wait = |id: JobId| jobs.iter().find(|s| s.id == id).unwrap().metrics.queue_wait_ns;
    let median = |ids: &[JobId]| {
        let mut waits: Vec<u64> = ids.iter().map(|&id| wait(id)).collect();
        waits.sort_unstable();
        waits[waits.len() / 2]
    };
    assert!(
        median(&quiet_ids) < median(&flood_ids),
        "quiet p50 queue wait {} ≥ flood p50 {}",
        median(&quiet_ids),
        median(&flood_ids)
    );

    server.shutdown();
    daemon.shutdown();

    // Fairness + transport counters (names documented in OBSERVABILITY.md).
    let total = (2 + FLOOD + QUIET) as u64; // warm + plug + mix
    assert_eq!(recorder.counter_value("service.tenant.dispatched"), total);
    assert_eq!(recorder.gauges().get("service.tenant.lanes"), Some(&2.0));
    assert!(recorder.counter_value("service.tenant.rounds") >= 1);
    assert_eq!(recorder.counter_value("service.net.submits"), total);
    assert!(recorder.counter_value("service.net.connections") >= 1);
    assert_eq!(recorder.counter_value("service.net.frame_errors"), 0);
}

// ------------------------------------------------------------ transcript

/// The transcript request pinned in PROTOCOL.md.
fn transcript_request() -> JobRequest {
    JobRequest::new(
        "protocol-demo",
        JobSpec::uniform("protocol-demo", 4, 2.0, WorkloadProfile::uniform_test()),
        Objective::cheapest(),
    )
    .with_tenant("docs")
    .with_sim(SimOptions {
        noise_cv: 0.0,
        seed: 7,
        replications: 1,
    })
}

/// A revised `resubmit` over TCP answers byte-identically to
/// submitting the revised request cold on a fresh daemon.
#[test]
fn resubmit_requotes_via_clone_and_patch() {
    let mut config = quiet_config().with_workers(1);
    // Unpruned, so the re-quote plans over the full Fig. 5 DAG (the
    // pruned default is covered by the daemon's unit test).
    config.prune = astra::core::PruneConfig::off();

    let base = JobRequest::new(
        "requote",
        JobSpec::uniform("requote", 6, 2.0, WorkloadProfile::uniform_test()),
        Objective::cheapest(),
    )
    .with_sim(SimOptions {
        noise_cv: 0.0,
        seed: 3,
        replications: 0,
    });
    let mut revised = base.clone();
    revised.job.profile.map_secs_per_mb_128 *= 1.4;

    let (daemon, server, addr) = start_server(config.clone(), NetConfig::default(), Telemetry::disabled());
    let mut client = NetClient::connect(&addr).unwrap();
    let prior = client.submit_id(&base).unwrap();
    client.await_done(prior).unwrap();
    let requote = client.resubmit_id(prior, Some(&revised)).unwrap();
    assert_ne!(requote, prior);
    let mut requote_snap = client.await_done(requote).unwrap();
    server.shutdown();
    daemon.shutdown();

    // Fresh daemon, same revised request submitted cold.
    let (daemon, server, addr) = start_server(config, NetConfig::default(), Telemetry::disabled());
    let mut client = NetClient::connect(&addr).unwrap();
    let cold = client.submit_id(&revised).unwrap();
    let mut cold_snap = client.await_done(cold).unwrap();
    server.shutdown();
    daemon.shutdown();

    for snap in [&mut requote_snap, &mut cold_snap] {
        normalize_times(snap);
        // Ids and cache-hit flags legitimately differ between the two
        // daemons; everything else must not.
        if let Value::Object(response) = snap {
            if let Some(Value::Object(job)) = response.get_mut("job") {
                job.remove("id");
                job.remove("session_cache_hit");
            }
        }
    }
    assert_eq!(requote_snap, cold_snap, "re-quote drifted from a cold plan");
}

/// The client lines of the PROTOCOL.md session, in order.
fn transcript_client_lines() -> Vec<String> {
    let submit = serde_json::json!({
        "op": "submit",
        "request": wire::job_request_to_json(&transcript_request()),
    });
    vec![
        r#"{"op":"ping"}"#.to_string(),
        serde_json::to_string(&submit).unwrap(),
        r#"{"id":1,"op":"await"}"#.to_string(),
        r#"{"id":1,"op":"status"}"#.to_string(),
        r#"{"id":1,"op":"resubmit"}"#.to_string(),
        r#"{"id":2,"op":"await"}"#.to_string(),
        r#"{"id":99,"op":"resubmit"}"#.to_string(),
        r#"{"op":"frobnicate"}"#.to_string(),
        r#"{"id":99,"op":"status"}"#.to_string(),
    ]
}

/// Run the transcript session against a fresh server, returning the
/// interleaved `("S"|"C", line)` rows with timestamps normalized.
fn run_transcript_session() -> Vec<(char, String)> {
    let (daemon, server, addr) = start_server(
        quiet_config().with_workers(1),
        NetConfig::default(),
        Telemetry::disabled(),
    );
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut rows = Vec::new();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    rows.push(('S', normalized_line(&line)));
    for request in transcript_client_lines() {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        rows.push(('C', request));
        line.clear();
        reader.read_line(&mut line).unwrap();
        rows.push(('S', normalized_line(&line)));
    }
    drop(stream);
    server.shutdown();
    daemon.shutdown();
    rows
}

/// The `C:`/`S:` rows between the transcript markers in PROTOCOL.md.
fn transcript_from_protocol_md() -> Vec<(char, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/PROTOCOL.md");
    let text = std::fs::read_to_string(path).expect("PROTOCOL.md at the repository root");
    let begin = text
        .find("<!-- transcript:begin -->")
        .expect("PROTOCOL.md transcript:begin marker");
    let end = text
        .find("<!-- transcript:end -->")
        .expect("PROTOCOL.md transcript:end marker");
    text[begin..end]
        .lines()
        .filter_map(|line| {
            let line = line.trim();
            line.strip_prefix("C: ")
                .map(|rest| ('C', rest.to_string()))
                .or_else(|| line.strip_prefix("S: ").map(|rest| ('S', rest.to_string())))
        })
        .collect()
}

/// Replaying the PROTOCOL.md transcript against a live server must
/// reproduce every response line byte-for-byte (timestamps normalized
/// to 0 on both sides). This is what keeps the spec's examples honest.
#[test]
fn protocol_md_transcript_is_byte_accurate() {
    let documented = transcript_from_protocol_md();
    assert!(
        documented.len() >= 3,
        "PROTOCOL.md transcript block looks empty"
    );
    let live = run_transcript_session();
    assert_eq!(
        documented.len(),
        live.len(),
        "PROTOCOL.md transcript row count differs from a live session"
    );
    for (row, (doc, actual)) in documented.iter().zip(&live).enumerate() {
        assert_eq!(doc.0, actual.0, "row {row}: direction mismatch");
        match doc.0 {
            // Client lines are sent verbatim; they must match what the
            // live session sent so the S lines line up.
            'C' => assert_eq!(doc.1, actual.1, "row {row}: client line drifted"),
            _ => assert_eq!(
                normalized_line(&doc.1),
                actual.1,
                "row {row}: documented response is stale"
            ),
        }
    }
}

/// Regenerates the PROTOCOL.md transcript block. Run with
/// `cargo test -q --test service_net print_protocol_transcript -- --ignored --nocapture`
/// and paste the output between the markers after a protocol change.
#[test]
#[ignore]
fn print_protocol_transcript() {
    for (direction, line) in run_transcript_session() {
        println!("{direction}: {line}");
    }
}
