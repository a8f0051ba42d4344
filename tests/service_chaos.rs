//! The chaos suite: deterministic fault injection against the full
//! service stack. Every injected fault — worker panics, simulated
//! process crashes, cache-build failures, connection resets, short
//! writes, slow-loris stalls — must leave the service in a legal
//! state: every job reaches a legal terminal state (or is recovered to
//! one by a journal-replaying restart), claims are always released,
//! and every job the faults did not kill stays bit-identical to the
//! serial library reference.
//!
//! Because [`FaultPlan`] verdicts are pure functions of `(plan, site,
//! key)`, each test *predicts* exactly which jobs or connections a
//! seeded plan will fault and asserts the outcome job by job — there
//! is no "run it a few times and hope" here. The seeds exercised in CI
//! are the `CRASH_SEEDS` matrix below; the thread counts mirror
//! `tests/service_determinism.rs`.

mod service_support;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use astra::core::Objective;
use astra::pricing::Money;
use astra::service::net::codes;
use astra::service::{
    BackoffPolicy, Envelope, FaultAction, FaultPlan, FaultSite, JobId, JobRequest, JobStatus,
    Journal, NetClient, NetConfig, NetServer, OverloadConfig, ServiceConfig, ServiceDaemon,
    SimOptions,
};
use astra::telemetry::{InMemoryRecorder, Telemetry};
use astra::workloads::WorkloadSpec;
use serde_json::Value;
use service_support::{assert_matches_reference, mixed_requests, reference};

/// The fixed chaos seed matrix CI runs; each seed drives an independent
/// crash-recovery case (victim selection differs per seed).
const CRASH_SEEDS: [u64; 3] = [11, 23, 47];

/// Thread counts the crash-recovery invariant is swept across (the
/// rayon shim re-reads the env var per parallel call).
const THREADS: [&str; 3] = ["1", "2", "8"];

fn quiet_config() -> ServiceConfig {
    ServiceConfig::default().with_telemetry(Telemetry::disabled())
}

/// A unique scratch path for one test's journal; removed up front so a
/// crashed previous run cannot leak state in.
fn scratch_journal(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("astra-chaos-{}-{tag}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Poll until `done()` or panic after a generous deadline.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// -------------------------------------------------------- panic faults

/// What a fault plan does to job `id`, walking the injection sites in
/// the exact order the daemon consults them. Pure, so the test can
/// predict every job's terminal state before submitting anything.
fn predicted_status(plan: &FaultPlan, id: JobId, replications: u32) -> JobStatus {
    if plan.fires(FaultSite::CacheBuild, id) {
        // Fires at admission planning: rejected before it ever queues.
        JobStatus::Rejected
    } else if plan.fires(FaultSite::WorkerPlan, id)
        || (replications > 0 && plan.fires(FaultSite::WorkerSim, id))
        || plan.fires(FaultSite::WorkerFinish, id)
    {
        JobStatus::Failed
    } else {
        JobStatus::Done
    }
}

/// Every worker panic and cache-build failure must land its victim in a
/// legal terminal state with an "injected fault" reason, release its
/// claim, and leave every non-victim bit-identical to the library.
#[test]
fn injected_panics_fail_only_their_victims() {
    let requests = mixed_requests(12);
    let n = requests.len() as JobId;

    // Scan (purely) for a seed whose victim mix exercises every
    // category: at least one admission rejection, one worker panic, and
    // a healthy majority of untouched jobs.
    let plan = (0..10_000u64)
        .map(|seed| {
            FaultPlan::seeded(seed)
                .with_fault(FaultSite::CacheBuild, 6, FaultAction::Error)
                .with_fault(FaultSite::WorkerPlan, 6, FaultAction::Panic)
                .with_fault(FaultSite::WorkerSim, 6, FaultAction::Panic)
                .with_fault(FaultSite::WorkerFinish, 6, FaultAction::Panic)
        })
        .find(|plan| {
            let statuses: Vec<JobStatus> = (1..=n)
                .map(|id| predicted_status(plan, id, requests[(id - 1) as usize].sim.replications))
                .collect();
            let count = |s: JobStatus| statuses.iter().filter(|&&got| got == s).count();
            count(JobStatus::Rejected) >= 1
                && count(JobStatus::Failed) >= 2
                && count(JobStatus::Done) >= 4
        })
        .expect("some seed under 10k yields a mixed victim set");

    let recorder = Arc::new(InMemoryRecorder::new());
    let daemon = ServiceDaemon::start(
        quiet_config()
            .with_workers(2)
            .with_faults(plan.clone())
            .with_telemetry(Telemetry::new(recorder.clone())),
    );
    let handle = daemon.handle();
    let ids: Vec<JobId> = requests.iter().map(|r| handle.submit(r.clone())).collect();

    let mut panic_victims = 0u64;
    for (&id, request) in ids.iter().zip(&requests) {
        let snap = handle.await_done(id).expect("submitted id");
        snap.check_history().unwrap();
        let expected = predicted_status(&plan, id, request.sim.replications);
        assert_eq!(snap.status, expected, "job {id}: {:?}", snap.reason);
        match expected {
            JobStatus::Done => assert_matches_reference(&snap, &reference(request), "chaos"),
            JobStatus::Rejected => {
                let reason = snap.reason.as_ref().unwrap();
                assert!(reason.contains("injected fault"), "job {id}: {reason}");
                assert!(reason.contains("cache-build"), "job {id}: {reason}");
            }
            JobStatus::Failed => {
                panic_victims += 1;
                let reason = snap.reason.as_ref().unwrap();
                assert!(reason.contains("injected fault"), "job {id}: {reason}");
                assert!(reason.contains("worker-"), "job {id}: {reason}");
            }
            other => panic!("unexpected prediction {other}"),
        }
    }

    // Claims always released: nothing queued, nothing in flight. (The
    // worker releases its claim just after the terminal transition that
    // wakes `await_done`, so poll rather than race it.)
    wait_for("claims to drain", || {
        handle.queue_len() == 0 && handle.in_flight() == 0
    });
    assert_eq!(
        recorder.counter_value("service.worker.panics"),
        panic_victims
    );
    assert!(recorder.counter_value("service.faults.injected") >= panic_victims);
    drop(daemon);
}

// ----------------------------------------------------- crash recovery

/// A seed under which the crash rule fires for job `n` and *only* job
/// `n` among ids `1..=n` — so every other job is fully submitted before
/// the "process" dies. Pure scan over the same verdict function the
/// daemon uses.
fn sole_victim_seed(salt: u64, n: JobId) -> u64 {
    (0..100_000u64)
        .map(|k| salt.wrapping_mul(1_000_003).wrapping_add(k))
        .find(|&seed| {
            let plan =
                FaultPlan::seeded(seed).with_fault(FaultSite::WorkerFinish, n, FaultAction::Crash);
            (1..=n)
                .filter(|&id| plan.fires(FaultSite::WorkerFinish, id))
                .eq([n])
        })
        .expect("a sole-victim seed exists in the scan range")
}

/// The tentpole invariant, per (seed, thread-count) cell: run a
/// journaled daemon into an injected crash, abandon it exactly as a
/// dead process would (claims leaked, queue frozen), restart on the
/// same journal with faults disabled, and require that every job —
/// recovered verbatim or re-run — ends `Done`, bit-identical to the
/// serial library reference, with no claim leaked into the new
/// generation and the journal replaying to the same terminal set.
fn crash_and_recover(seed: u64, threads: &str) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let requests = mixed_requests(8);
    let references: Vec<_> = requests.iter().map(reference).collect();
    let n = requests.len() as JobId;
    let crash_seed = sole_victim_seed(seed, n);
    let faults =
        FaultPlan::seeded(crash_seed).with_fault(FaultSite::WorkerFinish, n, FaultAction::Crash);
    let journal = scratch_journal(&format!("crash-{seed}-t{threads}"));

    // Generation 1: runs until the injected crash halts it mid-fleet.
    let gen1 = ServiceDaemon::start(
        quiet_config()
            .with_workers(2)
            .with_journal_path(&journal)
            .with_faults(faults),
    );
    let handle1 = gen1.handle();
    let ids: Vec<JobId> = requests.iter().map(|r| handle1.submit(r.clone())).collect();
    assert_eq!(
        ids,
        (1..=n).collect::<Vec<_>>(),
        "dense ids in submit order"
    );
    wait_for("the injected crash", || gen1.crashed());
    gen1.abandon();

    // The crash left real wreckage: the victim is non-terminal, and no
    // submission was turned away by the dying scheduler (the sole
    // victim is the last-submitted job, so admission had finished).
    let wreck = handle1.jobs();
    assert!(
        !wreck.iter().find(|s| s.id == n).unwrap().is_terminal(),
        "seed {seed}: the crash victim must be left mid-flight"
    );
    assert!(
        wreck.iter().all(|s| s.status != JobStatus::Rejected),
        "seed {seed}: a crash must never masquerade as a rejection"
    );

    // Generation 2: same journal, faults off. Terminal jobs replay
    // verbatim; mid-flight jobs re-run to the bit-identical result.
    let gen2 = ServiceDaemon::start(quiet_config().with_workers(2).with_journal_path(&journal));
    let handle2 = gen2.handle();
    for (&id, lib) in ids.iter().zip(&references) {
        let snap = handle2.await_done(id).expect("recovered id answers");
        snap.check_history().unwrap();
        assert_matches_reference(&snap, lib, &format!("seed {seed} @{threads} threads"));
    }
    // No claim leaks into the new generation (polled: the last worker
    // releases its claim just after the transition that wakes awaits).
    wait_for("recovered claims to drain", || {
        handle2.queue_len() == 0 && handle2.in_flight() == 0
    });

    // Fresh submissions continue the recovered id sequence.
    let fresh = handle2.submit(requests[0].clone());
    assert_eq!(
        fresh,
        n + 1,
        "seed {seed}: id sequence must survive restart"
    );
    assert_eq!(handle2.await_done(fresh).unwrap().status, JobStatus::Done);
    drop(gen2);

    // A third replay of the journal agrees with the live table: every
    // job terminal, none in flight.
    let (_, recovery) = Journal::open(&journal, Telemetry::disabled()).unwrap();
    assert_eq!(recovery.jobs.len(), n as usize + 1);
    assert_eq!(
        recovery.in_flight().count(),
        0,
        "seed {seed}: journal still holds in-flight jobs after recovery"
    );
    for job in &recovery.jobs {
        let replayed = job.terminal.as_ref().expect("all jobs terminal");
        assert_eq!(replayed.status, JobStatus::Done);
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn crash_recovery_invariant_holds_across_seeds_and_thread_counts() {
    for &seed in &CRASH_SEEDS {
        for threads in THREADS {
            crash_and_recover(seed, threads);
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// A torn final record — the classic power-cut artifact — must be
/// truncated away on restart, with everything before it recovered
/// verbatim and the journal usable for new appends.
#[test]
fn torn_journal_tail_is_truncated_through_a_daemon_restart() {
    let journal = scratch_journal("torn-tail");
    let requests = mixed_requests(4);

    let gen1 = ServiceDaemon::start(quiet_config().with_workers(1).with_journal_path(&journal));
    let handle1 = gen1.handle();
    let ids: Vec<JobId> = requests.iter().map(|r| handle1.submit(r.clone())).collect();
    for &id in &ids {
        assert_eq!(handle1.await_done(id).unwrap().status, JobStatus::Done);
    }
    drop(gen1);

    // Tear the tail: half a frame header plus garbage, no valid CRC.
    let clean_len = std::fs::metadata(&journal).unwrap().len();
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(&[0x99, 0x03, 0x00, 0x00, 0xde, 0xad])
            .unwrap();
    }
    assert!(std::fs::metadata(&journal).unwrap().len() > clean_len);

    let recorder = Arc::new(InMemoryRecorder::new());
    let gen2 = ServiceDaemon::start(
        quiet_config()
            .with_workers(1)
            .with_journal_path(&journal)
            .with_telemetry(Telemetry::new(recorder.clone())),
    );
    let handle2 = gen2.handle();
    assert_eq!(recorder.counter_value("service.journal.truncated_bytes"), 6);
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        clean_len,
        "the torn tail must be truncated back to the last valid frame"
    );
    for (&id, request) in ids.iter().zip(&requests) {
        let snap = handle2.status(id).expect("recovered verbatim");
        assert_eq!(snap.status, JobStatus::Done);
        assert_matches_reference(&snap, &reference(request), "after torn tail");
    }
    // And the truncated journal accepts new work.
    let fresh = handle2.submit(requests[0].clone());
    assert_eq!(handle2.await_done(fresh).unwrap().status, JobStatus::Done);
    drop(gen2);
    let _ = std::fs::remove_file(&journal);
}

// -------------------------------------------------- overload shedding

/// Under queue pressure the service sheds non-priority submissions with
/// a retryable `OVERLOADED` answer carrying `retry_after_ms`, while
/// deadline-carrying (QoS) jobs are still accepted — in-process and
/// over TCP.
#[test]
fn overload_sheds_non_priority_submissions_with_a_retry_hint() {
    let requests = mixed_requests(1);
    let base = &requests[0];
    let mk = |name: &str, objective: Objective| {
        JobRequest::new(name, base.job.clone(), objective).with_sim(SimOptions {
            noise_cv: 0.0,
            seed: 1,
            replications: 0,
        })
    };

    let daemon = ServiceDaemon::start(
        quiet_config()
            .with_workers(1)
            .with_envelope(Envelope {
                max_in_flight: 1,
                budget: Money::from_dollars_f64(1000.0),
            })
            .with_overload(
                OverloadConfig::disabled()
                    .with_shed_queue_depth(1)
                    .with_retry_after_ms(350),
            ),
    );
    let handle = daemon.handle();
    let server = NetServer::start(
        daemon.handle(),
        "127.0.0.1:0",
        NetConfig::default(),
        Telemetry::disabled(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Plug the single envelope slot with a long simulation, then queue
    // one job behind it so the depth threshold (1) is reached.
    let plug = handle.submit(
        JobRequest::new(
            "plug",
            WorkloadSpec::wordcount_gb(1).into_job(),
            Objective::cheapest(),
        )
        .with_sim(SimOptions {
            noise_cv: 0.2,
            seed: 42,
            replications: 768,
        }),
    );
    wait_for("the plug to hold the slot", || {
        handle.in_flight() == 1 && handle.queue_len() == 0
    });
    let queued = handle.submit(mk("queued", Objective::cheapest()));
    assert_eq!(
        handle.status(queued).unwrap().status,
        JobStatus::Accepted,
        "the first queued job rides under the threshold"
    );

    // Non-priority submission at depth 1: shed, retryably.
    let shed = handle.submit(mk("shed-me", Objective::cheapest()));
    let snap = handle.status(shed).unwrap();
    assert_eq!(snap.status, JobStatus::Rejected, "{:?}", snap.reason);
    assert_eq!(snap.retry_after_ms, Some(350));
    assert!(snap.reason.as_ref().unwrap().contains("overloaded"));

    // The same shed over TCP answers ok:false OVERLOADED with the hint.
    let mut client = NetClient::connect(&addr).unwrap();
    let response = client
        .submit(&mk("shed-tcp", Objective::cheapest()))
        .unwrap();
    let obj = response.as_object().unwrap();
    assert_eq!(obj.get("ok"), Some(&Value::from(false)), "{response}");
    assert_eq!(obj["error"]["code"].as_str(), Some(codes::OVERLOADED));
    assert_eq!(obj["error"]["retry_after_ms"].as_u64(), Some(350));
    assert_eq!(obj["job"]["status"].as_str(), Some("REJECTED"));
    assert_eq!(obj["job"]["retry_after_ms"].as_u64(), Some(350));

    // A deadline-class submission is never shed.
    let qos = handle.submit(mk("qos", Objective::min_cost_with_deadline_s(3600.0)));
    assert_ne!(
        handle.status(qos).unwrap().status,
        JobStatus::Rejected,
        "deadline-carrying jobs must not be shed"
    );

    // Pressure drains; accepted work all completes.
    for id in [plug, queued, qos] {
        assert_eq!(handle.await_done(id).unwrap().status, JobStatus::Done);
    }
    server.shutdown();
    daemon.shutdown();
}

// ------------------------------------------------- transport chaos

/// Slow-loris peers (selected by the `ClientStall` fault site) are cut
/// off by the idle timeout with an explicit `IDLE_TIMEOUT` line, and —
/// the point of the defense — their connection slot is actually
/// released.
#[test]
fn idle_timeout_unpins_slow_loris_connections() {
    // A pure scan for a plan that stalls some of four clients, not all.
    let plan = (0..10_000u64)
        .map(|seed| {
            FaultPlan::seeded(seed).with_fault(FaultSite::ClientStall, 2, FaultAction::Error)
        })
        .find(|plan| {
            let stalls: Vec<bool> = (0..4)
                .map(|i| plan.fires(FaultSite::ClientStall, i))
                .collect();
            stalls.iter().any(|&s| s) && stalls.iter().any(|&s| !s)
        })
        .expect("a mixed stall pattern exists");

    let recorder = Arc::new(InMemoryRecorder::new());
    let daemon = ServiceDaemon::start(quiet_config().with_workers(1));
    let server = NetServer::start(
        daemon.handle(),
        "127.0.0.1:0",
        NetConfig::default()
            .with_max_connections(1)
            .with_idle_timeout_ms(150),
        Telemetry::new(recorder.clone()),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut stalled = 0u64;
    for client_index in 0..4u64 {
        if plan.fires(FaultSite::ClientStall, client_index) {
            // Slow loris: half a request line, then silence. (Poll for
            // a real hello — the previous connection's slot is reaped
            // asynchronously, and until then the first line would be a
            // CONNECTION_LIMIT refusal.)
            stalled += 1;
            let deadline = Instant::now() + Duration::from_secs(10);
            let (mut stream, mut reader) = loop {
                let stream = TcpStream::connect(&addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut hello = String::new();
                reader.read_line(&mut hello).unwrap();
                let greeted = serde_json::from_str(hello.trim_end())
                    .ok()
                    .is_some_and(|v: Value| v["op"].as_str() == Some("hello"));
                if greeted {
                    break (stream, reader);
                }
                assert!(Instant::now() < deadline, "connection slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            };
            let mut line = String::new();
            stream.write_all(b"{\"op\":\"pi").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let notice: Value = serde_json::from_str(line.trim_end()).unwrap();
            assert_eq!(notice["ok"], Value::from(false));
            assert_eq!(notice["error"]["code"].as_str(), Some(codes::IDLE_TIMEOUT));
            // After the notice the server closes: EOF, not a hang.
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "bytes after the idle-timeout notice");
        } else {
            // With max_connections = 1, connecting at all proves the
            // previous loris had its slot reclaimed (poll: the server
            // reaps asynchronously).
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(mut client) = NetClient::connect(&addr) {
                    if client.ping().is_ok() {
                        break;
                    }
                }
                assert!(Instant::now() < deadline, "connection slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    assert!(stalled >= 1);
    assert_eq!(recorder.counter_value("service.net.idle_timeouts"), stalled);
    server.shutdown();
    daemon.shutdown();
}

/// Injected connection resets and short writes corrupt only the
/// *transport*: every submitted job still runs to the bit-identical
/// result, and a client that lost its connection reconnects under the
/// deterministic backoff policy.
#[test]
fn connection_faults_never_corrupt_results_and_backoff_reconnects() {
    const CONNS: u64 = 8;
    // A pure scan for a plan exercising all three per-connection fates.
    let plan = (0..10_000u64)
        .map(|seed| {
            FaultPlan::seeded(seed)
                .with_fault(FaultSite::ConnReset, 3, FaultAction::Error)
                .with_fault(FaultSite::ShortWrite, 3, FaultAction::Error)
        })
        .find(|plan| {
            let fate = |seq: u64| {
                if plan.fires(FaultSite::ConnReset, seq) {
                    0
                } else if plan.fires(FaultSite::ShortWrite, seq) {
                    1
                } else {
                    2
                }
            };
            // Seqs 0..CONNS cover all three fates, and the reconnect
            // probe at seq CONNS lands on a clean connection.
            (0..CONNS)
                .map(fate)
                .collect::<std::collections::HashSet<_>>()
                .len()
                == 3
                && fate(CONNS) == 2
        })
        .expect("a plan with resets, short writes and clean connections exists");

    let requests = mixed_requests(CONNS as usize);
    let daemon = ServiceDaemon::start(quiet_config().with_workers(2));
    let handle = daemon.handle();
    let server = NetServer::start_with_faults(
        daemon.handle(),
        "127.0.0.1:0",
        NetConfig::default(),
        Telemetry::disabled(),
        plan.clone(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Strictly sequential connections, so connection `i` holds accept
    // sequence number `i` and the plan's per-seq verdicts apply 1:1.
    for (seq, request) in requests.iter().enumerate() {
        let mut client = NetClient::connect(&addr).unwrap();
        let result = client.submit(request);
        if plan.fires(FaultSite::ConnReset, seq as u64) {
            // The server processed the submit, then dropped the line
            // before any response byte.
            assert!(
                result.is_err(),
                "conn {seq}: reset must surface as an error"
            );
        } else if plan.fires(FaultSite::ShortWrite, seq as u64) {
            // Half a frame is not a response: the client must treat the
            // torn read as a failure, never as data.
            assert!(result.is_err(), "conn {seq}: short write must not parse");
        } else {
            let id = result.unwrap()["id"]
                .as_u64()
                .expect("clean submit returns an id");
            assert_eq!(id, seq as u64 + 1);
        }
    }

    // Transport faults never reached the jobs: all eight registered,
    // all complete, all bit-identical to the serial library run.
    let ids: Vec<JobId> = handle.jobs().iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), requests.len());
    for (&id, request) in ids.iter().zip(&requests) {
        let snap = handle.await_done(id).unwrap();
        assert_matches_reference(&snap, &reference(request), "under transport chaos");
    }

    // Reconnecting under backoff: fast-failing policy against a dead
    // port exhausts its attempts; the same policy against the live
    // server connects and speaks normally.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
        // Dropping the listener leaves the port closed.
    };
    let policy = BackoffPolicy {
        attempts: 3,
        base_ms: 1,
        cap_ms: 4,
        seed: 9,
    };
    assert!(NetClient::connect_with_backoff(&dead_addr, policy).is_err());
    let mut revived = NetClient::connect_with_backoff(&addr, policy).unwrap();
    assert_eq!(revived.ping().unwrap()["ok"], Value::from(true));

    server.shutdown();
    daemon.shutdown();
}
