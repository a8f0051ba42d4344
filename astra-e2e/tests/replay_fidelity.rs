//! The traced replay must stay on the path it claims to measure: on a
//! short prefix, its plans and simulation results are bit-identical to
//! the snapshots the daemon returned for the same requests.

use std::path::PathBuf;

use astra_e2e::{run, Options, Workload};

fn replay_matches_daemon(workload: Workload) {
    let outcome = run(&Options {
        workload,
        seed: 5,
        seconds: 1.0,
        trace: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("fidelity-{}", workload.name())),
    })
    .expect("the run completes");
    let replay = outcome.replay.as_ref().expect("a traced run replays");
    let daemon: Vec<_> = outcome.warmup.iter().chain(&outcome.records).collect();
    assert!(
        replay.jobs.len() > outcome.warmup.len(),
        "the replay reached timed jobs"
    );
    for (job, record) in replay.jobs.iter().zip(daemon) {
        let replayed = job.as_ref().expect("replayed job finished");
        let snap = record.snap.as_ref().expect("daemon job finished");
        assert_eq!(replayed.request, record.sent.req.request, "same request");
        let plan = replayed.plan.as_ref().expect("replayed plan");
        let (cost, jct) = snap.plan.expect("daemon plan");
        assert_eq!(cost, plan.predicted_cost, "job {}", snap.id);
        assert_eq!(
            jct.to_bits(),
            plan.predicted_jct_s.to_bits(),
            "job {}",
            snap.id
        );
        match (&snap.sim, &replayed.sim) {
            (None, None) => {}
            (Some(ours), Some(theirs)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ours.jct_s), bits(&theirs.jct_s), "job {}", snap.id);
                assert_eq!(ours.cost, theirs.cost, "job {}", snap.id);
                assert_eq!(ours.events, theirs.events, "job {}", snap.id);
            }
            other => panic!("job {}: simulation presence differs: {other:?}", snap.id),
        }
    }
}

#[test]
fn requote_replay_matches_the_daemon() {
    replay_matches_daemon(Workload::Requote);
}

#[test]
fn tenant_flood_replay_matches_the_daemon() {
    replay_matches_daemon(Workload::TenantFlood);
}
