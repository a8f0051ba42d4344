//! Fixed-size simulator benchmark runner with a regression gate.
//!
//! The planner gate (`astra-bench`) covers plan construction; this
//! runner covers the other half of the evaluation pipeline — the
//! discrete-event simulator and the parallel sweep machinery every
//! experiment is built on. It executes a pinned suite at fixed sizes:
//!
//! * `sim_single/N{n}` — one end-to-end simulation of an N-object job
//!   (compile + event loop), with the event count and derived events/sec
//!   throughput recorded alongside the timing;
//! * `telemetry_null/N{n}` — the same single simulation with a
//!   `NullRecorder` telemetry sink attached (every span/counter is
//!   built and discarded), so the per-event instrumentation overhead is
//!   measurable and gated alongside the disabled-path timing;
//! * `sweep_serial/N{n}` / `sweep_parallel/N{n}` — a 16-replication
//!   noisy seed sweep run as a serial loop versus `simulate_batch` (the
//!   parallel entry is stamped with its thread count and skipped
//!   entirely when the effective rayon pool is a single thread — there
//!   is no fan-out to measure);
//! * `service_recovery/N{n}` — 200 plan-only jobs journaled to a
//!   durable log (setup, untimed), then a fresh daemon started on that
//!   journal per sample, so the crash-recovery replay path — frame
//!   decode, checksum verify, verbatim snapshot restore — is gated,
//!   with jobs-replayed/sec recorded alongside the timing.
//!
//! ```text
//! astra-sim-bench [--out FILE]          write results (default BENCH_sim.json)
//!                 [--check BASELINE]    compare against a baseline instead;
//!                                       exit 1 if any shared metric regressed
//!                 [--tolerance FRAC]    allowed relative slowdown (default 0.20)
//!                 [--sizes tiny|full]   tiny = N=202 only (CI); full = 50/202/1000
//!                 [--samples N]         timed samples per bench (default 5)
//!                 [--threads N]         pin the sweep thread count
//! ```
//!
//! Regression checks compare `min_ms` for every bench name present in
//! both files, exactly like the planner gate. The daemon's submit, wire
//! and scheduling paths are measured end to end by `astra-e2e`, not
//! here.

use astra_bench::runner::{run_cli, time_ms, BenchArgs};
use astra_bench::{planner, synthetic_job};
use astra_core::{Objective, Strategy};
use astra_faas::{derive_seed, SimConfig};
use astra_mapreduce::{simulate, simulate_batch, SimCase};
use astra_model::Platform;
use astra_service::{JobRequest, ServiceConfig, ServiceDaemon, SimOptions};
use serde_json::{json, Value};

/// Replications per sweep bench: enough to keep every core busy.
const SWEEP_RUNS: u64 = 16;
/// Jobs journaled and replayed by the `service_recovery` bench.
const RECOVERY_JOBS: u64 = 200;
/// Noise CV for the benched runs (the harness's default).
const NOISE_CV: f64 = 0.10;

fn config(seed: u64) -> SimConfig {
    SimConfig::deterministic(Platform::aws_lambda()).with_noise(NOISE_CV, seed)
}

fn run_suite(args: &BenchArgs) -> Vec<Value> {
    let astra = planner(Strategy::ExactCsp);
    let mut results: Vec<Value> = Vec::new();

    for &n in &args.sizes {
        let job = synthetic_job(n);
        let plan = astra
            .plan(&job, Objective::fastest())
            .expect("synthetic job plans");

        // Single-run event throughput.
        let report = simulate(&job, &plan, config(7)).expect("bench run succeeds");
        let events = report.events;
        let (mean, min) = time_ms(args.samples, || {
            simulate(&job, &plan, config(7)).expect("bench run succeeds")
        });
        let events_per_sec = events as f64 / (min / 1e3);
        eprintln!(
            "bench sim_single/N{n}: mean {mean:.2} ms, min {min:.2} ms \
             ({events} events, {events_per_sec:.0} events/s)"
        );
        results.push(json!({
            "name": format!("sim_single/N{n}"),
            "n": n,
            "mean_ms": mean,
            "min_ms": min,
            "events": events,
            "events_per_sec": events_per_sec,
        }));

        // Telemetry overhead: identical run with an enabled Null sink,
        // so every span record is allocated, stamped and discarded —
        // the worst case for instrumentation cost. The reports stay
        // bit-identical (telemetry never touches sim state); only the
        // wall-clock differs.
        let tel =
            astra_telemetry::Telemetry::new(std::sync::Arc::new(astra_telemetry::NullRecorder));
        let (tel_mean, tel_min) = time_ms(args.samples, || {
            simulate(&job, &plan, config(7).with_telemetry(tel.clone()))
                .expect("bench run succeeds")
        });
        let overhead_pct = (tel_min / min - 1.0) * 100.0;
        eprintln!(
            "bench telemetry_null/N{n}: mean {tel_mean:.2} ms, min {tel_min:.2} ms \
             ({overhead_pct:+.1}% vs disabled)"
        );
        results.push(json!({
            "name": format!("telemetry_null/N{n}"),
            "n": n,
            "mean_ms": tel_mean,
            "min_ms": tel_min,
            "overhead_pct_vs_disabled": overhead_pct,
        }));

        // Seed-sweep scaling: serial loop vs simulate_batch fan-out.
        let seeds: Vec<u64> = (0..SWEEP_RUNS).map(|i| derive_seed(7, i)).collect();
        let (serial_mean, serial_min) = time_ms(args.samples, || {
            let reports: Vec<_> = seeds
                .iter()
                .map(|&s| simulate(&job, &plan, config(s)).expect("bench run succeeds"))
                .collect();
            reports.len()
        });
        eprintln!("bench sweep_serial/N{n}: mean {serial_mean:.2} ms, min {serial_min:.2} ms");
        results.push(json!({
            "name": format!("sweep_serial/N{n}"),
            "n": n,
            "runs": SWEEP_RUNS,
            "mean_ms": serial_mean,
            "min_ms": serial_min,
        }));
        // The effective worker count for this sweep: however many
        // threads rayon resolved to (after any `--threads` pin), capped
        // by the case count. Stamped on the entry so `--check` only
        // compares parallel timings recorded at the same fan-out. On a
        // single-thread pool the "parallel" sweep is just the serial
        // loop plus rayon dispatch overhead — the entry would gate
        // nothing — so it is skipped rather than emitted.
        let threads_effective = rayon::current_num_threads().min(SWEEP_RUNS as usize);
        if threads_effective <= 1 {
            eprintln!(
                "bench sweep_parallel/N{n}: skipped (effective thread pool is 1; \
                 nothing to fan out)"
            );
        } else {
            let (par_mean, par_min) = time_ms(args.samples, || {
                let cases: Vec<SimCase<'_>> = seeds
                    .iter()
                    .map(|&s| SimCase {
                        job: &job,
                        plan: &plan,
                        config: config(s),
                    })
                    .collect();
                simulate_batch(cases).len()
            });
            eprintln!(
                "bench sweep_parallel/N{n}: mean {par_mean:.2} ms, min {par_min:.2} ms \
                 ({threads_effective} threads)"
            );
            results.push(json!({
                "name": format!("sweep_parallel/N{n}"),
                "n": n,
                "runs": SWEEP_RUNS,
                "mean_ms": par_mean,
                "min_ms": par_min,
                "threads": threads_effective,
            }));
        }

        // Journal-replay restart latency: a daemon journals
        // RECOVERY_JOBS plan-only jobs to a scratch log (setup,
        // untimed), then each timed sample starts a fresh daemon on
        // that journal — decoding, checksum-verifying and restoring
        // every terminal snapshot verbatim — and tears it down. This
        // gates the crash-recovery path: how long a restarted service
        // takes before it answers for every pre-crash job.
        let journal = std::env::temp_dir().join(format!(
            "astra-sim-bench-recovery-N{n}-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        {
            let daemon = ServiceDaemon::start(
                ServiceConfig::default()
                    .with_workers(2)
                    .with_journal_path(&journal)
                    .with_telemetry(astra_telemetry::Telemetry::disabled()),
            );
            let handle = daemon.handle();
            let ids: Vec<_> = (0..RECOVERY_JOBS)
                .map(|i| {
                    let request =
                        JobRequest::new(format!("recovery-{i}"), job.clone(), Objective::fastest())
                            .with_sim(SimOptions {
                                noise_cv: 0.0,
                                seed: i,
                                replications: 0,
                            });
                    handle.submit(request)
                })
                .collect();
            for id in ids {
                assert_eq!(
                    handle.await_done(id).expect("bench job vanished").status,
                    astra_service::JobStatus::Done
                );
            }
            daemon.shutdown();
        }
        let (rec_mean, rec_min) = time_ms(args.samples, || {
            let daemon = ServiceDaemon::start(
                ServiceConfig::default()
                    .with_workers(2)
                    .with_journal_path(&journal)
                    .with_telemetry(astra_telemetry::Telemetry::disabled()),
            );
            let recovered = daemon.handle().jobs().len();
            assert_eq!(recovered as u64, RECOVERY_JOBS, "journal replay lost jobs");
            recovered
        });
        let _ = std::fs::remove_file(&journal);
        let replays_per_sec = RECOVERY_JOBS as f64 / (rec_min / 1e3);
        eprintln!(
            "bench service_recovery/N{n}: mean {rec_mean:.2} ms, min {rec_min:.2} ms \
             ({RECOVERY_JOBS} jobs, {replays_per_sec:.0} jobs/s replayed)"
        );
        results.push(json!({
            "name": format!("service_recovery/N{n}"),
            "n": n,
            "jobs": RECOVERY_JOBS,
            "mean_ms": rec_mean,
            "min_ms": rec_min,
            "replays_per_sec": replays_per_sec,
        }));
    }

    results
}

fn main() {
    // Sizes start at N=50 (unlike the planner gate's N=10) so every
    // timed sample is comfortably above timer noise — a single N=10
    // simulation finishes in ~20 µs, too little signal to gate on.
    run_cli(
        "astra-sim-bench",
        "astra-sim-bench",
        "BENCH_sim.json",
        &[202],
        &[50, 202, 1000],
        run_suite,
    );
}
