//! Implementations of the `astra` subcommands.

use std::io::Write;

use astra_baselines::Baseline;
use astra_core::{Astra, Objective, Plan};
use astra_faas::{SimConfig, SimReport};
use astra_mapreduce::simulate as run_sim;
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;
use astra_service::net::{NetClient, NetConfig, NetServer, PROTO_VERSION};
use astra_service::{wire, JobRequest, ServiceConfig, ServiceDaemon, SimOptions};
use astra_workloads::WorkloadSpec;
use serde_json::Value;

use crate::args::{JobOpts, ServeOpts, SubmitOpts};

fn objective_for(opts: &JobOpts) -> Objective {
    match (opts.budget, opts.deadline_s) {
        (Some(b), _) => Objective::min_time_with_budget_dollars(b),
        (None, Some(d)) => Objective::min_cost_with_deadline_s(d),
        (None, None) => Objective::fastest(),
    }
}

/// Print the `--metrics` tables: the exclusive phase partition of the
/// makespan (each row is the share of wall-clock where that phase was
/// the highest-priority activity anywhere in the fleet; rows sum exactly
/// to the JCT) and the per-stage cumulative lambda-seconds.
fn phase_table(report: &SimReport, out: &mut dyn Write) -> std::io::Result<()> {
    let breakdown = report.phase_breakdown();
    let total = breakdown.total().as_secs_f64();
    writeln!(out, "\nPhase breakdown (exclusive, rows sum to JCT):")?;
    for (label, d) in breakdown.rows() {
        let secs = d.as_secs_f64();
        let pct = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        writeln!(out, "  {label:<14} {secs:>9.3}s  {pct:>5.1}%")?;
    }
    writeln!(out, "  {:<14} {:>9.3}s  100.0%", "total (JCT)", total)?;

    writeln!(out, "\nPer-stage cumulative lambda-seconds:")?;
    writeln!(
        out,
        "  {:<14} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "stage", "n", "cold", "get", "compute", "put", "wait"
    )?;
    for s in report.stage_breakdown() {
        writeln!(
            out,
            "  {:<14} {:>4} {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s",
            s.stage,
            s.invocations,
            s.phases.cold_start.as_secs_f64(),
            s.phases.storage_get.as_secs_f64(),
            s.phases.compute.as_secs_f64(),
            s.phases.storage_put.as_secs_f64(),
            s.phases.wait_children.as_secs_f64(),
        )?;
    }
    Ok(())
}

fn plan_job(opts: &JobOpts) -> Result<(JobSpec, Plan), String> {
    let job = opts.workload.into_job();
    let astra = Astra::with_defaults();
    let objective = objective_for(opts);
    astra
        .plan(&job, objective)
        .map(|plan| (job, plan))
        .map_err(|e| e.to_string())
}

/// `astra workloads`.
pub fn workloads(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "Built-in benchmark workloads (paper Sec. V):")?;
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        writeln!(
            out,
            "  {:<18} {:>4} objects x {:>7.1} MB  (profile: {})",
            spec.label(),
            job.num_objects(),
            job.object_sizes_mb[0],
            job.profile.name
        )?;
    }
    writeln!(
        out,
        "\nNames: wordcount-1gb wordcount-10gb wordcount-20gb sort-100gb query"
    )
}

/// `astra plan`.
pub fn plan(opts: JobOpts, out: &mut dyn Write) -> std::io::Result<()> {
    match plan_job(&opts) {
        Ok((job, plan)) => {
            writeln!(out, "Workload : {}", opts.workload.label())?;
            writeln!(out, "Objective: {}", objective_for(&opts))?;
            writeln!(out, "Plan     : {}", plan.summary())?;
            writeln!(
                out,
                "Phases   : map {:.1}s | coordinator {:.1}s | reduce {:.1}s ({} steps: {:?})",
                plan.evaluation.perf.mapper.duration_s,
                plan.evaluation.perf.coordinator_s(),
                plan.evaluation.perf.reduce.duration_s(),
                plan.reduce_steps(),
                plan.reducers_per_step(),
            )?;
            writeln!(
                out,
                "Cost     : requests {} | storage {} | invocations {} | runtime {}",
                plan.evaluation.cost.requests,
                plan.evaluation.cost.storage,
                plan.evaluation.cost.invocations,
                plan.evaluation.cost.runtime,
            )?;
            let _ = job;
        }
        Err(e) => writeln!(out, "planning failed: {e}")?,
    }
    Ok(())
}

/// `astra simulate`.
pub fn simulate(opts: JobOpts, out: &mut dyn Write) -> std::io::Result<()> {
    match plan_job(&opts) {
        Ok((job, plan)) => {
            let config = SimConfig::deterministic(Platform::aws_lambda())
                .with_noise(opts.noise_cv, opts.seed);
            match run_sim(&job, &plan, config) {
                Ok(report) => {
                    writeln!(out, "Plan      : {}", plan.summary())?;
                    writeln!(
                        out,
                        "Simulated : JCT {:.1}s (predicted {:.1}s), cost {} (predicted {})",
                        report.jct_s(),
                        plan.predicted_jct_s(),
                        report.total_cost(),
                        plan.predicted_cost(),
                    )?;
                    writeln!(
                        out,
                        "Platform  : {} invocations, peak concurrency {}, {} GETs, {} PUTs",
                        report.invocation_count(),
                        report.peak_concurrency,
                        report.ledger.gets,
                        report.ledger.puts,
                    )?;
                    if opts.metrics {
                        phase_table(&report, out)?;
                    }
                }
                Err(e) => writeln!(out, "simulation failed: {e}")?,
            }
        }
        Err(e) => writeln!(out, "planning failed: {e}")?,
    }
    Ok(())
}

/// `astra baselines`.
pub fn baselines(opts: JobOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let workload = opts.workload;
    let job = workload.into_job();
    let mut relaxed = Platform::aws_lambda();
    relaxed.timeout_s = f64::INFINITY;
    let catalog = PriceCatalog::aws_2020();

    writeln!(out, "Workload: {}\n", workload.label())?;
    writeln!(
        out,
        "{:<12} {:>10} {:>14}  configuration",
        "system", "pred JCT", "pred cost"
    )?;
    let astra = Astra::with_defaults();
    let fastest = astra.plan(&job, Objective::fastest());
    for b in Baseline::all() {
        match Plan::evaluate(&job, &relaxed, &catalog, b.spec_for(&job)) {
            Ok(p) => writeln!(
                out,
                "{:<12} {:>9.1}s {:>14}  {}",
                b.name,
                p.predicted_jct_s(),
                p.predicted_cost().to_string(),
                p.summary()
            )?,
            Err(e) => writeln!(out, "{:<12} infeasible: {e}", b.name)?,
        }
    }
    if let Ok(p) = fastest {
        writeln!(
            out,
            "{:<12} {:>9.1}s {:>14}  {}",
            "Astra",
            p.predicted_jct_s(),
            p.predicted_cost().to_string(),
            p.summary()
        )?;
    }
    Ok(())
}

/// `astra timeline`.
pub fn timeline(opts: JobOpts, out: &mut dyn Write) -> std::io::Result<()> {
    match plan_job(&opts) {
        Ok((job, plan)) => {
            let config = SimConfig::deterministic(Platform::aws_lambda())
                .with_noise(opts.noise_cv, opts.seed);
            match run_sim(&job, &plan, config) {
                Ok(report) => {
                    writeln!(out, "{} — JCT {:.1}s", plan.summary(), report.jct_s())?;
                    writeln!(
                        out,
                        "legend: c cold-start | r GET | # compute | w PUT | . waiting | q queued\n"
                    )?;
                    write!(out, "{}", report.trace.ascii_gantt(100))?;
                    if opts.metrics {
                        phase_table(&report, out)?;
                    }
                }
                Err(e) => writeln!(out, "simulation failed: {e}")?,
            }
        }
        Err(e) => writeln!(out, "planning failed: {e}")?,
    }
    Ok(())
}

/// `astra frontier`.
pub fn frontier(opts: JobOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let workload = opts.workload;
    let job = workload.into_job();
    // One planner session backs the whole frontier walk: the DAG and its
    // backward potentials are built once, then every budget point is a
    // pure constrained solve.
    let session = Astra::with_defaults().session(&job);
    match session.pareto_frontier(12) {
        Ok(frontier) => {
            writeln!(out, "Cost-performance frontier for {}:\n", workload.label())?;
            writeln!(out, "{:>14} {:>10}  configuration", "spend", "JCT")?;
            for plan in &frontier {
                writeln!(
                    out,
                    "{:>14} {:>9.1}s  {}",
                    plan.predicted_cost().to_string(),
                    plan.predicted_jct_s(),
                    plan.summary()
                )?;
            }
            writeln!(
                out,
                "\n{} distinct plans between the cheapest and the fastest.",
                frontier.len()
            )?;
        }
        Err(e) => writeln!(out, "planning failed: {e}")?,
    }
    Ok(())
}

/// `astra serve --listen` — bind the TCP line-protocol listener and
/// serve until stdin reaches EOF (Ctrl-D, or the parent closing the
/// pipe), then shut down gracefully: first the listener, then the
/// daemon, which drains every queued job to a terminal state.
fn serve_listen(opts: &ServeOpts, addr: &str, out: &mut dyn Write) -> std::io::Result<()> {
    let mut config = ServiceConfig::default().with_workers(opts.workers);
    if let Some(path) = &opts.journal {
        config = config.with_journal_path(path);
    }
    let daemon = ServiceDaemon::start(config);
    let server = NetServer::start(
        daemon.handle(),
        addr,
        NetConfig::default(),
        astra_telemetry::global(),
    )?;
    writeln!(
        out,
        "astra service listening on {} (proto {PROTO_VERSION}, {} workers)",
        server.local_addr(),
        opts.workers
    )?;
    writeln!(
        out,
        "newline-delimited JSON protocol — see PROTOCOL.md; close stdin (Ctrl-D) to stop"
    )?;
    out.flush()?;
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
    let handle = daemon.handle();
    daemon.shutdown();
    writeln!(
        out,
        "server stopped; daemon drained {} jobs",
        handle.jobs().len()
    )
}

/// `astra serve` — with `--listen`, run the TCP front end; otherwise
/// spin up the in-process service daemon, drive a deterministic demo
/// mix of jobs through it, and print the per-job terminal snapshots
/// plus the session-cache scorecard.
pub fn serve(opts: ServeOpts, out: &mut dyn Write) -> std::io::Result<()> {
    if let Some(addr) = opts.listen.clone() {
        return serve_listen(&opts, &addr, out);
    }
    let mut config = ServiceConfig::default().with_workers(opts.workers);
    if let Some(path) = &opts.journal {
        config = config.with_journal_path(path);
    }
    let daemon = ServiceDaemon::start(config);
    let handle = daemon.handle();
    let families = [
        WorkloadSpec::wordcount_gb(1),
        WorkloadSpec::wordcount_gb(10),
        WorkloadSpec::wordcount_gb(20),
        WorkloadSpec::QueryUservisits,
    ];
    writeln!(
        out,
        "daemon up: {} workers; submitting {} jobs ({} sim reps each)\n",
        opts.workers, opts.jobs, opts.reps
    )?;
    let ids: Vec<_> = (0..opts.jobs)
        .map(|i| {
            let spec = families[i % families.len()];
            let objective = match i % 3 {
                0 => Objective::fastest(),
                1 => Objective::cheapest(),
                _ => Objective::min_time_with_budget_dollars(8.0),
            };
            let request =
                JobRequest::new(format!("{}#{i}", spec.label()), spec.into_job(), objective)
                    .with_sim(SimOptions {
                        noise_cv: opts.noise_cv,
                        seed: opts.seed + i as u64,
                        replications: opts.reps,
                    });
            handle.submit(request)
        })
        .collect();

    writeln!(
        out,
        "{:<4} {:<22} {:<9} {:>9} {:>13} {:>9} {:>9} {:>6}",
        "id", "name", "status", "pred JCT", "pred cost", "sim JCT", "wait ms", "cache"
    )?;
    for id in ids {
        let snap = handle.await_done(id).expect("submitted job vanished");
        let (pred_jct, pred_cost) = snap
            .plan
            .as_ref()
            .map(|p| {
                (
                    format!("{:.1}s", p.predicted_jct_s),
                    p.predicted_cost.to_string(),
                )
            })
            .unwrap_or_else(|| ("-".into(), "-".into()));
        let sim_jct = snap
            .sim
            .as_ref()
            .map(|s| format!("{:.1}s", s.mean_jct_s()))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{:<4} {:<22} {:<9} {:>9} {:>13} {:>9} {:>9.1} {:>6}",
            snap.id,
            snap.request.name,
            snap.status.as_str(),
            pred_jct,
            pred_cost,
            sim_jct,
            snap.metrics.queue_wait_ns as f64 / 1e6,
            if snap.session_cache_hit {
                "hit"
            } else {
                "miss"
            },
        )?;
        if let Some(reason) = &snap.reason {
            writeln!(out, "     reason: {reason}")?;
        }
    }

    let stats = handle.cache_stats();
    writeln!(
        out,
        "\nsession cache: {} hits / {} misses / {} evictions ({} live entries)",
        stats.hits, stats.misses, stats.evictions, stats.entries
    )?;
    daemon.shutdown();
    writeln!(
        out,
        "daemon drained cleanly: {} jobs total",
        handle.jobs().len()
    )
}

/// Print the human-readable summary of a wire snapshot (the `job`
/// object of a TCP response line).
fn wire_snapshot_table(job: &Value, out: &mut dyn Write) -> std::io::Result<()> {
    let field = |name: &str| job.as_object().and_then(|o| o.get(name)).cloned();
    let text = |name: &str| {
        field(name)
            .and_then(|v| v.as_str().map(String::from))
            .unwrap_or_else(|| "-".into())
    };
    writeln!(
        out,
        "Job      : {} (id {})",
        text("name"),
        field("id").and_then(|v| v.as_u64()).unwrap_or(0)
    )?;
    writeln!(out, "Status   : {}", text("status"))?;
    if let Some(reason) = field("reason").and_then(|v| v.as_str().map(String::from)) {
        writeln!(out, "Reason   : {reason}")?;
    }
    if let Some(plan) = field("plan").filter(|p| p.as_object().is_some()) {
        let get = |name: &str| plan.as_object().and_then(|o| o.get(name)).cloned();
        if let Some(summary) = get("summary").and_then(|v| v.as_str().map(String::from)) {
            writeln!(out, "Plan     : {summary}")?;
        }
        if let Some(jct) = get("predicted_jct_s").and_then(|v| v.as_f64()) {
            writeln!(out, "Predicted: JCT {jct:.1}s")?;
        }
    }
    if let Some(sim) = field("sim").filter(|s| s.as_object().is_some()) {
        let reps = sim
            .as_object()
            .and_then(|o| o.get("jct_s"))
            .and_then(|v| v.as_array().map(|a| a.len()))
            .unwrap_or(0);
        if let Some(mean) = sim
            .as_object()
            .and_then(|o| o.get("mean_jct_s"))
            .and_then(|v| v.as_f64())
        {
            writeln!(out, "Simulated: mean JCT {mean:.1}s over {reps} reps")?;
        }
    }
    Ok(())
}

/// `astra submit --connect` — the same job over the TCP line protocol:
/// submit, then block on `await` for the terminal snapshot.
fn submit_over_tcp(
    opts: &SubmitOpts,
    addr: &str,
    request: &JobRequest,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut client = NetClient::connect(addr)?;
    let id = client.submit_id(request)?;
    let response = client.await_done(id)?;
    let job = response
        .as_object()
        .and_then(|o| o.get("job"))
        .cloned()
        .ok_or_else(|| {
            std::io::Error::other(format!(
                "malformed await response: {}",
                serde_json::to_string(&response).unwrap_or_default()
            ))
        })?;
    if opts.json {
        let body =
            serde_json::to_string_pretty(&job).map_err(|e| std::io::Error::other(e.to_string()))?;
        return writeln!(out, "{body}");
    }
    wire_snapshot_table(&job, out)
}

/// `astra submit` — one job through a fresh daemon (or, with
/// `--connect`, a running TCP server), blocking until its terminal
/// snapshot.
pub fn submit(opts: SubmitOpts, out: &mut dyn Write) -> std::io::Result<()> {
    let workload = opts.job.workload;
    let mut request = JobRequest::new(
        workload.label(),
        workload.into_job(),
        objective_for(&opts.job),
    )
    .with_sim(SimOptions {
        noise_cv: opts.job.noise_cv,
        seed: opts.job.seed,
        replications: opts.reps,
    });
    if let Some(tenant) = &opts.tenant {
        request = request.with_tenant(tenant.clone());
    }
    if let Some(addr) = &opts.connect {
        return submit_over_tcp(&opts, addr, &request, out);
    }
    let daemon = ServiceDaemon::start(ServiceConfig::default().with_workers(opts.workers));
    let handle = daemon.handle();
    let id = handle.submit(request);
    let snap = handle.await_done(id).expect("submitted job vanished");

    if opts.json {
        let body = serde_json::to_string_pretty(&wire::snapshot_to_json(&snap))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        return writeln!(out, "{body}");
    }

    writeln!(out, "Job      : {} (id {})", snap.request.name, snap.id)?;
    writeln!(out, "Objective: {}", snap.request.objective)?;
    writeln!(out, "Status   : {}", snap.status)?;
    if let Some(reason) = &snap.reason {
        writeln!(out, "Reason   : {reason}")?;
    }
    if let Some(plan) = &snap.plan {
        writeln!(out, "Plan     : {}", plan.summary)?;
        writeln!(
            out,
            "Predicted: JCT {:.1}s, cost {}",
            plan.predicted_jct_s, plan.predicted_cost
        )?;
    }
    if let Some(sim) = &snap.sim {
        writeln!(
            out,
            "Simulated: mean JCT {:.1}s over {} reps (cost {})",
            sim.mean_jct_s(),
            sim.jct_s.len(),
            sim.mean_cost(),
        )?;
    }
    writeln!(
        out,
        "Timing   : queue {:.1}ms, plan {:.1}ms, sim {:.1}ms (session cache {})",
        snap.metrics.queue_wait_ns as f64 / 1e6,
        snap.metrics.plan_ns as f64 / 1e6,
        snap.metrics.sim_ns as f64 / 1e6,
        if snap.session_cache_hit {
            "hit"
        } else {
            "miss"
        },
    )
}

/// `astra help`.
pub fn help(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "astra — autonomous serverless analytics planner (paper reproduction)

USAGE:
    astra <command> [flags]

COMMANDS:
    workloads                       list the built-in benchmarks
    plan      -w <workload> [...]   derive the optimal execution plan
    simulate  -w <workload> [...]   plan, then execute on the FaaS simulator
    baselines -w <workload>         compare Astra against Baselines 1-3
    timeline  -w <workload> [...]   ASCII Gantt chart of a simulated run
    frontier  -w <workload>         the cost-performance Pareto frontier
    serve     [--listen H:P] [...]  serve the TCP line protocol (or, with
                                    no --listen, run a demo mix in-process)
    submit    -w <workload> [...]   submit one job — to a TCP server with
                                    --connect, else a fresh in-process
                                    daemon — and await its snapshot
    help                            this message

FLAGS:
    -w, --workload <name>   wordcount-1gb|wordcount-10gb|wordcount-20gb|sort-100gb|query
    -b, --budget <dollars>  minimize completion time under this budget
    -d, --deadline <secs>   minimize cost under this completion-time threshold
        --noise <cv>        simulator runtime-noise CV (default 0.1)
        --seed <n>          simulator seed (default 42)
    -t, --threads <n>       worker threads for exhaustive search, the frontier
                            walk and sweeps (default: all cores; any value
                            yields the same plan)
        --trace-out <path>  write a Chrome trace of the run (open in
                            chrome://tracing or Perfetto); see OBSERVABILITY.md
        --metrics           print telemetry counters and the phase-breakdown
                            table after the command

SERVICE FLAGS (serve/submit):
    -l, --listen <h:p>      serve: bind the TCP listener here (PROTOCOL.md)
                            and run until stdin closes
    -c, --connect <h:p>     submit: speak the line protocol to a running
                            server instead of starting a daemon
        --tenant <name>     submit: tenant lane for the request (fair-share
                            scheduling is per tenant; default \"\")
        --jobs <n>          serve: how many demo jobs to submit (default 12)
        --workers <n>       daemon worker-pool size (default: one per core)
        --journal <path>    serve: replay this durable job journal on start
                            and log every lifecycle transition to it
        --reps <n>          simulation replications per job (0 = plan only)
        --json              submit: print the terminal snapshot as wire JSON

With neither --budget nor --deadline, astra plans for the fastest execution.
Telemetry is observational: output numbers are identical with it on or off.
Daemon results are bit-identical to the library API at any worker count."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(cmd: crate::Command) -> String {
        let mut buf = Vec::new();
        crate::run(cmd, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn opts(workload: WorkloadSpec) -> JobOpts {
        JobOpts {
            workload,
            budget: None,
            deadline_s: None,
            noise_cv: 0.0,
            seed: 1,
            threads: None,
            trace_out: None,
            metrics: false,
        }
    }

    #[test]
    fn workloads_lists_all_five() {
        let text = capture(crate::Command::Workloads);
        assert!(text.contains("Wordcount (1GB)"));
        assert!(text.contains("Sort (100GB)"));
        assert!(text.contains("Query (25.4GB)"));
    }

    #[test]
    fn plan_reports_a_feasible_plan() {
        let opts = JobOpts {
            budget: Some(0.004),
            ..opts(WorkloadSpec::wordcount_gb(1))
        };
        let text = capture(crate::Command::Plan(opts));
        assert!(text.contains("Plan"), "{text}");
        assert!(text.contains("mappers="), "{text}");
    }

    #[test]
    fn simulate_reports_measured_numbers() {
        let opts = JobOpts {
            deadline_s: Some(120.0),
            ..opts(WorkloadSpec::wordcount_gb(1))
        };
        let text = capture(crate::Command::Simulate(opts));
        assert!(text.contains("Simulated"), "{text}");
        assert!(text.contains("invocations"), "{text}");
    }

    // Tests that pass --metrics/--trace-out install the process-global
    // telemetry recorder; serialize them so they don't capture each
    // other's spans or tear the recorder down mid-run.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn simulate_with_metrics_prints_phase_table_and_counters() {
        let _guard = TELEMETRY_LOCK.lock().unwrap();
        let opts = JobOpts {
            metrics: true,
            ..opts(WorkloadSpec::wordcount_gb(1))
        };
        let text = capture(crate::Command::Simulate(opts));
        assert!(text.contains("Phase breakdown"), "{text}");
        assert!(text.contains("compute"), "{text}");
        assert!(text.contains("total (JCT)"), "{text}");
        assert!(text.contains("Per-stage cumulative"), "{text}");
        assert!(text.contains("mapper"), "{text}");
        assert!(text.contains("-- telemetry --"), "{text}");
        assert!(text.contains("engine.events"), "{text}");
    }

    #[test]
    fn trace_out_writes_a_chrome_trace() {
        let _guard = TELEMETRY_LOCK.lock().unwrap();
        let path = std::env::temp_dir().join("astra-cli-trace-test.json");
        let _ = std::fs::remove_file(&path);
        let opts = JobOpts {
            trace_out: Some(path.to_string_lossy().into_owned()),
            ..opts(WorkloadSpec::wordcount_gb(1))
        };
        let text = capture(crate::Command::Simulate(opts));
        assert!(text.contains("trace written to"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "not a Chrome trace");
        assert!(json.contains("invocation"), "missing invocation spans");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn baselines_table_includes_astra_row() {
        let text = capture(crate::Command::Baselines(opts(WorkloadSpec::wordcount_gb(
            1,
        ))));
        assert!(text.contains("Baseline 1"));
        assert!(text.contains("Astra"));
    }

    #[test]
    fn hopeless_budget_is_reported_not_panicked() {
        let opts = JobOpts {
            budget: Some(0.0000001),
            ..opts(WorkloadSpec::wordcount_gb(1))
        };
        let text = capture(crate::Command::Plan(opts));
        assert!(text.contains("planning failed"), "{text}");
    }

    #[test]
    fn help_mentions_every_command() {
        let text = capture(crate::Command::Help);
        for cmd in [
            "workloads",
            "plan",
            "simulate",
            "baselines",
            "timeline",
            "frontier",
        ] {
            assert!(text.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn serve_runs_a_demo_mix_through_the_daemon() {
        let text = capture(crate::Command::Serve(crate::args::ServeOpts {
            jobs: 5,
            workers: 2,
            reps: 1,
            noise_cv: 0.0,
            seed: 1,
            ..crate::args::ServeOpts::default()
        }));
        assert!(text.contains("daemon up: 2 workers"), "{text}");
        assert!(text.contains("DONE"), "{text}");
        assert!(text.contains("session cache:"), "{text}");
        assert!(text.contains("drained cleanly: 5 jobs"), "{text}");
    }

    #[test]
    fn submit_prints_a_terminal_snapshot() {
        let opts = crate::args::SubmitOpts {
            job: opts(WorkloadSpec::wordcount_gb(1)),
            workers: 1,
            reps: 2,
            json: false,
            connect: None,
            tenant: None,
        };
        let text = capture(crate::Command::Submit(opts.clone()));
        assert!(text.contains("Status   : DONE"), "{text}");
        assert!(text.contains("Simulated: mean JCT"), "{text}");
        assert!(text.contains("over 2 reps"), "{text}");

        // --json emits the wire encoding of the same snapshot.
        let json = capture(crate::Command::Submit(crate::args::SubmitOpts {
            json: true,
            ..opts
        }));
        assert!(json.contains("\"status\": \"DONE\""), "{json}");
        assert!(json.contains("\"predicted_cost_nanos\""), "{json}");
    }

    #[test]
    fn submit_over_tcp_round_trips() {
        // A server on an ephemeral port, then `astra submit --connect`
        // against it — the whole CLI TCP path minus the argv parsing.
        let daemon = ServiceDaemon::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_telemetry(astra_telemetry::Telemetry::disabled()),
        );
        let server = NetServer::start(
            daemon.handle(),
            "127.0.0.1:0",
            NetConfig::default(),
            astra_telemetry::Telemetry::disabled(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let submit_opts = crate::args::SubmitOpts {
            job: opts(WorkloadSpec::wordcount_gb(1)),
            workers: 1,
            reps: 1,
            json: true,
            connect: Some(addr),
            tenant: Some("cli-test".into()),
        };
        let text = capture(crate::Command::Submit(submit_opts.clone()));
        assert!(text.contains("\"status\": \"DONE\""), "{text}");
        assert!(text.contains("\"tenant\": \"cli-test\""), "{text}");

        let human = capture(crate::Command::Submit(crate::args::SubmitOpts {
            json: false,
            ..submit_opts
        }));
        assert!(human.contains("Status   : DONE"), "{human}");
        assert!(human.contains("Simulated: mean JCT"), "{human}");

        server.shutdown();
        daemon.shutdown();
    }

    #[test]
    fn frontier_lists_multiple_plans() {
        let text = capture(crate::Command::Frontier(JobOpts {
            threads: Some(2),
            ..opts(WorkloadSpec::wordcount_gb(1))
        }));
        assert!(text.contains("distinct plans"), "{text}");
    }
}
