//! The metric catalogue and how each metric is computed.
//!
//! End-to-end metrics are what a client sees, measured untraced. Each
//! workload has a *headline* population (the jobs its latency is about)
//! and a *throughput* population:
//!
//! | workload | headline | throughput | tail |
//! |---|---|---|---|
//! | `warm_steady` | open-loop jobs | capacity phase | p95 |
//! | `cold_distinct` | every job | every job | p95 |
//! | `requote` | re-quotes | re-quotes | p90 |
//! | `tenant_flood` | quiet tenants | flooding tenant | p95 |
//!
//! Open-loop jobs due before the loop settles are sent and verified but
//! are not part of the headline (see `gen::Group::Ramp`).
//!
//! A job's latency runs from when it was due to its `DONE` stamp, and
//! splits exactly into six stages (see [`stages`]).

use astra_service::JobStatus;

use crate::client::Record;
use crate::gen::{Group, Workload};
use crate::stats::{mean, percentile, sorted};
use crate::trace::Replay;

/// One metric's declaration (mirrored in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a client sees; printed by untraced runs.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", "lower"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_tail_ms", "ms", "lower"),
    def("throughput_jobs_s", "jobs/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// The six stages a job's latency splits into, in order.
pub const STAGES: [&str; 6] = [
    "gen.lag_ms",
    "net.ingress_ms",
    "daemon.admission_ms",
    "scheduler.queue_ms",
    "worker.plan_ms",
    "sim.ms",
];

/// Single layers; printed by traced runs. Stage and fairness metrics
/// come from the traced process's own daemon run, the rest from the
/// replay.
pub const PER_LAYER: [MetricDef; 45] = [
    def("gen.lag_ms.p50", "ms", "lower"),
    def("gen.lag_ms.p99", "ms", "lower"),
    def("net.ingress_ms.p50", "ms", "lower"),
    def("net.ingress_ms.p99", "ms", "lower"),
    def("daemon.admission_ms.p50", "ms", "lower"),
    def("daemon.admission_ms.p99", "ms", "lower"),
    def("scheduler.queue_ms.p50", "ms", "lower"),
    def("scheduler.queue_ms.p99", "ms", "lower"),
    def("worker.plan_ms.p50", "ms", "lower"),
    def("worker.plan_ms.p99", "ms", "lower"),
    def("sim.ms.p50", "ms", "lower"),
    def("sim.ms.p99", "ms", "lower"),
    def("scheduler.backlog_max", "count", "lower"),
    def("fairness.queue_ms.p99_worst_tenant", "ms", "lower"),
    def("fairness.queue_ms.p99_best_tenant", "ms", "lower"),
    def("worker.busy_share", "ratio", "higher"),
    def("wire.request_bytes.mean", "bytes", "lower"),
    def("sim.events.mean", "count", "lower"),
    def("net.ping_rtt_us.p50", "us", "lower"),
    def("wire.decode_us.p50", "us", "lower"),
    def("wire.encode_us.p50", "us", "lower"),
    def("daemon.admit_ms.p50", "ms", "lower"),
    def("daemon.admit_ms.p95", "ms", "lower"),
    def("cache.lookup_us.p50", "us", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.patch_ratio", "ratio", "higher"),
    def("cache.miss_ratio", "ratio", "lower"),
    def("cache.evictions", "count", "lower"),
    def("core.session_build_ms.p50", "ms", "lower"),
    def("core.session_build_ms.p95", "ms", "lower"),
    def("core.dag_edges.mean", "count", "lower"),
    def("solver.plan_us.p50", "us", "lower"),
    def("solver.plan_us.p99", "us", "lower"),
    def("solver.memo_hit_ratio", "ratio", "higher"),
    def("sim.compile_us.p50", "us", "lower"),
    def("sim.run_ms.p50", "ms", "lower"),
    def("journal.append_us.p50", "us", "lower"),
    def("journal.append_us.p99", "us", "lower"),
    def("journal.bytes_per_job", "bytes", "lower"),
    def("journal.replay_jobs_s", "jobs/s", "higher"),
    def("journal.recovery_ms", "ms", "lower"),
    def("trace.jobs", "count", "higher"),
    def("trace.job_ms.p50", "ms", "lower"),
    def("trace.wire_share", "ratio", "lower"),
    def("trace.planner_share", "ratio", "lower"),
];

/// A measured value, named and with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Order `values` as `defs` declares them. Panics if a declared metric
/// is missing or an undeclared one is present — a bug in this file.
fn catalogue(defs: &[MetricDef], values: Vec<(&'static str, f64)>) -> Vec<Measured> {
    assert_eq!(values.len(), defs.len(), "metric count mismatch");
    defs.iter()
        .map(|d| {
            let value = values
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name))
                .1;
            Measured {
                name: d.name,
                unit: d.unit,
                value,
            }
        })
        .collect()
}

/// The population whose latency a workload reports.
fn headline(workload: Workload) -> Group {
    match workload {
        Workload::WarmSteady => Group::Open,
        Workload::ColdDistinct => Group::Cold,
        Workload::Requote => Group::Requote,
        Workload::TenantFlood => Group::Quiet,
    }
}

/// The population whose completion rate a workload reports.
fn throughput_group(workload: Workload) -> Group {
    match workload {
        Workload::WarmSteady => Group::Capacity,
        Workload::ColdDistinct => Group::Cold,
        Workload::Requote => Group::Requote,
        Workload::TenantFlood => Group::Flood,
    }
}

/// A finished job's stamps: due, sent, accepted, admitted, picked up,
/// planned, done.
fn stamps(record: &Record) -> Option<[u64; 7]> {
    let snap = record.snap.as_ref().ok()?;
    if snap.status != JobStatus::Done {
        return None;
    }
    let accepted = snap.at(JobStatus::Accepted)?;
    // The worker's pickup; the snapshot's queue wait is measured from
    // `Accepted`, so it also covers admission planning.
    let pickup = accepted + snap.queue_wait_ns;
    let admitted = record.sent.ack.min(pickup);
    Some([
        record.sent.due,
        record.sent.sent,
        accepted,
        admitted,
        pickup,
        snap.at(JobStatus::Planned)?,
        snap.at(JobStatus::Done)?,
    ])
}

/// The six stages of a finished job, in ns: due → sent (`gen.lag`),
/// sent → accepted (`net.ingress`), accepted → admitted
/// (`daemon.admission`), admitted → pickup (`scheduler.queue`), pickup
/// → planned (`worker.plan`), planned → done (`sim`). They telescope,
/// so they sum to [`latency_ns`] exactly.
pub fn stages(record: &Record) -> Option<[i64; 6]> {
    let t = stamps(record)?;
    Some(std::array::from_fn(|i| t[i + 1] as i64 - t[i] as i64))
}

/// Due → `DONE`, in ns.
pub fn latency_ns(record: &Record) -> Option<i64> {
    let t = stamps(record)?;
    Some(t[6] as i64 - t[0] as i64)
}

fn ms(ns: impl IntoIterator<Item = i64>) -> Vec<f64> {
    sorted(ns.into_iter().map(|v| v as f64 / 1e6))
}

/// Jobs of `group` finished per second, from the first one due to the
/// last one done.
fn throughput(records: &[Record], group: Group) -> f64 {
    let done: Vec<[u64; 7]> = records
        .iter()
        .filter(|r| r.sent.req.group == group)
        .filter_map(stamps)
        .collect();
    let first_due = done.iter().map(|t| t[0]).min().unwrap_or(0);
    let last_done = done.iter().map(|t| t[6]).max().unwrap_or(0);
    done.len() as f64 / (last_done.saturating_sub(first_due) as f64 / 1e9)
}

/// The latencies of the workload's headline jobs, in ms, ascending.
pub fn headline_latencies_ms(workload: Workload, records: &[Record]) -> Vec<f64> {
    let group = headline(workload);
    ms(records
        .iter()
        .filter(|r| r.sent.req.group == group)
        .filter_map(latency_ns))
}

/// The end-to-end metrics of an untraced run over its timed `records`.
pub fn end_to_end(
    workload: Workload,
    setup_s: f64,
    peak_rss_mb: f64,
    records: &[Record],
) -> Vec<Measured> {
    let latency = headline_latencies_ms(workload, records);
    catalogue(
        &END_TO_END,
        vec![
            ("setup_s", setup_s),
            ("latency_p50_ms", percentile(&latency, 50.0)),
            (
                "latency_tail_ms",
                percentile(&latency, workload.tail_percentile()),
            ),
            (
                "throughput_jobs_s",
                throughput(records, throughput_group(workload)),
            ),
            ("peak_rss_mb", peak_rss_mb),
        ],
    )
}

/// Most jobs ever waiting in the scheduler at once: admitted, not yet
/// picked up.
fn backlog_max(all: &[[u64; 7]]) -> f64 {
    let mut events: Vec<(u64, i64)> = all.iter().flat_map(|t| [(t[3], 1), (t[4], -1)]).collect();
    // At equal stamps, a pickup leaves before an admission arrives.
    events.sort();
    let (mut now, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        now += delta;
        max = max.max(now);
    }
    max as f64
}

/// The per-layer metrics of a traced run: stage partition and fairness
/// from its daemon run (`records`), the rest from the replay.
pub fn per_layer(
    workload: Workload,
    records: &[Record],
    ping_us: &[f64],
    replay: &Replay,
) -> Vec<Measured> {
    let group = headline(workload);
    let headline_stages: Vec<[i64; 6]> = records
        .iter()
        .filter(|r| r.sent.req.group == group)
        .filter_map(stages)
        .collect();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    for (i, name) in STAGES.iter().enumerate() {
        let stage = ms(headline_stages.iter().map(|s| s[i]));
        values.push((declared(format!("{name}.p50")), percentile(&stage, 50.0)));
        values.push((declared(format!("{name}.p99")), percentile(&stage, 99.0)));
    }

    let finished: Vec<(&Record, [u64; 7])> = records
        .iter()
        .filter_map(|r| stamps(r).map(|t| (r, t)))
        .collect();
    let all: Vec<[u64; 7]> = finished.iter().map(|&(_, t)| t).collect();
    let mut tenants: Vec<&str> = finished
        .iter()
        .map(|(r, _)| r.sent.req.request.tenant.as_str())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    let tenant_p99: Vec<f64> = tenants
        .iter()
        .map(|tenant| {
            let queue = ms(finished
                .iter()
                .filter(|(r, _)| r.sent.req.request.tenant == *tenant)
                .map(|(_, t)| t[4] as i64 - t[3] as i64));
            percentile(&queue, 99.0)
        })
        .collect();
    let window_ns =
        all.iter().map(|t| t[6]).max().unwrap_or(0) - all.iter().map(|t| t[0]).min().unwrap_or(0);
    let busy_ns: u64 = finished
        .iter()
        .filter_map(|(r, _)| r.snap.as_ref().ok())
        .map(|s| s.plan_ns + s.sim_ns)
        .sum();
    let events: Vec<f64> = finished
        .iter()
        .filter_map(|(r, _)| r.snap.as_ref().ok()?.sim.as_ref())
        .flat_map(|s| s.events.iter().map(|&e| e as f64))
        .collect();
    let bytes: Vec<f64> = records.iter().map(|r| r.sent.bytes as f64).collect();
    values.extend([
        ("scheduler.backlog_max", backlog_max(&all)),
        (
            "fairness.queue_ms.p99_worst_tenant",
            tenant_p99.iter().copied().fold(f64::NAN, f64::max),
        ),
        (
            "fairness.queue_ms.p99_best_tenant",
            tenant_p99.iter().copied().fold(f64::NAN, f64::min),
        ),
        (
            "worker.busy_share",
            busy_ns as f64 / (crate::run::WORKERS as f64 * window_ns as f64),
        ),
        ("wire.request_bytes.mean", mean(&bytes)),
        ("sim.events.mean", mean(&events)),
        (
            "net.ping_rtt_us.p50",
            percentile(&sorted(ping_us.iter().copied()), 50.0),
        ),
    ]);

    let tr = &replay.tracer;
    let us = |name: &str, self_time: bool| {
        sorted(tr.times(name, self_time).into_iter().map(|ns| ns / 1e3))
    };
    let ms_of = |name: &str| sorted(tr.times(name, false).into_iter().map(|ns| ns / 1e6));
    let (decode, encode) = (us("wire.decode", false), us("wire.encode", false));
    let admit = ms_of("daemon.admit");
    let lookup = us("cache.lookup", true);
    let build = ms_of("core.session_build");
    let plan = us("solver.plan", false);
    let append = us("journal.append", false);
    let c = replay.cache;
    let lookups = (c.hits + c.patched + c.misses) as f64;
    let (memo_hits, memo_misses) = replay.memo;
    let edges: Vec<f64> = replay.dag_edges.iter().map(|&e| e as f64).collect();
    let jobs = replay.jobs.len() as f64;

    // Traced job time: the job span, plus its journal appends where the
    // daemon journals.
    let mut job_ns = vec![0u64; replay.jobs.len()];
    for span in &tr.spans {
        if span.name == "job" || (span.name == "journal.append" && workload.journaled()) {
            job_ns[span.job] += span.end - span.start;
        }
    }
    let total: f64 = job_ns.iter().sum::<u64>() as f64;
    let sum = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| tr.times(n, true).iter().sum::<f64>())
            .sum()
    };
    values.extend([
        ("wire.decode_us.p50", percentile(&decode, 50.0)),
        ("wire.encode_us.p50", percentile(&encode, 50.0)),
        ("daemon.admit_ms.p50", percentile(&admit, 50.0)),
        ("daemon.admit_ms.p95", percentile(&admit, 95.0)),
        ("cache.lookup_us.p50", percentile(&lookup, 50.0)),
        ("cache.hit_ratio", c.hits as f64 / lookups),
        ("cache.patch_ratio", c.patched as f64 / lookups),
        ("cache.miss_ratio", c.misses as f64 / lookups),
        ("cache.evictions", c.evictions as f64),
        ("core.session_build_ms.p50", percentile(&build, 50.0)),
        ("core.session_build_ms.p95", percentile(&build, 95.0)),
        ("core.dag_edges.mean", mean(&edges)),
        ("solver.plan_us.p50", percentile(&plan, 50.0)),
        ("solver.plan_us.p99", percentile(&plan, 99.0)),
        (
            "solver.memo_hit_ratio",
            memo_hits as f64 / (memo_hits + memo_misses) as f64,
        ),
        (
            "sim.compile_us.p50",
            percentile(&us("sim.compile", false), 50.0),
        ),
        ("sim.run_ms.p50", percentile(&ms_of("sim.run"), 50.0)),
        ("journal.append_us.p50", percentile(&append, 50.0)),
        ("journal.append_us.p99", percentile(&append, 99.0)),
        ("journal.bytes_per_job", replay.journal_bytes as f64 / jobs),
        ("journal.replay_jobs_s", jobs / replay.journal_replay_s),
        ("journal.recovery_ms", replay.recovery_s * 1e3),
        ("trace.jobs", jobs),
        (
            "trace.job_ms.p50",
            percentile(&ms(job_ns.iter().map(|&ns| ns as i64)), 50.0),
        ),
        (
            "trace.wire_share",
            sum(&["wire.decode", "wire.encode"]) / total,
        ),
        (
            "trace.planner_share",
            sum(&["cache.lookup", "core.session_build", "solver.plan"]) / total,
        ),
    ]);
    catalogue(&PER_LAYER, values)
}

/// The catalogue's `'static` copy of a name built at run time.
fn declared(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.name)
        .unwrap_or_else(|| panic!("undeclared stage metric {name}"))
}
