//! Seeded traffic: everything the daemon receives is made here, from
//! the workload seed alone. The same seed gives byte-identical request
//! lines; the program under test never sees the seed itself.

use astra_core::{Astra, ConfigSpace, Objective};
use astra_faas::derive_seed;
use astra_model::{JobSpec, WorkloadProfile};
use astra_pricing::Money;
use astra_service::{wire, JobRequest, ServiceConfig, SimOptions};
use astra_telemetry::Telemetry;
use serde_json::json;

/// Nanoseconds per second.
pub const NS: f64 = 1e9;

/// The four traffic mixes (the README says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson traffic over 12 resident specs, then a capacity
    /// phase: every lookup hits the session cache.
    WarmSteady,
    /// Two closed-loop clients, every request a new spec: every
    /// admission builds a DAG.
    ColdDistinct,
    /// One closed-loop client re-quoting revised specs via `resubmit`.
    Requote,
    /// Two quiet tenants in an open loop while a flooding tenant keeps
    /// the queue full; the daemon journals.
    TenantFlood,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WarmSteady,
        Workload::ColdDistinct,
        Workload::Requote,
        Workload::TenantFlood,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSteady => "warm_steady",
            Workload::ColdDistinct => "cold_distinct",
            Workload::Requote => "requote",
            Workload::TenantFlood => "tenant_flood",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the daemon runs with a journal (only the flood does).
    pub fn journaled(self) -> bool {
        self == Workload::TenantFlood
    }

    /// The percentile `latency_tail_ms` reports: a standard rung with at
    /// least ten headline samples beyond it at the default run length.
    /// `warm_steady` and `tenant_flood` have the samples for p99, but on
    /// the calibration host their p99 moved 10–39% between runs (thread
    /// scheduling delays on two busy cores) and their p95 about half as
    /// much, so they report p95.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::WarmSteady | Workload::ColdDistinct | Workload::TenantFlood => 95.0,
            Workload::Requote => 90.0,
        }
    }

    /// One in this many jobs is re-checked against direct library calls.
    pub fn verify_every(self) -> u64 {
        match self {
            Workload::ColdDistinct | Workload::Requote => 10,
            Workload::WarmSteady | Workload::TenantFlood => 20,
        }
    }
}

/// A counter-based random stream: value `i` is `derive_seed(key, i)`,
/// so any request can be regenerated from its index alone.
#[derive(Debug, Clone)]
pub struct Rng {
    key: u64,
    next: u64,
}

impl Rng {
    /// Stream `stream` of the workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            key: derive_seed(seed, stream),
            next: 0,
        }
    }

    /// The next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        let v = derive_seed(self.key, self.next);
        self.next += 1;
        v
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Low-discrepancy draws: request `k`'s coordinate `i` is
/// `frac(offset_i + k·α_i)` for rationally independent `α_i`, so any run
/// spreads its requests evenly over the unit cube — the same mix of
/// objectives and options whatever the seed, which only picks the
/// offsets.
#[derive(Debug, Clone, Copy)]
struct Spread([f64; 3]);

impl Spread {
    /// φ − 1, √2 − 1, √3 − 1.
    const ALPHA: [f64; 3] = [
        0.618_033_988_749_894_9,
        0.414_213_562_373_095_1,
        0.732_050_807_568_877_3,
    ];

    fn new(seed: u64, stream: u64) -> Spread {
        let mut rng = Rng::new(seed, stream);
        Spread([rng.unit(), rng.unit(), rng.unit()])
    }

    fn at(self, k: usize) -> [f64; 3] {
        std::array::from_fn(|i| (self.0[i] + k as f64 * Spread::ALPHA[i]).fract())
    }
}

// Stream ids: one per independent random decision, so changing one
// workload's draws never shifts another's.
const STREAM_SPECS: u64 = 1;
const STREAM_OPEN: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;
const STREAM_CLOSED: u64 = 4;
const STREAM_CYCLE: u64 = 5;

/// Mean input-object size, and the ± share each object is jittered by.
const OBJECT_MB: f64 = 64.0;
const SIZE_JITTER: f64 = 0.2;
/// Runtime noise of every simulated replication.
const NOISE_CV: f64 = 0.1;
/// Share of budget (perf-opt) objectives; the rest are deadlines.
const BUDGET_SHARE: f64 = 0.7;
/// Objectives stay this share of the band away from its edges.
const MARGIN: f64 = 0.02;
/// Open-loop jobs due in the loop's first second (first fifth, in a
/// loop shorter than 5 s) are sent and verified but left out of
/// latency: the daemon's pools and the generator settle there, and its
/// tail is several times the rest's.
const RAMP_S: f64 = 1.0;

/// `warm_steady`'s resident specs: (objects, how many specs).
const WARM_SHAPES: [(usize, usize); 2] = [(50, 8), (202, 4)];
const WARM_RATE: f64 = 400.0;
const WARM_TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
const PLAN_ONLY_SHARE: f64 = 0.2;
/// `warm_steady` spends this share of the run open-loop, the rest in the
/// capacity phase.
const WARM_OPEN_SHARE: f64 = 0.5;

const COLD_N: (usize, usize) = (10, 120);
const COLD_TENANTS: [&str; 2] = ["cold-a", "cold-b"];
const COLD_WARMUP_N: [usize; 3] = [30, 60, 90];

/// Bases have uniform object sizes, so every seed re-quotes the same
/// DAGs.
const REQUOTE_N: usize = 60;
/// Four bases alternate the wordcount and query profiles, whose
/// revisions the pruned daemon rebuilds today (sort's it patches), so
/// every re-quote takes the same path and a patch-tier gain shows in
/// full.
const REQUOTE_BASES: usize = 4;
const REQUOTE_PROFILES: [usize; 2] = [0, 2];
/// One base submit followed by this many re-quotes per cycle.
const REQUOTE_REVISIONS: usize = 6;
/// Revised specs keep the base's objective, so it sits well inside the
/// base's band: a ≤2% coefficient or ≤1% size revision cannot push it
/// outside.
const REQUOTE_MARGIN: f64 = 0.25;
/// Revision sizes by chain position (coefficient share, ±10%; object
/// sizes move by half of it). The revised field rotates, so every seed
/// re-quotes the same mix of deltas.
const REQUOTE_STEPS: [f64; REQUOTE_REVISIONS] = [0.002, 0.005, 0.01, 0.02, 0.0035, 0.015];

/// Low enough that the quiet lanes stay well inside their
/// deficit-round-robin share of the workers while the flood saturates
/// them; high enough for ≥10 samples beyond the p99.
const QUIET_RATE: f64 = 100.0;
const QUIET_N: usize = 202;
const QUIET_SPECS: usize = 4;
const QUIET_TENANTS: [&str; 2] = ["quiet-a", "quiet-b"];
const FLOOD_N: usize = 50;
const FLOOD_SPECS: usize = 2;
const FLOOD_REPS: u32 = 8;

/// The planner the daemon runs: `ServiceConfig::default()`'s platform,
/// prices, strategy and pruning.
pub fn planner() -> Astra {
    let config = ServiceConfig::default();
    Astra::new(config.platform, config.catalog, config.strategy)
        .with_prune_config(config.prune)
        .with_telemetry(Telemetry::disabled())
}

fn profile(i: usize) -> WorkloadProfile {
    match i % 3 {
        0 => astra_workloads::profiles::wordcount(),
        1 => astra_workloads::profiles::sort(),
        _ => astra_workloads::profiles::query(),
    }
}

/// A job over `n` objects of jittered size.
fn spec(rng: &mut Rng, name: String, n: usize, profile_index: usize) -> JobSpec {
    JobSpec {
        name,
        object_sizes_mb: (0..n)
            .map(|_| OBJECT_MB * rng.range(1.0 - SIZE_JITTER, 1.0 + SIZE_JITTER))
            .collect(),
        profile: profile(profile_index),
    }
}

/// A spec's feasible band: every budget in `cost` and every deadline in
/// `jct` has a plan.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Cheapest plan's cost to fastest plan's cost (nanodollars).
    pub cost: (i128, i128),
    /// Fastest plan's JCT to cheapest plan's JCT (seconds).
    pub jct: (f64, f64),
}

impl Band {
    /// Compute the band with the library (reference work, outside any
    /// timed section).
    pub fn of(astra: &Astra, job: &JobSpec) -> Band {
        let session = astra.session_with_space(job, &ConfigSpace::full(job, astra.platform()));
        let cheapest = session
            .plan(Objective::cheapest())
            .expect("benchmark specs are feasible");
        let fastest = session
            .plan(Objective::fastest())
            .expect("benchmark specs are feasible");
        Band {
            cost: (
                cheapest.predicted_cost().nanos(),
                fastest.predicted_cost().nanos(),
            ),
            jct: (fastest.predicted_jct_s(), cheapest.predicted_jct_s()),
        }
    }

    /// The budget (or deadline) at position `u` ∈ [0, 1) of the band's
    /// interior, which stops `margin` of its width short of either edge.
    fn objective(&self, u: f64, budget: bool, margin: f64) -> Objective {
        let u = margin + (1.0 - 2.0 * margin) * u;
        if budget {
            let (lo, hi) = self.cost;
            Objective::MinimizeTime {
                budget: Money::from_nanos(lo + ((hi - lo) as f64 * u).round() as i128),
            }
        } else {
            let (lo, hi) = self.jct;
            Objective::MinimizeCost {
                deadline_s: lo + (hi - lo) * u,
            }
        }
    }
}

/// Which population a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Set-up traffic, sent and awaited before anything is timed.
    Warmup,
    /// Open-loop traffic due before the loop settles (see [`RAMP_S`]).
    Ramp,
    /// `warm_steady`'s open loop.
    Open,
    /// `warm_steady`'s pipelined capacity phase.
    Capacity,
    /// `cold_distinct`'s requests.
    Cold,
    /// `requote`'s base submits (excluded from latency).
    Base,
    /// `requote`'s re-quotes.
    Requote,
    /// `tenant_flood`'s quiet tenants.
    Quiet,
    /// `tenant_flood`'s flooding tenant.
    Flood,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// What is submitted.
    pub request: JobRequest,
    /// Its population.
    pub group: Group,
    /// Sent as a `resubmit` of the client's previous job instead of a
    /// `submit`.
    pub resubmit: bool,
}

impl Req {
    fn new(request: JobRequest, group: Group) -> Req {
        Req {
            request,
            group,
            resubmit: false,
        }
    }

    /// The request line, newline included. A `resubmit` names `prior`.
    pub fn line(&self, prior: Option<u64>) -> String {
        let body = wire::job_request_to_json(&self.request);
        let envelope = match (self.resubmit, prior) {
            (true, Some(prior)) => json!({ "op": "resubmit", "id": prior, "request": body }),
            _ => json!({ "op": "submit", "request": body }),
        };
        let mut line = serde_json::to_string(&envelope).expect("JSON encoding is infallible");
        line.push('\n');
        line
    }
}

/// One open-loop request and when it is due, in nanoseconds after the
/// phase starts.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time, relative to the phase start.
    pub due_ns: u64,
    /// The request.
    pub req: Req,
}

/// `count` Poisson arrivals conditioned to fall in `[0, span_s)`: the
/// gaps are exponential, scaled so the count is exact, which keeps the
/// offered rate identical across seeds.
pub fn poisson(rng: &mut Rng, count: usize, span_s: f64) -> Vec<u64> {
    let gaps: Vec<f64> = (0..=count).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            at += gap;
            (at / total * span_s * NS) as u64
        })
        .collect()
}

/// A resident spec and its band.
#[derive(Debug, Clone)]
struct Resident {
    job: JobSpec,
    band: Band,
}

/// Jittered resident specs of the given `(name, objects, profile)`
/// shapes.
fn jittered(seed: u64, shapes: impl IntoIterator<Item = (String, usize, usize)>) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, STREAM_SPECS);
    shapes
        .into_iter()
        .map(|(name, n, profile_index)| spec(&mut rng, name, n, profile_index))
        .collect()
}

/// `jobs` with their bands.
fn residents(jobs: Vec<JobSpec>) -> Vec<Resident> {
    let astra = planner();
    jobs.into_iter()
        .map(|job| Resident {
            band: Band::of(&astra, &job),
            job,
        })
        .collect()
}

fn sim(seed: u64, replications: u32) -> SimOptions {
    SimOptions {
        noise_cv: NOISE_CV,
        seed,
        replications,
    }
}

/// A plan-only request that makes the daemon build `job`'s session.
fn warmup(name: String, job: JobSpec, tenant: &str) -> Req {
    Req::new(
        JobRequest::new(name, job, Objective::cheapest())
            .with_tenant(tenant)
            .with_sim(sim(0, 0)),
        Group::Warmup,
    )
}

/// One run's traffic: the set-up requests, the open-loop stream, and a
/// generator for the closed-loop stream.
#[derive(Debug, Clone)]
pub struct Script {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    /// Sent and awaited during every set-up.
    pub warmup: Vec<Req>,
    /// The open-loop stream, in due order.
    pub open: Vec<Arrival>,
    /// Seconds of closed-loop traffic ([`Script::closed`]): after the
    /// open loop in `warm_steady`, alongside it in `tenant_flood`.
    pub closed_s: f64,
    residents: Vec<Resident>,
}

impl Script {
    /// Generate a run's traffic for `seconds` of measurement. Computes
    /// the resident specs' feasible bands with the library first
    /// (reference work, never timed).
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Script {
        let (residents, warmup) = match workload {
            Workload::WarmSteady => {
                let shapes = WARM_SHAPES
                    .iter()
                    .flat_map(|&(n, count)| std::iter::repeat_n(n, count))
                    .enumerate()
                    .map(|(i, n)| (format!("warm-{i}"), n, i));
                let residents = residents(jittered(seed, shapes));
                let warmup = residents
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let tenant = WARM_TENANTS[i % WARM_TENANTS.len()];
                        warmup(format!("warmup-{i}"), r.job.clone(), tenant)
                    })
                    .collect();
                (residents, warmup)
            }
            Workload::ColdDistinct => {
                let mut rng = Rng::new(seed, STREAM_SPECS);
                let warmup = COLD_WARMUP_N
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let job = spec(&mut rng, format!("cold-warmup-{i}"), n, i);
                        warmup(format!("warmup-{i}"), job, COLD_TENANTS[0])
                    })
                    .collect();
                (Vec::new(), warmup)
            }
            Workload::Requote => {
                let residents = residents(
                    (0..REQUOTE_BASES)
                        .map(|i| {
                            JobSpec::uniform(
                                format!("requote-{i}"),
                                REQUOTE_N,
                                OBJECT_MB,
                                profile(REQUOTE_PROFILES[i % REQUOTE_PROFILES.len()]),
                            )
                        })
                        .collect(),
                );
                let warmup = residents
                    .iter()
                    .enumerate()
                    .map(|(i, r)| warmup(format!("warmup-{i}"), r.job.clone(), "requote"))
                    .collect();
                (residents, warmup)
            }
            Workload::TenantFlood => {
                let shapes = (0..QUIET_SPECS)
                    .map(|i| (format!("quiet-{i}"), QUIET_N, i))
                    .chain((0..FLOOD_SPECS).map(|i| (format!("flood-{i}"), FLOOD_N, i + 1)));
                let residents = residents(jittered(seed, shapes));
                let warmup = residents
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let tenant = if i < QUIET_SPECS {
                            QUIET_TENANTS[i % QUIET_TENANTS.len()]
                        } else {
                            "flood"
                        };
                        warmup(format!("warmup-{i}"), r.job.clone(), tenant)
                    })
                    .collect();
                (residents, warmup)
            }
        };
        let (open_s, closed_s) = match workload {
            Workload::WarmSteady => (seconds * WARM_OPEN_SHARE, seconds * (1.0 - WARM_OPEN_SHARE)),
            Workload::ColdDistinct | Workload::Requote => (0.0, seconds),
            Workload::TenantFlood => (seconds, seconds),
        };
        let mut script = Script {
            workload,
            seed,
            warmup,
            open: Vec::new(),
            closed_s,
            residents,
        };
        let rate = match workload {
            Workload::WarmSteady => WARM_RATE,
            Workload::TenantFlood => QUIET_RATE,
            Workload::ColdDistinct | Workload::Requote => 0.0,
        };
        let due = poisson(
            &mut Rng::new(seed, STREAM_SCHEDULE),
            (rate * open_s).round() as usize,
            open_s,
        );
        script.open = due
            .into_iter()
            .enumerate()
            .map(|(k, due_ns)| {
                let mut req = match workload {
                    Workload::WarmSteady => script.warm_request(k, Group::Open),
                    _ => script.quiet_request(k),
                };
                if (due_ns as f64) < RAMP_S.min(open_s / 5.0) * NS {
                    req.group = Group::Ramp;
                }
                Arrival { due_ns, req }
            })
            .collect();
        script
    }

    /// Request `k` of `stream`'s low-discrepancy draws and its own
    /// random stream (object-size jitter, signs, simulation seed).
    fn draws(&self, stream: u64, k: usize) -> ([f64; 3], Rng) {
        (
            Spread::new(self.seed, stream).at(k),
            Rng::new(derive_seed(self.seed, stream), k as u64),
        )
    }

    /// A `warm_steady` job: resident specs in rotation, an in-band
    /// objective, 1 replication or plan-only, tenants taking turns.
    fn warm_request(&self, k: usize, group: Group) -> Req {
        let (stream, prefix) = match group {
            Group::Open => (STREAM_OPEN, "ws"),
            _ => (STREAM_CLOSED, "cap"),
        };
        let ([u, v, w], mut rng) = self.draws(stream, k);
        let n = self.residents.len();
        let resident = &self.residents[k % n];
        let objective = resident.band.objective(u, v < BUDGET_SHARE, MARGIN);
        let replications = if w < PLAN_ONLY_SHARE { 0 } else { 1 };
        Req::new(
            JobRequest::new(format!("{prefix}-{k}"), resident.job.clone(), objective)
                .with_tenant(WARM_TENANTS[(k / n) % WARM_TENANTS.len()])
                .with_sim(sim(rng.u64(), replications)),
            group,
        )
    }

    /// A `cold_distinct` job: a new spec whose object count is spread
    /// evenly over [`COLD_N`], profiles in rotation, an unconstrained
    /// objective (feasible for every spec, so no reference build is
    /// needed per request; the DAG build dominates either way).
    fn cold_request(&self, k: usize) -> Req {
        let ([u, v, _], mut rng) = self.draws(STREAM_CLOSED, k);
        let (lo, hi) = COLD_N;
        let n = (lo + (u * (hi - lo + 1) as f64) as usize).min(hi);
        let job = spec(&mut rng, format!("cold-{k}"), n, k);
        let objective = if v < BUDGET_SHARE {
            Objective::fastest()
        } else {
            Objective::cheapest()
        };
        Req::new(
            JobRequest::new(format!("cd-{k}"), job, objective)
                .with_tenant(COLD_TENANTS[k % COLD_TENANTS.len()])
                .with_sim(sim(rng.u64(), 1)),
            Group::Cold,
        )
    }

    /// `requote`'s request `k`: cycle `k / 7` submits a resident base
    /// spec, then re-quotes it six times, each re-quote revising one
    /// field of the base — a map, reduce or coordinator coefficient by
    /// ±0.2–2%, or every object size by ×(1 ± ≤1%) — see
    /// [`REQUOTE_STEPS`].
    fn requote_request(&self, k: usize) -> Req {
        let chain = REQUOTE_REVISIONS + 1;
        let (cycle, position) = (k / chain, k % chain);
        let base = &self.residents[cycle % self.residents.len()];
        let ([u, v, _], _) = self.draws(STREAM_CYCLE, cycle);
        let objective = base.band.objective(u, v < BUDGET_SHARE, REQUOTE_MARGIN);
        let (_, mut rng) = self.draws(STREAM_CLOSED, k);
        let mut job = base.job.clone();
        if position > 0 {
            let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
            let step = sign * REQUOTE_STEPS[position - 1] * rng.range(0.9, 1.1);
            let p = &mut job.profile;
            match (cycle + position) % 4 {
                0 => p.map_secs_per_mb_128 *= 1.0 + step,
                1 => p.reduce_secs_per_mb_128 *= 1.0 + step,
                2 => p.coord_secs_per_mb_128 *= 1.0 + step,
                _ => {
                    for mb in &mut job.object_sizes_mb {
                        *mb *= 1.0 + step / 2.0;
                    }
                }
            }
        }
        Req {
            request: JobRequest::new(format!("rq-{cycle}-{position}"), job, objective)
                .with_tenant("requote")
                .with_sim(sim(rng.u64(), 1)),
            group: if position == 0 {
                Group::Base
            } else {
                Group::Requote
            },
            resubmit: position > 0,
        }
    }

    /// A quiet tenant's job: the resident N=202 specs in rotation, 1
    /// replication.
    fn quiet_request(&self, k: usize) -> Req {
        let ([u, v, _], mut rng) = self.draws(STREAM_OPEN, k);
        let resident = &self.residents[k % QUIET_SPECS];
        let objective = resident.band.objective(u, v < BUDGET_SHARE, MARGIN);
        Req::new(
            JobRequest::new(format!("q-{k}"), resident.job.clone(), objective)
                .with_tenant(QUIET_TENANTS[(k / QUIET_SPECS) % QUIET_TENANTS.len()])
                .with_sim(sim(rng.u64(), 1)),
            Group::Quiet,
        )
    }

    /// The flooding tenant's job: the resident N=50 specs in rotation,
    /// 8 replications.
    fn flood_request(&self, k: usize) -> Req {
        let ([u, v, _], mut rng) = self.draws(STREAM_CLOSED, k);
        let resident = &self.residents[QUIET_SPECS + k % FLOOD_SPECS];
        let objective = resident.band.objective(u, v < BUDGET_SHARE, MARGIN);
        Req::new(
            JobRequest::new(format!("f-{k}"), resident.job.clone(), objective)
                .with_tenant("flood")
                .with_sim(sim(rng.u64(), FLOOD_REPS)),
            Group::Flood,
        )
    }

    /// Closed-loop request `k`. Any index can be regenerated on its own.
    pub fn closed(&self, k: usize) -> Req {
        match self.workload {
            Workload::WarmSteady => self.warm_request(k, Group::Capacity),
            Workload::ColdDistinct => self.cold_request(k),
            Workload::Requote => self.requote_request(k),
            Workload::TenantFlood => self.flood_request(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The set-up, open-loop and first closed-loop request lines.
    fn lines(script: &Script) -> Vec<String> {
        script
            .warmup
            .iter()
            .chain(script.open.iter().map(|a| &a.req))
            .map(|r| r.line(Some(1)))
            .chain((0..20).map(|k| script.closed(k).line(Some(1))))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_lines() {
        for workload in Workload::ALL {
            let a = Script::new(workload, 7, 1.0);
            let b = Script::new(workload, 7, 1.0);
            let c = Script::new(workload, 8, 1.0);
            assert_eq!(lines(&a), lines(&b), "{}", workload.name());
            assert_ne!(lines(&a), lines(&c), "{}", workload.name());
            let due = |s: &Script| s.open.iter().map(|a| a.due_ns).collect::<Vec<_>>();
            assert_eq!(due(&a), due(&b));
        }
    }

    #[test]
    fn every_generated_objective_is_feasible() {
        let astra = planner();
        for workload in Workload::ALL {
            let script = Script::new(workload, 3, 1.0);
            let requests = script
                .open
                .iter()
                .map(|a| a.req.request.clone())
                .chain((0..14).map(|k| script.closed(k).request));
            let mut sessions = HashMap::new();
            for request in requests {
                request.validate().expect("generated requests validate");
                let session = sessions
                    .entry(format!("{:?}", request.job))
                    .or_insert_with(|| {
                        astra.session_with_space(
                            &request.job,
                            &ConfigSpace::full(&request.job, astra.platform()),
                        )
                    });
                session.plan(request.objective).unwrap_or_else(|e| {
                    panic!("{}: {} is infeasible: {e}", workload.name(), request.name)
                });
            }
        }
    }

    #[test]
    fn requotes_never_repeat_a_spec() {
        let script = Script::new(Workload::Requote, 3, 1.0);
        let mut seen = HashMap::new();
        for k in 0..(REQUOTE_REVISIONS + 1) * REQUOTE_BASES * 3 {
            let req = script.closed(k);
            if req.group == Group::Requote {
                let key = format!("{:?}", req.request.job);
                assert!(seen.insert(key, k).is_none(), "re-quote {k} repeats a spec");
            }
        }
    }

    #[test]
    fn cold_sizes_cover_the_range_evenly() {
        let script = Script::new(Workload::ColdDistinct, 9, 1.0);
        let n: Vec<usize> = (0..200)
            .map(|k| script.closed(k).request.job.object_sizes_mb.len())
            .collect();
        assert!(n.iter().all(|&n| (COLD_N.0..=COLD_N.1).contains(&n)));
        // Every fifth of the range gets a fifth of the requests, ±3.
        let width = (COLD_N.1 - COLD_N.0 + 1) as f64 / 5.0;
        for bin in 0..5 {
            let count = n
                .iter()
                .filter(|&&n| ((n - COLD_N.0) as f64 / width) as usize == bin)
                .count();
            assert!((37..=43).contains(&count), "bin {bin}: {count}");
        }
    }

    #[test]
    fn poisson_schedule_keeps_rate_and_exponential_gaps() {
        let mut rng = Rng::new(11, 0);
        let due = poisson(&mut rng, 10_000, 25.0);
        assert_eq!(due.len(), 10_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // Mean rate over the arrivals themselves (first to last).
        let span_s = (due[9_999] - due[0]) as f64 / NS;
        let rate = 9_999.0 / span_s;
        assert!((rate / 400.0 - 1.0).abs() < 0.02, "rate {rate}");
        // Exponential gaps: coefficient of variation ≈ 1.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
