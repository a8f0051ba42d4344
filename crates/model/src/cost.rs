//! Monetary-cost model — paper Sec. III-B (Eq. 10–15).
//!
//! Costs are computed as exact [`Money`] amounts from the same phase
//! breakdowns the performance model produces. The functions are grouped
//! the way the planner's Fig. 5 DAG assigns them to edges, so that the sum
//! of edge costs along any path equals [`full_cost`] of the corresponding
//! configuration *exactly* — the property the planner's optimality proof
//! rests on (and which `astra-core`'s tests assert).

use astra_pricing::{LambdaPricing, Money, PriceCatalog};
use serde::{Deserialize, Serialize};

use crate::config::JobConfig;
use crate::job::JobSpec;
use crate::perf::{MapperPhase, PerfBreakdown, ReduceStructure, ReduceTierTimes};
use crate::platform::Platform;
use crate::schedule;

/// Price of one ephemeral-store read.
pub fn inter_get_price(platform: &Platform, catalog: &PriceCatalog) -> Money {
    match &platform.intermediate {
        None => catalog.s3.per_get,
        Some(c) => c.per_get,
    }
}

/// Price of one ephemeral-store write.
pub fn inter_put_price(platform: &Platform, catalog: &PriceCatalog) -> Money {
    match &platform.intermediate {
        None => catalog.s3.per_put,
        Some(c) => c.per_put,
    }
}

/// Charge for holding `size_mb` of ephemeral data for `secs` seconds.
pub fn inter_storage_cost(
    platform: &Platform,
    catalog: &PriceCatalog,
    size_mb: f64,
    secs: f64,
) -> Money {
    match &platform.intermediate {
        None => catalog
            .s3
            .storage_cost(size_mb, (secs * 1e6).round() as u64),
        Some(c) => c.storage_cost(size_mb, secs),
    }
}

/// Rental charge for the intermediate store over `secs` modelled seconds
/// (zero for pay-per-use stores). Billed per phase so that the DAG's
/// per-edge decomposition stays exact.
pub fn rental_cost(platform: &Platform, secs: f64) -> Money {
    match &platform.intermediate {
        None => Money::ZERO,
        Some(c) => c.rental_cost(secs),
    }
}

/// Lambda runtime charge (no invocation fee) for one execution of
/// `secs` seconds at `mem_mb`, with billing-granularity rounding.
pub fn runtime_cost(secs: f64, mem_mb: u32, lambda: &LambdaPricing) -> Money {
    lambda.runtime_cost(mem_mb, (secs * 1e6).round() as u64)
}

/// Total runtime charge for a fleet of executions, pricing each run of
/// bit-identical durations once and multiplying by its length. Equals
/// the per-execution sum exactly — [`Money`] amounts are integers, so
/// `x + x + … + x == x * m` — while evaluating the billing model
/// `O(runs)` times instead of `O(executions)`: under an even split all
/// workers but the remainder-holding last share one duration.
fn runtime_sum(secs: &[f64], mem_mb: u32, lambda: &LambdaPricing) -> Money {
    let mut total = Money::ZERO;
    let mut i = 0;
    while i < secs.len() {
        let t = secs[i];
        let mut run = 1usize;
        while i + run < secs.len() && secs[i + run].to_bits() == t.to_bits() {
            run += 1;
        }
        total += runtime_cost(t, mem_mb, lambda) * run as u64;
        i += run;
    }
    total
}

/// Everything the mapping phase costs (`U1 + V1 + W1`, Eq. 10/11/13):
/// `N` GETs + `j` PUTs, input storage during `T1`, per-mapper billed
/// runtime, and `j` invocation fees.
///
/// `job_total_mb` must be `job.total_mb()` — passed in so the planner's
/// DAG builder can amortize the `O(N)` size scan across its hundreds of
/// thousands of edge evaluations instead of repeating it per call.
pub fn mapper_edge_cost(
    job: &JobSpec,
    phase: &MapperPhase,
    mem_mb: u32,
    platform: &Platform,
    catalog: &PriceCatalog,
    job_total_mb: f64,
) -> Money {
    let j = phase.per_mapper_secs.len() as u64;
    // Inputs are read from S3; the shuffle objects are ephemeral writes.
    let requests =
        catalog.s3.get_cost(job.num_objects() as u64) + inter_put_price(platform, catalog) * j;
    let storage = catalog
        .s3
        .storage_cost(job_total_mb, (phase.duration_s * 1e6).round() as u64);
    let runtime = runtime_sum(&phase.per_mapper_secs, mem_mb, &catalog.lambda);
    let invocations = catalog.lambda.per_invocation * j;
    requests + storage + runtime + invocations + rental_cost(platform, phase.duration_s)
}

/// Request + invocation costs of the coordinator and all reducers
/// (`U2 + UP + I2 + I3`, Eq. 10/12): independent of every memory choice,
/// they live on the planner DAG's second edge set.
///
/// Per the reference framework (and deviation note #4 in the crate docs),
/// each reducer GETs the step's state object in addition to its `k_R`
/// input objects.
pub fn orchestration_requests_cost(
    structure: &ReduceStructure,
    platform: &Platform,
    catalog: &PriceCatalog,
) -> Money {
    let p = structure.num_steps() as u64;
    let g = structure.total_reducers() as u64;
    let input_gets: u64 = structure
        .steps
        .iter()
        .map(|s| s.input_objects() as u64)
        .sum();
    // Everything the reducing phase touches is ephemeral data.
    let coord_puts = inter_put_price(platform, catalog) * p; // one state object per step
    let reducer_gets = inter_get_price(platform, catalog) * (input_gets + g); // inputs + state
    let reducer_puts = inter_put_price(platform, catalog) * g; // one output each
    let invocations = catalog.lambda.per_invocation * (g + 1); // reducers + coordinator
    coord_puts + reducer_gets + reducer_puts + invocations
}

/// Storage cost during the coordinator window (`V2`, Eq. 11): input `D`,
/// state objects `S`, and the reducing phase's pending input volume `Q`,
/// held for `T2` seconds.
///
/// `job_total_mb` must be `job.total_mb()` and `pending_input_mb` must
/// be `schedule::total_input_mb(&structure.steps)` — both hoisted to the
/// caller because this runs once per coordinator tier and the inputs
/// depend only on the job and the `(k_M, k_R)` structure.
pub fn coordinator_storage_cost(
    job: &JobSpec,
    structure: &ReduceStructure,
    t2_s: f64,
    platform: &Platform,
    catalog: &PriceCatalog,
    job_total_mb: f64,
    pending_input_mb: f64,
) -> Money {
    let state_mb = job.profile.state_object_mb * structure.num_steps() as f64;
    // Input objects stay in S3; the pending shuffle volume and state
    // objects are ephemeral.
    catalog
        .s3
        .storage_cost(job_total_mb, (t2_s * 1e6).round() as u64)
        + inter_storage_cost(platform, catalog, state_mb + pending_input_mb, t2_s)
        + rental_cost(platform, t2_s)
}

/// The storage part of [`reduce_edge_cost`] (`VP`): the input `D`
/// (`job_total_mb`) and the ephemeral volume `ephemeral_mb` (state
/// objects plus the reduce outputs `R`) held for the reduce span `tp_s`,
/// plus the intermediate store's rent. Nondecreasing in `tp_s`: every
/// term is a product of nonnegative factors, rounded to the nearest
/// microsecond or nanodollar, and rounding is monotone.
pub fn reduce_storage_cost(
    platform: &Platform,
    catalog: &PriceCatalog,
    job_total_mb: f64,
    ephemeral_mb: f64,
    tp_s: f64,
) -> Money {
    catalog
        .s3
        .storage_cost(job_total_mb, (tp_s * 1e6).round() as u64)
        + inter_storage_cost(platform, catalog, ephemeral_mb, tp_s)
        + rental_cost(platform, tp_s)
}

/// [`reduce_storage_cost`] as a rate in nanodollars per second: for
/// every span `tp_s >= 0`, `reduce_storage_cost(.., tp_s)` is at least
/// `rate × tp_s × (1 − 16ε) − rate × 1 µs − 2` nanodollars. Each of its
/// (at most three) terms is its rate times the span except that the S3
/// terms round the span to the nearest microsecond (losing under half a
/// microsecond and an ulp), the float arithmetic errs by a few ulps, and
/// each term rounds to the nearest nanodollar (losing at most a half).
pub fn reduce_storage_rate(
    platform: &Platform,
    catalog: &PriceCatalog,
    job_total_mb: f64,
    ephemeral_mb: f64,
) -> f64 {
    let ephemeral = match &platform.intermediate {
        None => catalog.s3.storage_nanos_per_s(ephemeral_mb),
        Some(c) => c.storage_nanos_per_s(ephemeral_mb) + c.rental_nanos_per_s(),
    };
    catalog.s3.storage_nanos_per_s(job_total_mb) + ephemeral
}

/// Everything the reducing phase costs at reducer tier `reducer_mem_mb`,
/// plus the coordinator's full billed runtime at `coord_mem_mb`
/// (`VP + WP + W2`, Eq. 11/14/15). The coordinator's bill lands here, on
/// the planner DAG's final edge set, because its waiting time depends on
/// the reducer tier chosen (see `astra-core::dag`).
///
/// `job_total_mb` must be `job.total_mb()` (see [`mapper_edge_cost`]).
#[allow(clippy::too_many_arguments)] // mirrors the DAG edge's full context
pub fn reduce_edge_cost(
    job: &JobSpec,
    structure: &ReduceStructure,
    times: &ReduceTierTimes,
    reducer_mem_mb: u32,
    coord_mem_mb: u32,
    coordinator_billed_s: f64,
    platform: &Platform,
    catalog: &PriceCatalog,
    job_total_mb: f64,
) -> Money {
    let state_mb = job.profile.state_object_mb * structure.num_steps() as f64;
    let r = schedule::total_output_mb(&structure.steps);
    let storage = reduce_storage_cost(
        platform,
        catalog,
        job_total_mb,
        state_mb + r,
        times.duration_s(),
    );
    let mut reducer_runtime = Money::ZERO;
    for step in &times.per_reducer_s {
        reducer_runtime += runtime_sum(step, reducer_mem_mb, &catalog.lambda);
    }
    let coord_runtime = runtime_cost(coordinator_billed_s, coord_mem_mb, &catalog.lambda);
    storage + reducer_runtime + coord_runtime
}

/// Cost of one configuration, decomposed along the paper's four axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// S3 GET/PUT request charges (`U1 + U2 + UP`).
    pub requests: Money,
    /// S3 storage charges (`V1 + V2 + VP`).
    pub storage: Money,
    /// Lambda invocation fees (`I1 + I2 + I3`).
    pub invocations: Money,
    /// Lambda runtime charges (the `v · T` parts of `W`).
    pub runtime: Money,
}

impl CostBreakdown {
    /// Total bill (the Eq. 20 objective).
    pub fn total(&self) -> Money {
        self.requests + self.storage + self.invocations + self.runtime
    }
}

/// Legacy alias used by the experiment harness.
pub type CostParams = PriceCatalog;

/// Evaluate the full cost model for one configuration whose performance
/// breakdown has already been computed.
pub fn full_cost(
    job: &JobSpec,
    config: &JobConfig,
    perf: &PerfBreakdown,
    platform: &Platform,
    catalog: &PriceCatalog,
) -> CostBreakdown {
    let structure = &perf.reduce.structure;
    let j = perf.mapper.per_mapper_secs.len() as u64;
    let g = structure.total_reducers() as u64;
    let p = structure.num_steps() as u64;
    let input_gets: u64 = structure
        .steps
        .iter()
        .map(|s| s.input_objects() as u64)
        .sum();

    let requests = catalog.s3.get_cost(job.num_objects() as u64)
        + inter_put_price(platform, catalog) * j
        + inter_put_price(platform, catalog) * p
        + inter_get_price(platform, catalog) * (input_gets + g)
        + inter_put_price(platform, catalog) * g;

    let state_mb = job.profile.state_object_mb * p as f64;
    let q = schedule::total_input_mb(&structure.steps);
    let r = schedule::total_output_mb(&structure.steps);
    let t1 = perf.mapper.duration_s;
    let t2 = perf.coordinator_s();
    let tp = perf.reduce.duration_s();
    let total_mb = job.total_mb();
    let storage = catalog.s3.storage_cost(total_mb, (t1 * 1e6).round() as u64)
        + catalog.s3.storage_cost(total_mb, (t2 * 1e6).round() as u64)
        + inter_storage_cost(platform, catalog, state_mb + q, t2)
        + catalog.s3.storage_cost(total_mb, (tp * 1e6).round() as u64)
        + inter_storage_cost(platform, catalog, state_mb + r, tp)
        + rental_cost(platform, t1)
        + rental_cost(platform, t2)
        + rental_cost(platform, tp);

    let invocations = catalog.lambda.per_invocation * (j + 1 + g);

    let mut runtime: Money = perf
        .mapper
        .per_mapper_secs
        .iter()
        .map(|&t| runtime_cost(t, config.mapper_mem_mb, &catalog.lambda))
        .sum();
    runtime += runtime_cost(
        perf.coordinator_billed_s(),
        config.coordinator_mem_mb,
        &catalog.lambda,
    );
    for step in 0..structure.num_steps() {
        for r_idx in 0..structure.steps[step].reducers() {
            runtime += runtime_cost(
                perf.reduce.reducer_time_s(step, r_idx),
                config.reducer_mem_mb,
                &catalog.lambda,
            );
        }
    }

    CostBreakdown {
        requests,
        storage,
        invocations,
        runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::full_perf;
    use crate::platform::Platform;
    use crate::workload::WorkloadProfile;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The documented linear lower bound on the reduce phase's
        /// storage and rent holds on every platform and price sheet.
        #[test]
        fn reduce_storage_rate_bounds_the_storage_cost(
            job_total_mb in 0.0f64..2e6,
            ephemeral_mb in 0.0f64..2e6,
            tp_s in 0.0f64..1e4,
            rented in 0usize..2,
            sheet in 0usize..3,
        ) {
            let platform = if rented == 1 {
                Platform::aws_lambda().with_elasticache()
            } else {
                Platform::aws_lambda()
            };
            let catalog = [
                PriceCatalog::aws_2020(),
                PriceCatalog::gcp_2020(),
                PriceCatalog::azure_2020(),
            ][sheet];
            let rate = reduce_storage_rate(&platform, &catalog, job_total_mb, ephemeral_mb);
            let cost = reduce_storage_cost(&platform, &catalog, job_total_mb, ephemeral_mb, tp_s);
            let bound = rate * tp_s * (1.0 - 16.0 * f64::EPSILON) - rate * 1e-6 - 2.0;
            prop_assert!(cost.nanos() as f64 >= bound, "{cost} < {bound}");
        }
    }

    fn setup(n: usize, k_m: usize, k_r: usize, mem: u32) -> (JobSpec, JobConfig, PerfBreakdown) {
        let job = JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test());
        let config = JobConfig {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: k_m,
            objects_per_reducer: k_r,
        };
        let perf = full_perf(&job, &Platform::paper_literal(10.0), &config);
        (job, config, perf)
    }

    #[test]
    fn edge_decomposition_equals_full_cost() {
        let catalog = PriceCatalog::aws_2020();
        for (n, k_m, k_r, mem) in [
            (10, 2, 2, 128),
            (10, 3, 4, 1024),
            (7, 1, 3, 512),
            (1, 1, 2, 128),
        ] {
            let (job, config, perf) = setup(n, k_m, k_r, mem);
            let platform = Platform::paper_literal(10.0);
            let total_mb = job.total_mb();
            let e1 = mapper_edge_cost(
                &job,
                &perf.mapper,
                config.mapper_mem_mb,
                &platform,
                &catalog,
                total_mb,
            );
            let e2 = orchestration_requests_cost(&perf.reduce.structure, &platform, &catalog);
            let e3 = coordinator_storage_cost(
                &job,
                &perf.reduce.structure,
                perf.coordinator_s(),
                &platform,
                &catalog,
                total_mb,
                schedule::total_input_mb(&perf.reduce.structure.steps),
            );
            let e4 = reduce_edge_cost(
                &job,
                &perf.reduce.structure,
                &perf.reduce.times,
                config.reducer_mem_mb,
                config.coordinator_mem_mb,
                perf.coordinator_billed_s(),
                &platform,
                &catalog,
                total_mb,
            );
            let total = full_cost(&job, &config, &perf, &platform, &catalog).total();
            assert_eq!(
                e1 + e2 + e3 + e4,
                total,
                "decomposition mismatch for n={n} k_m={k_m} k_r={k_r} mem={mem}"
            );
        }
    }

    #[test]
    fn request_counts_match_eq_10() {
        // 10 objects, k_M = 2 (j = 5 mappers), k_R = 2 -> steps (3,2,1), g = 6.
        let catalog = PriceCatalog::aws_2020();
        let (job, config, perf) = setup(10, 2, 2, 128);
        let b = full_cost(
            &job,
            &config,
            &perf,
            &Platform::paper_literal(10.0),
            &catalog,
        );
        // GETs: 10 (mapper inputs) + inputs per step (5+3+2=10) + state (6) = 26.
        // PUTs: 5 (mappers) + 3 (state) + 6 (reducers) = 14.
        let expected = catalog.s3.get_cost(26) + catalog.s3.put_cost(14);
        assert_eq!(b.requests, expected);
    }

    #[test]
    fn invocation_count_covers_all_lambdas() {
        let catalog = PriceCatalog::aws_2020();
        let (job, config, perf) = setup(10, 2, 2, 128);
        let b = full_cost(
            &job,
            &config,
            &perf,
            &Platform::paper_literal(10.0),
            &catalog,
        );
        // 5 mappers + 1 coordinator + 6 reducers = 12 invocations.
        assert_eq!(b.invocations, catalog.lambda.per_invocation * 12u64);
    }

    #[test]
    fn higher_memory_costs_more_at_saturated_speed() {
        // Past the CPU ceiling, duration stops shrinking but the GB-s rate
        // keeps growing, so cost must rise — the Fig. 2 right-hand tail.
        let catalog = PriceCatalog::aws_2020();
        let job = JobSpec::uniform("t", 10, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::aws_lambda(); // ceiling at 1792
        let mk = |mem: u32| {
            let config = JobConfig {
                mapper_mem_mb: mem,
                coordinator_mem_mb: mem,
                reducer_mem_mb: mem,
                objects_per_mapper: 2,
                objects_per_reducer: 2,
            };
            let perf = full_perf(&job, &platform, &config);
            full_cost(&job, &config, &perf, &platform, &catalog).total()
        };
        assert!(mk(3008) > mk(1792));
    }

    #[test]
    fn runtime_dominates_for_compute_heavy_job() {
        let catalog = PriceCatalog::aws_2020();
        let (job, config, perf) = setup(10, 2, 2, 128);
        let b = full_cost(
            &job,
            &config,
            &perf,
            &Platform::paper_literal(10.0),
            &catalog,
        );
        assert!(b.runtime > b.requests);
        assert!(b.runtime > b.storage);
        assert!(b.total() > Money::ZERO);
    }

    #[test]
    fn billing_granularity_rounds_up() {
        let lambda = LambdaPricing::aws_2020();
        // 50 ms of work bills as 100 ms.
        let short = runtime_cost(0.05, 1024, &lambda);
        let full = runtime_cost(0.1, 1024, &lambda);
        assert_eq!(short, full);
    }
}
