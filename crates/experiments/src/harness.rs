//! Shared measurement machinery for all experiments.

use astra_core::{Astra, Objective, Plan, PlanSpec, PlannerSession, Strategy};
use astra_faas::{SimConfig, SimReport};
use astra_mapreduce::{simulate, simulate_batch, SimCase};
use astra_model::{JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};

/// Default runtime-noise coefficient of variation for "measured" runs.
pub const NOISE_CV: f64 = 0.10;
/// Seeds used for repeated measurements.
pub const SEEDS: [u64; 5] = [11, 23, 37, 53, 71];
/// The AWS per-function timeout the evaluation platform enforces.
pub const AWS_TIMEOUT_S: f64 = 900.0;

/// One measured (simulated) execution, averaged over [`SEEDS`].
#[derive(Debug, Clone)]
pub struct Measured {
    /// Mean job completion time across seeds (seconds).
    pub jct_s: f64,
    /// Mean total bill across seeds.
    pub cost: Money,
    /// Lambdas whose handler exceeded the AWS timeout in any seed run
    /// (runs execute on a relaxed-timeout platform so that naive
    /// baselines finish; violations are reported, as the paper's real
    /// deployment would have seen them killed).
    pub timeout_violations: Vec<String>,
    /// The last seed's full report (for traces).
    pub last_report: SimReport,
}

/// The evaluation platform: AWS Lambda with the `aws_like` network.
pub fn platform() -> Platform {
    Platform::aws_lambda()
}

/// A planner over the evaluation platform with the given strategy.
pub fn astra_with(strategy: Strategy) -> Astra {
    Astra::new(platform(), PriceCatalog::aws_2020(), strategy)
}

/// The default planner (exact constrained solver).
pub fn astra() -> Astra {
    astra_with(Strategy::ExactCsp)
}

/// A reusable planning session for `job` over the evaluation platform:
/// one DAG + potentials build, any number of budget/deadline queries.
/// Experiments that ask several questions about the same job should use
/// this instead of repeated [`Astra::plan`] calls.
pub fn session(job: &JobSpec) -> PlannerSession {
    astra().session(job)
}

/// Evaluate a plan spec against a *relaxed-timeout* platform (baselines
/// may violate the AWS limit; Astra's own plans never do because the
/// planner prunes them).
pub fn evaluate_relaxed(job: &JobSpec, spec: PlanSpec) -> Plan {
    let mut relaxed = platform();
    relaxed.timeout_s = f64::INFINITY;
    Plan::evaluate(job, &relaxed, &PriceCatalog::aws_2020(), spec)
        .expect("relaxed platform accepts any in-range configuration")
}

/// Simulate `plan` over all [`SEEDS`] with realistic noise and cold
/// starts, averaging JCT and cost.
pub fn measure(job: &JobSpec, plan: &Plan) -> Measured {
    measure_with(job, plan, NOISE_CV, &SEEDS)
}

/// [`measure`] with custom noise and seeds.
///
/// Seed replications fan out over all cores through
/// [`simulate_batch`], then fold back in seed order — the returned
/// [`Measured`] is bit-identical to [`measure_with_serial`] at any
/// `RAYON_NUM_THREADS` (each seed owns an isolated RNG, and the fold
/// order is fixed by the input order, not completion order).
pub fn measure_with(job: &JobSpec, plan: &Plan, noise_cv: f64, seeds: &[u64]) -> Measured {
    let reports = measure_many(&[(job, plan)], noise_cv, seeds).pop();
    fold_reports(job, reports.expect("one case in, one case out"))
}

/// Serial reference implementation of [`measure_with`]: the plain seed
/// loop the parallel path is tested against (see
/// `tests/sim_batch_determinism.rs`).
pub fn measure_with_serial(job: &JobSpec, plan: &Plan, noise_cv: f64, seeds: &[u64]) -> Measured {
    let mut relaxed = platform();
    relaxed.timeout_s = f64::INFINITY;
    let reports = seeds
        .iter()
        .map(|&seed| {
            let config = SimConfig::deterministic(relaxed.clone()).with_noise(noise_cv, seed);
            simulate(job, plan, config)
                .unwrap_or_else(|e| panic!("simulation of {} failed: {e}", job.name))
        })
        .collect();
    fold_reports(job, reports)
}

/// Measure many `(job, plan)` cases at once: the full `cases × seeds`
/// grid flattens into one [`simulate_batch`] fan-out (saturating the
/// machine even when each case has few seeds), then folds per case.
/// Results come back in `cases` order and are bit-identical to calling
/// [`measure_with`] on each case in turn.
pub fn measure_batch(cases: &[(&JobSpec, &Plan)], noise_cv: f64, seeds: &[u64]) -> Vec<Measured> {
    let mut grids = measure_many(cases, noise_cv, seeds);
    cases
        .iter()
        .zip(grids.drain(..))
        .map(|(&(job, _), reports)| fold_reports(job, reports))
        .collect()
}

/// Run the `cases × seeds` grid in parallel; returns per-case report
/// vectors in seed order.
fn measure_many(cases: &[(&JobSpec, &Plan)], noise_cv: f64, seeds: &[u64]) -> Vec<Vec<SimReport>> {
    let mut relaxed = platform();
    relaxed.timeout_s = f64::INFINITY;
    let grid: Vec<SimCase<'_>> = cases
        .iter()
        .flat_map(|&(job, plan)| {
            let relaxed = &relaxed;
            seeds.iter().map(move |&seed| SimCase {
                job,
                plan,
                config: SimConfig::deterministic(relaxed.clone()).with_noise(noise_cv, seed),
            })
        })
        .collect();
    let mut results = simulate_batch(grid).into_iter();
    cases
        .iter()
        .map(|&(job, _)| {
            seeds
                .iter()
                .map(|_| {
                    results
                        .next()
                        .expect("one result per grid cell")
                        .unwrap_or_else(|e| panic!("simulation of {} failed: {e}", job.name))
                })
                .collect()
        })
        .collect()
}

/// Fold one case's seed-ordered reports into a [`Measured`], exactly as
/// the historical serial loop did (same accumulation order, so float
/// sums match bit-for-bit).
fn fold_reports(job: &JobSpec, reports: Vec<SimReport>) -> Measured {
    assert!(!reports.is_empty(), "no seeds for {}", job.name);
    let n = reports.len();
    let mut jct_sum = 0.0;
    let mut cost_sum = Money::ZERO;
    let mut violations: Vec<String> = Vec::new();
    let mut last = None;
    for report in reports {
        jct_sum += report.jct_s();
        cost_sum += report.total_cost();
        for inv in &report.invoices {
            if inv.duration().as_secs_f64() > AWS_TIMEOUT_S
                && !violations.iter().any(|v| v.as_str() == &*inv.name)
            {
                violations.push(inv.name.to_string());
            }
        }
        last = Some(report);
    }
    Measured {
        jct_s: jct_sum / n as f64,
        cost: cost_sum.div_round(n as i128),
        timeout_violations: violations,
        last_report: last.expect("at least one seed"),
    }
}

/// Plan bounds for a job: the model's cheapest-possible cost and
/// fastest-possible JCT (with the cost of the fastest plan), used to set
/// meaningful budgets and deadlines.
#[derive(Debug, Clone, Copy)]
pub struct PlanBounds {
    /// Minimum achievable predicted cost.
    pub min_cost: Money,
    /// Predicted JCT of the cheapest plan.
    pub jct_of_cheapest: f64,
    /// Minimum achievable predicted JCT.
    pub min_jct_s: f64,
    /// Predicted cost of the fastest plan.
    pub cost_of_fastest: Money,
}

/// Compute [`PlanBounds`] by planning unconstrained in both directions.
pub fn bounds(job: &JobSpec) -> PlanBounds {
    bounds_on(&session(job))
}

/// [`bounds`] against an existing session (no extra DAG builds).
pub fn bounds_on(session: &PlannerSession) -> PlanBounds {
    let cheapest = session
        .plan(Objective::cheapest())
        .expect("every job has a cheapest plan");
    let fastest = session
        .plan(Objective::fastest())
        .expect("every job has a fastest plan");
    PlanBounds {
        min_cost: cheapest.predicted_cost(),
        jct_of_cheapest: cheapest.predicted_jct_s(),
        min_jct_s: fastest.predicted_jct_s(),
        cost_of_fastest: fastest.predicted_cost(),
    }
}

/// The budget used in the Fig. 7 experiments: `min + frac·(max − min)`
/// between the cheapest plan's cost and the fastest plan's cost — a
/// binding budget, as the paper's hand-picked ones are.
pub fn budget_between(b: &PlanBounds, frac: f64) -> Money {
    b.min_cost + (b.cost_of_fastest - b.min_cost).scale(frac)
}

/// The QoS threshold used in the Fig. 8 experiments: `frac ×` the fastest
/// achievable JCT.
pub fn deadline_times_fastest(b: &PlanBounds, frac: f64) -> f64 {
    b.min_jct_s * frac
}

/// Percentage improvement of `ours` over `theirs` (positive = we win).
pub fn improvement_pct(ours: f64, theirs: f64) -> f64 {
    if theirs == 0.0 {
        0.0
    } else {
        (theirs - ours) / theirs * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn tiny_job() -> JobSpec {
        JobSpec::uniform("h", 6, 1.0, WorkloadProfile::uniform_test())
    }

    #[test]
    fn bounds_are_consistent() {
        let b = bounds(&tiny_job());
        assert!(b.min_cost <= b.cost_of_fastest);
        assert!(b.min_jct_s <= b.jct_of_cheapest);
        let mid = budget_between(&b, 0.5);
        assert!(mid >= b.min_cost && mid <= b.cost_of_fastest);
    }

    #[test]
    fn measure_averages_over_seeds() {
        let job = tiny_job();
        let astra = astra();
        let plan = astra.plan(&job, Objective::cheapest()).unwrap();
        let m = measure_with(&job, &plan, 0.0, &[1, 2]);
        assert!(m.jct_s > 0.0);
        assert!(m.cost > Money::ZERO);
        assert!(m.timeout_violations.is_empty());
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(50.0, 100.0), 50.0);
        assert_eq!(improvement_pct(100.0, 50.0), -100.0);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }
}
