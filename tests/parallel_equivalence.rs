//! Parallel/serial equivalence: the exhaustive sweep, which still fans
//! out over rayon, must be *bit-identical* to its single-threaded
//! reference, and a plan must not depend on the thread count. This is
//! what makes the parallelism a pure wall-clock optimization rather
//! than a semantics change. The DAG build runs on the calling thread,
//! so it has no parallel twin to compare against.

use astra::core::solver::{solve_exhaustive, solve_exhaustive_serial};
use astra::core::{Astra, ConfigSpace, Objective, Strategy};
use astra::model::{JobSpec, Platform};
use astra::pricing::PriceCatalog;
use astra::workloads::WorkloadSpec;

/// The three benchmark profiles the paper evaluates.
fn jobs() -> Vec<(&'static str, JobSpec)> {
    vec![
        ("wordcount-1gb", WorkloadSpec::wordcount_gb(1).into_job()),
        ("sort-100gb", WorkloadSpec::Sort100.into_job()),
        ("query", WorkloadSpec::QueryUservisits.into_job()),
    ]
}

/// All three platform models under test.
fn platforms() -> Vec<(&'static str, Platform)> {
    vec![
        ("paper-literal", Platform::paper_literal(10.0)),
        ("aws-lambda", Platform::aws_lambda()),
        (
            "aws-lambda+elasticache",
            Platform::aws_lambda().with_elasticache(),
        ),
    ]
}

/// A reduced (but multi-tier) space: first, middle, and last valid tier.
/// Keeps the exhaustive cross-product affordable while still exercising
/// every column of the DAG.
fn reduced_space(job: &JobSpec, platform: &Platform) -> ConfigSpace {
    let full = ConfigSpace::full(job, platform);
    let tiers = &full.memory_tiers_mb;
    let picks = [tiers[0], tiers[tiers.len() / 2], tiers[tiers.len() - 1]];
    ConfigSpace::with_tiers(job, platform, &picks)
}

/// Install a global thread-count override. The shim accepts repeated
/// calls (last wins); with upstream rayon only the first would stick,
/// which still leaves every assertion below valid.
fn pin_threads(n: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}

/// The same three profiles on small jobs, for the exhaustive sweep
/// (whose cost is the full configuration cross-product).
fn tiny_jobs() -> Vec<(&'static str, JobSpec)> {
    vec![
        (
            "tiny-wordcount",
            WorkloadSpec::wordcount_gb(1).tiny_job(9, 4096),
        ),
        ("tiny-sort", WorkloadSpec::Sort100.tiny_job(12, 8192)),
        (
            "tiny-query",
            WorkloadSpec::QueryUservisits.tiny_job(10, 2048),
        ),
    ]
}

#[test]
fn parallel_exhaustive_matches_serial_exactly() {
    let catalog = PriceCatalog::aws_2020();
    for (jname, job) in tiny_jobs() {
        for (pname, platform) in platforms() {
            let space = reduced_space(&job, &platform);
            let astra = Astra::new(platform.clone(), catalog, Strategy::ExactCsp);
            let objectives = [
                Objective::fastest(),
                Objective::cheapest(),
                astra
                    .plan_with_space(&job, Objective::cheapest(), &space)
                    .map(|p| Objective::min_cost_with_deadline_s(p.predicted_jct_s() * 1.5))
                    .unwrap_or_else(|_| Objective::fastest()),
            ];
            for objective in objectives {
                let serial = solve_exhaustive_serial(&job, &platform, &catalog, &space, objective);
                for threads in [1, 2, 8] {
                    pin_threads(threads);
                    let parallel = solve_exhaustive(&job, &platform, &catalog, &space, objective);
                    assert_eq!(
                        serial, parallel,
                        "{jname}/{pname}/{objective}/threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn planned_cost_and_jct_are_thread_count_invariant() {
    // Acceptance check: exact Money equality of predicted_cost() and exact
    // predicted_jct_s() bits at 1, 2, and 8 threads, every workload,
    // every platform, both solver directions.
    let catalog = PriceCatalog::aws_2020();
    for (jname, job) in jobs() {
        for (pname, platform) in platforms() {
            let space = reduced_space(&job, &platform);
            let astra = Astra::new(platform.clone(), catalog, Strategy::ExactCsp);
            let objectives = [Objective::fastest(), Objective::cheapest()];
            for objective in objectives {
                pin_threads(1);
                let reference = astra
                    .plan_with_space(&job, objective, &space)
                    .unwrap_or_else(|e| panic!("{jname}/{pname}/{objective}: {e}"));
                for threads in [2, 8] {
                    pin_threads(threads);
                    let plan = astra.plan_with_space(&job, objective, &space).unwrap();
                    let context = format!("{jname}/{pname}/{objective}/threads={threads}");
                    assert_eq!(plan.spec, reference.spec, "plan spec ({context})");
                    assert_eq!(
                        plan.predicted_cost(),
                        reference.predicted_cost(),
                        "cost ({context})"
                    );
                    assert_eq!(
                        plan.predicted_jct_s().to_bits(),
                        reference.predicted_jct_s().to_bits(),
                        "jct ({context})"
                    );
                }
            }
        }
    }
}
