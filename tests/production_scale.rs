//! Production-N planning and simulation guarantees.
//!
//! Two families:
//!
//! * **Collapsed-DAG equivalence at scale.** The bundled configuration
//!   space (itself an approximation of the full space) plus the
//!   accelerated solver path (dominance-pruned SoA DAG + backward
//!   potentials) must answer bit-identically to the unpruned plain CSP
//!   over the same bundled space — checked on a restricted tier slice
//!   at `N = 10^4` on every push, and on the full 46-tier space at
//!   `N = 10^5` behind `--ignored` (CI runs it in release as the
//!   production-scale smoke, with a wall-clock budget).
//!
//! * **Arena reuse leaks no state.** Simulation results must be
//!   bit-identical whether an engine is built on a brand-new thread
//!   (fresh arena) or reuses a prior case's recycled scratch — in any
//!   case order, at any `RAYON_NUM_THREADS`.

use astra::core::solver::{solve_on_dag, solve_on_dag_with_potentials};
use astra::core::{
    ConfigSpace, Objective, PlannerDag, PlannerPotentials, PruneConfig, Strategy as SolverStrategy,
};
use astra::faas::{SimConfig, SimReport};
use astra::mapreduce::{simulate, simulate_batch, SimCase};
use astra::model::{JobConfig, JobSpec, Platform, WorkloadProfile};
use astra::pricing::{Money, PriceCatalog};
use astra_experiments::harness;
use proptest::prelude::*;

/// The production-N fixture: `n` small objects with an
/// aggregation-shaped profile. Mirrors `astra_bench::production_job` —
/// `uniform_test`'s ratio-1.0 profile funnels the whole input through
/// the final reducer and is genuinely infeasible at `N = 10^5`, so
/// production-scale planning is exercised on a shape where mid-range
/// configurations survive.
fn production_job(n: usize) -> JobSpec {
    let profile = WorkloadProfile {
        name: "aggregation".to_string(),
        map_secs_per_mb_128: 0.05,
        reduce_secs_per_mb_128: 0.05,
        coord_secs_per_mb_128: 0.001,
        shuffle_ratio: 0.2,
        reduce_ratio: 0.05,
        state_object_mb: 1.0,
        single_pass_reduce: false,
    };
    JobSpec::uniform("prod-scale", n, 1.0, profile)
}

/// Accelerated (pruned SoA + potentials) vs plain unpruned CSP over one
/// bundled space, across a budget/deadline grid anchored at the
/// unconstrained optima.
fn assert_collapsed_equivalence(job: &JobSpec, platform: &Platform, space: &ConfigSpace) {
    let catalog = PriceCatalog::aws_2020();
    let full = PlannerDag::build_with(job, platform, &catalog, space, PruneConfig::off());
    let pruned = PlannerDag::build_with(job, platform, &catalog, space, PruneConfig::on());
    let potentials = PlannerPotentials::compute(&pruned);
    let tel = astra::telemetry::Telemetry::disabled();

    let cheapest = solve_on_dag(&full, Objective::cheapest(), SolverStrategy::ExactCsp)
        .expect("production job must be feasible");
    let fastest = solve_on_dag(&full, Objective::fastest(), SolverStrategy::ExactCsp).unwrap();
    let ev = |c: &JobConfig| {
        let e = astra::model::evaluate(job, platform, c, &catalog).unwrap();
        (e.jct_s(), e.total_cost())
    };
    let (t_cheap, c_cheap) = ev(&cheapest);
    let (t_fast, c_fast) = ev(&fastest);

    let mut objectives = vec![Objective::cheapest(), Objective::fastest()];
    for frac in [0.0, 0.25, 0.5, 1.0] {
        let budget = c_cheap.nanos() as f64 + (c_fast.nanos() - c_cheap.nanos()) as f64 * frac;
        objectives.push(Objective::MinimizeTime {
            budget: Money::from_nanos(budget as i128),
        });
        objectives.push(Objective::MinimizeCost {
            deadline_s: t_fast + (t_cheap - t_fast) * frac,
        });
    }
    for objective in objectives {
        let fast = solve_on_dag_with_potentials(
            &pruned,
            &potentials,
            objective,
            SolverStrategy::ExactCsp,
            &tel,
        );
        let plain = solve_on_dag(&full, objective, SolverStrategy::ExactCsp);
        assert_eq!(fast, plain, "collapsed build diverged at {objective}");
    }
}

/// The every-push slice: `N = 10^4` on a 6-tier cut of the platform.
/// Pruning must actually fire, and the accelerated path must agree with
/// the unpruned reference across the bound grid.
#[test]
fn n1e4_collapsed_slice_matches_unpruned() {
    let job = production_job(10_000);
    let platform = Platform::aws_lambda();
    let mut space = ConfigSpace::bundled(&job, &platform);
    space.memory_tiers_mb = vec![128, 512, 1024, 1792, 3008, 10240];
    let catalog = PriceCatalog::aws_2020();
    let pruned = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::on());
    assert!(
        pruned.prune_stats().total() > 0,
        "dominance pruning must fire at production N"
    );
    assert!(
        pruned.soa().bundles_collapsed() > 0,
        "the bundled space must actually collapse k_M classes at N=10^4"
    );
    assert_collapsed_equivalence(&job, &platform, &space);
}

/// The production-scale smoke (CI runs this in release with
/// `--ignored`): the full 46-tier bundled build at `N = 10^5` plans
/// under a wall-clock budget and agrees with the unpruned reference on
/// the unconstrained optima plus one bound of each kind. The budget is
/// far looser than the <1 s laptop target in `BENCH_planner.json` —
/// shared runners are slow and noisy — but still catches a return to
/// the quadratic regime, which is minutes, not seconds.
#[test]
#[ignore = "production-scale: run explicitly (CI smoke runs it in release)"]
fn n1e5_collapsed_planning_within_budget() {
    let job = production_job(100_000);
    let platform = Platform::aws_lambda();
    let space = ConfigSpace::bundled(&job, &platform);
    let catalog = PriceCatalog::aws_2020();

    let start = std::time::Instant::now();
    let pruned = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::on());
    let potentials = PlannerPotentials::compute(&pruned);
    let tel = astra::telemetry::Telemetry::disabled();
    let cheapest = solve_on_dag_with_potentials(
        &pruned,
        &potentials,
        Objective::cheapest(),
        SolverStrategy::ExactCsp,
        &tel,
    )
    .expect("N=1e5 production job must be feasible");
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 15.0,
        "N=1e5 build+potentials+solve took {elapsed:?} (budget 15 s)"
    );

    // Equivalence against the unpruned build on the same space.
    let full = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::off());
    for objective in [Objective::cheapest(), Objective::fastest()] {
        let fast = solve_on_dag_with_potentials(
            &pruned,
            &potentials,
            objective,
            SolverStrategy::ExactCsp,
            &tel,
        );
        let plain = solve_on_dag(&full, objective, SolverStrategy::ExactCsp);
        assert_eq!(fast, plain, "diverged at {objective}");
    }
    let e = astra::model::evaluate(&job, &platform, &cheapest, &catalog).unwrap();
    assert!(e.jct_s().is_finite() && e.total_cost() > Money::ZERO);
}

// ---------------------------------------------------------------------
// Arena reuse.
// ---------------------------------------------------------------------

fn assert_reports_identical(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.makespan, b.makespan, "makespan ({context})");
    assert_eq!(a.total_cost(), b.total_cost(), "cost ({context})");
    assert_eq!(a.invoices, b.invoices, "invoices ({context})");
    assert_eq!(a.events, b.events, "event count ({context})");
    assert_eq!(a.ledger.gets, b.ledger.gets, "gets ({context})");
    assert_eq!(a.ledger.puts, b.ledger.puts, "puts ({context})");
}

/// Deterministic Fisher–Yates over an LCG so shuffles replay under
/// proptest shrinking.
fn shuffle_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arena reuse leaks no state: randomized noisy cases, simulated
    /// through the arena-reusing batch and serial paths in a shuffled
    /// order, match a reference where every engine is built on a fresh
    /// thread (guaranteed-empty arena) — bit-for-bit, at 1, 2 and 8
    /// rayon threads.
    #[test]
    fn arena_reuse_is_invisible(
        cases in proptest::collection::vec((0.0f64..0.3, 0u64..u64::MAX), 3..7),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let job = astra::workloads::WorkloadSpec::wordcount_gb(1).into_job();
        let plan = harness::astra().plan(&job, Objective::fastest()).unwrap();
        let configs: Vec<SimConfig> = cases
            .iter()
            .map(|&(cv, seed)| {
                SimConfig::deterministic(Platform::aws_lambda()).with_noise(cv, seed)
            })
            .collect();

        // Reference: each case on its own brand-new thread, so every
        // engine starts from `SimArena::fresh` by construction.
        let fresh: Vec<SimReport> = std::thread::scope(|scope| {
            configs
                .iter()
                .map(|c| {
                    scope
                        .spawn(|| simulate(&job, &plan, c.clone()).unwrap())
                        .join()
                        .unwrap()
                })
                .collect()
        });

        let order = shuffle_order(configs.len(), shuffle_seed);

        // Serial loop on this thread: consecutive cases hand their
        // recycled arena to the next one.
        for &i in &order {
            let report = simulate(&job, &plan, configs[i].clone()).unwrap();
            assert_reports_identical(&report, &fresh[i], &format!("serial reuse, case {i}"));
        }

        // Batch path at several thread counts, still shuffled.
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let batch: Vec<SimCase<'_>> = order
                .iter()
                .map(|&i| SimCase {
                    job: &job,
                    plan: &plan,
                    config: configs[i].clone(),
                })
                .collect();
            let reports = simulate_batch(batch);
            for (slot, &i) in order.iter().enumerate() {
                assert_reports_identical(
                    reports[slot].as_ref().unwrap(),
                    &fresh[i],
                    &format!("batch case {i} @{threads} threads"),
                );
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
