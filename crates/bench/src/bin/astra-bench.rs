//! Fixed-size planner benchmark runner with a regression gate.
//!
//! Executes a pinned set of planner benchmarks at fixed sizes including
//! the paper-scale N=202 / L=46 case and emits a machine-readable
//! `BENCH_planner.json`:
//!
//! * `dag_build_serial/N{n}` — the unpruned Fig. 5 DAG build, kept so
//!   the row stays comparable across every committed baseline;
//! * `dag_build_pruned/N{n}` — the dominance-pruned build planning runs
//!   (and, on ragged `cold_distinct`-shaped jobs,
//!   `dag_build_pruned_jittered`: N=120 at every size setting, N=1000
//!   under `--sizes full`);
//! * `solve_csp_potentials/N{n}` — the potential-guided ExactCsp solve
//!   on the pruned DAG;
//! * `session_sweep_{cold,reused}/N{n}` — 16 budgets answered by cold
//!   build+solve runs vs one reused `PlannerSession`;
//! * `dag_build_collapsed/N1e5`, `solve_csp_collapsed/N1e5` — the
//!   production-scale collapsed space, run at every size setting;
//! * `exhaustive_parallel/N{n}` — the exhaustive search
//!   (`solve_exhaustive`) on a reduced tier set.
//!
//! ```text
//! astra-bench [--out FILE]          write results (default BENCH_planner.json)
//!             [--check BASELINE]    compare against a baseline instead; exit 1
//!                                   if any shared metric regressed > tolerance
//!             [--tolerance FRAC]    allowed relative slowdown (default 0.20)
//!             [--sizes tiny|full]   tiny = N=10 only (CI); full = 10/50/202
//!             [--samples N]         timed samples per bench (default 5)
//!             [--threads N]         pin the exhaustive sweep's thread count
//! ```
//!
//! Regression checks compare `min_ms` (the most noise-robust statistic a
//! small sample offers) for every bench name present in both files; a
//! baseline of another suite, or one sharing no row with the run, is
//! refused with exit 2.

use astra_bench::runner::{run_cli, time_ms, BenchArgs};
use astra_bench::{
    binding_budget, full_space, jittered_job, planner, production_job, synthetic_job,
};
use astra_core::solver::solve_exhaustive;
use astra_core::{ConfigSpace, Objective, PlannerDag, PlannerPotentials, PruneConfig, Strategy};
use serde_json::{json, Value};

/// Bounds answered by every session-sweep cycle (the acceptance target
/// compares one reused session against this many cold build+solve runs).
const SWEEP_BOUNDS: usize = 16;

fn run_suite(args: &BenchArgs) -> Vec<Value> {
    let astra = planner(Strategy::ExactCsp);
    let prune = PruneConfig::on();
    let mut results: Vec<Value> = Vec::new();

    let push =
        |results: &mut Vec<Value>, name: String, n: usize, tiers: usize, mean: f64, min: f64| {
            eprintln!("bench {name}: mean {mean:.2} ms, min {min:.2} ms");
            results.push(json!({
                "name": name,
                "n": n,
                "tiers": tiers,
                "mean_ms": mean,
                "min_ms": min,
            }));
        };

    for &n in &args.sizes {
        let job = synthetic_job(n);
        let space = full_space(&astra, &job);
        let tiers = space.memory_tiers_mb.len();

        // Historical entry: the full (unpruned) Fig. 5 DAG, exactly as
        // every committed baseline measured it.
        let (serial_mean, serial_min) = time_ms(args.samples, || {
            PlannerDag::build_with(
                &job,
                astra.platform(),
                astra.catalog(),
                &space,
                PruneConfig::off(),
            )
        });
        push(
            &mut results,
            format!("dag_build_serial/N{n}"),
            n,
            tiers,
            serial_mean,
            serial_min,
        );

        // The dominance-pruned build (what planning actually runs now):
        // pays the Pareto filters, produces a smaller DAG.
        let (pb_mean, pb_min) = time_ms(args.samples, || {
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune)
        });
        push(
            &mut results,
            format!("dag_build_pruned/N{n}"),
            n,
            tiers,
            pb_mean,
            pb_min,
        );

        let objective = binding_budget(&astra, &job);

        // The potential-guided search on the pruned DAG.
        let pruned_dag =
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune);
        let potentials = PlannerPotentials::compute(&pruned_dag);
        let tel = astra_telemetry::Telemetry::disabled();
        let (pot_mean, pot_min) = time_ms(args.samples, || {
            astra_core::solve_on_dag_with_potentials(
                &pruned_dag,
                &potentials,
                objective,
                Strategy::ExactCsp,
                &tel,
            )
        });
        push(
            &mut results,
            format!("solve_csp_potentials/N{n}"),
            n,
            tiers,
            pot_mean,
            pot_min,
        );

        // Constraint sweep: answer SWEEP_BOUNDS budgets, once with a
        // cold build+solve per budget (the pre-session workflow) and
        // once through a single reused PlannerSession. Cold cycles at
        // paper scale run multi-second, so they get fewer samples.
        let budgets: Vec<Objective> = {
            let cheapest = astra.plan(&job, Objective::cheapest()).unwrap();
            let fastest = astra.plan(&job, Objective::fastest()).unwrap();
            let lo = cheapest.predicted_cost().nanos();
            let hi = fastest.predicted_cost().nanos();
            (0..SWEEP_BOUNDS)
                .map(|i| Objective::MinimizeTime {
                    budget: astra_pricing::Money::from_nanos(
                        lo + (hi - lo) * i as i128 / (SWEEP_BOUNDS - 1) as i128,
                    ),
                })
                .collect()
        };
        let cold_samples = if n >= 100 {
            args.samples.min(2)
        } else {
            args.samples
        };
        let (cold_mean, cold_min) = time_ms(cold_samples, || {
            budgets
                .iter()
                .filter(|&&o| astra.plan(&job, o).is_ok())
                .count()
        });
        push(
            &mut results,
            format!("session_sweep_cold/N{n}"),
            n,
            tiers,
            cold_mean,
            cold_min,
        );
        let (warm_mean, warm_min) = time_ms(args.samples, || {
            let session = astra.session(&job);
            budgets.iter().filter(|&&o| session.plan(o).is_ok()).count()
        });
        push(
            &mut results,
            format!("session_sweep_reused/N{n}"),
            n,
            tiers,
            warm_mean,
            warm_min,
        );
    }

    // Production-N planning: the bundled (collapsed) configuration
    // space at N=100 000, on the aggregation-shaped production job
    // (`uniform_test`'s ratio-1.0 profile is infeasible at this N).
    // The full Fig. 5 space is quadratic in N and
    // hopeless at this scale; the collapsed space keeps one
    // representative k_M per parallelism class and a geometric k_R
    // ladder, so the whole build + potentials + guided-CSP cycle is
    // the thing the <1 s acceptance budget gates. Runs under every
    // `--sizes` setting — sub-second at production N is the point.
    {
        let n = 100_000;
        let job = production_job(n);
        let space = ConfigSpace::bundled(&job, astra.platform());
        let tiers = space.memory_tiers_mb.len();
        let samples = args.samples.min(3);
        let (cb_mean, cb_min) = time_ms(samples, || {
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune)
        });
        push(
            &mut results,
            "dag_build_collapsed/N1e5".to_string(),
            n,
            tiers,
            cb_mean,
            cb_min,
        );
        let dag = PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune);
        let objective = {
            let cheapest = astra
                .plan_with_space(&job, Objective::cheapest(), &space)
                .unwrap();
            let fastest = astra
                .plan_with_space(&job, Objective::fastest(), &space)
                .unwrap();
            let lo = cheapest.predicted_cost().nanos();
            let hi = fastest.predicted_cost().nanos();
            Objective::MinimizeTime {
                budget: astra_pricing::Money::from_nanos((lo + hi) / 2),
            }
        };
        let tel = astra_telemetry::Telemetry::disabled();
        // Potentials are timed inside the solve entry: a cold
        // constrained solve always pays for its own lower bounds.
        let (cs_mean, cs_min) = time_ms(samples, || {
            let potentials = PlannerPotentials::compute(&dag);
            astra_core::solve_on_dag_with_potentials(
                &dag,
                &potentials,
                objective,
                Strategy::ExactCsp,
                &tel,
            )
        });
        push(
            &mut results,
            "solve_csp_collapsed/N1e5".to_string(),
            n,
            tiers,
            cs_mean,
            cs_min,
        );
    }

    // The daemon's cold traffic: a new spec with ragged object sizes,
    // shaped like the repository benchmark's `cold_distinct` requests,
    // built over the full space. N=120 runs under every `--sizes`
    // setting so the CI check gates it; N=1000, the exact full-space
    // build at the scale the bundled space was made for, under `full`
    // only (the one setting with more than one size).
    let jittered_sizes: &[usize] = if args.sizes.len() > 1 {
        &[120, 1000]
    } else {
        &[120]
    };
    for &n in jittered_sizes {
        let job = jittered_job(n);
        let space = full_space(&astra, &job);
        let tiers = space.memory_tiers_mb.len();
        let (jb_mean, jb_min) = time_ms(args.samples, || {
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune)
        });
        push(
            &mut results,
            format!("dag_build_pruned_jittered/N{n}"),
            n,
            tiers,
            jb_mean,
            jb_min,
        );
    }

    // Exhaustive sweep on a reduced tier set (the full 46-tier cube is
    // validation-only and combinatorially far larger than planning).
    {
        let n = args.sizes[0];
        let job = synthetic_job(n);
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128, 512, 1024, 3008]);
        let tiers = space.memory_tiers_mb.len();
        let objective = binding_budget(&astra, &job);
        let (pe_mean, pe_min) = time_ms(args.samples, || {
            solve_exhaustive(&job, astra.platform(), astra.catalog(), &space, objective)
        });
        push(
            &mut results,
            format!("exhaustive_parallel/N{n}"),
            n,
            tiers,
            pe_mean,
            pe_min,
        );
    }

    results
}

fn main() {
    run_cli(
        "astra-bench",
        "astra-planner-bench",
        "BENCH_planner.json",
        &[10],
        &[10, 50, 202],
        run_suite,
    );
}
