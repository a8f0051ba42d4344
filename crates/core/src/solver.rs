//! Solver strategies over the planner DAG.
//!
//! Every DAG strategy runs on the DAG's edge store through its
//! `time_view` (minimize time under a budget) or `cost_view` (minimize
//! cost under a deadline), plain or guided by [`PlannerPotentials`].

use astra_graph::{
    constrained_shortest_path, constrained_shortest_path_with_bounds, dag_potentials, EdgeExpand,
    EdgeId,
};
use astra_model::{evaluate, JobConfig, JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};
use astra_telemetry::Telemetry;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::alg1::algorithm1;
use crate::cache::ModelCache;
use crate::dag::PlannerDag;
use crate::objective::Objective;
use crate::space::ConfigSpace;

/// How to solve the constrained optimization on the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// The paper's Algorithm 1 (Dijkstra + offending-edge removal).
    Algorithm1,
    /// Exact Pareto-label constrained shortest path (default).
    #[default]
    ExactCsp,
    /// Brute force over the whole configuration space through the
    /// analytical model. Exponentially large with full tier lists — meant
    /// for validation on reduced spaces.
    Exhaustive,
}

/// Cap on Algorithm 1 edge removals (each removal costs one Dijkstra run;
/// see `alg1::algorithm1`).
pub const MAX_ALG1_REMOVALS: usize = 500;

/// Tiny relative slack added to constraint bounds to make `<=`
/// comparisons robust to the floating-point noise of summing edge metrics
/// in a different order than the model does. Kept at 1e-9 so that an
/// accepted path can overshoot a $1 budget by at most a few nano-dollars.
const BOUND_EPS: f64 = 1e-9;

/// Solve `objective` on a built DAG with the plain (unguided) searches:
/// the lexicographic label search for [`Strategy::ExactCsp`] — the
/// oracle the guided solver is checked against — and plain Dijkstra in
/// every Algorithm 1 round. Returns the chosen configuration, or `None`
/// when no feasible configuration exists.
pub fn solve_on_dag(
    dag: &PlannerDag,
    objective: Objective,
    strategy: Strategy,
) -> Option<JobConfig> {
    solve(dag, None, objective, strategy, &Telemetry::disabled())
}

/// Backward lower-bound potentials over a built planner DAG: per node,
/// the minimum remaining time (seconds) and the minimum remaining cost
/// (micro-dollars, the CSP's working unit) to the sink. Both are true
/// minima — admissible and consistent for either objective orientation —
/// so one computation serves every budget *and* deadline query against
/// the same DAG (see [`solve_on_dag_with_potentials`]).
#[derive(Debug, Clone)]
pub struct PlannerPotentials {
    min_time_to: Vec<f64>,
    min_cost_to: Vec<f64>,
}

impl PlannerPotentials {
    /// Compute both potentials in one reverse-topological sweep over the
    /// DAG's edge store (one linear pass over the edge arrays).
    pub fn compute(dag: &PlannerDag) -> PlannerPotentials {
        let pots = dag_potentials(&mut dag.soa().time_view(), dag.sink().0)
            .expect("planner DAG is acyclic by construction");
        PlannerPotentials {
            min_time_to: pots.min_weight_to,
            min_cost_to: pots.min_resource_to,
        }
    }

    /// Per-node minimum remaining time to the sink (seconds).
    pub fn min_time_to(&self) -> &[f64] {
        &self.min_time_to
    }

    /// Per-node minimum remaining cost to the sink (micro-dollars).
    pub fn min_cost_to(&self) -> &[f64] {
        &self.min_cost_to
    }
}

/// [`solve_on_dag`] accelerated by precomputed [`PlannerPotentials`].
///
/// [`Strategy::ExactCsp`] runs the A*-guided, bound- and
/// incumbent-pruned label search (exactness argument in
/// `astra_graph::csp`; answers bit-identical to the plain solver, which
/// the equivalence suites gate). [`Strategy::Algorithm1`] reuses the
/// time (or cost) potential as an admissible A* heuristic for every
/// Dijkstra round of the paper's edge-removal loop — masking edges only
/// raises distances, so one backward sweep serves all removals. When
/// `telemetry` is enabled, label-search effort is reported through the
/// `planner.csp.labels_*` counters and Algorithm 1 rounds through
/// `planner.alg1.removals`.
pub fn solve_on_dag_with_potentials(
    dag: &PlannerDag,
    potentials: &PlannerPotentials,
    objective: Objective,
    strategy: Strategy,
    telemetry: &Telemetry,
) -> Option<JobConfig> {
    solve(dag, Some(potentials), objective, strategy, telemetry)
}

/// Pick the store view and bound for `objective`, then solve on it.
fn solve(
    dag: &PlannerDag,
    potentials: Option<&PlannerPotentials>,
    objective: Objective,
    strategy: Strategy,
    telemetry: &Telemetry,
) -> Option<JobConfig> {
    let soa = dag.soa();
    let (src, dst) = (dag.source().0, dag.sink().0);
    let slack = |bound: f64| bound * (1.0 + BOUND_EPS) + BOUND_EPS;
    let edges = match objective {
        Objective::MinimizeTime { budget } => solve_view(
            &mut soa.time_view(),
            src,
            dst,
            slack(budget.nanos() as f64 * 1e-3),
            potentials.map(|p| (p.min_time_to.as_slice(), p.min_cost_to.as_slice())),
            strategy,
            telemetry,
        ),
        Objective::MinimizeCost { deadline_s } => solve_view(
            &mut soa.cost_view(),
            src,
            dst,
            slack(deadline_s),
            potentials.map(|p| (p.min_cost_to.as_slice(), p.min_time_to.as_slice())),
            strategy,
            telemetry,
        ),
    }?;
    Some(dag.config_for_path(&edges))
}

/// Run `strategy` on one oriented view: minimize its weight subject to
/// its resource summing to at most `bound`. `lb` holds the (weight,
/// resource) potentials for the guided searches.
fn solve_view<X: EdgeExpand>(
    view: &mut X,
    src: u32,
    dst: u32,
    bound: f64,
    lb: Option<(&[f64], &[f64])>,
    strategy: Strategy,
    telemetry: &Telemetry,
) -> Option<Vec<EdgeId>> {
    match (strategy, lb) {
        (Strategy::Algorithm1, lb) => {
            let sol = algorithm1(view, src, dst, bound, MAX_ALG1_REMOVALS, lb.map(|(w, _)| w));
            if telemetry.enabled() {
                if let Some(s) = &sol {
                    telemetry.counter("planner.alg1.removals", s.edges_removed as u64);
                }
            }
            sol.map(|s| s.path.edges)
        }
        (Strategy::ExactCsp, None) => {
            constrained_shortest_path(view, src, dst, bound).map(|sol| sol.edges)
        }
        (Strategy::ExactCsp, Some((lb_w, lb_r))) => {
            let run = constrained_shortest_path_with_bounds(view, src, dst, bound, lb_w, lb_r);
            if telemetry.enabled() {
                let s = run.stats;
                telemetry.counter("planner.csp.labels_created", s.labels_created);
                telemetry.counter("planner.csp.labels_settled", s.labels_settled);
                telemetry.counter("planner.csp.labels_pruned", s.pruned_total());
            }
            run.solution.map(|sol| sol.edges)
        }
        (Strategy::Exhaustive, _) => {
            unreachable!("Exhaustive does not run on the DAG; use solve_exhaustive")
        }
    }
}

/// Brute-force reference solver: evaluate every configuration in `space`
/// with the analytical model and pick the constrained optimum.
///
/// Evaluations run in parallel through a shared [`ModelCache`]; the
/// reduction picks the lexicographic minimum of `(objective key,
/// enumeration index)`, which reproduces the serial first-wins tie-break
/// of [`solve_exhaustive_serial`] exactly for every thread count.
pub fn solve_exhaustive(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
) -> Option<JobConfig> {
    solve_exhaustive_with_telemetry(
        job,
        platform,
        catalog,
        space,
        objective,
        &Telemetry::disabled(),
    )
}

/// [`solve_exhaustive`] with sweep telemetry: counts evaluated, feasible
/// and infeasible configurations (`planner.exhaustive.*`) and the shared
/// model-cache hit rate (`planner.cache.*`). The tallies are relaxed
/// atomics whose totals are interleaving-independent, and the chosen
/// plan is bit-identical to the untraced path.
pub fn solve_exhaustive_with_telemetry(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
    telemetry: &Telemetry,
) -> Option<JobConfig> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let cache = ModelCache::new(job, platform);
    let configs: Vec<JobConfig> = space.iter_configs(job).collect();
    let traced = telemetry.enabled();
    let (evaluated, feasible_n, infeasible_n) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let best = configs
        .into_par_iter()
        .enumerate()
        .filter_map(|(idx, config)| {
            if traced {
                evaluated.fetch_add(1, Ordering::Relaxed);
            }
            let Ok(ev) = cache.evaluate(&config, catalog) else {
                if traced {
                    infeasible_n.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            };
            let (jct, bill) = (ev.jct_s(), ev.total_cost());
            let feasible = match objective {
                Objective::MinimizeTime { budget } => bill <= budget,
                Objective::MinimizeCost { deadline_s } => jct <= deadline_s,
            };
            if !feasible {
                if traced {
                    infeasible_n.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            if traced {
                feasible_n.fetch_add(1, Ordering::Relaxed);
            }
            let key = match objective {
                Objective::MinimizeTime { .. } => jct,
                Objective::MinimizeCost { .. } => bill.nanos() as f64,
            };
            Some((key, idx, config))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, _, c)| c);
    if traced {
        telemetry.counter("planner.exhaustive.evaluated", evaluated.into_inner());
        telemetry.counter("planner.exhaustive.feasible", feasible_n.into_inner());
        telemetry.counter("planner.exhaustive.infeasible", infeasible_n.into_inner());
        let stats = cache.stats();
        telemetry.counter("planner.cache.hits", stats.hits);
        telemetry.counter("planner.cache.misses", stats.misses);
        telemetry.gauge("planner.cache.entries", stats.entries as f64);
        telemetry.gauge("planner.cache.hit_rate", stats.hit_rate());
    }
    best
}

/// Single-threaded, uncached reference for [`solve_exhaustive`]: the
/// original sequential sweep, kept verbatim so equivalence tests can
/// assert the parallel+cached path returns bit-identical plans.
pub fn solve_exhaustive_serial(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
) -> Option<JobConfig> {
    let mut best: Option<(f64, Money, JobConfig)> = None;
    for config in space.iter_configs(job) {
        let Ok(ev) = evaluate(job, platform, &config, catalog) else {
            continue;
        };
        let (jct, bill) = (ev.jct_s(), ev.total_cost());
        let feasible = match objective {
            Objective::MinimizeTime { budget } => bill <= budget,
            Objective::MinimizeCost { deadline_s } => jct <= deadline_s,
        };
        if !feasible {
            continue;
        }
        let key = match objective {
            Objective::MinimizeTime { .. } => jct,
            Objective::MinimizeCost { .. } => bill.nanos() as f64,
        };
        let better = match &best {
            None => true,
            Some((bk, _, _)) => key < *bk,
        };
        if better {
            best = Some((key, bill, config));
        }
    }
    best.map(|(_, _, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn setup(
        n: usize,
        tiers: &[u32],
    ) -> (JobSpec, Platform, PriceCatalog, ConfigSpace, PlannerDag) {
        let job = JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&job, &platform, tiers);
        let dag = PlannerDag::build(&job, &platform, &catalog, &space);
        (job, platform, catalog, space, dag)
    }

    fn eval(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        c: &JobConfig,
    ) -> (f64, Money) {
        let ev = evaluate(job, platform, c, catalog).unwrap();
        (ev.jct_s(), ev.total_cost())
    }

    #[test]
    fn exact_csp_matches_exhaustive_min_time() {
        let (job, platform, catalog, space, dag) = setup(6, &[128, 512, 3008]);
        // Budget between the cheapest and the fastest configurations.
        for budget_frac in [1.1, 1.5, 3.0] {
            let cheapest = solve_on_dag(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
            let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
            let budget = min_cost.scale(budget_frac);
            let objective = Objective::MinimizeTime { budget };
            let got = solve_on_dag(&dag, objective, Strategy::ExactCsp).unwrap();
            let want = solve_exhaustive(&job, &platform, &catalog, &space, objective).unwrap();
            let (gt, gc) = eval(&job, &platform, &catalog, &got);
            let (wt, _) = eval(&job, &platform, &catalog, &want);
            assert!((gt - wt).abs() < 1e-9, "time {gt} vs exhaustive {wt}");
            assert!(gc <= budget, "cost {gc} over budget {budget}");
        }
    }

    #[test]
    fn exact_csp_matches_exhaustive_min_cost() {
        let (job, platform, catalog, space, dag) = setup(6, &[128, 512, 3008]);
        let fastest = solve_on_dag(&dag, Objective::fastest(), Strategy::ExactCsp).unwrap();
        let (min_time, _) = eval(&job, &platform, &catalog, &fastest);
        for slack in [1.2, 2.0, 5.0] {
            let objective = Objective::MinimizeCost {
                deadline_s: min_time * slack,
            };
            let got = solve_on_dag(&dag, objective, Strategy::ExactCsp).unwrap();
            let want = solve_exhaustive(&job, &platform, &catalog, &space, objective).unwrap();
            let (gt, gc) = eval(&job, &platform, &catalog, &got);
            let (_, wc) = eval(&job, &platform, &catalog, &want);
            assert_eq!(gc, wc, "cost mismatch at slack {slack}");
            assert!(gt <= min_time * slack + 1e-9);
        }
    }

    #[test]
    fn algorithm1_finds_a_feasible_plan() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let cheapest = solve_on_dag(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        let budget = min_cost.scale(1.5);
        let objective = Objective::MinimizeTime { budget };
        let got = solve_on_dag(&dag, objective, Strategy::Algorithm1).unwrap();
        let (_, gc) = eval(&job, &platform, &catalog, &got);
        assert!(gc <= budget);
        // And it can never beat the exact optimum.
        let exact = solve_on_dag(&dag, objective, Strategy::ExactCsp).unwrap();
        let (te, _) = eval(&job, &platform, &catalog, &exact);
        let (tg, _) = eval(&job, &platform, &catalog, &got);
        assert!(tg >= te - 1e-9);
    }

    #[test]
    fn potentials_solver_matches_plain_solver_on_both_objectives() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let pots = PlannerPotentials::compute(&dag);
        let tel = astra_telemetry::Telemetry::disabled();
        let cheapest = solve_on_dag(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
        let fastest = solve_on_dag(&dag, Objective::fastest(), Strategy::ExactCsp).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        let (min_time, _) = eval(&job, &platform, &catalog, &fastest);
        for frac in [1.0, 1.05, 1.3, 2.0, 10.0] {
            let o = Objective::MinimizeTime {
                budget: min_cost.scale(frac),
            };
            assert_eq!(
                solve_on_dag_with_potentials(&dag, &pots, o, Strategy::ExactCsp, &tel),
                solve_on_dag(&dag, o, Strategy::ExactCsp),
                "min-time at budget x{frac}"
            );
            let o = Objective::MinimizeCost {
                deadline_s: min_time * frac,
            };
            assert_eq!(
                solve_on_dag_with_potentials(&dag, &pots, o, Strategy::ExactCsp, &tel),
                solve_on_dag(&dag, o, Strategy::ExactCsp),
                "min-cost at deadline x{frac}"
            );
        }
        // Infeasible bound: both say so.
        let o = Objective::MinimizeTime {
            budget: Money::from_nanos(1),
        };
        assert!(solve_on_dag_with_potentials(&dag, &pots, o, Strategy::ExactCsp, &tel).is_none());
    }

    #[test]
    fn guided_algorithm1_matches_plain_on_the_test_dag() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let pots = PlannerPotentials::compute(&dag);
        let tel = astra_telemetry::Telemetry::disabled();
        let cheapest = solve_on_dag(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        for frac in [1.1, 1.5, 3.0] {
            let o = Objective::MinimizeTime {
                budget: min_cost.scale(frac),
            };
            assert_eq!(
                solve_on_dag_with_potentials(&dag, &pots, o, Strategy::Algorithm1, &tel),
                solve_on_dag(&dag, o, Strategy::Algorithm1),
                "budget x{frac}"
            );
        }
        let o = Objective::MinimizeTime {
            budget: Money::from_nanos(1),
        };
        assert!(solve_on_dag_with_potentials(&dag, &pots, o, Strategy::Algorithm1, &tel).is_none());
    }

    #[test]
    fn impossible_budget_returns_none() {
        let (_, _, _, _, dag) = setup(4, &[128]);
        let objective = Objective::MinimizeTime {
            budget: Money::from_nanos(1),
        };
        for strategy in [Strategy::Algorithm1, Strategy::ExactCsp] {
            assert!(
                solve_on_dag(&dag, objective, strategy).is_none(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn unconstrained_solutions_exist() {
        let (_, _, _, _, dag) = setup(4, &[128, 1024]);
        assert!(solve_on_dag(&dag, Objective::fastest(), Strategy::ExactCsp).is_some());
        assert!(solve_on_dag(&dag, Objective::cheapest(), Strategy::ExactCsp).is_some());
    }
}
