//! Dominance-pruning / potential-CSP equivalence: the accelerated
//! planner core (Pareto-pruned DAG + backward-potential label search)
//! must return **bit-identical** `JobConfig`s to both the unpruned plain
//! CSP and the unpruned exhaustive sweep — for every job, both
//! objectives, a grid of bounds, and any rayon thread count.
//!
//! This is the acceptance gate for the pruned planner: any divergence —
//! a different tier, a different `k_M`, even a tie broken differently —
//! fails the suite. CI runs the N=50 full-space smoke test on every
//! push (`prune_smoke`), the property tests cover randomized jobs.

use astra::core::solver::{solve_exhaustive, solve_on_dag, solve_on_dag_with_potentials};
use astra::core::{
    ConfigSpace, Objective, PlannerDag, PlannerPotentials, PruneConfig,
    Strategy as SolverStrategy,
};
use astra::model::{JobConfig, JobSpec, Platform, WorkloadProfile};
use astra::pricing::{Money, PriceCatalog};
use proptest::prelude::*;

/// Last-wins global pool pin (same helper as `parallel_equivalence`).
fn pin_threads(n: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}

/// A small randomized job family (mirrors `planner_properties`).
fn arb_job() -> impl proptest::strategy::Strategy<Value = JobSpec> + Clone {
    (
        2usize..12,
        0.5f64..20.0,
        0.2f64..1.5,
        0.05f64..1.0,
        0.3f64..1.0,
    )
        .prop_map(|(n, size_mb, map_u, alpha, beta)| {
            let profile = WorkloadProfile {
                name: "prune-prop".to_string(),
                map_secs_per_mb_128: map_u,
                reduce_secs_per_mb_128: map_u * 0.7,
                coord_secs_per_mb_128: 0.002,
                shuffle_ratio: alpha,
                reduce_ratio: beta,
                state_object_mb: 0.5,
                single_pass_reduce: false,
            };
            JobSpec::uniform("prune-prop", n, size_mb, profile)
        })
}

/// The three solver paths under test, sharing one space.
struct Solvers {
    job: JobSpec,
    platform: Platform,
    catalog: PriceCatalog,
    space: ConfigSpace,
    full_dag: PlannerDag,
    pruned_dag: PlannerDag,
    potentials: PlannerPotentials,
}

impl Solvers {
    fn new(job: JobSpec, platform: Platform, tiers: &[u32]) -> Solvers {
        let space = ConfigSpace::with_tiers(&job, &platform, tiers);
        Self::with_space(job, platform, space)
    }

    /// Same harness over the collapsed (bundled) production space,
    /// restricted to `tiers` so the exhaustive reference stays cheap.
    fn bundled(job: JobSpec, platform: Platform, tiers: &[u32]) -> Solvers {
        let mut space = ConfigSpace::bundled(&job, &platform);
        space.memory_tiers_mb = tiers.to_vec();
        Self::with_space(job, platform, space)
    }

    fn with_space(job: JobSpec, platform: Platform, space: ConfigSpace) -> Solvers {
        let catalog = PriceCatalog::aws_2020();
        let full_dag = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::off());
        let pruned_dag =
            PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::on());
        let potentials = PlannerPotentials::compute(&pruned_dag);
        Solvers {
            job,
            platform,
            catalog,
            space,
            full_dag,
            pruned_dag,
            potentials,
        }
    }

    fn accelerated(&self, objective: Objective) -> Option<JobConfig> {
        solve_on_dag_with_potentials(
            &self.pruned_dag,
            &self.potentials,
            objective,
            SolverStrategy::ExactCsp,
            &astra::telemetry::Telemetry::disabled(),
        )
    }

    fn plain_csp(&self, objective: Objective) -> Option<JobConfig> {
        solve_on_dag(&self.full_dag, objective, SolverStrategy::ExactCsp)
    }

    fn exhaustive(&self, objective: Objective) -> Option<JobConfig> {
        solve_exhaustive(&self.job, &self.platform, &self.catalog, &self.space, objective)
    }

    /// The bound grid: budgets and deadlines spanning just-below-feasible
    /// through unconstrained.
    fn objectives(&self) -> Vec<Objective> {
        let Some(cheapest) = self.plain_csp(Objective::cheapest()) else {
            return Vec::new();
        };
        let fastest = self
            .plain_csp(Objective::fastest())
            .expect("cheapest exists, so fastest does");
        let ev = |c: &JobConfig| {
            let e = astra::model::evaluate(&self.job, &self.platform, c, &self.catalog).unwrap();
            (e.jct_s(), e.total_cost())
        };
        let (t_cheap, c_cheap) = ev(&cheapest);
        let (t_fast, c_fast) = ev(&fastest);
        let mut out = Vec::new();
        for frac in [-0.1, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0] {
            let budget = c_cheap.nanos() as f64 + (c_fast.nanos() - c_cheap.nanos()) as f64 * frac;
            out.push(Objective::MinimizeTime {
                budget: Money::from_nanos(budget as i128),
            });
            let deadline_s = t_fast + (t_cheap - t_fast) * frac;
            out.push(Objective::MinimizeCost { deadline_s });
        }
        out.push(Objective::cheapest());
        out.push(Objective::fastest());
        out
    }

    fn assert_equivalent(&self) {
        for objective in self.objectives() {
            let fast = self.accelerated(objective);
            let plain = self.plain_csp(objective);
            assert_eq!(fast, plain, "pruned+potentials vs plain CSP at {objective}");
            let brute = self.exhaustive(objective);
            assert_eq!(fast, brute, "pruned+potentials vs exhaustive at {objective}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized jobs on the AWS platform: all three solver paths agree
    /// config-for-config on both objectives across the bound grid.
    #[test]
    fn pruned_potentials_match_unpruned_solvers(job in arb_job()) {
        Solvers::new(job, Platform::aws_lambda(), &[128, 768, 1792]).assert_equivalent();
    }

    /// Same on the paper-literal platform (different constraint surface:
    /// no efficiency curve, fixed bandwidth).
    #[test]
    fn pruned_potentials_match_on_paper_platform(job in arb_job()) {
        Solvers::new(job, Platform::paper_literal(10.0), &[128, 512, 3008]).assert_equivalent();
    }

    /// The collapsed (bundled) production space: the accelerated path —
    /// pruned SoA DAG + potentials — must agree bit-for-bit with the
    /// unpruned plain CSP and the exhaustive sweep over the *same*
    /// bundled space, across the whole bound grid. This is the
    /// equivalence gate for the production-N build.
    #[test]
    fn collapsed_space_matches_unpruned_solvers(job in arb_job()) {
        Solvers::bundled(job, Platform::aws_lambda(), &[128, 768, 1792]).assert_equivalent();
    }
}

/// The thread-count leg: the pruned DAG, its potentials and every answer
/// are identical at 1, 2 and 8 rayon threads (or honour
/// `RAYON_NUM_THREADS` when CI pins it externally). The global pool can
/// only be pinned per process, so this sweeps re-pins last-wins like
/// `parallel_equivalence` does.
#[test]
fn pruned_planning_is_thread_count_invariant() {
    let job = JobSpec::uniform("threads", 9, 2.0, WorkloadProfile::uniform_test());
    let platform = Platform::aws_lambda();
    let mut reference: Option<Vec<Option<JobConfig>>> = None;
    for threads in [1usize, 2, 8] {
        pin_threads(threads);
        let s = Solvers::new(job.clone(), platform.clone(), &[128, 768, 1792]);
        let answers: Vec<Option<JobConfig>> =
            s.objectives().into_iter().map(|o| s.accelerated(o)).collect();
        assert!(!answers.is_empty());
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(r, &answers, "{threads} threads diverged"),
        }
    }
}

/// The CI smoke test (`--no-prune` equivalence at N=50, full space):
/// cheap enough for every push, big enough that pruning actually fires.
#[test]
fn n50_full_space_smoke() {
    let job = JobSpec::uniform("smoke", 50, 4.0, WorkloadProfile::uniform_test());
    let platform = Platform::aws_lambda();
    let catalog = PriceCatalog::aws_2020();
    let space = ConfigSpace::full(&job, &platform);
    let full = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::off());
    let pruned = PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::on());
    assert!(
        pruned.prune_stats().total() > 0,
        "pruning must fire on the full 46-tier space"
    );
    assert!(pruned.soa().edges_stored() < full.soa().edges_stored());
    let potentials = PlannerPotentials::compute(&pruned);
    let tel = astra::telemetry::Telemetry::disabled();

    let cheapest = solve_on_dag(&full, Objective::cheapest(), SolverStrategy::ExactCsp).unwrap();
    let fastest = solve_on_dag(&full, Objective::fastest(), SolverStrategy::ExactCsp).unwrap();
    let ev = |c: &JobConfig| {
        let e = astra::model::evaluate(&job, &platform, c, &catalog).unwrap();
        (e.jct_s(), e.total_cost())
    };
    let (t_fast, c_fast) = ev(&fastest);
    let (t_cheap, c_cheap) = ev(&cheapest);
    for frac in [0.0, 0.5, 1.0] {
        let budget =
            c_cheap.nanos() as f64 + (c_fast.nanos() - c_cheap.nanos()) as f64 * frac;
        let deadline_s = t_fast + (t_cheap - t_fast) * frac;
        for objective in [
            Objective::MinimizeTime {
                budget: Money::from_nanos(budget as i128),
            },
            Objective::MinimizeCost { deadline_s },
        ] {
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
    }
}
