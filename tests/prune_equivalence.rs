//! Dominance-pruning / potential-CSP equivalence: the accelerated
//! planner core (Pareto-pruned DAG + backward-potential label search)
//! must return **bit-identical** `JobConfig`s to both the unpruned plain
//! CSP and the unpruned exhaustive sweep — for every job, both
//! objectives, a grid of bounds, and any rayon thread count.
//!
//! This is the acceptance gate for the pruned planner: any divergence —
//! a different tier, a different `k_M`, even a tie broken differently —
//! fails the suite. CI runs the N=50 full-space smoke test on every
//! push (`prune_smoke`), the property tests cover randomized jobs,
//! uniform and jittered (the jittered ones admit one documented
//! divergence from the exhaustive sweep, see
//! `assert_equivalent_but_bound_slack`). A structural property test
//! checks the pair-subtree rule against every path of the unpruned DAG,
//! and `bundled_space_is_approximate` pins where the bundled space loses
//! to the full one.

use std::collections::BTreeSet;

use astra::core::solver::{solve_exhaustive, solve_on_dag, solve_on_dag_with_potentials};
use astra::core::{
    Choice, ConfigSpace, Objective, PlannerDag, PlannerPotentials, PruneConfig,
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

/// The same family with ragged object sizes: every object is `size_mb`
/// scaled by up to ±20%, as the daemon's cold traffic sends them, so the
/// open-form (non-uniform) mapper path runs.
fn arb_jittered_job() -> impl proptest::strategy::Strategy<Value = JobSpec> + Clone {
    (
        proptest::collection::vec(0.8f64..1.2, 2..12),
        0.5f64..20.0,
        arb_job(),
    )
        .prop_map(|(scales, size_mb, uniform)| JobSpec {
            name: "prune-jitter".to_string(),
            object_sizes_mb: scales.iter().map(|s| s * size_mb).collect(),
            profile: uniform.profile,
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
        let full_dag =
            PlannerDag::build_with(&job, &platform, &catalog, &space, PruneConfig::off());
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
        solve_exhaustive(
            &self.job,
            &self.platform,
            &self.catalog,
            &self.space,
            objective,
        )
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

    /// [`Self::assert_equivalent`] for jittered jobs, whose bound grid
    /// can put a deadline one ulp under the very plan that defines it
    /// (`t_fast + (t_cheap - t_fast) * 1.0 < t_cheap`). The accelerated
    /// and plain CSPs must still agree exactly. So must the exhaustive
    /// sweep, except where the CSP accepts a plan over its bound by the
    /// f64 slack `solve_on_dag` allows (`BOUND_EPS` plus the label
    /// search's `REL_TOL`): a known defect, on the ROADMAP as "Exact
    /// budgets". Such a divergence must be exactly that — the CSP plan
    /// breaks the bound by no more than the slack and beats the
    /// exhaustive answer on the objective.
    fn assert_equivalent_but_bound_slack(&self) {
        let ev = |c: JobConfig| {
            let e = astra::model::evaluate(&self.job, &self.platform, &c, &self.catalog).unwrap();
            (e.jct_s(), e.total_cost().nanos() as f64)
        };
        for objective in self.objectives() {
            let fast = self.accelerated(objective);
            let plain = self.plain_csp(objective);
            assert_eq!(fast, plain, "pruned+potentials vs plain CSP at {objective}");
            let brute = self.exhaustive(objective);
            if fast == brute {
                continue;
            }
            let (time, cost) = ev(fast.expect("the CSP finds a plan whenever the sweep does"));
            // Overshoot, the slack (relative, plus one unit of the
            // bound's own absolute term), and whether the CSP plan wins.
            let (over, slack, better) = match objective {
                Objective::MinimizeTime { budget } => {
                    let b = budget.nanos() as f64;
                    (
                        cost - b,
                        3e-9 * b + 1.0,
                        brute.is_none_or(|c| time < ev(c).0),
                    )
                }
                Objective::MinimizeCost { deadline_s } => (
                    time - deadline_s,
                    3e-9 * deadline_s + 1e-9,
                    brute.is_none_or(|c| cost < ev(c).1),
                ),
            };
            assert!(
                over > 0.0 && over <= slack && better,
                "pruned+potentials vs exhaustive at {objective}: {fast:?} vs {brute:?}"
            );
        }
    }

    fn assert_equivalent(&self) {
        for objective in self.objectives() {
            let fast = self.accelerated(objective);
            let plain = self.plain_csp(objective);
            assert_eq!(fast, plain, "pruned+potentials vs plain CSP at {objective}");
            let brute = self.exhaustive(objective);
            assert_eq!(
                fast, brute,
                "pruned+potentials vs exhaustive at {objective}"
            );
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

    /// Jittered object sizes on the AWS platform.
    #[test]
    fn jittered_jobs_match_unpruned_solvers(job in arb_jittered_job()) {
        Solvers::new(job, Platform::aws_lambda(), &[128, 768, 1792])
            .assert_equivalent_but_bound_slack();
    }

    /// Jittered object sizes on the paper-literal platform.
    #[test]
    fn jittered_jobs_match_on_paper_platform(job in arb_jittered_job()) {
        Solvers::new(job, Platform::paper_literal(10.0), &[128, 512, 3008])
            .assert_equivalent_but_bound_slack();
    }

    /// The collapsed (bundled) production space: the accelerated path —
    /// pruned SoA DAG + potentials — must agree bit-for-bit with the
    /// unpruned plain CSP and the exhaustive sweep over the *same*
    /// bundled space, across the whole bound grid. This is the
    /// equivalence gate for the production-N build. The bundled space
    /// itself is only an approximation of the full one
    /// (`bundled_space_is_approximate`).
    #[test]
    fn collapsed_space_matches_unpruned_solvers(job in arb_job()) {
        Solvers::bundled(job, Platform::aws_lambda(), &[128, 768, 1792]).assert_equivalent();
    }

    /// The pair-subtree rule, checked against brute force over every
    /// path of the unpruned DAG: a `(k_M, k_R)` pair the pruned build
    /// drops has every path doubly-strictly dominated, and a pair it
    /// keeps has a path that nothing dominates.
    #[test]
    fn dropped_pairs_are_dominated_and_kept_pairs_are_not(
        job in arb_job(),
        jittered in arb_jittered_job(),
    ) {
        for job in [job, jittered] {
            for platform in [Platform::aws_lambda(), Platform::paper_literal(10.0)] {
                check_pair_subtrees(&job, &platform, &[128, 768, 1792]);
            }
        }
    }
}

/// Every source→sink path of `dag` as `((k_M, k_R), time, cost nanos)`,
/// with time summed edge by edge from the source, as the solvers do.
fn all_paths(dag: &PlannerDag) -> Vec<((usize, usize), f64, i64)> {
    fn walk(
        dag: &PlannerDag,
        u: u32,
        pair: Option<(usize, usize)>,
        time_s: f64,
        cost: i64,
        out: &mut Vec<((usize, usize), f64, i64)>,
    ) {
        if u == dag.sink().0 {
            out.push((pair.expect("every path crosses column 3"), time_s, cost));
            return;
        }
        let soa = dag.soa();
        for i in soa.slots(u) {
            let v = soa.heads()[i];
            let pair = match dag.nodes()[v as usize] {
                Choice::ObjectsPerReducer { k_m, k_r } => Some((k_m, k_r)),
                _ => pair,
            };
            walk(
                dag,
                v,
                pair,
                time_s + soa.times()[i],
                cost + soa.costs()[i],
                out,
            );
        }
    }
    let mut out = Vec::new();
    walk(dag, dag.source().0, None, 0.0, 0, &mut out);
    out
}

/// The `(k_M, k_R)` pairs that have a column-3 node in `dag`.
fn pair_nodes(dag: &PlannerDag) -> BTreeSet<(usize, usize)> {
    dag.nodes()
        .iter()
        .filter_map(|c| match *c {
            Choice::ObjectsPerReducer { k_m, k_r } => Some((k_m, k_r)),
            _ => None,
        })
        .collect()
}

fn check_pair_subtrees(job: &JobSpec, platform: &Platform, tiers: &[u32]) {
    let catalog = PriceCatalog::aws_2020();
    let space = ConfigSpace::with_tiers(job, platform, tiers);
    let full = PlannerDag::build_with(job, platform, &catalog, &space, PruneConfig::off());
    let pruned = PlannerDag::build_with(job, platform, &catalog, &space, PruneConfig::on());
    let paths = all_paths(&full);
    // The documented rule: faster by more than 1e-9 s and at least one
    // nanodollar cheaper.
    let dominated = |t: f64, c: i64| paths.iter().any(|&(_, qt, qc)| qt + 1e-9 < t && qc < c);
    let (all, kept) = (pair_nodes(&full), pair_nodes(&pruned));
    assert!(
        kept.is_subset(&all),
        "{}: pruning invented a pair",
        job.name
    );
    assert_eq!(
        pruned.prune_stats().pair_subtrees,
        all.len() - kept.len(),
        "{}: dropped-pair tally",
        job.name
    );
    assert!(pruned.prune_stats().pairs_unpriced <= pruned.prune_stats().pair_subtrees);
    for pair in &all {
        let mut through = paths.iter().filter(|p| p.0 == *pair);
        if kept.contains(pair) {
            assert!(
                through.any(|&(_, t, c)| !dominated(t, c)),
                "{}: kept pair {pair:?} has no undominated path",
                job.name
            );
        } else {
            assert!(
                through.all(|&(_, t, c)| dominated(t, c)),
                "{}: dropped pair {pair:?} has an undominated path",
                job.name
            );
        }
    }
}

/// The bundled space is an approximation: on these two inputs (re-run
/// on `aws_lambda` with `aws_2020` prices, 64 MB objects) its answer
/// differs from the full space's, and it is never the better one.
#[test]
fn bundled_space_is_approximate() {
    let astra = astra::core::Astra::new(
        Platform::aws_lambda(),
        PriceCatalog::aws_2020(),
        SolverStrategy::ExactCsp,
    );
    let cases = [
        // Fastest query plan at N=120: the full space's k_R=5 (17.744 s)
        // is off the bundled k_R ladder, whose best is k_R=2 (19.724 s).
        (
            astra::workloads::profiles::query(),
            120,
            Objective::fastest(),
        ),
        // Cheapest sort plan at N=17 under a 114.7 s deadline: the full
        // space's k_M=7 (7/7/3 split, 1,655,018 n$) shares j=3 with k_M=6,
        // the only member of that class the bundled space keeps
        // (1,656,018 n$).
        (
            astra::workloads::profiles::sort(),
            17,
            Objective::MinimizeCost { deadline_s: 114.7 },
        ),
    ];
    for (profile, n, objective) in cases {
        let job = JobSpec::uniform("bundled-gap", n, 64.0, profile);
        let plan = |space: ConfigSpace| {
            astra
                .session_with_space(&job, &space)
                .plan(objective)
                .expect("feasible")
        };
        let full = plan(ConfigSpace::full(&job, astra.platform()));
        let bundled = plan(ConfigSpace::bundled(&job, astra.platform()));
        assert_ne!(
            full.spec, bundled.spec,
            "N={n} {objective}: the spaces agree"
        );
        match objective {
            Objective::MinimizeTime { .. } => {
                assert!(full.predicted_jct_s() < bundled.predicted_jct_s())
            }
            Objective::MinimizeCost { .. } => {
                assert!(full.predicted_cost() < bundled.predicted_cost())
            }
        }
    }
    // The two counterexamples as quoted above.
    let job = JobSpec::uniform(
        "bundled-gap",
        120,
        64.0,
        astra::workloads::profiles::query(),
    );
    let fastest = astra.plan(&job, Objective::fastest()).unwrap();
    assert_eq!(fastest.spec.objects_per_mapper, 1);
    assert!((fastest.predicted_jct_s() - 17.744).abs() < 1e-3);
    let job = JobSpec::uniform("bundled-gap", 17, 64.0, astra::workloads::profiles::sort());
    let cheap = astra
        .plan(&job, Objective::MinimizeCost { deadline_s: 114.7 })
        .unwrap();
    assert_eq!(cheap.spec.objects_per_mapper, 7);
    assert_eq!(cheap.predicted_cost(), Money::from_nanos(1_655_018));
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
        let answers: Vec<Option<JobConfig>> = s
            .objectives()
            .into_iter()
            .map(|o| s.accelerated(o))
            .collect();
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
        let budget = c_cheap.nanos() as f64 + (c_fast.nanos() - c_cheap.nanos()) as f64 * frac;
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
