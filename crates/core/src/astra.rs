//! The user-facing planner: job in, optimal execution plan out.

use astra_model::{Infeasibility, JobSpec, Platform};
use astra_pricing::PriceCatalog;

use astra_telemetry::Telemetry;

use crate::dag::{PlannerDag, PruneConfig};
use crate::objective::Objective;
use crate::plan::Plan;
use crate::session::{effective_prune, PlannerSession};
use crate::solver::Strategy;
use crate::space::ConfigSpace;

/// Why planning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No configuration satisfies the constraint (budget too small /
    /// deadline too tight), or the platform cannot run the job at all.
    NoFeasiblePlan {
        /// The requirement that could not be met.
        objective: Objective,
    },
    /// The chosen configuration failed re-validation (indicates an
    /// internal inconsistency; should not happen).
    Internal(Infeasibility),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoFeasiblePlan { objective } => {
                write!(f, "no configuration satisfies: {objective}")
            }
            PlanError::Internal(i) => write!(f, "internal planner inconsistency: {i}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The Astra planner (paper Sec. V "Design and Implementation"): wraps the
/// Performance Predictor and Cost Predictor (the analytical models), the
/// Fig. 5 DAG construction and a solver strategy.
///
/// ```
/// use astra_core::{Astra, Objective};
/// use astra_model::{JobSpec, WorkloadProfile};
///
/// let job = JobSpec::uniform("demo", 10, 2.0, WorkloadProfile::uniform_test());
/// let astra = Astra::with_defaults();
/// let plan = astra.plan(&job, Objective::min_time_with_budget_dollars(5.0)).unwrap();
/// assert!(plan.mappers() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Astra {
    platform: Platform,
    catalog: PriceCatalog,
    strategy: Strategy,
    prune: PruneConfig,
    telemetry: Telemetry,
}

impl Astra {
    /// AWS Lambda platform, 2020 prices, exact constrained solver.
    ///
    /// Telemetry snapshots the process-global handle
    /// (`astra_telemetry::global()`), so a binary that installed a
    /// recorder before constructing planners gets planning spans and
    /// cache counters with no extra plumbing.
    pub fn with_defaults() -> Self {
        Astra {
            platform: Platform::aws_lambda(),
            catalog: PriceCatalog::aws_2020(),
            strategy: Strategy::default(),
            prune: PruneConfig::default(),
            telemetry: astra_telemetry::global(),
        }
    }

    /// Fully customised planner (telemetry snapshots the process-global
    /// handle; override with [`Astra::with_telemetry`]).
    pub fn new(platform: Platform, catalog: PriceCatalog, strategy: Strategy) -> Self {
        Astra {
            platform,
            catalog,
            strategy,
            prune: PruneConfig::default(),
            telemetry: astra_telemetry::global(),
        }
    }

    /// The platform this planner targets.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The price catalog in effect.
    pub fn catalog(&self) -> &PriceCatalog {
        &self.catalog
    }

    /// The solver strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Replace the solver strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The dominance-pruning configuration in effect (pruning is on by
    /// default; [`Strategy::Algorithm1`] always runs unpruned for
    /// heuristic fidelity regardless of this setting).
    pub fn prune_config(&self) -> PruneConfig {
        self.prune
    }

    /// Replace the dominance-pruning configuration (e.g.
    /// [`PruneConfig::off`] for equivalence baselines and the unpruned
    /// bench rows).
    pub fn with_prune_config(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Attach an explicit telemetry handle (overriding the process-global
    /// snapshot taken by the constructors).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Plan `job` under `objective` over the full configuration space.
    pub fn plan(&self, job: &JobSpec, objective: Objective) -> Result<Plan, PlanError> {
        let space = ConfigSpace::full(job, &self.platform);
        self.plan_with_space(job, objective, &space)
    }

    /// Plan over a restricted configuration space (tests, ablations):
    /// one [`Astra::session_with_space`] answering one query.
    ///
    /// When telemetry is enabled the request is wrapped in a wall-clock
    /// `plan` span and counted in `planner.plans`. The session's own
    /// `session.build` and `session.solve` spans are siblings of `plan`
    /// that fall inside its interval, not its children. All of it is
    /// observational; the plan is bit-identical with telemetry on or off.
    pub fn plan_with_space(
        &self,
        job: &JobSpec,
        objective: Objective,
        space: &ConfigSpace,
    ) -> Result<Plan, PlanError> {
        let _span = self.telemetry.wall_span("planner", "plan", "planner");
        self.telemetry.counter("planner.plans", 1);
        self.session_with_space(job, space).plan(objective)
    }

    /// Build (and return) the planner DAG for `job` — exposed for
    /// inspection and the scaling benches.
    pub fn build_dag(&self, job: &JobSpec, space: &ConfigSpace) -> PlannerDag {
        PlannerDag::build_with(
            job,
            &self.platform,
            &self.catalog,
            space,
            effective_prune(self.prune, self.strategy),
        )
    }

    /// Open a reusable [`PlannerSession`] for `job` over its full
    /// configuration space: the DAG and backward potentials are built
    /// once, then every [`PlannerSession::plan`] /
    /// [`PlannerSession::solve`] call reuses them.
    pub fn session(&self, job: &JobSpec) -> PlannerSession {
        let space = ConfigSpace::full(job, &self.platform);
        self.session_with_space(job, &space)
    }

    /// [`Astra::session`] over a restricted configuration space.
    pub fn session_with_space(&self, job: &JobSpec, space: &ConfigSpace) -> PlannerSession {
        PlannerSession::build(
            job,
            self.platform.clone(),
            self.catalog,
            space.clone(),
            self.strategy,
            self.prune,
            self.telemetry.clone(),
        )
    }

    /// Walk the cost–performance Pareto frontier: plan under `points`
    /// evenly spaced budgets between the cheapest and the fastest plans'
    /// costs, returning the distinct plans in increasing-budget order.
    ///
    /// This is the "navigate the tradeoff between performance and cost"
    /// knob the paper's abstract promises, as one call. Plans are
    /// deduplicated (consecutive budgets often buy the same plan); the
    /// first element is the cheapest plan, the last the fastest.
    ///
    /// The per-budget constrained solves run in parallel over the shared
    /// DAG; the dedup pass walks the results in budget order, so the
    /// frontier is identical for every thread count. (This is a one-call
    /// convenience over [`Astra::session`] + [`PlannerSession::pareto_frontier`].)
    pub fn pareto_frontier(&self, job: &JobSpec, points: usize) -> Result<Vec<Plan>, PlanError> {
        self.session(job).pareto_frontier(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;
    use astra_pricing::Money;

    fn small_astra() -> Astra {
        Astra::new(
            Platform::paper_literal(10.0),
            PriceCatalog::aws_2020(),
            Strategy::ExactCsp,
        )
    }

    fn job() -> JobSpec {
        JobSpec::uniform("t", 10, 1.0, WorkloadProfile::uniform_test())
    }

    #[test]
    fn plans_respect_the_budget() {
        let astra = small_astra();
        let job = job();
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128, 512, 3008]);
        let cheapest = astra
            .plan_with_space(&job, Objective::cheapest(), &space)
            .unwrap();
        let budget = cheapest.predicted_cost().scale(1.3);
        let plan = astra
            .plan_with_space(&job, Objective::MinimizeTime { budget }, &space)
            .unwrap();
        assert!(plan.predicted_cost() <= budget);
        // Spending more can only speed things up.
        assert!(plan.predicted_jct_s() <= cheapest.predicted_jct_s() + 1e-9);
    }

    #[test]
    fn plans_respect_the_deadline() {
        let astra = small_astra();
        let job = job();
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128, 512, 3008]);
        let fastest = astra
            .plan_with_space(&job, Objective::fastest(), &space)
            .unwrap();
        let deadline = fastest.predicted_jct_s() * 1.5;
        let plan = astra
            .plan_with_space(&job, Objective::min_cost_with_deadline_s(deadline), &space)
            .unwrap();
        assert!(plan.predicted_jct_s() <= deadline + 1e-9);
        assert!(plan.predicted_cost() <= fastest.predicted_cost());
    }

    #[test]
    fn hopeless_budget_is_reported() {
        let astra = small_astra();
        let job = job();
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128]);
        let err = astra
            .plan_with_space(
                &job,
                Objective::MinimizeTime {
                    budget: Money::from_nanos(1),
                },
                &space,
            )
            .unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePlan { .. }));
        assert!(err.to_string().contains("no configuration"));
    }

    #[test]
    fn exhaustive_strategy_agrees_with_dag() {
        let astra = small_astra();
        let job = job();
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128, 1024]);
        let fastest = astra
            .plan_with_space(&job, Objective::fastest(), &space)
            .unwrap();
        let deadline = fastest.predicted_jct_s() * 2.0;
        let objective = Objective::min_cost_with_deadline_s(deadline);
        let dag_plan = astra.plan_with_space(&job, objective, &space).unwrap();
        let ex_plan = astra
            .clone()
            .with_strategy(Strategy::Exhaustive)
            .plan_with_space(&job, objective, &space)
            .unwrap();
        assert_eq!(dag_plan.predicted_cost(), ex_plan.predicted_cost());
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let astra = Astra::with_defaults();
        let job = job();
        let frontier = astra.pareto_frontier(&job, 8).unwrap();
        assert!(frontier.len() >= 2);
        for pair in frontier.windows(2) {
            assert!(pair[1].predicted_cost() >= pair[0].predicted_cost());
            assert!(pair[1].predicted_jct_s() <= pair[0].predicted_jct_s() + 1e-9);
        }
        // Endpoints: first is the cheapest plan, last is the fastest.
        let cheapest = astra.plan(&job, Objective::cheapest()).unwrap();
        let fastest = astra.plan(&job, Objective::fastest()).unwrap();
        assert_eq!(frontier[0].predicted_cost(), cheapest.predicted_cost());
        assert!(
            (frontier.last().unwrap().predicted_jct_s() - fastest.predicted_jct_s()).abs() < 1e-9
        );
    }

    #[test]
    fn default_planner_plans_a_real_scale_job() {
        // Full 46-tier space on a 10-object job: exercises the real DAG
        // size for small N.
        let astra = Astra::with_defaults();
        let job = job();
        let plan = astra
            .plan(&job, Objective::min_time_with_budget_dollars(10.0))
            .unwrap();
        assert!(plan.mappers() >= 1 && plan.mappers() <= 10);
        assert!(plan.reduce_steps() >= 1);
    }
}
