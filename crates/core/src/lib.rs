#![warn(missing_docs)]

//! The Astra planner — the paper's primary contribution (Sec. IV).
//!
//! Given a job, a platform and a user requirement, Astra picks the
//! configuration (three memory tiers, objects-per-mapper `k_M`,
//! objects-per-reducer `k_R`) that either
//!
//! * minimizes completion time subject to a budget (Eq. 16–19), or
//! * minimizes cost subject to a completion-time threshold (Eq. 20–22).
//!
//! The configuration space is mapped onto a layered DAG (Fig. 5) whose
//! edges carry *both* a time and a cost metric; any source→sink path is a
//! configuration, and the metrics sum along a path to exactly the
//! analytical model's prediction for that configuration (a property
//! `tests/` asserts). Solving either optimization is then a (constrained)
//! shortest-path query:
//!
//! * [`alg1`] — the paper's Algorithm 1 verbatim: Dijkstra on the
//!   objective, then prune the edge where the constraint first trips and
//!   retry. A heuristic.
//! * [`solver::Strategy::ExactCsp`] — exact Pareto-label constrained
//!   shortest path (the default; optimal for the model).
//! * [`solver::Strategy::Exhaustive`] — brute force over the space, used
//!   to validate both of the above on small instances.
//!
//! Both DAG strategies run on the DAG's one edge store
//! ([`dag::SoaEdges`]), plain or guided by backward potentials.
//!
//! Entry point: [`Astra::plan`].

pub mod alg1;
pub mod astra;
pub mod cache;
pub mod dag;
pub mod objective;
pub mod plan;
pub mod session;
pub mod solver;
pub mod space;

pub use astra::{Astra, PlanError};
pub use cache::{CacheStats, ModelCache};
pub use dag::{Choice, EdgeMetrics, PlannerDag, PruneConfig, PruneStats};
pub use objective::Objective;
pub use plan::{Plan, PlanSpec, ReduceSpec};
pub use session::PlannerSession;
pub use solver::{solve_on_dag_with_potentials, PlannerPotentials, Strategy};
pub use space::ConfigSpace;
