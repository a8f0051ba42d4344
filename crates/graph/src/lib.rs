#![warn(missing_docs)]

//! Graph algorithms backing the Astra planner (paper Sec. IV).
//!
//! The paper maps its configuration problem onto a layered DAG (Fig. 5) and
//! solves it with shortest-path machinery (Algorithm 1 cites Dijkstra and a
//! k-shortest-paths reference). This crate supplies that machinery in a
//! problem-agnostic form:
//!
//! * [`DiGraph`] — an arena-allocated directed graph with typed node and
//!   edge payloads;
//! * [`dijkstra`] — single-source shortest paths with closure-supplied
//!   non-negative weights and optional edge masking;
//! * [`yen`] — Yen's algorithm for the k shortest *simple* paths;
//! * [`csp`] — exact resource-constrained shortest path via Pareto-label
//!   search (used both as a correct solver and as the oracle the tests
//!   check Algorithm 1 against);
//! * [`dot`] — Graphviz export for debugging the planner DAG.

pub mod csp;
pub mod dijkstra;
pub mod dot;
pub mod graph;
pub mod yen;

pub use csp::{
    constrained_shortest_path, constrained_shortest_path_with_bounds,
    constrained_shortest_path_with_bounds_on, dag_potentials, dag_potentials_on, CspRun,
    CspSolution, CspStats, EdgeExpand, Potentials,
};
pub use dijkstra::{shortest_path, shortest_path_guided, ShortestPath};
pub use graph::{kahn_order, DiGraph, EdgeId, NodeId};
pub use yen::KShortestPaths;
