#![warn(missing_docs)]

//! Graph algorithms backing the Astra planner (paper Sec. IV).
//!
//! The paper maps its configuration problem onto a layered DAG (Fig. 5) and
//! solves it with shortest-path machinery (Algorithm 1 cites Dijkstra).
//! This crate supplies that machinery in a problem-agnostic form, generic
//! over one edge-store abstraction ([`EdgeExpand`]):
//!
//! * [`dijkstra`] — single-source shortest paths, plain or A*-guided by
//!   backward potentials, with optional edge masking;
//! * [`csp`] — exact resource-constrained shortest path via Pareto-label
//!   search (used both as the planner's solver and as the oracle the
//!   tests check Algorithm 1 against), plus the backward potentials;
//! * [`DiGraph`] — a small arena-allocated digraph with typed payloads,
//!   read through [`ClosureExpand`] by tests.

pub mod csp;
pub mod dijkstra;
pub mod graph;

pub use csp::{
    constrained_shortest_path, constrained_shortest_path_with_bounds, dag_potentials,
    ClosureExpand, CspRun, CspSolution, CspStats, EdgeExpand, Potentials,
};
pub use dijkstra::{shortest_path, ShortestPath};
pub use graph::{kahn_order, DiGraph, EdgeId, NodeId};
