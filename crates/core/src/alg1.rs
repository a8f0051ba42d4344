//! A faithful implementation of the paper's Algorithm 1.
//!
//! > `P ← Dijkstra(G, W, F)`; walk the path accumulating the constraint
//! > metric; when it trips the bound, remove the offending edge from `E`
//! > and recurse.
//!
//! This is a *heuristic*: removing one edge of an over-budget path does
//! not, in general, preserve the optimal feasible path (the removed edge
//! may belong to it with a different prefix). The ablation bench
//! `alg1_vs_exact` measures how often and by how much it diverges from
//! the exact constrained solver on this problem family — on Astra's DAGs
//! the constraint accumulates monotonically along a path, so the
//! heuristic is usually right, and the paper reports good results with
//! it. The recursion is expressed iteratively here; termination is
//! guaranteed because each round removes one edge.

use astra_graph::dijkstra::{shortest_path, ShortestPath};
use astra_graph::EdgeExpand;

/// Outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1Solution {
    /// The path found.
    pub path: ShortestPath,
    /// Its accumulated constraint metric.
    pub constraint: f64,
    /// How many edges were removed before a feasible path emerged.
    pub edges_removed: usize,
}

/// Run Algorithm 1 on `g`: minimize the store's weight subject to the
/// path-sum of its resource (the constraint metric) staying **below**
/// `bound` (the paper's line 6 tests `cost >= budget`, i.e. the bound
/// itself is infeasible; pass a slightly inflated bound for `<=`
/// semantics — [`crate::solver`] does).
///
/// `max_removals` caps the edge removals. The paper's recursion can
/// degenerate on large DAGs with tight bounds — each round removes one
/// edge and re-runs Dijkstra, and nothing stops it short of exhausting
/// the edge set (observed: minutes on the 157k-edge Sort DAG before
/// giving up). Production callers bound it; the `alg1_vs_exact` ablation
/// measures both the cap hit rate and the optimality gap.
///
/// `lb_weight` optionally guides every Dijkstra round A*-style with
/// backward lower bounds on the remaining weight to `target` over the
/// **unmasked** graph. They are computed once and serve every round:
/// masking edges only raises true remaining distances, so a bound that
/// is admissible and consistent on the full graph stays so on every
/// masked subgraph (see [`astra_graph::dijkstra::shortest_path`]). On the
/// planner DAG the session's backward potentials serve directly. Each
/// guided round settles far fewer nodes, but finds a path of the same
/// weight as the plain search's, so the heuristic's decisions are driven
/// by the same quantities.
///
/// Returns `None` if edge removal exhausts every path or hits the cap.
pub fn algorithm1<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    bound: f64,
    max_removals: usize,
    lb_weight: Option<&[f64]>,
) -> Option<Alg1Solution> {
    // Removed edges, as a bitset over edge ids grown on insert. An edge
    // is removed at most once (a masked edge is never on a later path),
    // so the insert count is the removal count.
    let mut removed: Vec<u64> = Vec::new();
    let mut edges_removed = 0;
    loop {
        if edges_removed > max_removals {
            return None;
        }
        let path = shortest_path(g, source, target, lb_weight, |e| {
            removed
                .get(e.0 as usize / 64)
                .is_none_or(|&w| w >> (e.0 % 64) & 1 == 0)
        })?;

        // Walk the path, accumulating the constraint (Algorithm 1 lines
        // 4–10).
        let mut acc = 0.0;
        let mut offender = None;
        for (&e, &r) in path.edges.iter().zip(&path.resources) {
            acc += r;
            if acc >= bound {
                offender = Some(e);
                break;
            }
        }
        match offender {
            None => {
                return Some(Alg1Solution {
                    constraint: acc,
                    path,
                    edges_removed,
                });
            }
            Some(e) => {
                let word = e.0 as usize / 64;
                if removed.len() <= word {
                    removed.resize(word + 1, 0);
                }
                removed[word] |= 1 << (e.0 % 64);
                edges_removed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_graph::{ClosureExpand, DiGraph, EdgeId, NodeId};

    type G = DiGraph<(), (f64, f64)>;
    type Metric = fn(EdgeId, &(f64, f64)) -> f64;

    /// Weight = the payload's `.0`, constraint = its `.1`.
    fn x(g: &G) -> ClosureExpand<'_, (), (f64, f64), Metric, Metric> {
        ClosureExpand::new(g, |_, e| e.0, |_, e| e.1)
    }

    /// Uncapped, unguided Algorithm 1.
    fn alg1(g: &G, s: NodeId, t: NodeId, bound: f64) -> Option<Alg1Solution> {
        algorithm1(&mut x(g), s.0, t.0, bound, usize::MAX, None)
    }

    #[test]
    fn unconstrained_matches_dijkstra() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, (1.0, 1.0));
        g.add_edge(a, t, (1.0, 1.0));
        g.add_edge(s, t, (5.0, 0.5));
        let sol = alg1(&g, s, t, f64::INFINITY).unwrap();
        assert_eq!(sol.path.weight, 2.0);
        assert_eq!(sol.constraint, 2.0);
        assert_eq!(sol.edges_removed, 0);
    }

    #[test]
    fn reroutes_when_cheapest_violates() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        // Fast path, constraint 10.
        g.add_edge(s, a, (1.0, 5.0));
        g.add_edge(a, t, (1.0, 5.0));
        // Slow path, constraint 2.
        g.add_edge(s, b, (3.0, 1.0));
        g.add_edge(b, t, (3.0, 1.0));
        let sol = alg1(&g, s, t, 4.0).unwrap();
        assert_eq!(sol.path.weight, 6.0);
        assert_eq!(sol.constraint, 2.0);
        assert!(sol.edges_removed >= 1);
    }

    #[test]
    fn bound_itself_counts_as_violation() {
        // Paper line 6: `cost >= budget` trips, so a path hitting exactly
        // the bound is rejected.
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, (1.0, 4.0));
        assert!(alg1(&g, s, t, 4.0).is_none());
        assert!(alg1(&g, s, t, 4.0 + 1e-9).is_some());
    }

    #[test]
    fn infeasible_graph_returns_none() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, (1.0, 100.0));
        g.add_edge(s, t, (2.0, 50.0));
        assert!(alg1(&g, s, t, 10.0).is_none());
    }

    #[test]
    fn guided_matches_plain_across_removal_rounds() {
        // Tie-free layered graph: guided and plain Algorithm 1 walk the
        // same removal sequence and return the same path.
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        let mids: Vec<_> = (0..12).map(|_| g.add_node(())).collect();
        for (idx, &m) in mids.iter().enumerate() {
            let w = 1.0 + idx as f64 * 0.013;
            g.add_edge(s, m, (w, 6.0 - idx as f64 * 0.1));
            g.add_edge(m, t, (w * 1.7, 6.0 - idx as f64 * 0.11));
        }
        let lb = astra_graph::dag_potentials(&mut x(&g), t.0)
            .unwrap()
            .min_weight_to;
        for bound in [1.0, 5.0, 9.0, 11.0, f64::INFINITY] {
            let plain = algorithm1(&mut x(&g), s.0, t.0, bound, 100, None);
            let guided = algorithm1(&mut x(&g), s.0, t.0, bound, 100, Some(&lb));
            match (plain, guided) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.path.weight.to_bits(), q.path.weight.to_bits());
                    assert_eq!(p.path.edges, q.path.edges);
                    assert_eq!(p.edges_removed, q.edges_removed);
                    assert_eq!(p.constraint.to_bits(), q.constraint.to_bits());
                }
                (p, q) => panic!("bound {bound}: {p:?} vs {q:?}"),
            }
        }
    }

    #[test]
    fn terminates_on_dense_graph() {
        // A layered graph with many infeasible fast paths: the loop must
        // strip them all and settle on the feasible slow one.
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        let mids: Vec<_> = (0..20).map(|_| g.add_node(())).collect();
        for (idx, &m) in mids.iter().enumerate() {
            let fast = 1.0 + idx as f64 * 0.01;
            g.add_edge(s, m, (fast, 10.0));
            g.add_edge(m, t, (fast, 10.0));
        }
        let slow = g.add_node(());
        g.add_edge(s, slow, (50.0, 0.1));
        g.add_edge(slow, t, (50.0, 0.1));
        let sol = alg1(&g, s, t, 5.0).unwrap();
        assert_eq!(sol.path.weight, 100.0);
        // One removal per infeasible path prefix tried.
        assert!(sol.edges_removed >= 20);
    }
}
