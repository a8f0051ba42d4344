//! Exact resource-constrained shortest path (RCSP) via Pareto-label search.
//!
//! The planner's real problem — "minimize completion time subject to a
//! budget" (paper Eq. 16–19) or its dual (Eq. 20–22) — is a weight-
//! constrained shortest path, which is NP-hard in general but solved
//! exactly and fast on layered DAGs by label-setting with Pareto dominance
//! pruning. This module is the correctness oracle against which the paper's
//! heuristic Algorithm 1 is compared in the `exp_solvers` ablation.
//!
//! ## Accelerations (all exactness-preserving)
//!
//! * **Backward potentials** ([`dag_potentials`]): one reverse-topological
//!   sweep computes, per node, the minimum remaining weight and minimum
//!   remaining resource to the target. Both are *admissible, consistent*
//!   lower bounds, so they can (a) order the heap A*-style by
//!   `w + lb_w(node)` without losing the first-settled-is-optimal
//!   property, (b) discard any label with `r + lb_r(node) > bound`
//!   (it can never complete feasibly), and (c) discard any label with
//!   `w + lb_w(node)` above a known feasible path's weight (it can never
//!   beat the incumbent). See [`constrained_shortest_path_with_bounds`].
//! * **Merged scalar frontier**: labels settle at a fixed node in
//!   non-decreasing weight order (heap order restricted to one node), so
//!   the per-node Pareto frontier of settled `(weight, resource)` pairs is
//!   always sorted by weight — a new label is dominated iff the smallest
//!   settled resource at its node is `<=` its own. One `f64` per node
//!   replaces the old `Vec<(f64, f64)>` linear scans.
//! * **Relative tolerance** ([`REL_TOL`]): dominance and bound checks use
//!   a relative slack. The previous absolute `1e-12` slack was meaningless
//!   for metrics at the planner's scales (micro-dollar costs reach `1e9`,
//!   where adjacent representable doubles differ by ~`1e-7`): float noise
//!   from summing edge metrics in path order could spuriously reject a
//!   mathematically feasible path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{DiGraph, EdgeId, NodeId};

/// Relative slack for dominance and bound comparisons: `a` counts as
/// `<= b` when `a <= b + REL_TOL * |b|`. Scale-free, unlike the absolute
/// epsilon it replaced (see module docs).
pub const REL_TOL: f64 = 1e-9;

/// `a <= b` up to [`REL_TOL`] relative slack on `b`.
#[inline]
fn le_tol(a: f64, b: f64) -> bool {
    a <= b + REL_TOL * b.abs()
}

/// Result of a constrained shortest-path query.
#[derive(Debug, Clone, PartialEq)]
pub struct CspSolution {
    /// Total primary weight (the objective).
    pub weight: f64,
    /// Total secondary resource consumed (must be `<= bound`).
    pub resource: f64,
    /// Edge sequence from source to target.
    pub edges: Vec<EdgeId>,
}

/// Label-search effort counters for one query (observability; see
/// `OBSERVABILITY.md` for the planner counters they feed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CspStats {
    /// Labels pushed onto the heap (including the source label).
    pub labels_created: u64,
    /// Labels settled (survived the lazy dominance check).
    pub labels_settled: u64,
    /// Extensions discarded because even the optimistic remaining
    /// resource cannot meet the bound (`r + lb_r(node) > bound`).
    pub pruned_bound: u64,
    /// Extensions discarded by per-node Pareto dominance.
    pub pruned_dominated: u64,
    /// Extensions discarded because even the optimistic remaining weight
    /// cannot beat the incumbent feasible path (`w + lb_w(node) > best`).
    pub pruned_upper_bound: u64,
}

impl CspStats {
    /// All pruned extensions, regardless of reason.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_bound + self.pruned_dominated + self.pruned_upper_bound
    }
}

/// A query outcome plus its effort counters.
#[derive(Debug, Clone)]
pub struct CspRun {
    /// The optimum, or `None` when no feasible path exists.
    pub solution: Option<CspSolution>,
    /// Search-effort counters.
    pub stats: CspStats,
}

/// Per-node admissible lower bounds on the remaining weight/resource to
/// one fixed target, computed by [`dag_potentials`]. Nodes that cannot
/// reach the target hold `f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct Potentials {
    /// `min_weight_to[v]`: minimum total weight of any v→target path.
    pub min_weight_to: Vec<f64>,
    /// `min_resource_to[v]`: minimum total resource of any v→target path.
    pub min_resource_to: Vec<f64>,
}

/// Abstract out-edge expansion over a two-metric graph. Every algorithm
/// in this crate — the label core, the potentials DP, the greedy
/// incumbent descent and Dijkstra — is generic over this, so one
/// monomorphized implementation serves both the planner's flat CSR
/// (struct-of-arrays) edge store, which iterates linearly over its
/// `times`/`costs` slices, and a small [`DiGraph`] read through metric
/// closures ([`ClosureExpand`], for tests).
///
/// Implementations must yield a node's out-edges in a **fixed canonical
/// order** — every exact tie in the search is broken by expansion order,
/// so two stores that claim bit-identical answers must expand
/// identically.
pub trait EdgeExpand {
    /// Number of nodes; ids are dense in `0..node_count()`.
    fn node_count(&self) -> usize;
    /// Visit every out-edge of `v` in canonical order as
    /// `(edge id, head node, weight, resource)`.
    fn for_each_out(&mut self, v: u32, f: impl FnMut(EdgeId, u32, f64, f64));
    /// A topological order over all nodes, or `None` if cyclic.
    fn topo_order(&self) -> Option<Vec<u32>>;
}

/// The [`DiGraph`]-backed store: metric closures evaluated on intrusive
/// adjacency lists (most-recently-added first, as [`DiGraph::out_edges`]
/// iterates).
pub struct ClosureExpand<'g, N, E, W, R> {
    g: &'g DiGraph<N, E>,
    weight: W,
    resource: R,
}

impl<'g, N, E, W, R> ClosureExpand<'g, N, E, W, R>
where
    W: FnMut(EdgeId, &E) -> f64,
    R: FnMut(EdgeId, &E) -> f64,
{
    /// Read `g` with `weight` as the primary metric and `resource` as
    /// the secondary one.
    pub fn new(g: &'g DiGraph<N, E>, weight: W, resource: R) -> Self {
        ClosureExpand {
            g,
            weight,
            resource,
        }
    }
}

impl<N, E, W, R> EdgeExpand for ClosureExpand<'_, N, E, W, R>
where
    W: FnMut(EdgeId, &E) -> f64,
    R: FnMut(EdgeId, &E) -> f64,
{
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn for_each_out(&mut self, v: u32, mut f: impl FnMut(EdgeId, u32, f64, f64)) {
        for (eid, payload) in self.g.out_edges(NodeId(v)) {
            let (_, head) = self.g.endpoints(eid);
            let w = (self.weight)(eid, payload);
            let r = (self.resource)(eid, payload);
            f(eid, head.0, w, r);
        }
    }

    fn topo_order(&self) -> Option<Vec<u32>> {
        Some(
            self.g
                .topological_order()?
                .into_iter()
                .map(|n| n.0)
                .collect(),
        )
    }
}

/// Compute backward potentials to `target` over a DAG: the minimum
/// remaining weight and minimum remaining resource from every node, via
/// one dynamic-programming sweep in reverse topological order (the
/// graph stores no in-edges, so this replaces two reverse Dijkstra runs
/// at strictly lower cost). Returns `None` if the graph has a cycle.
///
/// Both bounds are admissible (true minima) and consistent
/// (`lb(u) <= w(u→v) + lb(v)` holds by construction), which is what the
/// pruning in [`constrained_shortest_path_with_bounds`] relies on.
pub fn dag_potentials<X: EdgeExpand>(g: &mut X, target: u32) -> Option<Potentials> {
    let order = g.topo_order()?;
    let n = g.node_count();
    let mut min_weight_to = vec![f64::INFINITY; n];
    let mut min_resource_to = vec![f64::INFINITY; n];
    min_weight_to[target as usize] = 0.0;
    min_resource_to[target as usize] = 0.0;
    // Visiting u after all its successors makes one relaxation per edge
    // sufficient; reverse topological order guarantees exactly that.
    for &u in order.iter().rev() {
        let ui = u as usize;
        g.for_each_out(u, |_, v, ew, er| {
            let w = ew + min_weight_to[v as usize];
            let r = er + min_resource_to[v as usize];
            if w < min_weight_to[ui] {
                min_weight_to[ui] = w;
            }
            if r < min_resource_to[ui] {
                min_resource_to[ui] = r;
            }
        });
    }
    Some(Potentials {
        min_weight_to,
        min_resource_to,
    })
}

#[derive(Clone, Copy, Debug)]
struct Label {
    node: u32,
    /// Exact accumulated weight along the label's path (kept here, not in
    /// the heap entry, so heap sifts move 24-byte items).
    weight: f64,
    /// Exact accumulated resource along the label's path.
    resource: f64,
    // Predecessor label index in the label arena + the edge taken.
    pred: Option<(usize, EdgeId)>,
}

struct HeapItem {
    /// Heap priority: `weight + lb_w(node)` (plain `weight` without
    /// potentials — the lower bounds are then zero).
    prio_w: f64,
    /// Secondary priority: `resource + lb_r(node)`.
    prio_r: f64,
    label_idx: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.prio_w == other.prio_w && self.prio_r == other.prio_r
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (priority weight, priority resource), then label
        // index for determinism.
        other
            .prio_w
            .total_cmp(&self.prio_w)
            .then_with(|| other.prio_r.total_cmp(&self.prio_r))
            .then_with(|| other.label_idx.cmp(&self.label_idx))
    }
}

/// Exact constrained shortest path: minimize the sum of `weight` over a
/// source→target path subject to the sum of `resource` being `<= bound`.
///
/// Both metrics must be non-negative. Labels are expanded in
/// lexicographic (weight, resource) order; the first label to settle on
/// `target` is optimal. Dominance pruning keeps per-node Pareto frontiers
/// small — on Astra's layered DAGs (≤ 6 hops) frontiers stay tiny.
///
/// Returns `None` when no feasible path exists. See
/// [`constrained_shortest_path_with_bounds`] for the potential-guided
/// variant used on repeated planner queries; this plain search is the
/// oracle the tests check it against.
pub fn constrained_shortest_path<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    bound: f64,
) -> Option<CspSolution> {
    csp_core(g, source, target, bound, Unguided, f64::INFINITY).solution
}

/// [`constrained_shortest_path`] accelerated by precomputed backward
/// potentials (see [`dag_potentials`]): A*-ordered expansion on
/// `w + lb_w`, feasibility pruning on `r + lb_r(node) > bound`, and
/// incumbent pruning against the greedy lower-bound path's weight when
/// that path is feasible.
///
/// Exactness: the potentials are admissible and consistent lower bounds,
/// so the priority `w + lb_w(node)` is non-decreasing along any
/// expansion and the first label settled at `target` still carries the
/// lexicographic-minimum `(weight, resource)` — identical to the plain
/// search (equivalence is property-tested). `lb_weight`/`lb_resource`
/// must come from [`dag_potentials`] over the *same* store (swap the two
/// slices to answer the dual objective from one sweep).
pub fn constrained_shortest_path_with_bounds<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    bound: f64,
    lb_weight: &[f64],
    lb_resource: &[f64],
) -> CspRun {
    // The source's own potentials decide feasibility outright.
    if lb_weight[source as usize].is_infinite() || !le_tol(lb_resource[source as usize], bound) {
        return CspRun {
            solution: None,
            stats: CspStats::default(),
        };
    }
    // Incumbent upper bound: the weight of the greedy minimum-weight
    // path (descending the weight potential reproduces its exact float
    // sum), usable only if that path is itself feasible. Any label whose
    // optimistic completion exceeds it can never be optimal.
    let best_known = greedy_descent_bound(g, source, target, lb_weight, bound);
    csp_core(
        g,
        source,
        target,
        bound,
        Guided {
            lb_w: lb_weight,
            lb_r: lb_resource,
        },
        best_known,
    )
}

/// Compile-time switch between the plain searches and the potential-
/// guided ones (the CSP label core here, Dijkstra in
/// [`crate::dijkstra`]), so the plain hot path carries no lookups, no
/// zero-adds, and no incumbent check (the label search runs millions of
/// edge relaxations per planner solve — a runtime `Option` on this path
/// measurably slows the unguided case).
pub(crate) trait Guide {
    /// Whether real lower bounds exist (drives dead-code elimination).
    const GUIDED: bool;
    /// Admissible lower bound on the remaining weight from `v`.
    fn lb_w(&self, v: u32) -> f64;
    /// Admissible lower bound on the remaining resource from `v`.
    fn lb_r(&self, v: u32) -> f64;
}

/// Zero lower bounds: the classic lexicographic (weight, resource) search.
pub(crate) struct Unguided;
impl Guide for Unguided {
    const GUIDED: bool = false;
    #[inline]
    fn lb_w(&self, _: u32) -> f64 {
        0.0
    }
    #[inline]
    fn lb_r(&self, _: u32) -> f64 {
        0.0
    }
}

/// Potentials from [`dag_potentials`]: the A*-guided, pruned search.
pub(crate) struct Guided<'a> {
    pub(crate) lb_w: &'a [f64],
    pub(crate) lb_r: &'a [f64],
}
impl Guide for Guided<'_> {
    const GUIDED: bool = true;
    #[inline]
    fn lb_w(&self, v: u32) -> f64 {
        self.lb_w[v as usize]
    }
    #[inline]
    fn lb_r(&self, v: u32) -> f64 {
        self.lb_r[v as usize]
    }
}

/// Shared label-setting core, monomorphized per [`Guide`]. With
/// [`Unguided`] this is the classic lexicographic (weight, resource)
/// search; with [`Guided`] it becomes the A*-ordered, pruned search.
/// Either way the settled optimum is the same (see
/// `constrained_shortest_path_with_bounds` docs for the argument).
fn csp_core<X: EdgeExpand, G: Guide>(
    g: &mut X,
    source: u32,
    target: u32,
    bound: f64,
    guide: G,
    best_known: f64,
) -> CspRun {
    let n = g.node_count();
    let mut stats = CspStats::default();

    // Merged per-node frontier: settled labels at one node arrive in
    // non-decreasing weight order, so the Pareto frontier reduces to the
    // minimum settled resource (module docs).
    let mut frontier_min_r: Vec<f64> = vec![f64::INFINITY; n];
    let mut labels: Vec<Label> = Vec::new();
    let mut heap = BinaryHeap::new();

    labels.push(Label {
        node: source,
        weight: 0.0,
        resource: 0.0,
        pred: None,
    });
    heap.push(HeapItem {
        prio_w: if G::GUIDED { guide.lb_w(source) } else { 0.0 },
        prio_r: if G::GUIDED { guide.lb_r(source) } else { 0.0 },
        label_idx: 0,
    });
    stats.labels_created += 1;

    while let Some(HeapItem { label_idx, .. }) = heap.pop() {
        let Label {
            node,
            weight: w0,
            resource: r0,
            ..
        } = labels[label_idx];
        // Dominance check at settle time (lazy deletion): everything
        // settled here already has weight <= w0.
        if le_tol(frontier_min_r[node as usize], r0) {
            stats.pruned_dominated += 1;
            continue;
        }
        frontier_min_r[node as usize] = r0;
        stats.labels_settled += 1;

        if node == target {
            // First settled label at the target is the optimum.
            let mut edges = Vec::new();
            let mut cur = label_idx;
            while let Some((p, e)) = labels[cur].pred {
                edges.push(e);
                cur = p;
            }
            edges.reverse();
            return CspRun {
                solution: Some(CspSolution {
                    weight: w0,
                    resource: r0,
                    edges,
                }),
                stats,
            };
        }

        g.for_each_out(node, |eid, v, ew, er| {
            debug_assert!(ew >= 0.0 && er >= 0.0, "RCSP requires non-negative metrics");
            let nw = w0 + ew;
            let nr = r0 + er;
            // Optimistic completion: admissible bounds mean these checks
            // can only discard labels that provably cannot finish
            // feasibly (resource) or optimally (weight).
            let pr = if G::GUIDED { nr + guide.lb_r(v) } else { nr };
            if !le_tol(pr, bound) {
                stats.pruned_bound += 1;
                return;
            }
            let pw = if G::GUIDED { nw + guide.lb_w(v) } else { nw };
            if G::GUIDED && !le_tol(pw, best_known) {
                stats.pruned_upper_bound += 1;
                return;
            }
            if le_tol(frontier_min_r[v as usize], nr) {
                stats.pruned_dominated += 1;
                return;
            }
            let idx = labels.len();
            labels.push(Label {
                node: v,
                weight: nw,
                resource: nr,
                pred: Some((label_idx, eid)),
            });
            heap.push(HeapItem {
                prio_w: pw,
                prio_r: pr,
                label_idx: idx,
            });
            stats.labels_created += 1;
        });
    }
    CspRun {
        solution: None,
        stats,
    }
}

/// Walk the greedy minimum-weight path from `source` by always taking an
/// edge on which `edge weight + lb_w(next)` attains `lb_w(here)` (such
/// an edge exists by the DP definition of the potential). Returns that
/// path's exact accumulated weight if its accumulated resource meets
/// `bound`, else `INFINITY` (no incumbent).
fn greedy_descent_bound<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    lb_w: &[f64],
    bound: f64,
) -> f64 {
    if lb_w[source as usize].is_infinite() {
        return f64::INFINITY;
    }
    let (mut node, mut w, mut r) = (source, 0.0f64, 0.0f64);
    while node != target {
        let mut best: Option<(f64, u32, f64, f64)> = None;
        g.for_each_out(node, |_, v, ew, er| {
            let through = ew + lb_w[v as usize];
            if best.is_none_or(|(bw, _, _, _)| through < bw) {
                best = Some((through, v, ew, er));
            }
        });
        let Some((_, v, ew, er)) = best else {
            return f64::INFINITY; // dead end: no usable incumbent
        };
        w += ew;
        r += er;
        node = v;
    }
    if le_tol(r, bound) {
        w
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    type G = DiGraph<(), (f64, f64)>;
    type Metric = fn(EdgeId, &(f64, f64)) -> f64;

    /// Weight = the payload's `.0`, resource = its `.1`.
    fn x(g: &G) -> ClosureExpand<'_, (), (f64, f64), Metric, Metric> {
        ClosureExpand::new(g, |_, e| e.0, |_, e| e.1)
    }

    fn csp(g: &G, s: NodeId, t: NodeId, bound: f64) -> Option<CspSolution> {
        constrained_shortest_path(&mut x(g), s.0, t.0, bound)
    }

    fn potentials(g: &G, t: NodeId) -> Option<Potentials> {
        dag_potentials(&mut x(g), t.0)
    }

    fn guided(g: &G, s: NodeId, t: NodeId, bound: f64, pot: &Potentials) -> CspRun {
        constrained_shortest_path_with_bounds(
            &mut x(g),
            s.0,
            t.0,
            bound,
            &pot.min_weight_to,
            &pot.min_resource_to,
        )
    }

    /// Two-metric diamond where the cheapest path violates the bound.
    #[test]
    fn constraint_forces_the_expensive_path() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        // Fast but costly: weight 2, resource 10.
        g.add_edge(s, a, (1.0, 5.0));
        g.add_edge(a, t, (1.0, 5.0));
        // Slow but cheap: weight 6, resource 2.
        g.add_edge(s, b, (3.0, 1.0));
        g.add_edge(b, t, (3.0, 1.0));

        let sol = csp(&g, s, t, 4.0).unwrap();
        assert_eq!(sol.weight, 6.0);
        assert_eq!(sol.resource, 2.0);

        let unbounded = csp(&g, s, t, f64::INFINITY).unwrap();
        assert_eq!(unbounded.weight, 2.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, (1.0, 100.0));
        assert!(csp(&g, s, t, 50.0).is_none());
    }

    #[test]
    fn exact_bound_is_feasible() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, (1.0, 100.0));
        let sol = csp(&g, s, t, 100.0);
        assert!(sol.is_some());
    }

    #[test]
    fn source_is_target() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let sol = csp(&g, s, s, 0.0).unwrap();
        assert_eq!(sol.weight, 0.0);
        assert!(sol.edges.is_empty());
    }

    /// Regression for the epsilon fix: at ~1e9 metric scale (nano-dollar
    /// resources summed in f64), path sums carry float noise far above
    /// the old absolute `1e-12` slack, which therefore rejected
    /// mathematically feasible paths. The relative tolerance accepts
    /// them; a genuinely over-bound path (0.1% over) is still rejected.
    #[test]
    fn near_tied_resources_at_large_scale_use_relative_tolerance() {
        let bound = 1e9;
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        // Within float noise of the bound (3e-13 relative, ~3e-4
        // absolute): feasible under REL_TOL, "infeasible" under the old
        // absolute 1e-12 check.
        g.add_edge(s, t, (5.0, bound * (1.0 + 3e-13)));
        // Clearly under the bound but much slower: the fallback the old
        // epsilon would have wrongly selected.
        g.add_edge(s, t, (50.0, 0.5e9));
        let sol = csp(&g, s, t, bound).unwrap();
        assert_eq!(sol.weight, 5.0, "noise-level overshoot must stay feasible");

        // A real violation (0.1% over) is still infeasible.
        let mut g2: G = DiGraph::new();
        let s2 = g2.add_node(());
        let t2 = g2.add_node(());
        g2.add_edge(s2, t2, (5.0, bound * 1.001));
        assert!(csp(&g2, s2, t2, bound).is_none());
    }

    /// Near-tied *dominance* at large scale: a slightly-heavier label
    /// (noise-level difference) is treated as tied and pruned, keeping
    /// frontiers tight without changing which optimum is returned.
    #[test]
    fn near_tied_dominance_prunes_noise_level_duplicates() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        let w = 1e9;
        g.add_edge(s, m, (w, 1.0));
        g.add_edge(s, m, (w * (1.0 + 1e-13), 1.0)); // noise-level twin
        g.add_edge(m, t, (1.0, 1.0));
        let sol = csp(&g, s, t, 10.0).unwrap();
        assert_eq!(sol.weight, w + 1.0);
    }

    /// Exhaustive DFS reference for randomized cross-checks.
    fn brute_force(g: &G, s: NodeId, t: NodeId, bound: f64) -> Option<(f64, f64)> {
        #[allow(clippy::too_many_arguments)]
        fn dfs(
            g: &G,
            u: NodeId,
            t: NodeId,
            bound: f64,
            w: f64,
            r: f64,
            visited: &mut Vec<bool>,
            best: &mut Option<(f64, f64)>,
        ) {
            if r > bound + 1e-12 {
                return;
            }
            if u == t {
                if best.is_none() || w < best.unwrap().0 {
                    *best = Some((w, r));
                }
                return;
            }
            visited[u.0 as usize] = true;
            for (eid, &(ew, er)) in g.out_edges(u) {
                let (_, v) = g.endpoints(eid);
                if !visited[v.0 as usize] {
                    dfs(g, v, t, bound, w + ew, r + er, visited, best);
                }
            }
            visited[u.0 as usize] = false;
        }
        let mut best = None;
        let mut visited = vec![false; g.node_count()];
        dfs(g, s, t, bound, 0.0, 0.0, &mut visited, &mut best);
        best
    }

    /// Random layered DAG like the planner's: 4 layers, 2-4 nodes each.
    fn random_layered_dag(rng: &mut StdRng) -> (G, NodeId, NodeId) {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let mut prev = vec![s];
        for _ in 0..4 {
            let k = rng.random_range(2..5usize);
            let layer: Vec<NodeId> = (0..k).map(|_| g.add_node(())).collect();
            for &u in &prev {
                for &v in &layer {
                    g.add_edge(
                        u,
                        v,
                        (rng.random_range(0.0..5.0), rng.random_range(0.0..5.0)),
                    );
                }
            }
            prev = layer;
        }
        let t = g.add_node(());
        for &u in &prev {
            g.add_edge(u, t, (0.0, 0.0));
        }
        (g, s, t)
    }

    #[test]
    fn matches_brute_force_on_random_layered_dags() {
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..60 {
            let (g, s, t) = random_layered_dag(&mut rng);
            let bound = rng.random_range(5.0..20.0);
            let got = csp(&g, s, t, bound);
            let want = brute_force(&g, s, t, bound);
            match (got, want) {
                (None, None) => {}
                (Some(sol), Some((bw, _))) => {
                    assert!(
                        (sol.weight - bw).abs() < 1e-9,
                        "case {case}: got {} want {bw}",
                        sol.weight
                    );
                    assert!(sol.resource <= bound + 1e-9);
                }
                other => panic!("case {case}: feasibility mismatch {other:?}"),
            }
        }
    }

    /// The potential-guided search must return bit-identical optima to
    /// the plain search — same weight, resource, and edge sequence — on
    /// randomized layered DAGs across tight, binding, and loose bounds.
    #[test]
    fn potentials_match_plain_search_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4242);
        for case in 0..60 {
            let (g, s, t) = random_layered_dag(&mut rng);
            let pot = potentials(&g, t).expect("layered DAG");
            for bound in [3.0, 8.0, 14.0, f64::INFINITY] {
                let plain = csp(&g, s, t, bound);
                let run = guided(&g, s, t, bound, &pot);
                match (&plain, &run.solution) {
                    (None, None) => {}
                    (Some(p), Some(q)) => {
                        assert_eq!(
                            p.weight.to_bits(),
                            q.weight.to_bits(),
                            "case {case} bound {bound}: weight"
                        );
                        assert_eq!(
                            p.resource.to_bits(),
                            q.resource.to_bits(),
                            "case {case} bound {bound}: resource"
                        );
                        assert_eq!(p.edges, q.edges, "case {case} bound {bound}: path");
                    }
                    other => panic!("case {case} bound {bound}: feasibility mismatch {other:?}"),
                }
            }
        }
    }

    /// The potentials themselves are true minima: descending to the
    /// target can realize them, and they lower-bound every path.
    #[test]
    fn potentials_are_admissible_minima() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, (1.0, 5.0));
        g.add_edge(a, t, (1.0, 5.0));
        g.add_edge(s, b, (3.0, 1.0));
        g.add_edge(b, t, (3.0, 1.0));
        let pot = potentials(&g, t).unwrap();
        assert_eq!(pot.min_weight_to[s.0 as usize], 2.0);
        assert_eq!(pot.min_resource_to[s.0 as usize], 2.0);
        assert_eq!(pot.min_weight_to[a.0 as usize], 1.0);
        assert_eq!(pot.min_resource_to[b.0 as usize], 1.0);
        assert_eq!(pot.min_weight_to[t.0 as usize], 0.0);
    }

    /// A node that cannot reach the target carries infinite potentials
    /// and its labels are pruned instead of expanded.
    #[test]
    fn unreachable_branches_are_pruned() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let dead = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, dead, (0.1, 0.1)); // dead end
        g.add_edge(s, t, (1.0, 1.0));
        let pot = potentials(&g, t).unwrap();
        assert!(pot.min_weight_to[dead.0 as usize].is_infinite());
        let run = guided(&g, s, t, 10.0, &pot);
        assert_eq!(run.solution.unwrap().weight, 1.0);
        assert!(run.stats.pruned_bound >= 1, "dead branch must be pruned");
    }

    /// Pruning counters fire: with a binding bound, the potential-guided
    /// search discards work the plain search would have done.
    #[test]
    fn pruning_reduces_search_effort() {
        let mut rng = StdRng::seed_from_u64(99);
        let (g, s, t) = random_layered_dag(&mut rng);
        let pot = potentials(&g, t).unwrap();
        let run = guided(&g, s, t, 9.0, &pot);
        assert!(run.solution.is_some());
        assert!(
            run.stats.pruned_total() > 0,
            "expected pruning on a binding bound: {:?}",
            run.stats
        );
        // With the bound loose, the incumbent from the feasible greedy
        // min-weight path caps pushes at the true optimum's priority and
        // the answer is exactly that optimum.
        let loose = guided(&g, s, t, f64::INFINITY, &pot);
        // (Approximate: the forward path sum and the backward DP sum
        // accumulate in different orders.)
        let lsol = loose.solution.unwrap();
        assert!((lsol.weight - pot.min_weight_to[s.0 as usize]).abs() < 1e-9);
    }

    /// Infeasibility is detected from the source potential alone.
    #[test]
    fn potentials_detect_infeasibility_immediately() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, (1.0, 100.0));
        let pot = potentials(&g, t).unwrap();
        let run = guided(&g, s, t, 50.0, &pot);
        assert!(run.solution.is_none());
        assert_eq!(run.stats.labels_created, 0, "no search needed");
    }

    #[test]
    fn solution_edges_are_contiguous() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let mid: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        let t = g.add_node(());
        for &m in &mid {
            g.add_edge(
                s,
                m,
                (rng.random_range(0.0..3.0), rng.random_range(0.0..3.0)),
            );
            g.add_edge(
                m,
                t,
                (rng.random_range(0.0..3.0), rng.random_range(0.0..3.0)),
            );
        }
        let sol = csp(&g, s, t, 100.0).unwrap();
        assert_eq!(sol.edges.len(), 2);
        assert_eq!(g.endpoints(sol.edges[0]).0, s);
        assert_eq!(g.endpoints(sol.edges[0]).1, g.endpoints(sol.edges[1]).0);
        assert_eq!(g.endpoints(sol.edges[1]).1, t);
    }
}
