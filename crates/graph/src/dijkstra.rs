//! Single-source shortest paths (Dijkstra), optionally A*-guided.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::csp::{EdgeExpand, Guide, Guided, Unguided};
use crate::graph::EdgeId;

/// A shortest path: its total weight and the edge sequence from source to
/// target.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// Sum of edge weights along the path.
    pub weight: f64,
    /// Edges in order from source to target.
    pub edges: Vec<EdgeId>,
    /// Each edge's resource metric, in path order (Algorithm 1 walks
    /// these to find where its constraint trips).
    pub resources: Vec<f64>,
}

#[derive(PartialEq)]
struct HeapEntry {
    prio: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priority; tie-break on node id for determinism.
        other
            .prio
            .total_cmp(&self.prio)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra's algorithm from `source` to `target` on the store's weight
/// metric (which must be **non-negative**; negative weights panic in
/// debug builds and corrupt results in release, as usual for Dijkstra).
///
/// * `lb_weight` optionally guides the search A*-style: `lb[v]` is an
///   admissible, *consistent* lower bound on the remaining weight from
///   `v` to `target` (e.g. [`crate::csp::Potentials::min_weight_to`]).
///   The heap is then keyed on `d + lb[v]`, so far fewer nodes settle,
///   while the returned path and its exact float weight match the
///   unguided search whenever weights are tie-free: both settle nodes
///   once, relax with strict `<`, and accumulate `d + w` identically
///   along the chosen path. Nodes with `lb[v] = INFINITY` (cannot reach
///   the target at all) are never pushed. `None` is the plain search,
///   the same body with zero bounds.
/// * `enabled` masks edges: the paper's Algorithm 1 re-runs Dijkstra on
///   subgraphs, which this avoids copying. Bounds computed on the full
///   graph stay consistent on every masked subgraph, because removing
///   edges only raises true distances.
///
/// Returns `None` when `target` is unreachable through enabled edges.
pub fn shortest_path<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    lb_weight: Option<&[f64]>,
    enabled: impl FnMut(EdgeId) -> bool,
) -> Option<ShortestPath> {
    match lb_weight {
        None => dijkstra_core(g, source, target, Unguided, enabled),
        // Dijkstra reads only the weight bound.
        Some(lb) => dijkstra_core(
            g,
            source,
            target,
            Guided {
                lb_w: lb,
                lb_r: &[],
            },
            enabled,
        ),
    }
}

/// The one Dijkstra body, monomorphized per [`Guide`] like the CSP
/// label core: [`Unguided`] compiles to the plain search.
fn dijkstra_core<X: EdgeExpand, G: Guide>(
    g: &mut X,
    source: u32,
    target: u32,
    guide: G,
    mut enabled: impl FnMut(EdgeId) -> bool,
) -> Option<ShortestPath> {
    if G::GUIDED && guide.lb_w(source).is_infinite() {
        return None;
    }
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    // Per node: the edge that reached it, that edge's tail and resource.
    let mut prev: Vec<Option<(EdgeId, u32, f64)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source as usize] = 0.0;
    heap.push(HeapEntry {
        prio: if G::GUIDED { guide.lb_w(source) } else { 0.0 },
        node: source,
    });

    while let Some(HeapEntry { node: u, .. }) = heap.pop() {
        let ui = u as usize;
        if done[ui] {
            continue;
        }
        done[ui] = true;
        if u == target {
            break;
        }
        let d = dist[ui];
        g.for_each_out(u, |eid, v, w, r| {
            if !enabled(eid) {
                return;
            }
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            if G::GUIDED && guide.lb_w(v).is_infinite() {
                return; // cannot reach the target from v
            }
            let vi = v as usize;
            let nd = d + w;
            if nd < dist[vi] {
                dist[vi] = nd;
                prev[vi] = Some((eid, u, r));
                heap.push(HeapEntry {
                    prio: if G::GUIDED { nd + guide.lb_w(v) } else { nd },
                    node: v,
                });
            }
        });
    }

    if !done[target as usize] || !dist[target as usize].is_finite() {
        return None;
    }
    // Reconstruct the edge sequence by walking predecessors.
    let (mut edges, mut resources) = (Vec::new(), Vec::new());
    let mut cur = target;
    while cur != source {
        let (e, tail, r) = prev[cur as usize].expect("broken predecessor chain");
        edges.push(e);
        resources.push(r);
        cur = tail;
    }
    edges.reverse();
    resources.reverse();
    Some(ShortestPath {
        weight: dist[target as usize],
        edges,
        resources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp::{dag_potentials, ClosureExpand};
    use crate::graph::{DiGraph, NodeId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    type G = DiGraph<(), f64>;
    type Metric = fn(EdgeId, &f64) -> f64;

    /// Weight = the payload, resource = 0.
    fn view(g: &G) -> ClosureExpand<'_, (), f64, Metric, Metric> {
        ClosureExpand::new(g, |_, e| *e, |_, _| 0.0)
    }

    fn shortest_path_all(g: &G, s: NodeId, t: NodeId) -> Option<ShortestPath> {
        shortest_path(&mut view(g), s.0, t.0, None, |_| true)
    }

    /// Node sequence of a path (source first).
    fn nodes(g: &G, source: NodeId, p: &ShortestPath) -> Vec<NodeId> {
        let mut out = vec![source];
        out.extend(p.edges.iter().map(|&e| g.endpoints(e).1));
        out
    }

    #[test]
    fn picks_cheaper_branch() {
        let mut g = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 1.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(b, t, 5.0);
        let p = shortest_path_all(&g, s, t).unwrap();
        assert_eq!(p.weight, 2.0);
        assert_eq!(nodes(&g, s, &p), vec![s, a, t]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        assert!(shortest_path_all(&g, s, t).is_none());
    }

    #[test]
    fn source_equals_target_is_empty_path() {
        let mut g: G = DiGraph::new();
        let s = g.add_node(());
        let p = shortest_path_all(&g, s, s).unwrap();
        assert_eq!(p.weight, 0.0);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn masked_edge_forces_detour() {
        let mut g = DiGraph::new();
        let s = g.add_node(());
        let t = g.add_node(());
        let direct = g.add_edge(s, t, 1.0);
        let a = g.add_node(());
        g.add_edge(s, a, 2.0);
        g.add_edge(a, t, 2.0);
        let p = shortest_path(&mut view(&g), s.0, t.0, None, |e| e != direct).unwrap();
        assert_eq!(p.weight, 4.0);
        assert_eq!(p.edges.len(), 2);
    }

    #[test]
    fn zero_weight_edges_work() {
        let mut g = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 0.0);
        g.add_edge(a, t, 0.0);
        let p = shortest_path_all(&g, s, t).unwrap();
        assert_eq!(p.weight, 0.0);
    }

    #[test]
    fn path_carries_each_edge_resource() {
        let mut g: DiGraph<(), (f64, f64)> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, (1.0, 7.0));
        g.add_edge(a, t, (1.0, 3.0));
        let mut x = ClosureExpand::new(&g, |_, e: &(f64, f64)| e.0, |_, e: &(f64, f64)| e.1);
        let p = shortest_path(&mut x, s.0, t.0, None, |_| true).unwrap();
        assert_eq!(p.resources, vec![7.0, 3.0]);
    }

    /// Bellman–Ford reference used for randomized cross-checks.
    fn bellman_ford(g: &G, s: NodeId, t: NodeId) -> Option<f64> {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[s.0 as usize] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for u in g.node_ids() {
                if !dist[u.0 as usize].is_finite() {
                    continue;
                }
                for (eid, &wt) in g.out_edges(u) {
                    let (_, v) = g.endpoints(eid);
                    let nd = dist[u.0 as usize] + wt;
                    if nd < dist[v.0 as usize] {
                        dist[v.0 as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist[t.0 as usize].is_finite().then_some(dist[t.0 as usize])
    }

    #[test]
    fn matches_bellman_ford_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..50 {
            let n = rng.random_range(2..30usize);
            let mut g: G = DiGraph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.random::<f64>() < 0.3 {
                        g.add_edge(nodes[i], nodes[j], rng.random_range(0.0..10.0));
                    }
                }
            }
            let s = nodes[0];
            let t = nodes[n - 1];
            let dij = shortest_path_all(&g, s, t).map(|p| p.weight);
            let bf = bellman_ford(&g, s, t);
            match (dij, bf) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    /// The A*-guided search matches plain Dijkstra bit-for-bit on random
    /// DAGs when guided by its own exact backward potentials, including
    /// under edge masks computed against the *unmasked* potentials (the
    /// Algorithm 1 usage pattern).
    #[test]
    fn guided_matches_plain_under_masks() {
        let mut rng = StdRng::seed_from_u64(515);
        for case in 0..50 {
            let n = rng.random_range(3..25usize);
            let mut g: G = DiGraph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            let mut eids = Vec::new();
            for i in 0..n - 1 {
                eids.push(g.add_edge(nodes[i], nodes[i + 1], rng.random_range(0.01..5.0)));
                for j in (i + 2)..n {
                    if rng.random::<f64>() < 0.3 {
                        eids.push(g.add_edge(nodes[i], nodes[j], rng.random_range(0.01..5.0)));
                    }
                }
            }
            let (s, t) = (nodes[0], nodes[n - 1]);
            let pot = dag_potentials(&mut view(&g), t.0).unwrap();
            // Mask a random subset of edges; the unmasked potentials stay
            // admissible and consistent on the subgraph.
            let masked: Vec<EdgeId> = eids
                .iter()
                .copied()
                .filter(|_| rng.random::<f64>() < 0.2)
                .collect();
            let enabled = |e: EdgeId| !masked.contains(&e);
            let plain = shortest_path(&mut view(&g), s.0, t.0, None, enabled);
            let guided = shortest_path(&mut view(&g), s.0, t.0, Some(&pot.min_weight_to), enabled);
            match (&plain, &guided) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(
                        p.weight.to_bits(),
                        q.weight.to_bits(),
                        "case {case}: weight"
                    );
                    assert_eq!(p.edges, q.edges, "case {case}: path");
                }
                other => panic!("case {case}: reachability mismatch {other:?}"),
            }
        }
    }

    proptest! {
        #[test]
        fn path_weight_equals_sum_of_edges(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..20usize);
            let mut g: G = DiGraph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for i in 0..n - 1 {
                // Guarantee connectivity along the chain, plus random skips.
                g.add_edge(nodes[i], nodes[i + 1], rng.random_range(0.0..5.0));
                for j in (i + 2)..n {
                    if rng.random::<f64>() < 0.2 {
                        g.add_edge(nodes[i], nodes[j], rng.random_range(0.0..5.0));
                    }
                }
            }
            let p = shortest_path_all(&g, nodes[0], nodes[n - 1]).unwrap();
            let sum: f64 = p.edges.iter().map(|&e| *g.edge(e)).sum();
            prop_assert!((sum - p.weight).abs() < 1e-9);
            // Path must be contiguous from source to target.
            let seq = super::tests::nodes(&g, nodes[0], &p);
            prop_assert_eq!(seq[0], nodes[0]);
            prop_assert_eq!(*seq.last().unwrap(), nodes[n - 1]);
            for (k, &e) in p.edges.iter().enumerate() {
                prop_assert_eq!(g.endpoints(e).0, seq[k]);
                prop_assert_eq!(g.endpoints(e).1, seq[k + 1]);
            }
        }
    }
}
