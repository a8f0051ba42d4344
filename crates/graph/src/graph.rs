//! Arena-allocated directed graph with typed payloads.

use std::fmt;

/// Index of a node in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Node<N> {
    payload: N,
    first_out: Option<EdgeId>,
}

#[derive(Debug, Clone)]
struct Edge<E> {
    from: NodeId,
    to: NodeId,
    payload: E,
    next_out: Option<EdgeId>,
}

/// A directed graph stored in two flat arenas with intrusive out-edge lists.
///
/// The small-graph builder for tests and benches: the algorithms read it
/// through [`crate::csp::ClosureExpand`]. (The planner's own DAG lives in
/// a flat CSR store instead.)
#[derive(Debug, Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<Node<N>>,
    edges: Vec<Edge<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// An empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a node carrying `payload`, returning its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            payload,
            first_out: None,
        });
        id
    }

    /// Add a directed edge `from -> to` carrying `payload`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, payload: E) -> EdgeId {
        assert!((from.0 as usize) < self.nodes.len(), "bad source node");
        assert!((to.0 as usize) < self.nodes.len(), "bad target node");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        let head = self.nodes[from.0 as usize].first_out;
        self.edges.push(Edge {
            from,
            to,
            payload,
            next_out: head,
        });
        self.nodes[from.0 as usize].first_out = Some(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Payload of `node`.
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.0 as usize].payload
    }

    /// Payload of `edge`.
    pub fn edge(&self, edge: EdgeId) -> &E {
        &self.edges[edge.0 as usize].payload
    }

    /// Endpoints of `edge` as `(from, to)`.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.0 as usize];
        (e.from, e.to)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Out-edges of `node` (most recently added first).
    pub fn out_edges(&self, node: NodeId) -> OutEdges<'_, N, E> {
        OutEdges {
            graph: self,
            next: self.nodes[node.0 as usize].first_out,
        }
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges(node).count()
    }

    /// A topological order of the nodes, or `None` if the graph has a
    /// cycle: [`kahn_order`] with successors in `out_edges` order.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let order = kahn_order(self.nodes.len(), self.edges.iter().map(|e| e.to.0), |u| {
            self.out_edges(NodeId(u))
                .map(|(eid, _)| self.endpoints(eid).1 .0)
        })?;
        Some(order.into_iter().map(NodeId).collect())
    }

    /// True iff the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }
}

/// Kahn's algorithm over nodes `0..n`: `heads` lists the head of every
/// edge and `successors(u)` the heads of `u`'s out-edges. Nodes with no
/// incoming edge are stacked in id order and a node's successors are
/// visited in the order `successors` gives, so any two stores that list
/// the same successors in the same order get the same order back.
/// Returns `None` if the graph has a cycle.
pub fn kahn_order<S: IntoIterator<Item = u32>>(
    n: usize,
    heads: impl IntoIterator<Item = u32>,
    mut successors: impl FnMut(u32) -> S,
) -> Option<Vec<u32>> {
    let mut in_deg = vec![0u32; n];
    for v in heads {
        in_deg[v as usize] += 1;
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = stack.pop() {
        order.push(u);
        for v in successors(u) {
            in_deg[v as usize] -= 1;
            if in_deg[v as usize] == 0 {
                stack.push(v);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Iterator over a node's out-edges.
pub struct OutEdges<'g, N, E> {
    graph: &'g DiGraph<N, E>,
    next: Option<EdgeId>,
}

impl<'g, N, E> Iterator for OutEdges<'g, N, E> {
    type Item = (EdgeId, &'g E);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.next?;
        let edge = &self.graph.edges[id.0 as usize];
        self.next = edge.next_out;
        Some((id, &edge.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, f64>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 2.0);
        g.add_edge(a, t, 3.0);
        g.add_edge(b, t, 4.0);
        (g, [s, a, b, t])
    }

    #[test]
    fn add_and_query() {
        let (g, [s, a, _, t]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(s), "s");
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.out_degree(t), 0);
        assert_eq!(g.out_degree(a), 1);
    }

    #[test]
    fn out_edges_cover_all_successors() {
        let (g, [s, a, b, _]) = diamond();
        let targets: Vec<NodeId> = g.out_edges(s).map(|(e, _)| g.endpoints(e).1).collect();
        assert!(targets.contains(&a));
        assert!(targets.contains(&b));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn topological_order_of_dag() {
        let (g, [s, a, b, t]) = diamond();
        let order = g.topological_order().unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(s) < pos(a));
        assert!(pos(s) < pos(b));
        assert!(pos(a) < pos(t));
        assert!(pos(b) < pos(t));
        assert!(g.is_dag());
    }

    #[test]
    fn cycle_detected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(!g.is_dag());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(!g.is_dag());
    }

    #[test]
    #[should_panic(expected = "bad target node")]
    fn edge_to_unknown_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7), ());
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.out_degree(a), 2);
    }
}
