//! The Fig. 5 planner DAG.
//!
//! Six node columns between a source and a sink:
//!
//! ```text
//! S -> mapper mem (x_i) -> k_M (n_j) -> (k_M,k_R) -> (k_M,k_R,coord mem) -> reducer mem (z_s) -> D
//! ```
//!
//! The paper draws column 3 as "number of objects per reducer" and
//! column 4 as "coordinator memory", but the edge weights it assigns to
//! the later edge sets depend on *earlier* columns' choices (e.g. the
//! reducing-phase compute time needs `j` and `k_R` as well as `z_s`). To
//! make every edge weight well-defined from its endpoints alone — the
//! property shortest-path optimality needs — columns 3 and 4 are
//! state-expanded: a column-3 node is a `(k_M, k_R)` pair and a column-4
//! node additionally carries the coordinator tier. Column 2 stays `k_M`
//! (not `j`): distinct `k_M` with equal `j` differ in skew, so `k_M` is
//! the real decision variable.
//!
//! Every edge carries **both** metrics (time and cost), assigned so that
//! each term of Eq. 16 and Eq. 20 lands on exactly one edge:
//!
//! | Edge set | time | cost |
//! |---|---|---|
//! | `x_i -> k_M` | `T1` (Eq. 4) | `U1 + V1 + W1` |
//! | `k_M -> (k_M,k_R)` | 0 | `U2 + UP + I2 + I3` |
//! | `(k_M,k_R) -> +coord` | `T2 = c2 + P·l/B(a)` (Eq. 6) | `V2` |
//! | `+coord -> z_s` | reduce phase `T_P(s)` (Eq. 9) | `VP + WP + W2-runtime` |
//!
//! Summing either metric over a path reproduces the analytical model for
//! that configuration exactly (integration tests assert this), so an
//! unconstrained shortest path is the true model optimum and a constrained
//! shortest path solves the paper's Eq. 16–19 / Eq. 20–22.
//!
//! Edges whose configuration violates platform constraints (Eq. 18
//! concurrency/storage caps, per-function timeout) are simply not added.
//!
//! ## Dominance pruning
//!
//! By default ([`PruneConfig::on`]) construction drops tier candidates
//! whose (time, cost) edge bundles are Pareto-dominated in *every*
//! context they appear in:
//!
//! * **mapper tiers** per `k_M` — the source edge is (0, 0) and the
//!   continuation after the `k_M` node is tier-independent, so if tier
//!   `b`'s mapper edge is `<=` tier `a`'s on both metrics (one strict),
//!   every path through `a` is beaten (or exactly matched earlier in
//!   tie-break order) by the same path through `b`;
//! * **coordinator tiers** per `(k_M, k_R)` — a path through coordinator
//!   `a` and reducer tier `s` adds time `t2(a) + phase(s)` and cost
//!   `e3(a) + e4(s, a)`; `phase(s)` cancels when comparing coordinators,
//!   so dominance is `t2` on time and the combined `e3 + e4` per reducer
//!   continuation on cost (with coverage: the dominator must offer every
//!   continuation the dominated tier offers);
//! * **reducer tiers** per `(k_M, k_R, coordinator)` — the final column
//!   edge to the sink is (0, 0), so the final-edge bundle alone decides.
//!
//! Tier dominance is exact (`<=` with at least one strict `<`, integer
//! nanos for cost); exact ties are always kept. A dominated candidate
//! cannot lie on a *strictly* optimal constrained path for any bound, and
//! for tied paths the label-setting solver already settles the dominator
//! first and kills the dominated arrival via its `<=` frontier check —
//! so pruned and unpruned DAGs return identical optima (equivalence
//! tests assert config-level identity against the unpruned exhaustive
//! solver).
//!
//! * **pair subtrees** — a whole `(k_M, k_R)` column-3 node, with its
//!   coordinators and final edges, is dropped when *every* source→sink
//!   path through it is dominated by another path of the DAG, and a
//!   `k_M` node left with no pair goes with its mapper edges. Here `q`
//!   dominates `p` only if it is faster by more than
//!   `PATH_TIME_MARGIN_S` (1e-9 s) **and** at least one nanodollar
//!   cheaper. Time is summed as `(T1 + t2) + phase`, the solvers' order;
//!   cost in integer nanos. Strictness on both metrics keeps ties and the
//!   float near-ties of the solvers' f64 micro-dollar sums: a dropped
//!   path is beaten on both metrics by a kept one with room to spare,
//!   so it is never an optimum for any budget or deadline.
//!
//!   The check is global and exact, but most pairs never build their
//!   frame (the per-tier model evaluation) or their T×T table. Every
//!   pair first gets a frame-free lower bound (`pair_bound`): per
//!   reducer tier a span, a coordinator wait and a final-edge cost no
//!   larger than the model's, from a per-build tier table and a few
//!   tier-free aggregates of the pair's reduce schedule, plus the pair's
//!   least coordinator time and `e3`. The bound gives each pair a few
//!   bound points (per tier, through its fastest and its cheapest mapper
//!   edge); the seeds are the pairs with a bound point that the
//!   staircase of all pairs' bound points does not dominate. The seeds
//!   are framed and priced in full and give an incumbent staircase of
//!   real paths. Every other pair is certified dead when its bound
//!   points are all dominated by that staircase, still without a frame;
//!   the rest are framed and priced. One frontier pass then keeps
//!   exactly the priced pairs with a path no priced path dominates (per
//!   pair and tier it checks the fastest and cheapest real points first
//!   and expands a tier's full points only where that summary escapes).
//!   A certified pair's paths are dominated by real, priced paths, and
//!   margin dominance is transitive, so the kept set is "every pair with
//!   an undominated path" whatever the seeds, the bounds or the thread
//!   count: skipping a frame never changes the DAG.
//!
//! [`PlannerDag::prune_stats`] reports how much was removed.
//!
//! Columns 3–4 are pruned on a dense table, not on edge lists. Per
//! `(k_M, k_R)` the builder fills one T×T `i64` table of final-edge
//! costs (`NO_EDGE` where a coordinator cannot reach a reducer tier),
//! runs coordinator dominance and the O(T) reducer sweep on it, and only
//! then builds edge vectors, for the survivors alone (or for every edge
//! when pruning is off). Two shortcuts fill a row without changing a
//! bit of it:
//!
//! * **Early break.** A row walks the feasible reducer tiers sorted by
//!   the coordinator's wait `w`. The coordinator's billed time
//!   `(t2 + w) + L` is a sum of floats rounded to nearest, which is
//!   monotone, so it cannot decrease along that order: the first tier
//!   over the timeout proves every later one is over it too, and a row's
//!   entries are always a prefix of the wait order.
//! * **Bucket reuse.** Along the same order the coordinator's runtime
//!   charge is priced by a [`BillingCursor`](astra_pricing::BillingCursor),
//!   which re-runs the billing model only when the billed time leaves
//!   the current billing bucket — exact because a nondecreasing duration
//!   below `billed + 0.5` µs rounds into the same bucket.
//!
//! ## Construction order
//!
//! Building columns 2–4 dominates planning time: it evaluates the
//! analytical model once per `(k_M, tier)` for the mapper edges and, for
//! the pairs it prices, once per `(k_M, k_R, tier)` for the reduce
//! edges. [`PlannerDag::build`] evaluates those edge metrics as
//! side-effect-free *recipes*, on the calling thread: a daemon runs one
//! job per worker, so the job, not the build, is the unit of
//! parallelism. Under pruning column 3 runs in three passes: every
//! pair's bound, the seeds' frames and prices, and the other pairs'
//! certificates or prices, with the seed pick and frontier checks
//! between and after them. The DAG is then assembled from the collected
//! recipes in a fixed order — `k_M` in `space.k_m_values` order, `k_R`
//! in candidate order, tiers in `space.memory_tiers_mb` order — so node
//! and edge IDs are a pure function of the inputs.
//!
//! A column-3 recipe prices each `(coordinator, reducer)` pair once, into
//! the table above. Its reducer-tier times come straight from the pair's
//! reduce structure rather than through the [`ModelCache`] memo: no build
//! reads a tier entry twice, so memoizing them only bought write-lock
//! traffic across threads.
//!
//! ## The edge store
//!
//! The DAG's only edge storage is the flat CSR store [`SoaEdges`], next
//! to the node labels. Assembly appends every edge as `(tail, head,
//! metrics)` to one list, in the order above; an edge's id is its index
//! in that list. `SoaEdges::build` lays the list out by one counting
//! sort by tail, newest edge first within a tail, and computes the
//! topological order ([`kahn_order`]) on the flat arrays. Every solver —
//! the exact CSP, its plain oracle, Algorithm 1 and the potentials DP —
//! iterates the store's `time_view`/`cost_view`. A golden-digest test
//! pins the whole build, answers included, bit for bit.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use astra_graph::{kahn_order, EdgeExpand, EdgeId, NodeId};
use astra_model::cost::{
    coordinator_storage_cost, mapper_edge_cost, orchestration_requests_cost, reduce_edge_cost,
    reduce_storage_rate,
};
use astra_model::perf::{coordinator_compute_secs, reduce_tier_times, ReduceStructure};
use astra_model::schedule::{total_input_mb, total_output_mb};
use astra_model::{JobConfig, JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};

use crate::cache::ModelCache;
use crate::space::ConfigSpace;

/// What a DAG node decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Flow source (`S̄`).
    Source,
    /// Column 1: mapper memory tier.
    MapperMem(u32),
    /// Column 2: objects per mapper (`k_M`).
    ObjectsPerMapper(usize),
    /// Column 3: objects per reducer, in the context of a `k_M`.
    ObjectsPerReducer {
        /// The column-2 choice this node extends.
        k_m: usize,
        /// Objects per reducer (`k_R`).
        k_r: usize,
    },
    /// Column 4: coordinator memory tier, in the context of `(k_M, k_R)`.
    CoordinatorMem {
        /// The column-2 choice.
        k_m: usize,
        /// The column-3 choice.
        k_r: usize,
        /// Coordinator memory (MB).
        mem: u32,
    },
    /// Column 5: reducer memory tier.
    ReducerMem(u32),
    /// Flow destination (`D̄`).
    Sink,
}

/// Both path metrics of one edge. Cost is stored as `i64` nano-dollars to
/// keep the edge arena compact (a whole job bill fits with 9 decimal
/// digits of headroom).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMetrics {
    /// Completion-time contribution in seconds.
    pub time_s: f64,
    /// Cost contribution in nano-dollars.
    pub cost_nanos: i64,
}

impl EdgeMetrics {
    /// Cost as [`Money`].
    pub fn cost(&self) -> Money {
        Money::from_nanos(self.cost_nanos as i128)
    }
}

fn metrics(time_s: f64, cost: Money) -> EdgeMetrics {
    EdgeMetrics {
        time_s,
        cost_nanos: nanos_i64(cost),
    }
}

fn nanos_i64(cost: Money) -> i64 {
    let nanos = cost.nanos();
    debug_assert!(nanos >= 0 && nanos <= i64::MAX as i128, "cost out of range");
    nanos as i64
}

/// Controls exactness-preserving Pareto dominance pruning of tier
/// columns during DAG construction (see the module-level "Dominance
/// pruning" section). Defaults to enabled; [`PruneConfig::off`] is the
/// opt-out used by equivalence tests, benches and `--no-prune` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneConfig {
    /// Drop tier candidates whose (time, cost) bundle is Pareto-dominated
    /// in every context they appear in, and `(k_M, k_R)` pair subtrees
    /// none of whose paths is undominated. Tier dominance is *exact*
    /// (`<=` on both metrics with at least one strict `<`), path
    /// dominance strict on both metrics with a margin, so ties are never
    /// dropped, solver tie-breaking is untouched and pruned/unpruned DAGs
    /// yield identical constrained optima.
    pub pareto_tiers: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig { pareto_tiers: true }
    }
}

impl PruneConfig {
    /// Pruning enabled (the default).
    pub fn on() -> Self {
        PruneConfig::default()
    }

    /// Pruning disabled: build the full Fig. 5 DAG.
    pub fn off() -> Self {
        PruneConfig {
            pareto_tiers: false,
        }
    }
}

/// How much dominance pruning removed while building a DAG (all zero
/// when built with [`PruneConfig::off`]). Reported through the
/// `planner.dag.pruned_*` telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// `x_i -> k_M` edges dropped (mapper tier dominated for that `k_M`,
    /// or the `k_M` node left without a pair subtree).
    pub mapper_edges: usize,
    /// Column-4 coordinator nodes dropped within kept pairs (tier
    /// dominated for that `(k_M, k_R)` across every reducer continuation,
    /// or a dead end with no feasible reducer tier). Each takes its `e3`
    /// edge and its final edges with it.
    pub coordinator_nodes: usize,
    /// `+coord -> z_s` final edges dropped within kept pairs (reducer
    /// tier dominated for that `(k_M, k_R, coordinator)` context).
    pub reducer_edges: usize,
    /// `(k_M, k_R)` column-3 subtrees dropped whole: no path through the
    /// pair escapes domination by another path (module docs, "Dominance
    /// pruning"). A dropped pair's own coordinators and final edges are
    /// not counted again above.
    pub pair_subtrees: usize,
    /// Of [`pair_subtrees`](Self::pair_subtrees), those certified dead
    /// on a frame-free lower bound: never framed, no coordinator/reducer
    /// table built.
    pub pairs_unpriced: usize,
}

impl PruneStats {
    /// Total pruned items (edges, nodes and pair subtrees) — a quick
    /// "did pruning fire" signal for tests and gauges.
    pub fn total(&self) -> usize {
        self.mapper_edges + self.coordinator_nodes + self.reducer_edges + self.pair_subtrees
    }
}

/// The built planner DAG for one job: node labels (a node's id is its
/// index) and the edge store.
#[derive(Clone)]
pub struct PlannerDag {
    nodes: Vec<Choice>,
    source: NodeId,
    sink: NodeId,
    prune_stats: PruneStats,
    soa: SoaEdges,
}

/// The planner DAG's edge store, in CSR struct-of-arrays form: per-node
/// slot ranges (`offsets`), and parallel `heads`, `edge_ids`, `times`,
/// `costs` and `multiplicity` arrays the solvers iterate linearly, plus
/// a topological order (`topo`).
///
/// A node's slots hold its out-edges newest first (descending edge id),
/// and `topo` is [`kahn_order`] over the slots. Every exact tie in the
/// searches is broken by this expansion order, so it is part of the
/// answer: the golden digests pin it.
///
/// `multiplicity[i]` records how many raw configuration-space candidates
/// edge `i` represents when the space was built by
/// [`ConfigSpace::bundled`] (1 everywhere otherwise); the
/// `planner.dag.bundles_collapsed` gauge totals the candidates folded
/// away.
#[derive(Clone)]
pub struct SoaEdges {
    offsets: Vec<u32>,
    heads: Vec<u32>,
    edge_ids: Vec<u32>,
    times: Vec<f64>,
    costs: Vec<i64>,
    multiplicity: Vec<u32>,
    topo: Vec<u32>,
}

impl SoaEdges {
    /// Lay out the assembled edge list (`edges[id] = (tail, head,
    /// metrics)`) over the labelled `nodes` in CSR form, with one
    /// counting sort by tail that fills each tail's slots in descending
    /// edge id.
    fn build(
        nodes: &[Choice],
        edges: &[(u32, u32, EdgeMetrics)],
        space: &ConfigSpace,
        j_of_k_m: &HashMap<usize, usize>,
    ) -> SoaEdges {
        let (n, e) = (nodes.len(), edges.len());
        // An edge's multiplicity depends only on its head node.
        let node_multiplicity: Vec<u32> = nodes
            .iter()
            .map(|&v| match v {
                Choice::ObjectsPerMapper(k_m) => space.k_m_weight(k_m) as u32,
                Choice::ObjectsPerReducer { k_m, k_r } => j_of_k_m
                    .get(&k_m)
                    .map_or(1, |&j| space.k_r_weight(j, k_r) as u32),
                _ => 1,
            })
            .collect();
        let mut offsets = vec![0u32; n + 1];
        for &(tail, _, _) in edges {
            offsets[tail as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut next_slot = offsets[..n].to_vec();
        let mut heads = vec![0u32; e];
        let mut edge_ids = vec![0u32; e];
        let mut times = vec![0.0f64; e];
        let mut costs = vec![0i64; e];
        let mut multiplicity = vec![0u32; e];
        for (eid, &(tail, head, m)) in edges.iter().enumerate().rev() {
            let slot = &mut next_slot[tail as usize];
            let i = *slot as usize;
            *slot += 1;
            heads[i] = head;
            edge_ids[i] = eid as u32;
            times[i] = m.time_s;
            costs[i] = m.cost_nanos;
            multiplicity[i] = node_multiplicity[head as usize];
        }
        let topo = kahn_order(n, heads.iter().copied(), |u| {
            heads[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
                .iter()
                .copied()
        })
        .expect("planner DAG is acyclic by construction");
        SoaEdges {
            offsets,
            heads,
            edge_ids,
            times,
            costs,
            multiplicity,
            topo,
        }
    }

    /// Number of edges in the flat store.
    pub fn edges_stored(&self) -> usize {
        self.times.len()
    }

    /// Node `u`'s out-edge slots.
    pub fn slots(&self, u: u32) -> Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }

    /// Per-node slot offsets (`node_count + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Head node of each slot's edge.
    pub fn heads(&self) -> &[u32] {
        &self.heads
    }

    /// Assembly-order id of each slot's edge.
    pub fn edge_ids(&self) -> &[u32] {
        &self.edge_ids
    }

    /// Time metric (seconds) of each slot's edge.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Cost metric (nano-dollars) of each slot's edge.
    pub fn costs(&self) -> &[i64] {
        &self.costs
    }

    /// Raw configuration candidates each slot's edge stands for.
    pub fn multiplicity(&self) -> &[u32] {
        &self.multiplicity
    }

    /// The stored topological order over all nodes.
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Raw configuration candidates folded into representative edges
    /// (0 for unbundled spaces): `sum(multiplicity - 1)`.
    pub fn bundles_collapsed(&self) -> u64 {
        self.multiplicity.iter().map(|&m| (m - 1) as u64).sum()
    }

    /// A time-primary [`EdgeExpand`] view (weight = seconds, resource =
    /// micro-dollars) for `MinimizeTime` queries.
    pub fn time_view(&self) -> SoaView<'_, false> {
        SoaView { soa: self }
    }

    /// A cost-primary [`EdgeExpand`] view (weight = micro-dollars,
    /// resource = seconds) for `MinimizeCost` queries.
    pub fn cost_view(&self) -> SoaView<'_, true> {
        SoaView { soa: self }
    }
}

/// Linear-scan [`EdgeExpand`] adapter over [`SoaEdges`]. The const
/// parameter selects the weight/resource orientation; cost is converted
/// to micro-dollars (`cost_nanos as f64 * 1e-3`), the solvers' working
/// unit, so both metrics have comparable scale.
pub struct SoaView<'a, const COST_PRIMARY: bool> {
    soa: &'a SoaEdges,
}

impl<const COST_PRIMARY: bool> EdgeExpand for SoaView<'_, COST_PRIMARY> {
    fn node_count(&self) -> usize {
        self.soa.offsets.len() - 1
    }

    fn for_each_out(&mut self, v: u32, mut f: impl FnMut(EdgeId, u32, f64, f64)) {
        for i in self.soa.slots(v) {
            let t = self.soa.times[i];
            let c = self.soa.costs[i] as f64 * 1e-3;
            let (w, r) = if COST_PRIMARY { (c, t) } else { (t, c) };
            f(EdgeId(self.soa.edge_ids[i]), self.soa.heads[i], w, r);
        }
    }

    fn topo_order(&self) -> Option<Vec<u32>> {
        Some(self.soa.topo.clone())
    }
}

/// Column-2 recipe: the mapper edges one `k_M` contributes, as
/// `(mapper-tier index, metrics)` in tier order. Absent `k_M`s (too wide
/// for the concurrency cap, or too slow at every tier) produce no recipe.
struct Col2Recipe {
    k_m: usize,
    j: usize,
    mapper_edges: Vec<(usize, EdgeMetrics)>,
    pruned_edges: usize,
}

/// Column-4 recipe for one coordinator tier within a `(k_M, k_R)`: the
/// `(k_M,k_R) -> +coord` edge plus the final edges to each feasible
/// reducer tier, as `(reducer-tier index, metrics)` in tier order.
struct Col4Recipe {
    e3: EdgeMetrics,
    final_edges: Vec<(usize, EdgeMetrics)>,
}

/// Column-3 recipe: everything one `(k_M, k_R)` pair contributes below
/// column 2. `per_coord` holds `(coordinator tier index, recipe)` pairs
/// in `space.memory_tiers_mb` order (gaps where pruning removed a tier).
struct Col3Recipe {
    k_r: usize,
    e2: EdgeMetrics,
    per_coord: Vec<(usize, Col4Recipe)>,
    pruned_coords: usize,
    pruned_final_edges: usize,
    /// Per reducer tier with final edges, in tier order, the frontier
    /// pass's summary (empty when pruning is off).
    tiers: Vec<TierSummary>,
}

/// One reducer tier of a priced pair, as the frontier pass reads it: the
/// tier's phase span and its least-time and least-cost coordinator
/// entries, each as `(t2, e3 cost + final-edge cost)` (ties broken by the
/// other metric).
#[derive(Clone, Copy)]
struct TierSummary {
    si: usize,
    phase_s: f64,
    fast: (f64, i64),
    cheap: (f64, i64),
}

/// Drop entries whose metric bundle is Pareto-dominated by another entry
/// in the same context: dominator `<=` on both metrics with at least one
/// strict `<`. Comparisons are exact (no epsilon), and exact ties are
/// kept, so the surviving set supports the same constrained optima with
/// the same solver tie-breaks as the full set. Returns how many were
/// dropped.
fn pareto_filter(edges: &mut Vec<(usize, EdgeMetrics)>) -> usize {
    let before = edges.len();
    if before > 128 {
        // Snapshot fallback for absurdly long tier lists (real platforms
        // have <= 46 tiers, so this path never runs in production).
        let snapshot = edges.clone();
        edges.retain(|&(_, m)| {
            !snapshot.iter().any(|&(_, o)| {
                o.time_s <= m.time_s
                    && o.cost_nanos <= m.cost_nanos
                    && (o.time_s < m.time_s || o.cost_nanos < m.cost_nanos)
            })
        });
        return before - edges.len();
    }
    // Allocation-free: mark survivors against the full original set in a
    // bitmask, then compact in place. Semantics identical to the
    // snapshot version — every entry is compared against the whole
    // pre-filter set.
    let mut keep: u128 = 0;
    for i in 0..before {
        let (_, m) = edges[i];
        let dominated = edges.iter().any(|&(_, o)| {
            o.time_s <= m.time_s
                && o.cost_nanos <= m.cost_nanos
                && (o.time_s < m.time_s || o.cost_nanos < m.cost_nanos)
        });
        if !dominated {
            keep |= 1 << i;
        }
    }
    let mut slot = 0;
    edges.retain(|_| {
        let kept = keep >> slot & 1 == 1;
        slot += 1;
        kept
    });
    before - edges.len()
}

/// Cost sentinel for "no edge" in the dense per-tier cost tables; it
/// compares greater than every real cost.
const NO_EDGE: i64 = i64::MAX;

/// [`pareto_filter`]'s exact verdict in O(T) for bundles whose time
/// depends only on the tier. `by_time` lists the candidate tiers as
/// `(time, tier index)` sorted by time, then index; `cost[si]` is tier
/// `si`'s cost in this bundle, or [`NO_EDGE`] if the bundle lacks it.
/// Sets `keep[si]` for the survivors: an entry survives iff it is the
/// cheapest of its equal-time group (ties kept) and strictly cheaper
/// than everything faster.
fn pareto_sweep(by_time: &[(f64, usize)], cost: &[i64], keep: &mut [bool]) {
    keep.fill(false);
    // Cheapest cost over strictly faster entries.
    let mut best = NO_EDGE;
    let mut lo = 0;
    while lo < by_time.len() {
        let t = by_time[lo].0;
        let hi = lo + by_time[lo..].iter().take_while(|&&(u, _)| u == t).count();
        let group = &by_time[lo..hi];
        let group_min = group
            .iter()
            .map(|&(_, si)| cost[si])
            .min()
            .unwrap_or(NO_EDGE);
        for &(_, si) in group {
            // `< best` also rejects NO_EDGE, since `best <= NO_EDGE`.
            keep[si] = cost[si] == group_min && cost[si] < best;
        }
        best = best.min(group_min);
        lo = hi;
    }
}

/// Compute the column-2 recipe for one `k_M` (pure; safe to run on any
/// thread).
fn col2_recipe(
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    prune: PruneConfig,
    k_m: usize,
) -> Option<Col2Recipe> {
    let job = cache.job();
    let j = job.num_objects().div_ceil(k_m);
    if j.max(2) > platform.max_concurrency as usize {
        return None; // Eq. 18: j <= R
    }
    let mut mapper_edges = Vec::new();
    for (ti, &i_mem) in space.memory_tiers_mb.iter().enumerate() {
        // Computed exactly as the analytical model does, so that a
        // path's metrics match `astra_model::evaluate` bit for bit.
        let phase = cache.mapper_phase(i_mem, k_m);
        if phase.duration_s > platform.timeout_s {
            continue; // this tier is too slow for this k_M
        }
        let cost = mapper_edge_cost(job, &phase, i_mem, platform, catalog, cache.job_total_mb());
        mapper_edges.push((ti, metrics(phase.duration_s, cost)));
    }
    if mapper_edges.is_empty() {
        return None;
    }
    // Mapper-tier dominance for this k_M: the source edge into every
    // tier is (0, 0) and the continuation from the k_M node is tier-
    // independent, so the edge bundle alone decides Pareto dominance.
    let pruned_edges = if prune.pareto_tiers {
        pareto_filter(&mut mapper_edges)
    } else {
        0
    };
    Some(Col2Recipe {
        k_m,
        j,
        mapper_edges,
        pruned_edges,
    })
}

/// Per memory tier, everything a pair's bound and frame read that depends
/// on the tier alone, computed once per build: the ephemeral links,
/// compute rates, the billing rate and the coordinator's own terms. A
/// link's `latency + size / bandwidth` is the platform's `inter_*_secs`
/// bit for bit, without a `powf` per call.
struct TierTable {
    rows: Vec<TierRow>,
    /// `spawn_secs(1)`: the coordinator's own launch.
    coord_spawn_s: f64,
    /// The least and the largest runtime price over the tiers.
    min_rate_nanos_per_s: f64,
    max_rate_nanos_per_s: f64,
}

/// One row of the [`TierTable`].
struct TierRow {
    /// A reducer's fixed time: its state-object GET plus its output
    /// PUT's latency.
    fixed_s: f64,
    /// Ephemeral GET latency (`inter_get_link`).
    get_latency_s: f64,
    /// Seconds per input MB: its GET (`1 / bandwidth`) plus the reduce
    /// compute per MB.
    in_secs_per_mb: f64,
    /// Seconds per output MB: `1 / bandwidth` of the ephemeral PUT link.
    out_secs_per_mb: f64,
    /// Lambda runtime price, nanodollars per second.
    rate_nanos_per_s: f64,
    /// Coordinator planning compute (`c_2`).
    coord_compute_s: f64,
    /// One coordinator state-object PUT.
    state_put_s: f64,
}

impl TierTable {
    fn new(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
    ) -> Self {
        let (profile, shuffle_mb) = (&job.profile, job.shuffle_mb());
        let per_gb_second = catalog.lambda.per_gb_second.nanos() as f64;
        let rows = space
            .memory_tiers_mb
            .iter()
            .map(|&mem| {
                let (get_latency_s, get_bandwidth_mbps) = platform.inter_get_link(mem);
                let (put_latency_s, put_bandwidth_mbps) = platform.inter_put_link(mem);
                let secs_per_mb = platform.secs_per_mb(mem, profile.reduce_secs_per_mb_128);
                let state_get_s = get_latency_s + profile.state_object_mb / get_bandwidth_mbps;
                TierRow {
                    fixed_s: state_get_s + put_latency_s,
                    get_latency_s,
                    in_secs_per_mb: 1.0 / get_bandwidth_mbps + secs_per_mb,
                    out_secs_per_mb: 1.0 / put_bandwidth_mbps,
                    rate_nanos_per_s: per_gb_second * (mem as f64 / 1024.0),
                    coord_compute_s: coordinator_compute_secs(shuffle_mb, platform, profile, mem),
                    state_put_s: put_latency_s + profile.state_object_mb / put_bandwidth_mbps,
                }
            })
            .collect();
        let min_mem_mb = space.memory_tiers_mb.iter().copied().min().unwrap_or(0);
        let max_mem_mb = space.memory_tiers_mb.iter().copied().max().unwrap_or(0);
        TierTable {
            rows,
            coord_spawn_s: platform.spawn_secs(1),
            min_rate_nanos_per_s: per_gb_second * (min_mem_mb as f64 / 1024.0),
            max_rate_nanos_per_s: per_gb_second * (max_mem_mb as f64 / 1024.0),
        }
    }

    /// The coordinator's time `T2` at tier `ai` for a pair of `num_steps`
    /// reduce steps: `coordinator_compute_secs +
    /// coordinator_state_put_secs`, bit for bit.
    fn t2_s(&self, ai: usize, num_steps: usize) -> f64 {
        let row = &self.rows[ai];
        row.coord_compute_s + (self.coord_spawn_s + num_steps as f64 * row.state_put_s)
    }
}

/// The tier-free part of a `(k_M, k_R)` pair that its bound and its
/// frame share: the reduce schedule and the `e2` edge.
struct PairShape {
    k_r: usize,
    structure: Arc<ReduceStructure>,
    /// The reduce phase's pending input volume `Q`.
    pending_input_mb: f64,
    e2: EdgeMetrics,
    /// The final reduce step's launch latency, which the coordinator pays.
    last_spawn_s: f64,
}

/// A pair's [`PairShape`], or `None` if the pair breaks an Eq. 18 cap
/// (pure; safe to run on any thread).
fn pair_shape(
    catalog: &PriceCatalog,
    cache: &ModelCache<'_>,
    k_m: usize,
    k_r: usize,
) -> Option<PairShape> {
    let (job, platform) = (cache.job(), cache.platform());
    let structure = cache.reduce_structure(k_m, k_r);
    // Eq. 18 storage cap: D + S(state) + Q <= O. (`D` via the cache's
    // one-shot total, not an O(N) rescan per (k_M, k_R) pair.)
    let state_mb = job.profile.state_object_mb * structure.num_steps() as f64;
    let pending_input_mb = total_input_mb(&structure.steps);
    if cache.job_total_mb() + state_mb + pending_input_mb > platform.max_storage_mb {
        return None;
    }
    // Concurrency: widest reduce step + the waiting coordinator.
    let widest = structure
        .steps
        .iter()
        .map(|s| s.reducers())
        .max()
        .unwrap_or(0);
    if widest + 1 > platform.max_concurrency as usize {
        return None;
    }
    let e2 = metrics(
        0.0,
        orchestration_requests_cost(&structure, platform, catalog),
    );
    let last_spawn_s = *structure
        .per_step_spawn_s
        .last()
        .expect("at least one step");
    Some(PairShape {
        k_r,
        structure,
        pending_input_mb,
        e2,
        last_spawn_s,
    })
}

/// What one `(k_M, k_R)` pair needs before its T×T table is filled: the
/// pair's `e2` edge, per feasible reducer tier the phase span, the
/// coordinator's wait and the coordinator-independent part of the final
/// edge's cost, and per coordinator tier the `e3` edge.
struct PairFrame {
    k_r: usize,
    e2: EdgeMetrics,
    /// Reduce-phase span per reducer tier (0 for infeasible tiers).
    phase_s: Vec<f64>,
    /// Final-edge cost without the coordinator's runtime charge.
    cost_excl: Vec<Money>,
    /// Feasible reducer tiers as `(coordinator wait, tier)`, by wait.
    by_wait: Vec<(f64, usize)>,
    /// Feasible reducer tiers as `(phase span, tier)`, by span.
    by_time: Vec<(f64, usize)>,
    /// The final reduce step's launch latency, which the coordinator pays.
    last_spawn_s: f64,
    /// The `(k_M,k_R) -> +coord` edge per coordinator tier.
    e3: Vec<EdgeMetrics>,
}

/// Compute a pair's [`PairFrame`] (pure; safe to run on any thread).
fn pair_frame(
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    table: &TierTable,
    shape: &PairShape,
) -> PairFrame {
    let (job, platform) = (cache.job(), cache.platform());
    let tiers = &space.memory_tiers_mb;
    let t = tiers.len();
    let structure = &*shape.structure;

    // Per feasible reducer tier: phase span, the coordinator's wait
    // through the first P-1 steps, and the coordinator-independent part
    // of the final edge's cost. Each tier's times are computed once, here,
    // and never looked up again, so they bypass the model cache's memo.
    let mut phase_s = vec![0.0; t];
    let mut cost_excl = vec![Money::ZERO; t];
    let mut by_wait: Vec<(f64, usize)> = Vec::with_capacity(t);
    let mut by_time: Vec<(f64, usize)> = Vec::with_capacity(t);
    for (si, &s_mem) in tiers.iter().enumerate() {
        let times = reduce_tier_times(structure, platform, &job.profile, s_mem);
        // Step maxima decide feasibility: every reducer fits the
        // timeout iff the slowest one in each step does. No final edge
        // uses an infeasible tier, so it is not costed.
        if !times
            .per_step_max_s
            .iter()
            .all(|&x| x <= platform.timeout_s)
        {
            continue;
        }
        let wait_before_last: f64 = times.per_step_max_s[..times.per_step_max_s.len() - 1]
            .iter()
            .sum();
        // reduce_edge_cost with a zero-duration coordinator gives the
        // coordinator-independent part.
        cost_excl[si] = reduce_edge_cost(
            job,
            structure,
            &times,
            s_mem,
            tiers[0],
            0.0,
            platform,
            catalog,
            cache.job_total_mb(),
        );
        phase_s[si] = times.duration_s();
        by_wait.push((wait_before_last, si));
        by_time.push((phase_s[si], si));
    }
    by_wait.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let e3 = (0..t)
        .map(|ai| {
            let t2_s = table.t2_s(ai, structure.num_steps());
            let e3_cost = coordinator_storage_cost(
                job,
                structure,
                t2_s,
                platform,
                catalog,
                cache.job_total_mb(),
                shape.pending_input_mb,
            );
            metrics(t2_s, e3_cost)
        })
        .collect();

    PairFrame {
        k_r: shape.k_r,
        e2: shape.e2,
        phase_s,
        cost_excl,
        by_wait,
        by_time,
        last_spawn_s: shape.last_spawn_s,
        e3,
    }
}

/// A frame-free lower bound on every path through a pair (see
/// [`pair_bound`]).
struct PairBound {
    e2_nanos: i64,
    /// The least coordinator time `T2` over all coordinator tiers.
    least_t2_s: f64,
    /// The least `e3` cost over all coordinator tiers (already in each
    /// tier's tail; kept for the soundness test).
    #[cfg_attr(not(test), allow(dead_code))]
    least_e3_nanos: i64,
    /// Every reducer tier the exact frame may keep, in tier order.
    #[cfg_attr(not(test), allow(dead_code))]
    tiers: Vec<TierBound>,
    /// The reachable tiers' `(phase span, tail)` bounds reduced to their
    /// staircase: by rising span with strictly falling tail. A tier left
    /// out is no faster and no cheaper than one kept, for every mapper
    /// edge at once, so whatever dominates the kept one dominates it.
    frontier: Vec<(f64, i64)>,
}

/// [`PairBound`] at one reducer tier: each field is at most the exact
/// frame's value for that tier.
#[derive(Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
struct TierBound {
    si: usize,
    /// The reduce-phase span.
    phase_s: f64,
    /// The coordinator's wait through the first `P - 1` steps.
    wait_s: f64,
    /// The final-edge cost without the coordinator's runtime charge.
    cost_excl: Money,
    /// `e3` plus the final-edge cost, for every coordinator tier; `None`
    /// when even the fastest coordinator overruns the timeout, so no
    /// coordinator reaches this tier.
    tail_nanos: Option<i64>,
}

/// The largest-input reducer of one reduce step, and the step's launch.
struct StepBound {
    spawn_s: f64,
    objects: f64,
    input_mb: f64,
    output_mb: f64,
    /// The relative float margin for that reducer (see [`pair_bound`]).
    slack: f64,
}

/// `1 - 4 (n + 4) ε`: a relative margin that covers the float error of
/// evaluating one sum of `n` nonnegative terms in two different ways.
/// Recursive summation of `n` terms errs by at most `n u / (1 - n u)`
/// relative (`u = ε / 2`), and each way adds a few roundings of its own,
/// so `4 (n + 4) ε` (that is `8 (n + 4) u`) bounds the two errors
/// together with room to spare, for any `n` below `2^48`.
fn sum_slack(n: usize) -> f64 {
    1.0 - 4.0 * (n as f64 + 4.0) * f64::EPSILON
}

/// The relative margin of the coordinator's and the storage's linear
/// bill bounds, which sum a few terms (see [`pair_bound`]).
const LINEAR_SLACK: f64 = 1.0 - 32.0 * f64::EPSILON;

/// A rigorous lower bound on every path through a pair, without its
/// frame: O(steps × tiers) arithmetic over the [`TierTable`] and a few
/// tier-free aggregates of the pair's schedule (per step the
/// largest-input reducer; over all steps the totals of reducers,
/// objects, input MB and output MB), with no per-object pass per tier,
/// no per-tier allocation and no `powf`. Costs are bounded in `f64`
/// nanodollars, each with its own rounding allowance; they stay far
/// below `2^50` (a million dollars), where a sum of three of them errs
/// by well under a nanodollar.
///
/// Per reducer tier `s`:
///
/// * **Phase span and wait.** A step lasts as long as its slowest
///   reducer, so at least as long as its largest-input reducer. In real
///   arithmetic that reducer's time `state GET + Σ_i (lat + d_i / bw) +
///   D·u + (put lat + out / put bw)` equals `fixed + n·lat + D·(1/bw +
///   u) + out·(1/put bw)` over the [`TierTable`]'s per-tier terms, with
///   `D` and `out` the very floats the model reads. The model's float
///   evaluation and this one differ by at most the [`sum_slack`] margin
///   for its `n` objects, so the bound scaled by it is at most the
///   model's time. Float addition rounds monotonically, so the steps'
///   sums keep the order: the bound span and the bound wait through the
///   first `P - 1` steps are at most the frame's. A tier whose bound step
///   overruns the timeout is infeasible in the frame too.
/// * **Reducer bill.** A reducer of `t` seconds is billed `per GB-s ×
///   mem × billed µs`, rounded to the nanodollar by `Money::scale`; the
///   billed duration is the nearest microsecond rounded up to the
///   billing granularity, so at least `t - 0.5 µs`. The charge is thus
///   at least `rate·t - rate·0.5 µs - 1/2` (a few ulps aside), and over
///   the pair's `G` reducers at least `rate·Σt - G·(1/2 + rate·0.5 µs)`.
///   `Σt` is at least the aggregates' `G·fixed + objects·lat +
///   Q·(1/bw + u) + R·(1/put bw)` less its [`sum_slack`] margin, and one
///   more nanodollar absorbs the rounding of this arithmetic.
/// * **Storage and rent.** The storage and rent of
///   [`reduce_storage_cost`](astra_model::cost::reduce_storage_cost)
///   are at least [`reduce_storage_rate`] times the span, less that
///   function's stated allowance; the span is at least the bound span.
/// * **Coordinator.** Its time `T2` and `e3` cost are exact per tier
///   (the [`TierTable`]'s `t2_s`), and `e3` is nondecreasing in `T2` for
///   a fixed pair, so the least `e3` lies at the least `T2`. A
///   coordinator on tier `a` runs `(T2(a) + wait) + L` and is billed at
///   least `rate(a)·(T2(a) + wait + L)` less the rounding allowance of
///   the reducer bill, which is at least `min_a rate(a)·T2(a) + (least
///   rate)·(wait + L)`. A tier where even `(least T2 + wait) + L`
///   overruns the timeout is reached by no coordinator.
fn pair_bound(
    catalog: &PriceCatalog,
    cache: &ModelCache<'_>,
    table: &TierTable,
    shape: &PairShape,
) -> PairBound {
    let (job, platform) = (cache.job(), cache.platform());
    let structure = &*shape.structure;
    let num_steps = structure.num_steps();

    // Tier-free aggregates: per step the largest-input reducer, and the
    // totals over all steps.
    let (mut reducers, mut objects) = (0, 0);
    let steps: Vec<StepBound> = structure
        .steps
        .iter()
        .zip(&structure.per_step_spawn_s)
        .map(|(step, &spawn_s)| {
            reducers += step.reducers();
            objects += step.input_objects();
            let (mut n, mut input_mb, mut output_mb) = (0, f64::NEG_INFINITY, 0.0);
            for (objs, &out) in step.assignments.iter().zip(&step.output_sizes) {
                let d: f64 = objs.iter().sum();
                if d > input_mb {
                    (n, input_mb, output_mb) = (objs.len(), d, out);
                }
            }
            StepBound {
                spawn_s,
                objects: n as f64,
                input_mb,
                output_mb,
                slack: sum_slack(n),
            }
        })
        .collect();
    let output_mb = total_output_mb(&structure.steps);
    let runtime_slack = sum_slack(objects + reducers + 16);
    let storage_rate = reduce_storage_rate(
        platform,
        catalog,
        cache.job_total_mb(),
        job.profile.state_object_mb * num_steps as f64 + output_mb,
    ) * LINEAR_SLACK;
    let storage_allowance = storage_rate * 1e-6 + 2.0;

    // The least `T2`, and the least runtime charge rate × `T2` of the
    // coordinator's own lifetime, over every coordinator tier.
    let (mut least_t2_s, mut least_t2_charge) = (f64::INFINITY, f64::INFINITY);
    for (ai, row) in table.rows.iter().enumerate() {
        let t2_s = table.t2_s(ai, num_steps);
        least_t2_s = least_t2_s.min(t2_s);
        least_t2_charge = least_t2_charge.min(row.rate_nanos_per_s * t2_s);
    }
    let least_e3_nanos = nanos_i64(coordinator_storage_cost(
        job,
        structure,
        least_t2_s,
        platform,
        catalog,
        cache.job_total_mb(),
        shape.pending_input_mb,
    ));
    let coord_allowance = 0.5 + table.max_rate_nanos_per_s * 0.5e-6 + 1.0;

    let mut tiers = Vec::with_capacity(table.rows.len());
    'tiers: for (si, row) in table.rows.iter().enumerate() {
        let (mut phase_s, mut wait_s) = (0.0, 0.0);
        for (p, step) in steps.iter().enumerate() {
            let reducer_s = (row.fixed_s
                + step.objects * row.get_latency_s
                + step.input_mb * row.in_secs_per_mb
                + step.output_mb * row.out_secs_per_mb)
                * step.slack;
            let step_s = reducer_s + step.spawn_s;
            if step_s > platform.timeout_s {
                continue 'tiers;
            }
            if p + 1 < num_steps {
                wait_s += step_s;
            }
            phase_s += step_s;
        }
        let runtime_s = (reducers as f64 * row.fixed_s
            + objects as f64 * row.get_latency_s
            + shape.pending_input_mb * row.in_secs_per_mb
            + output_mb * row.out_secs_per_mb)
            * runtime_slack;
        let bill = row.rate_nanos_per_s * runtime_s
            - reducers as f64 * (0.5 + row.rate_nanos_per_s * 0.5e-6)
            - 1.0;
        let storage = storage_rate * phase_s - storage_allowance;
        let excl = bill.max(0.0) + storage.max(0.0);
        let coord_s = (least_t2_s + wait_s) + shape.last_spawn_s;
        let tail_nanos = (coord_s <= platform.timeout_s).then(|| {
            let coord = (least_t2_charge
                + table.min_rate_nanos_per_s * (wait_s + shape.last_spawn_s))
                * LINEAR_SLACK
                - coord_allowance;
            least_e3_nanos + (excl + coord.max(0.0)) as i64
        });
        tiers.push(TierBound {
            si,
            phase_s,
            wait_s,
            cost_excl: Money::from_nanos(excl as i128),
            tail_nanos,
        });
    }
    let mut frontier: Vec<(f64, i64)> = tiers
        .iter()
        .filter_map(|t| t.tail_nanos.map(|tail| (t.phase_s, tail)))
        .collect();
    frontier.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut cheapest = i64::MAX;
    frontier.retain(|&(_, tail)| {
        let keep = tail < cheapest;
        cheapest = cheapest.min(tail);
        keep
    });
    PairBound {
        e2_nanos: shape.e2.cost_nanos,
        least_t2_s,
        least_e3_nanos,
        tiers,
        frontier,
    }
}

impl PairBound {
    /// A point below every bound point of the pair through mapper edges
    /// no faster and no cheaper than `least`: its least span and least
    /// tail together. `None` when no tier is reachable.
    fn corner(&self, least: EdgeMetrics) -> Option<PathPoint> {
        let (&(phase_s, _), &(_, tail)) = (self.frontier.first()?, self.frontier.last()?);
        Some(self.point(least, phase_s, tail))
    }

    /// The bound's path point through mapper edge `m` into a reducer tier
    /// with bound span `phase_s` and tail `tail_nanos`: no real path
    /// through `m` and that tier is faster or cheaper.
    fn point(&self, m: EdgeMetrics, phase_s: f64, tail_nanos: i64) -> PathPoint {
        PathPoint::of(m, self.e2_nanos, self.least_t2_s, tail_nanos, phase_s)
    }
}

/// Price a pair in full: the column-3/4 recipe (pure; safe to run on any
/// thread).
///
/// One dense T×T table of final-edge costs (`table[ai * t + si]`,
/// [`NO_EDGE`] where coordinator `ai` cannot continue to reducer tier
/// `si`), filled row by row along the feasible reducer tiers in wait
/// order (see the module docs for why the early break and the
/// billing-bucket reuse are exact). Dominance pruning runs on the table;
/// edge vectors are built only for what survives.
fn price_pair(
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    frame: PairFrame,
    prune: PruneConfig,
) -> Col3Recipe {
    let tiers = &space.memory_tiers_mb;
    let t = tiers.len();
    let PairFrame {
        k_r,
        e2,
        phase_s,
        cost_excl,
        by_wait,
        by_time,
        last_spawn_s,
        e3,
    } = frame;
    // Row `ai`'s entries are exactly `by_wait[..reach[ai]]`: the
    // coordinator's billed time `(t2 + w) + L` is nondecreasing along
    // `by_wait`, so the first tier over the timeout ends the row.
    let mut table = vec![NO_EDGE; t * t];
    let mut reach = vec![0usize; t];
    for (ai, &a_mem) in tiers.iter().enumerate() {
        let t2_s = e3[ai].time_s;
        let row = &mut table[ai * t..(ai + 1) * t];
        let mut bill = catalog.lambda.billing_cursor(a_mem);
        for &(wait_s, si) in &by_wait {
            // The coordinator waits through the first P-1 steps and
            // pays the final step's launch latency before exiting
            // (PerfBreakdown::coordinator_billed_s).
            let coord_billed_s = t2_s + wait_s + last_spawn_s;
            if coord_billed_s > platform.timeout_s {
                break;
            }
            // `runtime_cost`'s rounding, repriced only on a new bucket.
            let coord_cost = bill.runtime_cost_us(coord_billed_s * 1e6);
            row[si] = nanos_i64(cost_excl[si] + coord_cost);
            reach[ai] += 1;
        }
    }

    // Coordinator-tier dominance within this (k_M, k_R). A path through
    // coordinator `a` and reducer tier `s` adds time `t2(a) + phase(s)`
    // and cost `e3c(a) + e4c(s, a)`; `phase(s)` is coordinator-
    // independent, so `aj` dominates `ai` iff `t2(aj) <= t2(ai)` and,
    // for every reducer continuation `ai` offers, `aj` offers it no more
    // expensively — with at least one strict improvement (exact ties
    // keep both). Coordinators with no feasible reducer tier are dead
    // ends and always dropped.
    let dominated = |i: usize| -> bool {
        if reach[i] == 0 {
            return true; // dead end: on no source→sink path
        }
        let (row_i, base_i, ti) = (&table[i * t..(i + 1) * t], e3[i].cost_nanos, e3[i].time_s);
        (0..t).any(|j| {
            // `j` must offer every continuation `i` offers; both rows
            // are prefixes of `by_wait`.
            if j == i || e3[j].time_s > ti || reach[j] < reach[i] {
                return false;
            }
            let (row_j, base_j) = (&table[j * t..(j + 1) * t], e3[j].cost_nanos);
            let mut strict = e3[j].time_s < ti;
            for &(_, si) in &by_wait[..reach[i]] {
                let (ci, cj) = (base_i + row_i[si], base_j + row_j[si]);
                if cj > ci {
                    return false;
                }
                strict |= cj < ci;
            }
            strict
        })
    };
    let prune = prune.pareto_tiers;
    // Reducer-tier dominance within each surviving coordinator: the
    // z_s -> sink edge is (0, 0), so the final-edge bundle alone
    // decides. A final edge's time is the coordinator-independent
    // `phase_s(s)`, so one time order serves every coordinator and each
    // table row is swept in O(T). Without pruning every entry is kept.
    let mut keep_si = vec![true; t];
    let mut pruned_final_edges = 0;
    // The frontier summary, folded into the edge walk (pruning only).
    const NONE: (f64, i64) = (f64::INFINITY, i64::MAX);
    let (mut fast, mut cheap) = (vec![NONE; t], vec![NONE; t]);
    let per_coord: Vec<(usize, Col4Recipe)> =
        (0..t)
            .filter(|&ai| !prune || !dominated(ai))
            .map(|ai| {
                let row = &table[ai * t..(ai + 1) * t];
                if prune {
                    pareto_sweep(&by_time, row, &mut keep_si);
                }
                let (t2, base) = (e3[ai].time_s, e3[ai].cost_nanos);
                // Survivors only, in reducer-tier order.
                let mut final_edges = Vec::with_capacity(reach[ai]);
                final_edges.extend((0..t).filter(|&si| row[si] != NO_EDGE && keep_si[si]).map(
                    |si| {
                        if prune {
                            let e = (t2, base + row[si]);
                            let (f, c) = (&mut fast[si], &mut cheap[si]);
                            if e < *f {
                                *f = e;
                            }
                            if (e.1, e.0) < (c.1, c.0) {
                                *c = e;
                            }
                        }
                        let m = EdgeMetrics {
                            time_s: phase_s[si],
                            cost_nanos: row[si],
                        };
                        (si, m)
                    },
                ));
                pruned_final_edges += reach[ai] - final_edges.len();
                (
                    ai,
                    Col4Recipe {
                        e3: e3[ai],
                        final_edges,
                    },
                )
            })
            .collect();
    let tiers = (0..t)
        .filter(|&si| fast[si] != NONE)
        .map(|si| TierSummary {
            si,
            phase_s: phase_s[si],
            fast: fast[si],
            cheap: cheap[si],
        })
        .collect();

    Col3Recipe {
        k_r,
        e2,
        pruned_coords: t - per_coord.len(),
        per_coord,
        pruned_final_edges,
        tiers,
    }
}

/// Dominance between whole source→sink paths, for dropping pair
/// subtrees: `q` dominates `p` iff `q` is faster by more than this
/// margin **and** at least one nanodollar cheaper. The margin covers
/// float association: a path's time is summed as `(T1 + t2) + phase`,
/// the solver's order, but a few ulps must never decide a drop.
const PATH_TIME_MARGIN_S: f64 = 1e-9;

/// A whole path's time (seconds, summed in the solver's order) and cost
/// (integer nanodollars).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PathPoint {
    time_s: f64,
    cost_nanos: i64,
}

impl PathPoint {
    /// The path through mapper edge `mapper`, a pair whose `e2` edge
    /// costs `e2_nanos`, coordinator time `t2_s`, and the coordinator's
    /// `e3` plus final-edge cost `tail_nanos` into a reducer tier with
    /// phase span `phase_s`.
    fn of(mapper: EdgeMetrics, e2_nanos: i64, t2_s: f64, tail_nanos: i64, phase_s: f64) -> Self {
        PathPoint {
            time_s: (mapper.time_s + t2_s) + phase_s,
            cost_nanos: mapper.cost_nanos + e2_nanos + tail_nanos,
        }
    }
}

/// A set of path points, reduced to its staircase, that answers "does
/// some point of the set dominate `p`" (with the
/// [`PATH_TIME_MARGIN_S`] rule) exactly in O(log n). Points are kept by
/// strictly rising time with strictly falling cost: a point no cheaper
/// than a faster (or equally fast) one can dominate nothing that one
/// does not.
#[derive(Clone, Default)]
struct Staircase {
    times: Vec<f64>,
    costs: Vec<i64>,
}

impl Staircase {
    fn dominates(&self, p: PathPoint) -> bool {
        // `t + margin < p.time_s` is monotone along the sorted times.
        let k = self
            .times
            .partition_point(|&t| t + PATH_TIME_MARGIN_S < p.time_s);
        k > 0 && self.costs[k - 1] < p.cost_nanos
    }

    /// Append `p`, no faster than any point kept so far.
    fn push_sorted(&mut self, p: PathPoint) {
        if self.costs.last().is_none_or(|&c| p.cost_nanos < c) {
            self.times.push(p.time_s);
            self.costs.push(p.cost_nanos);
        }
    }

    fn points(&self) -> impl Iterator<Item = PathPoint> + '_ {
        self.times
            .iter()
            .zip(&self.costs)
            .map(|(&time_s, &cost_nanos)| PathPoint { time_s, cost_nanos })
    }

    /// Add a batch of points: one sort, no shifting.
    fn extend(&mut self, mut points: Vec<PathPoint>) {
        points.extend(self.points());
        points.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.cost_nanos.cmp(&b.cost_nanos))
        });
        *self = Staircase::default();
        points.into_iter().for_each(|p| self.push_sorted(p));
    }

    /// Add every point of `other` in one linear merge.
    fn merge(&mut self, other: &Staircase) {
        if other.times.is_empty() {
            return;
        }
        let mine = std::mem::take(self);
        let (mut a, mut b) = (mine.points().peekable(), other.points().peekable());
        loop {
            let from_mine = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => (x.time_s, x.cost_nanos) <= (y.time_s, y.cost_nanos),
                (x, _) => x.is_some(),
            };
            match if from_mine { a.next() } else { b.next() } {
                Some(p) => self.push_sorted(p),
                None => break,
            }
        }
    }

    /// Add `p` to the set.
    fn insert(&mut self, p: PathPoint) {
        // Points before `k` are strictly faster.
        let k = self.times.partition_point(|&t| t < p.time_s);
        let covered = |i: usize| self.costs[i] <= p.cost_nanos;
        let same_time = k < self.times.len() && self.times[k] == p.time_s;
        if (k > 0 && covered(k - 1)) || (same_time && covered(k)) {
            return; // a point at least as fast and as cheap is kept
        }
        // Points from `k` on are no faster; drop those no cheaper.
        let end = k + self.costs[k..].partition_point(|&c| c >= p.cost_nanos);
        self.times.splice(k..end, [p.time_s]);
        self.costs.splice(k..end, [p.cost_nanos]);
    }
}

/// The mapper edges of one `k_M` that reach the fastest and the
/// cheapest path points: least time (ties: least cost), least cost
/// (ties: least time).
fn mapper_extremes(mapper_edges: &[(usize, EdgeMetrics)]) -> (EdgeMetrics, EdgeMetrics) {
    let mut fast = mapper_edges[0].1;
    let mut cheap = fast;
    for &(_, m) in &mapper_edges[1..] {
        if (m.time_s, m.cost_nanos) < (fast.time_s, fast.cost_nanos) {
            fast = m;
        }
        if (m.cost_nanos, m.time_s) < (cheap.cost_nanos, cheap.time_s) {
            cheap = m;
        }
    }
    (fast, cheap)
}

/// True if no path through the pair can escape `incumbent`, judged on
/// the pair's [`pair_bound`] alone: per reachable reducer tier, the bound
/// point of every mapper edge is dominated. The least mapper time and
/// cost together bound every mapper edge at once, so that corner is
/// tried first, over the whole pair and then per tier.
fn certified_dead(
    bound: &PairBound,
    mapper_edges: &[(usize, EdgeMetrics)],
    incumbent: &Staircase,
) -> bool {
    let (fast_mapper, cheap_mapper) = mapper_extremes(mapper_edges);
    let least = EdgeMetrics {
        time_s: fast_mapper.time_s,
        cost_nanos: cheap_mapper.cost_nanos,
    };
    bound.corner(least).is_none_or(|p| incumbent.dominates(p))
        || bound.frontier.iter().all(|&(phase_s, tail)| {
            incumbent.dominates(bound.point(least, phase_s, tail))
                || mapper_edges
                    .iter()
                    .all(|&(_, m)| incumbent.dominates(bound.point(m, phase_s, tail)))
        })
}

/// The pairs worth pricing first: those with a bound point (per frontier
/// entry of their bound, through the fastest and through the cheapest
/// mapper edge) that the staircase of every pair's bound points does not
/// dominate. `bounds[wi]` is work item `wi`'s bound, `None` for a pair
/// that breaks an Eq. 18 cap. Returns the seeds and the rest, each in
/// `work` order.
///
/// The staircase is built in two steps. The first holds each pair's
/// fastest and cheapest bound points. A point it dominates cannot escape
/// the full staircase, and neither can any point of a pair whose corner
/// it dominates, so only the points it leaves are added; those answer
/// for every point, since a dominated point is dominated by one that is
/// not (margin dominance is transitive).
fn pick_seeds(
    bounds: &[Option<PairBound>],
    mappers: impl Fn(usize) -> (EdgeMetrics, EdgeMetrics),
) -> (Vec<usize>, Vec<usize>) {
    let bounded = || {
        bounds
            .iter()
            .enumerate()
            .filter_map(|(wi, b)| Some((wi, b.as_ref()?, mappers(wi))))
    };
    let mut stairs = Staircase::default();
    let mut ends = Vec::with_capacity(4 * bounds.len());
    for (_, b, (fast, cheap)) in bounded() {
        if let (Some(&first), Some(&last)) = (b.frontier.first(), b.frontier.last()) {
            for (phase_s, tail) in [first, last] {
                ends.extend([fast, cheap].map(|m| b.point(m, phase_s, tail)));
            }
        }
    }
    stairs.extend(ends);
    let mut candidates: Vec<(usize, PathPoint)> = Vec::new();
    for (wi, b, (fast, cheap)) in bounded() {
        let least = EdgeMetrics {
            time_s: fast.time_s,
            cost_nanos: cheap.cost_nanos,
        };
        if b.corner(least).is_none_or(|p| stairs.dominates(p)) {
            continue;
        }
        for &(phase_s, tail) in &b.frontier {
            for m in [fast, cheap] {
                let p = b.point(m, phase_s, tail);
                if !stairs.dominates(p) {
                    candidates.push((wi, p));
                }
            }
        }
    }
    stairs.extend(candidates.iter().map(|&(_, p)| p).collect());
    let mut escapes = vec![false; bounds.len()];
    for &(wi, p) in &candidates {
        escapes[wi] = escapes[wi] || !stairs.dominates(p);
    }
    (0..bounds.len())
        .filter(|&wi| bounds[wi].is_some())
        .partition(|&wi| escapes[wi])
}

/// The global frontier check over fully priced pairs. `base` holds real
/// path points already known (or is empty); `pairs[p]` is a priced pair
/// and the mapper edges of its `k_M`. Returns the staircase of every
/// point seen (exact for dominance queries over `base` and all paths of
/// `pairs`) and, per pair, its points that staircase does not dominate.
///
/// Not every point is enumerated. Per pair and reducer tier, the fastest
/// and the cheapest real point go into the staircase first; a tier's
/// points are expanded only when the corner (fastest time, cheapest
/// cost) escapes it, and only expanded points that escape it too join
/// it. A point left out is dominated by a point in the staircase, and
/// dominance is transitive, so the final staircase answers for every
/// path.
fn frontier_pass(
    base: &Staircase,
    pairs: &[(&Col3Recipe, &[(usize, EdgeMetrics)])],
    t: usize,
) -> (Staircase, Vec<Vec<PathPoint>>) {
    let mut stairs = base.clone();
    let mut summary = Vec::new();
    for &(recipe, mapper_edges) in pairs {
        let (fast_mapper, cheap_mapper) = mapper_extremes(mapper_edges);
        let e2 = recipe.e2.cost_nanos;
        for &TierSummary {
            phase_s,
            fast: f,
            cheap: c,
            ..
        } in &recipe.tiers
        {
            summary.push(PathPoint::of(fast_mapper, e2, f.0, f.1, phase_s));
            summary.push(PathPoint::of(cheap_mapper, e2, c.0, c.1, phase_s));
        }
    }
    stairs.extend(summary);

    // Expand the tiers whose corner (fastest time, cheapest cost) escapes
    // the staircase. Within one, a mapper edge is skipped when its own
    // corner (with the tier's least t2 and least coordinator cost) is
    // dominated, and a coordinator entry when its corner (with the least
    // time and cost of the mapper edges left) is: both bound every point
    // they take part in. A pair's escaping points are kept in a staircase
    // of its own, merged into `stairs` once the pair is done.
    let mut live = vec![false; t];
    let mut entries: Vec<(usize, f64, i64)> = Vec::new();
    let mut live_mappers: Vec<EdgeMetrics> = Vec::new();
    let mut candidates: Vec<Vec<PathPoint>> = Vec::with_capacity(pairs.len());
    for &(recipe, mapper_edges) in pairs {
        let (fast_mapper, cheap_mapper) = mapper_extremes(mapper_edges);
        let e2 = recipe.e2.cost_nanos;
        let mut any_live = false;
        for tier in &recipe.tiers {
            let least = EdgeMetrics {
                time_s: fast_mapper.time_s,
                cost_nanos: cheap_mapper.cost_nanos,
            };
            let corner = PathPoint::of(least, e2, tier.fast.0, tier.cheap.1, tier.phase_s);
            live[tier.si] = !stairs.dominates(corner);
            any_live |= live[tier.si];
        }
        let mut local = Staircase::default();
        if any_live {
            // Every live tier's coordinator entries `(tier, t2, e3 + final
            // cost)`, grouped by tier in coordinator order.
            entries.clear();
            for (_, coord) in &recipe.per_coord {
                let (t2, e3) = (coord.e3.time_s, coord.e3.cost_nanos);
                let live_edges = coord.final_edges.iter().filter(|&&(si, _)| live[si]);
                entries.extend(live_edges.map(|&(si, m)| (si, t2, e3 + m.cost_nanos)));
            }
            entries.sort_by_key(|e| e.0);
            let live_tiers = recipe.tiers.iter().filter(|tier| live[tier.si]);
            for (tier, group) in live_tiers.zip(entries.chunk_by(|a, b| a.0 == b.0)) {
                debug_assert_eq!(tier.si, group[0].0);
                let bound = |m, t2, tail| PathPoint::of(m, e2, t2, tail, tier.phase_s);
                live_mappers.clear();
                live_mappers.extend(
                    mapper_edges
                        .iter()
                        .map(|&(_, m)| m)
                        .filter(|&m| !stairs.dominates(bound(m, tier.fast.0, tier.cheap.1))),
                );
                let Some(least) = live_mappers.iter().copied().reduce(|a, b| EdgeMetrics {
                    time_s: a.time_s.min(b.time_s),
                    cost_nanos: a.cost_nanos.min(b.cost_nanos),
                }) else {
                    continue;
                };
                for &(_, t2, tail) in group {
                    if stairs.dominates(bound(least, t2, tail)) {
                        continue;
                    }
                    for &m in &live_mappers {
                        let p = bound(m, t2, tail);
                        if !stairs.dominates(p) {
                            local.insert(p);
                        }
                    }
                }
            }
            stairs.merge(&local);
        }
        candidates.push(local.points().collect());
    }
    for points in &mut candidates {
        points.retain(|&p| !stairs.dominates(p));
    }
    (stairs, candidates)
}

impl PlannerDag {
    /// Construct the DAG for `job` over `space`, pricing with `catalog`,
    /// on the calling thread (module docs, "Construction order").
    pub fn build(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
    ) -> PlannerDag {
        Self::build_with(job, platform, catalog, space, PruneConfig::default())
    }

    /// [`PlannerDag::build`] with explicit [`PruneConfig`] (the default
    /// build prunes; pass [`PruneConfig::off`] for the full Fig. 5 DAG).
    pub fn build_with(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
        prune: PruneConfig,
    ) -> PlannerDag {
        let cache = ModelCache::new(job, platform);
        Self::build_with_cache(catalog, space, &cache, prune)
    }

    /// [`PlannerDag::build_with`] reusing an existing model cache, so DAG
    /// construction and later sweeps (exhaustive validation, frontier
    /// walks) share memoized sub-terms.
    pub fn build_with_cache(
        catalog: &PriceCatalog,
        space: &ConfigSpace,
        cache: &ModelCache<'_>,
        prune: PruneConfig,
    ) -> PlannerDag {
        // Wall-clock spans per construction pass follow the process-global
        // telemetry handle (installed by the CLI / experiment binaries);
        // they are observational only and do not touch the build itself.
        let tel = astra_telemetry::global();
        let build_span = tel.wall_span("planner", "dag.build", "planner");
        let (job, platform) = (cache.job(), cache.platform());
        job.profile.validate();
        let table = TierTable::new(job, platform, catalog, space);

        // Pass 1: mapper edges per k_M.
        let col2: Vec<Col2Recipe> = {
            let mut span = tel.wall_span("planner", "dag.col2", "planner");
            span.set_parent(build_span.id());
            space
                .k_m_values
                .iter()
                .filter_map(|&k_m| col2_recipe(platform, catalog, space, cache, prune, k_m))
                .collect()
        };

        // Pass 2: reduce edges per (k_M, k_R) pair, as `(column-2 recipe
        // index, k_M, k_R)` work items in assembly order.
        let (col2, col3, stats) = {
            let mut span = tel.wall_span("planner", "dag.col3", "planner");
            span.set_parent(build_span.id());
            let work: Vec<(usize, usize, usize)> = col2
                .iter()
                .enumerate()
                .flat_map(|(ci, r)| {
                    space
                        .k_r_candidates(r.j)
                        .into_iter()
                        .map(move |k_r| (ci, r.k_m, k_r))
                })
                .collect();
            if prune.pareto_tiers {
                frontier_col3(catalog, space, cache, &table, col2, &work)
            } else {
                let col3 = work
                    .iter()
                    .filter_map(|&(ci, k_m, k_r)| {
                        let shape = pair_shape(catalog, cache, k_m, k_r)?;
                        let frame = pair_frame(catalog, space, cache, &table, &shape);
                        Some((ci, price_pair(platform, catalog, space, frame, prune)))
                    })
                    .collect();
                (col2, col3, PruneStats::default())
            }
        };

        let dag = {
            let mut span = tel.wall_span("planner", "dag.assemble", "planner");
            span.set_parent(build_span.id());
            assemble(space, col2, col3, stats)
        };
        if tel.enabled() {
            tel.gauge("planner.dag.nodes", dag.nodes().len() as f64);
            tel.gauge("planner.dag.edges", dag.soa().edges_stored() as f64);
            let stats = dag.prune_stats();
            tel.gauge("planner.dag.pruned_mapper_edges", stats.mapper_edges as f64);
            tel.gauge(
                "planner.dag.pruned_coordinator_nodes",
                stats.coordinator_nodes as f64,
            );
            tel.gauge(
                "planner.dag.pruned_reducer_edges",
                stats.reducer_edges as f64,
            );
            tel.gauge("planner.dag.pruned_pairs", stats.pair_subtrees as f64);
            tel.gauge("planner.dag.pairs_unpriced", stats.pairs_unpriced as f64);
            tel.gauge("planner.dag.edges_stored", dag.soa().edges_stored() as f64);
            tel.gauge(
                "planner.dag.bundles_collapsed",
                dag.soa().bundles_collapsed() as f64,
            );
        }
        dag
    }

    /// Node labels: node `v`'s choice is `nodes()[v]`.
    pub fn nodes(&self) -> &[Choice] {
        &self.nodes
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// How much dominance pruning removed during construction (all zero
    /// for [`PruneConfig::off`] builds).
    pub fn prune_stats(&self) -> PruneStats {
        self.prune_stats
    }

    /// The flat struct-of-arrays edge store the solvers iterate.
    pub fn soa(&self) -> &SoaEdges {
        &self.soa
    }

    /// The store slots of a source-rooted path, found by walking it from
    /// the source: each edge is looked up among its tail's out-slots.
    ///
    /// Panics if an edge does not leave the node the path has reached.
    fn path_slots<'a>(&'a self, edges: &'a [EdgeId]) -> impl Iterator<Item = usize> + 'a {
        let mut node = self.source.0;
        edges.iter().map(move |&e| {
            let slot = self
                .soa
                .slots(node)
                .find(|&i| self.soa.edge_ids[i] == e.0)
                .expect("path edge does not continue the path");
            node = self.soa.heads[slot];
            slot
        })
    }

    /// Recover the configuration a source→sink path encodes.
    ///
    /// Panics if the path does not visit one node of every column (which
    /// cannot happen for paths produced by the solvers on a built DAG).
    pub fn config_for_path(&self, edges: &[EdgeId]) -> JobConfig {
        let mut mapper_mem = None;
        let mut coord = None;
        let mut reducer_mem = None;
        let mut k_m = None;
        let mut k_r = None;
        for slot in self.path_slots(edges) {
            match self.nodes[self.soa.heads[slot] as usize] {
                Choice::MapperMem(m) => mapper_mem = Some(m),
                Choice::ObjectsPerMapper(k) => k_m = Some(k),
                Choice::ObjectsPerReducer { k_r: k, .. } => k_r = Some(k),
                Choice::CoordinatorMem { mem, .. } => coord = Some(mem),
                Choice::ReducerMem(m) => reducer_mem = Some(m),
                Choice::Source | Choice::Sink => {}
            }
        }
        JobConfig {
            mapper_mem_mb: mapper_mem.expect("path misses mapper memory"),
            coordinator_mem_mb: coord.expect("path misses coordinator memory"),
            reducer_mem_mb: reducer_mem.expect("path misses reducer memory"),
            objects_per_mapper: k_m.expect("path misses k_M"),
            objects_per_reducer: k_r.expect("path misses k_R"),
        }
    }

    /// Total time metric along a source-rooted path.
    pub fn path_time_s(&self, edges: &[EdgeId]) -> f64 {
        self.path_slots(edges).map(|i| self.soa.times[i]).sum()
    }

    /// Total cost metric along a source-rooted path.
    pub fn path_cost(&self, edges: &[EdgeId]) -> Money {
        Money::from_nanos(
            self.path_slots(edges)
                .map(|i| self.soa.costs[i] as i128)
                .sum(),
        )
    }
}

/// Column 3 under pruning (module docs, "Dominance pruning"), in three
/// passes. First every pair gets its [`pair_bound`], no frame; the pairs
/// whose bound points escape the staircase of all bound points are the
/// seeds ([`pick_seeds`]). The seeds are framed and priced in full, and
/// their exact paths give an incumbent staircase. Every other pair is
/// either certified dead on its bound alone by [`certified_dead`] or
/// framed and priced. Kept are exactly the priced pairs with a path that
/// no priced path dominates; a `k_M` left with no kept pair is dropped
/// with its mapper edges. Returns the surviving column-2 recipes, the
/// kept pairs (indexed into them) in `work` order, and the pair tallies.
fn frontier_col3(
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    table: &TierTable,
    col2: Vec<Col2Recipe>,
    work: &[(usize, usize, usize)],
) -> (Vec<Col2Recipe>, Vec<(usize, Col3Recipe)>, PruneStats) {
    let (prune, t) = (PruneConfig::on(), space.memory_tiers_mb.len());
    let mappers = |wi: usize| col2[work[wi].0].mapper_edges.as_slice();

    // Pass 1: every pair's shape and bound; `None` where a cap fails.
    let (shapes, bounds): (Vec<Option<PairShape>>, Vec<Option<PairBound>>) = work
        .iter()
        .map(|&(_, k_m, k_r)| {
            let shape = pair_shape(catalog, cache, k_m, k_r)?;
            let bound = pair_bound(catalog, cache, table, &shape);
            Some((shape, bound))
        })
        .map(Option::unzip)
        .unzip();
    let price = |wi: usize| {
        let shape = shapes[wi].as_ref().expect("a bounded pair has a shape");
        let frame = pair_frame(catalog, space, cache, table, shape);
        price_pair(cache.platform(), catalog, space, frame, prune)
    };
    let (seeds, rest) = pick_seeds(&bounds, |wi| mapper_extremes(mappers(wi)));

    // Pass 2: the seeds, priced.
    let seeds: Vec<(usize, Col3Recipe)> = seeds.iter().map(|&wi| (wi, price(wi))).collect();
    let pairs: Vec<_> = seeds.iter().map(|(wi, r)| (r, mappers(*wi))).collect();
    let (seed_stairs, seed_points) = frontier_pass(&Staircase::default(), &pairs, t);

    // Pass 3: the rest, certified dead on the bound alone (`None`) or
    // priced.
    let rest: Vec<(usize, Option<Col3Recipe>)> = rest
        .iter()
        .map(|&wi| {
            let bound = bounds[wi].as_ref().expect("rest holds bounded pairs");
            let dead = certified_dead(bound, mappers(wi), &seed_stairs);
            (wi, (!dead).then(|| price(wi)))
        })
        .collect();
    let priced: Vec<(usize, &Col3Recipe)> = rest
        .iter()
        .filter_map(|(wi, r)| Some((*wi, r.as_ref()?)))
        .collect();
    let pairs: Vec<_> = priced.iter().map(|&(wi, r)| (r, mappers(wi))).collect();
    let (stairs, rest_points) = frontier_pass(&seed_stairs, &pairs, t);

    // Which work items keep their subtree.
    let mut kept = vec![false; work.len()];
    for ((wi, _), points) in seeds.iter().zip(&seed_points) {
        kept[*wi] = points.iter().any(|&p| !stairs.dominates(p));
    }
    for ((wi, _), points) in priced.iter().zip(&rest_points) {
        kept[*wi] = !points.is_empty();
    }
    let mut stats = PruneStats {
        pairs_unpriced: rest.iter().filter(|(_, r)| r.is_none()).count(),
        ..PruneStats::default()
    };
    let mut recipes: Vec<Option<Col3Recipe>> = (0..work.len()).map(|_| None).collect();
    let rest = rest.into_iter().filter_map(|(wi, r)| Some((wi, r?)));
    for (wi, recipe) in seeds.into_iter().chain(rest) {
        if kept[wi] {
            recipes[wi] = Some(recipe);
        } else {
            stats.pair_subtrees += 1;
        }
    }
    stats.pair_subtrees += stats.pairs_unpriced;

    // Drop every k_M left without a pair, renumbering the survivors.
    let mut has_pair = vec![false; col2.len()];
    for (wi, r) in recipes.iter().enumerate() {
        has_pair[work[wi].0] |= r.is_some();
    }
    let mut new_index = vec![usize::MAX; col2.len()];
    let mut kept_col2 = Vec::with_capacity(col2.len());
    for (ci, r) in col2.into_iter().enumerate() {
        if has_pair[ci] {
            new_index[ci] = kept_col2.len();
            kept_col2.push(r);
        } else {
            stats.mapper_edges += r.mapper_edges.len() + r.pruned_edges;
        }
    }
    let col3 = recipes
        .into_iter()
        .enumerate()
        .filter_map(|(wi, r)| r.map(|r| (new_index[work[wi].0], r)))
        .collect();
    (kept_col2, col3, stats)
}

/// Assemble the DAG from collected recipes. This is the single
/// authority on node/edge order: columns 1 and 5 in tier order, column 2
/// in `k_m_values` order (mapper edges grouped per `k_M`, in tier
/// order), then per `(k_M, k_R)` in candidate order the column-3 node,
/// its `e2` edge, and per coordinator tier the column-4 node, its `e3`
/// edge and the final edges in reducer-tier order.
fn assemble(
    space: &ConfigSpace,
    col2: Vec<Col2Recipe>,
    col3: Vec<(usize, Col3Recipe)>,
    mut prune_stats: PruneStats,
) -> PlannerDag {
    let tiers = &space.memory_tiers_mb;
    // Pre-size the store: at production N the DAG holds >10^6 edges and
    // incremental regrowth dominates assembly time.
    let (mut nodes, mut edges) = (2 + 2 * tiers.len(), 2 * tiers.len());
    for r in &col2 {
        nodes += 1;
        edges += r.mapper_edges.len();
    }
    for (_, recipe) in &col3 {
        if recipe.per_coord.is_empty() {
            continue;
        }
        nodes += 1 + recipe.per_coord.len();
        edges += 1;
        for (_, coord) in &recipe.per_coord {
            edges += 1 + coord.final_edges.len();
        }
    }
    let mut g = EdgeList {
        nodes: Vec::with_capacity(nodes),
        edges: Vec::with_capacity(edges),
    };
    let source = g.add_node(Choice::Source);
    let sink = g.add_node(Choice::Sink);

    // Column 1 (mapper memory) and column 5 (reducer memory) are shared
    // across all partitioning choices.
    let col1: Vec<u32> = tiers
        .iter()
        .map(|&m| {
            let id = g.add_node(Choice::MapperMem(m));
            g.add_edge(source, id, metrics(0.0, Money::ZERO));
            id
        })
        .collect();
    let col5: Vec<u32> = tiers
        .iter()
        .map(|&m| {
            let id = g.add_node(Choice::ReducerMem(m));
            g.add_edge(id, sink, metrics(0.0, Money::ZERO));
            id
        })
        .collect();

    let col2_nodes: Vec<u32> = col2
        .iter()
        .map(|r| {
            prune_stats.mapper_edges += r.pruned_edges;
            let node = g.add_node(Choice::ObjectsPerMapper(r.k_m));
            for &(ti, m) in &r.mapper_edges {
                g.add_edge(col1[ti], node, m);
            }
            node
        })
        .collect();

    let j_of_k_m: HashMap<usize, usize> = col2.iter().map(|r| (r.k_m, r.j)).collect();
    for (ci, recipe) in col3 {
        prune_stats.coordinator_nodes += recipe.pruned_coords;
        prune_stats.reducer_edges += recipe.pruned_final_edges;
        if recipe.per_coord.is_empty() {
            // Every coordinator tier was a dead end: the (k_M, k_R) node
            // would have no continuation, so skip it entirely.
            continue;
        }
        let k_m = col2[ci].k_m;
        let k_r = recipe.k_r;
        let col3_node = g.add_node(Choice::ObjectsPerReducer { k_m, k_r });
        g.add_edge(col2_nodes[ci], col3_node, recipe.e2);
        for (ai, coord) in recipe.per_coord {
            let col4_node = g.add_node(Choice::CoordinatorMem {
                k_m,
                k_r,
                mem: tiers[ai],
            });
            g.add_edge(col3_node, col4_node, coord.e3);
            for (si, m) in coord.final_edges {
                g.add_edge(col4_node, col5[si], m);
            }
        }
    }

    let soa = SoaEdges::build(&g.nodes, &g.edges, space, &j_of_k_m);
    PlannerDag {
        nodes: g.nodes,
        source: NodeId(source),
        sink: NodeId(sink),
        prune_stats,
        soa,
    }
}

/// The DAG as assembly appends it: node labels, and every edge as
/// `(tail, head, metrics)` with its id as its index.
struct EdgeList {
    nodes: Vec<Choice>,
    edges: Vec<(u32, u32, EdgeMetrics)>,
}

impl EdgeList {
    fn add_node(&mut self, c: Choice) -> u32 {
        self.nodes.push(c);
        (self.nodes.len() - 1) as u32
    }

    fn add_edge(&mut self, tail: u32, head: u32, m: EdgeMetrics) {
        self.edges.push((tail, head, m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_graph::constrained_shortest_path;
    use astra_model::{evaluate, WorkloadProfile};

    fn job(n: usize) -> JobSpec {
        JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test())
    }

    fn build(n: usize, tiers: &[u32]) -> (JobSpec, Platform, PriceCatalog, PlannerDag) {
        let j = job(n);
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, tiers);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        (j, platform, catalog, dag)
    }

    /// The exact CSP's path: fastest under a cost `bound` (µ$), or with
    /// `cost_primary` cheapest under a time `bound` (s).
    fn csp_path(dag: &PlannerDag, cost_primary: bool, bound: f64) -> Option<Vec<EdgeId>> {
        let (s, t) = (dag.source().0, dag.sink().0);
        let soa = dag.soa();
        let sol = if cost_primary {
            constrained_shortest_path(&mut soa.cost_view(), s, t, bound)
        } else {
            constrained_shortest_path(&mut soa.time_view(), s, t, bound)
        };
        sol.map(|p| p.edges)
    }

    #[test]
    fn dag_is_acyclic_and_connected() {
        let (_, _, _, dag) = build(6, &[128, 1024]);
        assert_eq!(dag.soa().topo().len(), dag.nodes().len());
        assert!(csp_path(&dag, false, f64::INFINITY).is_some());
    }

    #[test]
    fn every_path_metric_matches_model_exactly() {
        // The load-bearing property: path sums == model evaluation —
        // checked on both the idealised platform and the full AWS one
        // (cold-start-free model, but spawn overheads, efficiency curve
        // and bandwidth scaling all active).
        for platform in [
            Platform::paper_literal(10.0),
            Platform::aws_lambda(),
            Platform::aws_lambda().with_elasticache(),
        ] {
            let j = job(6);
            let catalog = PriceCatalog::aws_2020();
            let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512, 3008]);
            let dag = PlannerDag::build(&j, &platform, &catalog, &space);
            // Probe several paths: the fastest, the cheapest, and the
            // optima under a mid-band budget and a mid-band deadline.
            let fastest = csp_path(&dag, false, f64::INFINITY).unwrap();
            let cheapest = csp_path(&dag, true, f64::INFINITY).unwrap();
            let mid_cost_us = (dag.path_cost(&fastest).nanos() + dag.path_cost(&cheapest).nanos())
                as f64
                * 0.5e-3;
            let mid_time_s = 0.5 * (dag.path_time_s(&fastest) + dag.path_time_s(&cheapest));
            let budgeted = csp_path(&dag, false, mid_cost_us).unwrap();
            let deadlined = csp_path(&dag, true, mid_time_s).unwrap();
            for edges in [fastest, cheapest, budgeted, deadlined] {
                let config = dag.config_for_path(&edges);
                let ev = evaluate(&j, &platform, &config, &catalog).unwrap();
                let dt = (dag.path_time_s(&edges) - ev.jct_s()).abs();
                assert!(dt < 1e-9, "time mismatch {dt} for {config:?}");
                assert_eq!(
                    dag.path_cost(&edges),
                    ev.total_cost(),
                    "cost mismatch for {config:?}"
                );
            }
        }
    }

    #[test]
    fn unconstrained_shortest_time_path_beats_every_config() {
        let (j, platform, catalog, dag) = build(5, &[128, 1024]);
        let best_time = dag.path_time_s(&csp_path(&dag, false, f64::INFINITY).unwrap());
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        for config in space.iter_configs(&j) {
            if let Ok(ev) = evaluate(&j, &platform, &config, &catalog) {
                assert!(
                    best_time <= ev.jct_s() + 1e-9,
                    "config {config:?} is faster: {} < {best_time}",
                    ev.jct_s()
                );
            }
        }
    }

    #[test]
    fn unconstrained_cheapest_path_beats_every_config() {
        let (j, platform, catalog, dag) = build(5, &[128, 1024]);
        let best = dag.path_cost(&csp_path(&dag, true, f64::INFINITY).unwrap());
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        for config in space.iter_configs(&j) {
            if let Ok(ev) = evaluate(&j, &platform, &config, &catalog) {
                assert!(best <= ev.total_cost(), "config {config:?} is cheaper");
            }
        }
    }

    #[test]
    fn timeout_prunes_slow_tiers() {
        let j = job(2);
        let mut platform = Platform::paper_literal(10.0);
        // 1 mapper x 2 MB at 1 s/MB on 128 MB: ~2.4 s. Timeout below that
        // kills the 128 MB edges but keeps 1024 MB ones.
        platform.timeout_s = 1.0;
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        let config = dag.config_for_path(&csp_path(&dag, false, f64::INFINITY).unwrap());
        assert_eq!(config.mapper_mem_mb, 1024);
    }

    #[test]
    fn concurrency_cap_prunes_wide_fanouts() {
        let j = job(10);
        let mut platform = Platform::paper_literal(10.0);
        platform.max_concurrency = 4;
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace {
            memory_tiers_mb: vec![128],
            k_m_values: (1..=10).collect(),
            k_r_values: (2..=10).collect(),
            k_m_weights: Vec::new(),
        };
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        // k_M = 1 and 2 (j = 10, 5) must be absent.
        for choice in dag.nodes() {
            if let Choice::ObjectsPerMapper(k_m) = choice {
                assert!(*k_m >= 3, "k_M={k_m} should have been pruned");
            }
        }
    }

    #[test]
    fn pruning_shrinks_the_dag_and_reports_stats() {
        let j = job(8);
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 256, 512, 1024, 1792, 3008]);
        let pruned = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::on());
        let full = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::off());
        assert_eq!(full.prune_stats(), PruneStats::default());
        assert!(
            pruned.prune_stats().total() > 0,
            "expected dominated tiers across a 6-tier space"
        );
        assert!(pruned.soa().edges_stored() < full.soa().edges_stored());
        assert!(pruned.nodes().len() <= full.nodes().len());
        // Both orientations still find their unconstrained optimum, and it
        // matches the full DAG's bit for bit.
        for cost_primary in [false, true] {
            let p = csp_path(&pruned, cost_primary, f64::INFINITY).unwrap();
            let q = csp_path(&full, cost_primary, f64::INFINITY).unwrap();
            assert_eq!(pruned.config_for_path(&p), full.config_for_path(&q));
        }
    }

    #[test]
    fn prune_off_matches_the_historical_full_dag_shape() {
        // PruneConfig::off must reproduce the pre-pruning construction
        // exactly: every coordinator tier gets a column-4 node even when
        // it is a dead end with no feasible reducer continuation.
        let j = job(5);
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        let dag = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::off());
        let mut coords: HashMap<(usize, usize), usize> = HashMap::new();
        let mut pairs = 0;
        for node in dag.nodes() {
            match *node {
                Choice::ObjectsPerReducer { .. } => pairs += 1,
                Choice::CoordinatorMem { k_m, k_r, .. } => {
                    *coords.entry((k_m, k_r)).or_default() += 1
                }
                _ => {}
            }
        }
        assert!(pairs > 0);
        assert_eq!(coords.len(), pairs);
        for (pair, n) in coords {
            assert_eq!(n, space.memory_tiers_mb.len(), "pair {pair:?}");
        }
    }

    #[test]
    fn bundles_collapsed_counts_the_single_step_clamp() {
        let (_, _, _, dag) = build(8, &[128, 512, 3008]);
        let soa = dag.soa();
        // Even the raw space folds every k_R >= j onto the single-step
        // candidate (the k_r_candidates clamp), so the collapse counter
        // is non-zero here too. Derive the expected total independently:
        // an edge into the single-step node `k_R = max(j, 2)` stands for
        // the n - max(j, 2) + 1 raw values of 2..=n at or above it.
        let expected: u64 = soa
            .heads()
            .iter()
            .map(|&head| match dag.nodes()[head as usize] {
                Choice::ObjectsPerReducer { k_m, k_r } => {
                    let cap = 8usize.div_ceil(k_m).max(2);
                    if k_r == cap {
                        (8 - cap) as u64
                    } else {
                        0
                    }
                }
                _ => 0,
            })
            .sum();
        assert!(expected > 0);
        assert_eq!(soa.bundles_collapsed(), expected);
    }

    #[test]
    fn bundled_space_records_edge_multiplicities() {
        let j = job(97);
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::bundled(&j, &platform);
        let full = ConfigSpace::full(&j, &platform);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        assert!(
            dag.soa().bundles_collapsed() > 0,
            "97 objects have k_M classes wider than one candidate"
        );
        // The bundled space's k_M axis stands for every raw candidate.
        assert_eq!(
            space.k_m_weights.iter().sum::<usize>(),
            full.k_m_values.len()
        );
    }

    #[test]
    fn pareto_sweep_matches_pareto_filter() {
        // xorshift64: a fixed, dependency-free stream of random bundles.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..5000 {
            let t = 1 + next(16) as usize;
            // Few distinct values, so time ties, cost ties and exact
            // duplicates all occur often.
            let times: Vec<f64> = (0..t).map(|_| next(5) as f64 * 0.25).collect();
            let mut cost = vec![NO_EDGE; t];
            let mut bundle = Vec::new();
            for si in 0..t {
                // Some tiers are candidates the bundle lacks.
                if next(4) != 0 {
                    cost[si] = next(6) as i64 * 10;
                    bundle.push((
                        si,
                        EdgeMetrics {
                            time_s: times[si],
                            cost_nanos: cost[si],
                        },
                    ));
                }
            }
            let mut by_time: Vec<(f64, usize)> = times.iter().copied().zip(0..).collect();
            by_time.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut keep = vec![false; t];
            pareto_sweep(&by_time, &cost, &mut keep);

            let swept: Vec<(usize, EdgeMetrics)> =
                bundle.iter().copied().filter(|&(si, _)| keep[si]).collect();
            let mut expected = bundle.clone();
            pareto_filter(&mut expected);
            assert_eq!(swept, expected, "case {case}: bundle {bundle:?}");
            assert!(
                keep.iter().zip(&cost).all(|(&k, &c)| !k || c != NO_EDGE),
                "case {case}: kept a tier the bundle lacks"
            );
        }
    }

    #[test]
    fn staircase_answers_dominance_exactly() {
        // xorshift64 over a coarse grid, so equal times, equal costs,
        // margin-width gaps and duplicates all occur.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..500 {
            let mut point = || PathPoint {
                time_s: 10.0 + next(8) as f64 * 0.5e-9 + next(4) as f64,
                cost_nanos: next(12) as i64,
            };
            let points: Vec<PathPoint> = (0..1 + case % 40).map(|_| point()).collect();
            let mut inserted = Staircase::default();
            points.iter().for_each(|&p| inserted.insert(p));
            let mut extended = Staircase::default();
            extended.extend(points.clone());
            let (mut merged, mut half) = (Staircase::default(), Staircase::default());
            let mid = points.len() / 2;
            merged.extend(points[..mid].to_vec());
            points[mid..].iter().for_each(|&p| half.insert(p));
            merged.merge(&half);
            let built = [
                ("insert", &inserted),
                ("extend", &extended),
                ("merge", &merged),
            ];
            for q in (0..64).map(|_| point()) {
                let brute = points.iter().any(|p| {
                    p.time_s + PATH_TIME_MARGIN_S < q.time_s && p.cost_nanos < q.cost_nanos
                });
                for (name, s) in built {
                    assert_eq!(
                        s.dominates(q),
                        brute,
                        "case {case}, {name}: {q:?} over {points:?}"
                    );
                }
            }
        }
    }

    /// Jobs for the bound's soundness test: up to 40 objects of one
    /// size, or each jittered by up to ±20%, under a random profile.
    fn arb_bound_job() -> impl proptest::strategy::Strategy<Value = JobSpec> {
        use proptest::prelude::*;
        (
            1usize..=40,
            0.5f64..80.0,
            proptest::collection::vec(0.8f64..1.2, 40..41),
            0usize..2,
            (0.2f64..1.5, 0.05f64..1.0, 0.3f64..1.0, 0usize..2),
        )
            .prop_map(|(n, size_mb, scales, jitter, (u, alpha, beta, single))| {
                let profile = WorkloadProfile {
                    name: "bound-prop".into(),
                    map_secs_per_mb_128: u,
                    reduce_secs_per_mb_128: u * 0.7,
                    coord_secs_per_mb_128: 0.002,
                    shuffle_ratio: alpha,
                    reduce_ratio: beta,
                    state_object_mb: 0.5,
                    single_pass_reduce: single == 1,
                };
                JobSpec {
                    name: "bound-prop".into(),
                    object_sizes_mb: scales[..n]
                        .iter()
                        .map(|s| if jitter == 1 { s * size_mb } else { size_mb })
                        .collect(),
                    profile,
                }
            })
    }

    /// Every pair's [`pair_bound`] against its exact frame and its full
    /// (unpruned) T×T table.
    fn check_pair_bounds(job: &JobSpec, platform: &Platform, catalog: &PriceCatalog) {
        let space = ConfigSpace::full(job, platform);
        let cache = ModelCache::new(job, platform);
        let table = TierTable::new(job, platform, catalog, &space);
        for &k_m in &space.k_m_values {
            for k_r in space.k_r_candidates(job.num_objects().div_ceil(k_m)) {
                let Some(shape) = pair_shape(catalog, &cache, k_m, k_r) else {
                    continue;
                };
                let bound = pair_bound(catalog, &cache, &table, &shape);
                let frame = pair_frame(catalog, &space, &cache, &table, &shape);
                let at = format!("{} (k_M {k_m}, k_R {k_r})", job.name);
                for e3 in &frame.e3 {
                    assert!(bound.least_t2_s <= e3.time_s, "{at}: least t2");
                    assert!(bound.least_e3_nanos <= e3.cost_nanos, "{at}: least e3");
                }
                let by_tier: HashMap<usize, TierBound> =
                    bound.tiers.iter().map(|b| (b.si, *b)).collect();
                for &(wait_s, si) in &frame.by_wait {
                    let b = by_tier
                        .get(&si)
                        .unwrap_or_else(|| panic!("{at}: tier {si} dropped but feasible"));
                    assert!(b.phase_s <= frame.phase_s[si], "{at}: tier {si} span");
                    assert!(b.wait_s <= wait_s, "{at}: tier {si} wait");
                    assert!(b.cost_excl <= frame.cost_excl[si], "{at}: tier {si} cost");
                }
                // Every final edge's tail (e3 + final-edge cost) is at
                // least the bound's tail, and a tier the bound finds no
                // coordinator for has no final edge.
                let e2 = frame.e2;
                let recipe = price_pair(platform, catalog, &space, frame, PruneConfig::off());
                assert_eq!(recipe.e2, e2);
                for (_, coord) in &recipe.per_coord {
                    for &(si, m) in &coord.final_edges {
                        let tail = by_tier[&si].tail_nanos;
                        let tail = tail.unwrap_or_else(|| panic!("{at}: tier {si} unreachable"));
                        assert!(
                            tail <= coord.e3.cost_nanos + m.cost_nanos,
                            "{at}: tail {si}"
                        );
                    }
                }
                // The frontier is the staircase of the reachable tiers.
                let reachable: Vec<(f64, i64)> = bound
                    .tiers
                    .iter()
                    .filter_map(|b| Some((b.phase_s, b.tail_nanos?)))
                    .collect();
                for &(phase_s, tail) in &reachable {
                    assert!(
                        bound
                            .frontier
                            .iter()
                            .any(|&(p, t)| p <= phase_s && t <= tail),
                        "{at}: frontier misses ({phase_s}, {tail})"
                    );
                }
                assert!(bound.frontier.iter().all(|f| reachable.contains(f)));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The frame-free bound is a lower bound: for every feasible pair
        /// and reducer tier its span, wait and coordinator-free cost are
        /// at most the frame's, its least `t2`/`e3` at most every
        /// coordinator tier's, its tail at most every final edge's, and
        /// a tier it drops for the timeout is infeasible in the frame
        /// too. On the AWS platform with and without the ElastiCache
        /// intermediate store, and on the paper-literal one, under the
        /// AWS, GCP or Azure price sheet (100 ms or 1 ms billing).
        #[test]
        fn pair_bound_is_below_the_exact_frame(job in arb_bound_job(), sheet in 0usize..3) {
            let catalog = [
                PriceCatalog::aws_2020(),
                PriceCatalog::gcp_2020(),
                PriceCatalog::azure_2020(),
            ][sheet];
            for platform in [
                Platform::aws_lambda(),
                Platform::aws_lambda().with_elasticache(),
                Platform::paper_literal(10.0),
            ] {
                check_pair_bounds(&job, &platform, &catalog);
            }
        }
    }

    /// FNV-1a, 64-bit: a fixed hash (unlike `DefaultHasher`, whose
    /// algorithm may change between toolchains) for golden digests.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn u32s(&mut self, vs: &[u32]) {
            self.u64(vs.len() as u64);
            vs.iter().for_each(|&v| self.u64(v as u64));
        }
    }

    /// The three platform/price-sheet pairs of the golden matrix: 46,
    /// 5 and 23 memory tiers; 100 ms, 100 ms and 1 ms billing.
    fn golden_platforms() -> [(Platform, PriceCatalog); 3] {
        [
            (Platform::aws_lambda(), PriceCatalog::aws_2020()),
            (Platform::gcp_functions(), PriceCatalog::gcp_2020()),
            (Platform::azure_functions(), PriceCatalog::azure_2020()),
        ]
    }

    /// Wordcount-, sort- and query-shaped profiles (shrinking,
    /// volume-preserving single-pass, and aggregating reduces).
    fn golden_profiles() -> [WorkloadProfile; 3] {
        let base = WorkloadProfile {
            name: "wordcount".into(),
            map_secs_per_mb_128: 0.9,
            reduce_secs_per_mb_128: 0.6,
            coord_secs_per_mb_128: 0.002,
            shuffle_ratio: 0.05,
            reduce_ratio: 0.6,
            state_object_mb: 1.0,
            single_pass_reduce: false,
        };
        [
            base.clone(),
            WorkloadProfile {
                name: "sort".into(),
                map_secs_per_mb_128: 0.2,
                reduce_secs_per_mb_128: 0.2,
                coord_secs_per_mb_128: 0.001,
                shuffle_ratio: 1.0,
                reduce_ratio: 1.0,
                single_pass_reduce: true,
                ..base.clone()
            },
            WorkloadProfile {
                name: "query".into(),
                map_secs_per_mb_128: 0.45,
                reduce_secs_per_mb_128: 0.7,
                shuffle_ratio: 0.03,
                reduce_ratio: 0.5,
                ..base
            },
        ]
    }

    /// `n` objects of 64 MB, or jittered by up to ±20% with a fixed
    /// xorshift stream (so the ragged-job model path runs too).
    fn golden_job(n: usize, profile: &WorkloadProfile, jitter: bool) -> JobSpec {
        let mut state = 0x2545_f491_4f6c_dd1du64 ^ n as u64;
        let sizes = (0..n)
            .map(|_| {
                if !jitter {
                    return 64.0;
                }
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                64.0 * (0.8 + 0.4 * (state >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        JobSpec {
            name: format!("golden-{n}"),
            object_sizes_mb: sizes,
            profile: profile.clone(),
        }
    }

    /// The store half of a build, hashed: node labels, every edge's
    /// endpoints and metric bits in assembly (edge id) order, the prune
    /// tallies, and every `SoaEdges` array (the topological order
    /// included).
    ///
    /// `pairs_unpriced` is left out: it counts how the build reached the
    /// DAG (how many pairs a bound retired unpriced), not what the DAG
    /// is. Its slot is hashed as 0, the value every unpruned build has,
    /// so the unpruned table is unaffected.
    fn store_digest(h: &mut Fnv, dag: &PlannerDag) {
        let soa = dag.soa();
        h.u64(dag.nodes().len() as u64);
        for &choice in dag.nodes() {
            let words: [u64; 4] = match choice {
                Choice::Source => [0, 0, 0, 0],
                Choice::MapperMem(m) => [1, m as u64, 0, 0],
                Choice::ObjectsPerMapper(k) => [2, k as u64, 0, 0],
                Choice::ObjectsPerReducer { k_m, k_r } => [3, k_m as u64, k_r as u64, 0],
                Choice::CoordinatorMem { k_m, k_r, mem } => [4, k_m as u64, k_r as u64, mem as u64],
                Choice::ReducerMem(m) => [5, m as u64, 0, 0],
                Choice::Sink => [6, 0, 0, 0],
            };
            words.iter().for_each(|&w| h.u64(w));
        }
        // Every edge's (tail, slot), indexed by edge id.
        let mut by_id = vec![(0u32, 0usize); soa.edges_stored()];
        for u in 0..dag.nodes().len() as u32 {
            for i in soa.slots(u) {
                by_id[soa.edge_ids[i] as usize] = (u, i);
            }
        }
        h.u64(by_id.len() as u64);
        for (tail, i) in by_id {
            for w in [
                tail as u64,
                soa.heads[i] as u64,
                soa.times[i].to_bits(),
                soa.costs[i] as u64,
            ] {
                h.u64(w);
            }
        }
        let s = dag.prune_stats();
        for w in [
            s.mapper_edges,
            s.coordinator_nodes,
            s.reducer_edges,
            s.pair_subtrees,
            0,
        ] {
            h.u64(w as u64);
        }
        h.u32s(&soa.offsets);
        h.u32s(&soa.heads);
        h.u32s(&soa.edge_ids);
        soa.times.iter().for_each(|t| h.u64(t.to_bits()));
        soa.costs.iter().for_each(|&c| h.u64(c as u64));
        h.u32s(&soa.multiplicity);
        h.u32s(&soa.topo);
    }

    /// The answer half of a build, hashed: the potential-guided ExactCsp
    /// plan for the fastest, cheapest, a mid-band budget and a mid-band
    /// deadline objective, each as its configuration, cost nanos and JCT
    /// bits.
    fn answer_digest(
        h: &mut Fnv,
        dag: &PlannerDag,
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
    ) {
        let potentials = crate::solver::PlannerPotentials::compute(dag);
        let telemetry = astra_telemetry::Telemetry::disabled();
        let answer = |objective| {
            crate::solver::solve_on_dag_with_potentials(
                dag,
                &potentials,
                objective,
                crate::solver::Strategy::ExactCsp,
                &telemetry,
            )
            .map(|config| {
                let ev = evaluate(job, platform, &config, catalog).expect("planned config");
                (config, ev.total_cost().nanos(), ev.jct_s())
            })
        };
        let mut hash_answer = |a: Option<(JobConfig, i128, f64)>| match a {
            None => h.u64(u64::MAX),
            Some((c, cost, jct)) => {
                for w in [
                    c.mapper_mem_mb as u64,
                    c.coordinator_mem_mb as u64,
                    c.reducer_mem_mb as u64,
                    c.objects_per_mapper as u64,
                    c.objects_per_reducer as u64,
                    cost as u64,
                    jct.to_bits(),
                ] {
                    h.u64(w);
                }
            }
        };
        let fastest = answer(crate::Objective::fastest());
        let cheapest = answer(crate::Objective::cheapest());
        hash_answer(fastest);
        hash_answer(cheapest);
        if let (Some(f), Some(c)) = (fastest, cheapest) {
            let budget = Money::from_nanos((f.1 + c.1) / 2);
            hash_answer(answer(crate::Objective::MinimizeTime { budget }));
            let deadline_s = 0.5 * (f.2 + c.2);
            hash_answer(answer(crate::Objective::MinimizeCost { deadline_s }));
        }
    }

    const GOLDEN_NS: [usize; 7] = [1, 2, 7, 10, 37, 60, 120];

    /// FNV-1a digests per (platform pair, N), each folded over 3
    /// profiles × uniform/jittered sizes × full/bundled space. Any change
    /// to a node, edge, metric bit, prune tally or store slot moves a
    /// store digest; any change to an answer moves an answer digest.
    ///
    /// [`store_digest`] of the pruned builds, re-recorded when pair
    /// subtrees started to be dropped (the point of that change), and
    /// again when `pairs_unpriced` left the hash.
    const GOLDEN_PRUNED_STORE_DIGESTS: [[u64; 7]; 3] = [
        [
            0x9642_db9e_e1ef_6ced,
            0x1885_559d_5c5e_df81,
            0xe43e_b1fd_adfd_eb86,
            0xc218_015d_80a6_2f2a,
            0x14ff_9360_45f7_55f2,
            0xc44e_ceb8_29b7_0781,
            0x632b_943c_3130_42f3,
        ],
        [
            0x4dd7_5a76_8739_0555,
            0x32a3_5a0a_c4d3_fc3d,
            0xebe8_d6b3_4668_8af7,
            0x505c_e6ca_7266_2146,
            0x1e8f_1e4c_d4b3_7b6b,
            0xeac1_345b_6823_9d49,
            0x70fc_2d95_5ad4_0a0c,
        ],
        [
            0x385c_913c_7939_a959,
            0xb44a_8748_9a21_cbcd,
            0x645f_278e_0545_88a4,
            0x74eb_ede0_c75f_fbbc,
            0x02ac_5f6e_4845_4022,
            0x2097_ebb3_a817_b409,
            0x6952_c140_875b_3ef0,
        ],
    ];

    /// [`store_digest`] of the unpruned builds, recorded before pair
    /// subtrees were dropped and unchanged since.
    const GOLDEN_UNPRUNED_STORE_DIGESTS: [[u64; 7]; 3] = [
        [
            0xa526_71cc_8872_5365,
            0x3803_0c08_3fe7_7a95,
            0xddcc_c2c0_f6bd_7f91,
            0x7bf6_2a09_495b_84e9,
            0x8258_92be_6b06_3aa8,
            0xbdf3_da93_ae4a_6030,
            0x4384_9e38_9478_b32f,
        ],
        [
            0x6f4f_4dfa_c564_3025,
            0xe46c_7685_19ec_4d7d,
            0xa3a3_5e42_ded1_64ed,
            0x8bdc_7cfa_568c_85dd,
            0xedbe_8e48_44d3_238d,
            0xbeb5_49f9_9f58_705e,
            0x6a41_82b8_b9a3_de37,
        ],
        [
            0x5573_e72f_7c7d_9ac5,
            0xadb5_8b7d_ba97_794d,
            0x5242_25d2_fe9a_3765,
            0x9589_c5d0_e20b_79f9,
            0x7757_dcff_c28b_4337,
            0x8f17_efd2_3596_bc95,
            0xa517_b0d1_da41_5021,
        ],
    ];

    /// [`answer_digest`] of the pruned and the unpruned builds, recorded
    /// before pair subtrees were dropped and unchanged since.
    const GOLDEN_ANSWER_DIGESTS: [[u64; 7]; 3] = [
        [
            0x76a9_e2f3_aa3d_b5ed,
            0x5f14_264c_b85b_cac5,
            0x5341_2b86_f28a_63dd,
            0xac63_8f24_9419_867d,
            0x6643_efee_0ecc_1845,
            0x2b0f_de01_785f_2259,
            0x4e31_4c69_c4ae_d245,
        ],
        [
            0xe412_70e1_4390_2895,
            0x2d39_6b26_24e5_03ed,
            0xa991_76d7_9a1d_c215,
            0xba3c_570b_3e3a_6545,
            0x6fcd_6d89_26f1_7555,
            0xc26a_c3b3_fa6e_3d9d,
            0x7ec5_8eab_b118_cb31,
        ],
        [
            0xbba9_20a1_a345_295d,
            0x5d06_9514_a296_5dfd,
            0x1795_33a9_2ccc_dcfd,
            0x290c_5fe7_99a9_11ad,
            0x7978_f34f_a31e_2bad,
            0x6b2e_63fa_b6e5_8681,
            0xaa49_7456_66e2_d069,
        ],
    ];

    /// `[pruned store, unpruned store, answers]` digests for one
    /// (platform pair, N).
    fn golden_digests(pi: usize, n: usize) -> [u64; 3] {
        let (platform, catalog) = &golden_platforms()[pi];
        let [mut pruned, mut unpruned, mut answers] = [Fnv::new(), Fnv::new(), Fnv::new()];
        for profile in &golden_profiles() {
            for jitter in [false, true] {
                let job = golden_job(n, profile, jitter);
                for space in [
                    ConfigSpace::full(&job, platform),
                    ConfigSpace::bundled(&job, platform),
                ] {
                    for (prune, store) in [
                        (PruneConfig::on(), &mut pruned),
                        (PruneConfig::off(), &mut unpruned),
                    ] {
                        let dag = PlannerDag::build_with(&job, platform, catalog, &space, prune);
                        store_digest(store, &dag);
                        answer_digest(&mut answers, &dag, &job, platform, catalog);
                    }
                }
            }
        }
        [pruned.0, unpruned.0, answers.0]
    }

    /// Compare one platform's row of the three golden tables, reporting
    /// every moved digest (and each recomputed row) at once.
    fn check_golden_row(pi: usize) {
        let got: Vec<[u64; 3]> = GOLDEN_NS.iter().map(|&n| golden_digests(pi, n)).collect();
        let tables = [
            ("pruned store", &GOLDEN_PRUNED_STORE_DIGESTS[pi]),
            ("unpruned store", &GOLDEN_UNPRUNED_STORE_DIGESTS[pi]),
            ("answer", &GOLDEN_ANSWER_DIGESTS[pi]),
        ];
        let mut moved = Vec::new();
        for (k, (name, table)) in tables.iter().enumerate() {
            let row: Vec<u64> = got.iter().map(|d| d[k]).collect();
            let at: Vec<usize> = GOLDEN_NS
                .iter()
                .zip(row.iter().zip(table.iter()))
                .filter(|(_, (g, w))| g != w)
                .map(|(&n, _)| n)
                .collect();
            if !at.is_empty() {
                moved.push(format!(
                    "{name} digests moved at N = {at:?}; recomputed: {row:#018x?}"
                ));
            }
        }
        assert!(moved.is_empty(), "platform {pi}:\n{}", moved.join("\n"));
    }

    #[test]
    fn golden_dag_digests_aws() {
        check_golden_row(0);
    }

    #[test]
    fn golden_dag_digests_gcp() {
        check_golden_row(1);
    }

    #[test]
    fn golden_dag_digests_azure() {
        check_golden_row(2);
    }

    /// The Algorithm 1 answers (plain and potential-guided) for the
    /// fastest, cheapest, a mid-band budget and a mid-band deadline plan:
    /// each hashed as its configuration, cost nanos and JCT bits. Edge
    /// ids are left out, so renumbering path edges moves no digest.
    fn alg1_digest(
        h: &mut Fnv,
        dag: &PlannerDag,
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
    ) {
        use crate::solver::{solve_on_dag, solve_on_dag_with_potentials, Strategy};
        let potentials = crate::solver::PlannerPotentials::compute(dag);
        let telemetry = astra_telemetry::Telemetry::disabled();
        let priced = |config: Option<JobConfig>| {
            config.map(|c| {
                let ev = evaluate(job, platform, &c, catalog).expect("planned config");
                (c, ev.total_cost().nanos(), ev.jct_s())
            })
        };
        let mut hash = |a: &Option<(JobConfig, i128, f64)>| match a {
            None => h.u64(u64::MAX),
            Some((c, cost, jct)) => {
                for w in [
                    c.mapper_mem_mb as u64,
                    c.coordinator_mem_mb as u64,
                    c.reducer_mem_mb as u64,
                    c.objects_per_mapper as u64,
                    c.objects_per_reducer as u64,
                    *cost as u64,
                    jct.to_bits(),
                ] {
                    h.u64(w);
                }
            }
        };
        let mut answer = |objective| {
            let plain = priced(solve_on_dag(dag, objective, Strategy::Algorithm1));
            let guided = priced(solve_on_dag_with_potentials(
                dag,
                &potentials,
                objective,
                Strategy::Algorithm1,
                &telemetry,
            ));
            hash(&plain);
            hash(&guided);
            plain
        };
        let fastest = answer(crate::Objective::fastest());
        let cheapest = answer(crate::Objective::cheapest());
        if let (Some(f), Some(c)) = (fastest, cheapest) {
            let budget = Money::from_nanos((f.1 + c.1) / 2);
            answer(crate::Objective::MinimizeTime { budget });
            let deadline_s = 0.5 * (f.2 + c.2);
            answer(crate::Objective::MinimizeCost { deadline_s });
        }
    }

    const GOLDEN_ALG1_NS: [usize; 2] = [1, 2];

    /// FNV-1a digests of [`alg1_digest`] per (platform pair, N), folded
    /// over 3 profiles × uniform/jittered sizes × full/bundled space on
    /// unpruned DAGs (Algorithm 1 sessions always run unpruned), recorded
    /// from the arena-graph Dijkstra with hashed removal sets. N stays
    /// small because capped Algorithm 1 runs up to 500 Dijkstra rounds
    /// per query, which a debug build pays in full.
    const GOLDEN_ALG1_DIGESTS: [[u64; 2]; 3] = [
        [0x8e81_3f84_23d0_df5d, 0x8546_7381_db3a_cde5],
        [0xf17c_966d_6693_7e0d, 0xfe39_909f_7e55_8df5],
        [0x06fd_d817_28e5_6355, 0x9f7b_b633_c156_cfa5],
    ];

    #[test]
    fn golden_alg1_digests() {
        let mut got = [[0u64; 2]; 3];
        for (pi, (platform, catalog)) in golden_platforms().iter().enumerate() {
            for (ni, &n) in GOLDEN_ALG1_NS.iter().enumerate() {
                let mut h = Fnv::new();
                for profile in &golden_profiles() {
                    for jitter in [false, true] {
                        let job = golden_job(n, profile, jitter);
                        for space in [
                            ConfigSpace::full(&job, platform),
                            ConfigSpace::bundled(&job, platform),
                        ] {
                            let dag = PlannerDag::build_with(
                                &job,
                                platform,
                                catalog,
                                &space,
                                PruneConfig::off(),
                            );
                            alg1_digest(&mut h, &dag, &job, platform, catalog);
                        }
                    }
                }
                got[pi][ni] = h.0;
            }
        }
        assert_eq!(
            got, GOLDEN_ALG1_DIGESTS,
            "Algorithm 1 digests moved; recomputed table: {got:#018x?}"
        );
    }

    #[test]
    fn infeasible_platform_yields_no_path() {
        let j = job(4);
        let mut platform = Platform::paper_literal(10.0);
        platform.timeout_s = 0.001; // nothing fits
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128]);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        assert!(csp_path(&dag, false, f64::INFINITY).is_none());
    }
}
