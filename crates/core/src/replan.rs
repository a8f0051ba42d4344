//! Incremental re-planning: classify the delta between two planning
//! inputs and recost the affected DAG edge families in place.
//!
//! An interactive re-quote usually perturbs a *slice* of the model —
//! one profile coefficient recalibrated, a price bump, a renamed job —
//! while the DAG's shape (columns, feasibility gates, pruning verdicts)
//! stays put. [`JobDelta`] diffs two `(job, space, platform, prices)`
//! tuples into the change classes below; `PlannerSession::apply_delta`
//! then picks one of three repairs:
//!
//! * **unchanged** — cosmetic deltas (renames) keep the DAG, the
//!   potentials and the answer memo.
//! * **fast recost** (`RecostPlan`) — only the touched edge families
//!   are re-evaluated through the O(1) cost kernels and written straight
//!   into the DAG's edge store. Sound only when no
//!   feasibility gate or pruning verdict can flip: unpruned DAGs and
//!   deltas limited to `{name, mapper_coeff, prices}` (a mapper-
//!   coefficient change can flip the mapper timeout gate, so the new
//!   feasible set is verified against the captured topology first —
//!   any flip falls back). `PlannerSession::patches_in_place` answers
//!   whether a delta is on this tier.
//! * **rebuild** — everything else: reduce/coordinator coefficients and
//!   other job values, any coefficient or price delta on a pruned DAG
//!   (it can move a pruning verdict), and space/platform changes
//!   (including input-count changes that re-bucket the space).
//!
//! Every repair path is bit-identical to a cold rebuild at the new
//! inputs (`tests/replan_equivalence.rs` pins this under proptest).

use std::collections::HashMap;

use astra_model::cost::{
    coordinator_storage_cost, mapper_edge_cost, orchestration_requests_cost, reduce_edge_cost,
    runtime_cost,
};
use astra_model::schedule::total_input_mb;
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;

use crate::cache::ModelCache;
use crate::dag::{Choice, EdgeMetrics, PlannerDag};
use crate::space::ConfigSpace;

/// What `PlannerSession::apply_delta` did to serve the new inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanOutcome {
    /// The inputs were identical (or differed only cosmetically); the
    /// session answers from its existing state.
    Unchanged,
    /// Only the affected edge families were recosted in place.
    Patched,
    /// The delta changed DAG shape; the session rebuilt from scratch.
    Rebuilt,
}

/// A DAG edge family, as reported by [`JobDelta::affected_families`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFamily {
    /// `x_i -> k_M` mapper edges (time `T1`, cost `U1+V1+W1`).
    Mapper,
    /// `k_M -> (k_M,k_R)` orchestration edges (cost only).
    Orchestration,
    /// `(k_M,k_R) -> +coord` coordinator edges (time `T2`, cost `V2`).
    Coordinator,
    /// `+coord -> z_s` final edges (reduce phase time, reduce + coord
    /// runtime cost).
    Final,
}

/// Field-level diff of two planning-input tuples, bucketed into the
/// change classes the repair tiers key on. Float fields compare by
/// `to_bits`, so a delta is "changed" exactly when a cold rebuild could
/// produce different arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobDelta {
    /// Job or profile name changed (cosmetic; no model term reads it).
    pub name: bool,
    /// `map_secs_per_mb_128` changed: mapper phase times, costs and the
    /// mapper timeout gate.
    pub mapper_coeff: bool,
    /// `reduce_secs_per_mb_128` changed: reduce tier times, final-edge
    /// metrics and the reducer/coordinator timeout gates.
    pub reduce_coeff: bool,
    /// `coord_secs_per_mb_128` changed: coordinator compute time, `e3`
    /// and final-edge metrics.
    pub coord_coeff: bool,
    /// Any other model-bearing job value changed (object sizes with the
    /// count held fixed, shuffle/reduce ratios, state object size,
    /// single-pass flag): potentially every family and gate.
    pub job_values: bool,
    /// The price catalog changed: every cost metric, no time and no
    /// gate (gates are time- and storage-only).
    pub prices: bool,
    /// The DAG's shape inputs changed — config space, platform, or the
    /// number of input objects (which re-buckets the space). Always a
    /// rebuild.
    pub reshape: bool,
}

fn f64_ne(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

impl JobDelta {
    /// Diff `(old_job, old_space, old_platform, old_catalog)` against
    /// the new tuple.
    #[allow(clippy::too_many_arguments)] // the two full input tuples, flattened
    pub fn classify(
        old_job: &JobSpec,
        old_space: &ConfigSpace,
        old_platform: &Platform,
        old_catalog: &PriceCatalog,
        new_job: &JobSpec,
        new_space: &ConfigSpace,
        new_platform: &Platform,
        new_catalog: &PriceCatalog,
    ) -> JobDelta {
        let mut d = JobDelta::default();
        if old_space != new_space
            || old_platform != new_platform
            || old_job.object_sizes_mb.len() != new_job.object_sizes_mb.len()
        {
            d.reshape = true;
        }
        if old_job.name != new_job.name || old_job.profile.name != new_job.profile.name {
            d.name = true;
        }
        let (op, np) = (&old_job.profile, &new_job.profile);
        d.mapper_coeff = f64_ne(op.map_secs_per_mb_128, np.map_secs_per_mb_128);
        d.reduce_coeff = f64_ne(op.reduce_secs_per_mb_128, np.reduce_secs_per_mb_128);
        d.coord_coeff = f64_ne(op.coord_secs_per_mb_128, np.coord_secs_per_mb_128);
        d.job_values = old_job.object_sizes_mb.len() == new_job.object_sizes_mb.len()
            && old_job
                .object_sizes_mb
                .iter()
                .zip(&new_job.object_sizes_mb)
                .any(|(&a, &b)| f64_ne(a, b))
            || f64_ne(op.shuffle_ratio, np.shuffle_ratio)
            || f64_ne(op.reduce_ratio, np.reduce_ratio)
            || f64_ne(op.state_object_mb, np.state_object_mb)
            || op.single_pass_reduce != np.single_pass_reduce;
        d.prices = old_catalog != new_catalog;
        d
    }

    /// No class fired at all: the tuples are interchangeable.
    pub fn is_identity(&self) -> bool {
        *self == JobDelta::default()
    }

    /// Only cosmetic classes fired (name changes never reach the model).
    pub fn is_cosmetic(&self) -> bool {
        JobDelta {
            name: false,
            ..*self
        } == JobDelta::default()
    }

    /// The delta qualifies for the fast in-place recost tier: classes
    /// within `{name, mapper_coeff, prices}`. (Only sound on unpruned
    /// DAGs; the session checks that separately.)
    pub fn fast_patchable(&self) -> bool {
        !self.reshape && !self.reduce_coeff && !self.coord_coeff && !self.job_values
    }

    /// Whether any time metric (and therefore any feasibility gate or
    /// memoized deadline answer) can move under this delta.
    pub fn affects_time(&self) -> bool {
        self.mapper_coeff
            || self.reduce_coeff
            || self.coord_coeff
            || self.job_values
            || self.reshape
    }

    /// The edge families a fast recost must touch for this delta.
    pub fn affected_families(&self) -> Vec<EdgeFamily> {
        let mut fams = Vec::new();
        if self.mapper_coeff || self.job_values || self.prices || self.reshape {
            fams.push(EdgeFamily::Mapper);
        }
        if self.job_values || self.prices || self.reshape {
            fams.push(EdgeFamily::Orchestration);
        }
        if self.coord_coeff || self.job_values || self.prices || self.reshape {
            fams.push(EdgeFamily::Coordinator);
        }
        if self.reduce_coeff || self.coord_coeff || self.job_values || self.prices || self.reshape
        {
            fams.push(EdgeFamily::Final);
        }
        fams
    }
}

/// One column-2 node's mapper fan-in: its `k_M` and the `(tier index,
/// store slot)` pairs of the surviving `x_i -> k_M` edges.
#[derive(Debug, Clone)]
struct MapperCtx {
    k_m: usize,
    node: u32,
    edges: Vec<(usize, usize)>,
}

/// One column-4 node inside a pair: its tier, `e3` edge slot and final
/// edges as `(reducer tier index, store slot)`.
#[derive(Debug, Clone)]
struct CoordCtx {
    node: u32,
    a_mem: u32,
    e3: usize,
    finals: Vec<(usize, usize)>,
}

/// One `(k_M, k_R)` column-3 node and everything hanging off it.
#[derive(Debug, Clone)]
struct PairCtx {
    k_m: usize,
    k_r: usize,
    node: u32,
    e2: usize,
    coords: Vec<CoordCtx>,
}

/// Topology index for the fast recost tier: the edge-store slots of
/// each recostable edge family, keyed by the configuration choices its
/// cost kernels need. Captured lazily from a built DAG (one O(V+E)
/// walk) and reused across deltas until a rebuild invalidates it.
#[derive(Debug, Clone)]
pub(crate) struct RecostPlan {
    /// Column-1 node ids in tier order (the mapper edges' tails).
    col1: Vec<u32>,
    mappers: Vec<MapperCtx>,
    /// `k_m -> index into mappers`.
    mapper_of_k_m: HashMap<usize, usize>,
    pairs: Vec<PairCtx>,
}

impl RecostPlan {
    /// Index `dag`'s topology. Returns `None` if the DAG does not have
    /// the canonical assembled shape (defensive; cannot happen for DAGs
    /// built by this crate).
    pub(crate) fn capture(dag: &PlannerDag, space: &ConfigSpace) -> Option<RecostPlan> {
        let (labels, soa) = (dag.nodes(), dag.soa());
        let tiers = &space.memory_tiers_mb;
        let t = tiers.len();
        let tier_index: HashMap<u32, usize> =
            tiers.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        // Canonical id layout: source=0, sink=1, col1=2..2+T, col5=2+T..2+2T.
        let mut col1 = Vec::with_capacity(t);
        for (i, &m) in tiers.iter().enumerate() {
            let id = 2 + i as u32;
            if labels[id as usize] != Choice::MapperMem(m) {
                return None;
            }
            col1.push(id);
        }
        let col5_base = 2 + t as u32;
        for (i, &m) in tiers.iter().enumerate() {
            let id = col5_base + i as u32;
            if labels[id as usize] != Choice::ReducerMem(m) {
                return None;
            }
        }

        let mut mappers: Vec<MapperCtx> = Vec::new();
        let mut pairs: Vec<PairCtx> = Vec::new();
        let mut mapper_idx: HashMap<u32, usize> = HashMap::new();
        let mut pair_idx: HashMap<u32, usize> = HashMap::new();
        let mut coord_idx: HashMap<u32, (usize, usize)> = HashMap::new();
        for (u, &label) in (0u32..).zip(labels) {
            match label {
                Choice::ObjectsPerMapper(k_m) => {
                    mapper_idx.insert(u, mappers.len());
                    mappers.push(MapperCtx {
                        k_m,
                        node: u,
                        edges: Vec::new(),
                    });
                }
                Choice::ObjectsPerReducer { k_m, k_r } => {
                    pair_idx.insert(u, pairs.len());
                    pairs.push(PairCtx {
                        k_m,
                        k_r,
                        node: u,
                        e2: 0,
                        coords: Vec::new(),
                    });
                }
                Choice::CoordinatorMem { k_m, k_r, mem } => {
                    // Assembly emits a pair's column-4 nodes directly
                    // after its column-3 node, so in id order the owner
                    // is always the most recently seen pair.
                    let pi = pairs.len().checked_sub(1)?;
                    let pair = &mut pairs[pi];
                    if pair.k_m != k_m || pair.k_r != k_r {
                        return None;
                    }
                    coord_idx.insert(u, (pi, pair.coords.len()));
                    pair.coords.push(CoordCtx {
                        node: u,
                        a_mem: mem,
                        e3: 0,
                        finals: Vec::new(),
                    });
                }
                _ => {}
            }
        }

        // One walk over every tail's slots wires each family to its
        // context. Tails go in id order and a tail's slots oldest first,
        // so the mapper (column-1 tails in tier order) and final-edge
        // lists come out in tier order.
        for (from, &tail) in (0u32..).zip(labels) {
            for slot in soa.slots(from).rev() {
                let to = soa.heads()[slot];
                match (tail, labels[to as usize]) {
                    (Choice::MapperMem(m), Choice::ObjectsPerMapper(_)) => {
                        let ti = *tier_index.get(&m)?;
                        let mi = *mapper_idx.get(&to)?;
                        mappers[mi].edges.push((ti, slot));
                    }
                    (Choice::ObjectsPerMapper(_), Choice::ObjectsPerReducer { .. }) => {
                        let pi = *pair_idx.get(&to)?;
                        pairs[pi].e2 = slot;
                    }
                    (Choice::ObjectsPerReducer { .. }, Choice::CoordinatorMem { .. }) => {
                        let &(pi, ci) = coord_idx.get(&to)?;
                        pairs[pi].coords[ci].e3 = slot;
                    }
                    (Choice::CoordinatorMem { .. }, Choice::ReducerMem(_)) => {
                        let &(pi, ci) = coord_idx.get(&from)?;
                        let si = (to - col5_base) as usize;
                        if si >= t {
                            return None;
                        }
                        pairs[pi].coords[ci].finals.push((si, slot));
                    }
                    _ => {}
                }
            }
        }

        let mapper_of_k_m = mappers.iter().enumerate().map(|(i, m)| (m.k_m, i)).collect();
        Some(RecostPlan {
            col1,
            mappers,
            mapper_of_k_m,
            pairs,
        })
    }

    /// Fast in-place recost for a [`JobDelta::fast_patchable`] delta on
    /// an **unpruned** DAG, written straight into the edge store. On
    /// success, returns the dirty-tail mask (nodes whose out-edges were
    /// rewritten) for the potentials resume; `None` means a feasibility gate flipped
    /// (the new shape differs) and the caller must rebuild. The DAG is
    /// only written once all gates are verified, so a `None` return
    /// leaves it untouched.
    pub(crate) fn patch(
        &self,
        dag: &mut PlannerDag,
        delta: &JobDelta,
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
    ) -> Option<Vec<bool>> {
        debug_assert!(delta.fast_patchable());
        let cache = ModelCache::new(job, platform);
        let tiers = &space.memory_tiers_mb;
        let mut dirty = vec![false; dag.nodes().len()];
        let soa = dag.soa_mut();

        if delta.mapper_coeff {
            // Recompute every mapper phase and verify the feasible set
            // still matches the captured topology (survivors == the
            // feasible set on an unpruned DAG) before writing anything.
            let mut writes: Vec<(usize, EdgeMetrics)> = Vec::new();
            for &k_m in &space.k_m_values {
                let j = job.num_objects().div_ceil(k_m);
                if j.max(2) > platform.max_concurrency as usize {
                    // Concurrency gate is coefficient-independent: the
                    // capture has no node for this k_M either.
                    continue;
                }
                let mut feasible: Vec<(usize, EdgeMetrics)> = Vec::new();
                for (ti, &i_mem) in tiers.iter().enumerate() {
                    let phase = cache.mapper_phase(i_mem, k_m);
                    if phase.duration_s > platform.timeout_s {
                        continue;
                    }
                    let cost = mapper_edge_cost(
                        job,
                        &phase,
                        i_mem,
                        platform,
                        catalog,
                        cache.job_total_mb(),
                    );
                    feasible.push((ti, edge_metrics(phase.duration_s, cost)));
                }
                match self.mapper_of_k_m.get(&k_m) {
                    Some(&mi) => {
                        let ctx = &self.mappers[mi];
                        if feasible.len() != ctx.edges.len()
                            || feasible
                                .iter()
                                .zip(&ctx.edges)
                                .any(|(&(ti_new, _), &(ti_old, _))| ti_new != ti_old)
                        {
                            return None; // timeout gate flipped somewhere
                        }
                        for (&(_, m), &(_, slot)) in feasible.iter().zip(&ctx.edges) {
                            writes.push((slot, m));
                        }
                    }
                    // No node: the old build had no feasible tier. The
                    // new coefficient must agree or the shape changes.
                    None => {
                        if !feasible.is_empty() {
                            return None;
                        }
                    }
                }
            }
            for (slot, m) in writes {
                soa.set_metrics(slot, m);
            }
            for &u in &self.col1 {
                dirty[u as usize] = true;
            }
        }

        if delta.prices {
            // Gates are time- and storage-only: no price change can
            // flip one, so this pass always succeeds. Times are kept
            // bit-identical by reusing the stored payloads.
            if !delta.mapper_coeff {
                // Mapper costs depend on the catalog too; times are
                // unchanged (same job model), so phases re-derive
                // bit-identically from the fresh cache.
                for ctx in &self.mappers {
                    for &(ti, slot) in &ctx.edges {
                        let i_mem = tiers[ti];
                        let phase = cache.mapper_phase(i_mem, ctx.k_m);
                        let cost = mapper_edge_cost(
                            job,
                            &phase,
                            i_mem,
                            platform,
                            catalog,
                            cache.job_total_mb(),
                        );
                        soa.set_metrics(slot, edge_metrics(phase.duration_s, cost));
                    }
                }
                for &u in &self.col1 {
                    dirty[u as usize] = true;
                }
            }
            for pair in &self.pairs {
                let structure = cache.reduce_structure(pair.k_m, pair.k_r);
                let pending_input_mb = total_input_mb(&structure.steps);
                let last_spawn_s = *structure
                    .per_step_spawn_s
                    .last()
                    .expect("at least one step");
                let e2_time = soa.times()[pair.e2];
                let e2_cost = orchestration_requests_cost(&structure, platform, catalog);
                soa.set_metrics(pair.e2, edge_metrics(e2_time, e2_cost));
                // The coordinator-independent slice of each final
                // edge's cost depends only on the reducer tier, so it
                // is computed once per tier and shared by every
                // coordinator row (a cold build shares it the same
                // way through its column recipes).
                let mut excl_by_tier: Vec<Option<(f64, astra_pricing::Money)>> =
                    vec![None; tiers.len()];
                for coord in &pair.coords {
                    // `t2_s` is the e3 edge's stored time; the model
                    // hasn't moved, so it equals what a cold build
                    // would recompute.
                    let t2_s = soa.times()[coord.e3];
                    let e3_cost = coordinator_storage_cost(
                        job,
                        &structure,
                        t2_s,
                        platform,
                        catalog,
                        cache.job_total_mb(),
                        pending_input_mb,
                    );
                    soa.set_metrics(coord.e3, edge_metrics(t2_s, e3_cost));
                    dirty[pair.node as usize] = true;
                    for &(si, slot) in &coord.finals {
                        let (wait_before_last, cost_excl) = match excl_by_tier[si] {
                            Some(v) => v,
                            None => {
                                let s_mem = tiers[si];
                                let times =
                                    cache.reduce_tier_times(pair.k_m, pair.k_r, s_mem);
                                let wait: f64 = times.per_step_max_s
                                    [..times.per_step_max_s.len() - 1]
                                    .iter()
                                    .sum();
                                let cost = reduce_edge_cost(
                                    job,
                                    &structure,
                                    &times,
                                    s_mem,
                                    tiers[0],
                                    0.0,
                                    platform,
                                    catalog,
                                    cache.job_total_mb(),
                                );
                                excl_by_tier[si] = Some((wait, cost));
                                (wait, cost)
                            }
                        };
                        let coord_billed_s = t2_s + wait_before_last + last_spawn_s;
                        let coord_cost =
                            runtime_cost(coord_billed_s, coord.a_mem, &catalog.lambda);
                        let time_s = soa.times()[slot];
                        soa.set_metrics(slot, edge_metrics(time_s, cost_excl + coord_cost));
                    }
                    dirty[coord.node as usize] = true;
                }
            }
            // Dirty tails per family: col1 nodes (mapper edges, marked
            // above), col2 nodes (`e2`), col3 nodes (`e3`), col4 nodes
            // (final edges).
            for ctx in &self.mappers {
                dirty[ctx.node as usize] = true;
            }
        }

        Some(dirty)
    }
}

fn edge_metrics(time_s: f64, cost: astra_pricing::Money) -> EdgeMetrics {
    let nanos = cost.nanos();
    debug_assert!(nanos >= 0 && nanos <= i64::MAX as i128, "cost out of range");
    EdgeMetrics {
        time_s,
        cost_nanos: nanos as i64,
    }
}
