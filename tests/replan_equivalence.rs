//! Incremental re-planning equivalence: a session carried through a
//! chain of [`PlannerSession::apply_delta`] calls must answer every
//! query **bit-identically** to a session cold-built at the same final
//! inputs — whichever repair tier each delta took (unchanged, fast
//! recost, or full rebuild), at any rayon thread count, with the answer
//! memo engaged.
//!
//! The suite also pins the observable repair tiers for representative
//! deltas (mapper-coefficient/price → in-place patch on unpruned DAGs;
//! other coefficients, pruned DAGs and shape changes → rebuild) and that
//! memo-served answers equal fresh solves.

use astra::core::{
    ConfigSpace, Objective, PlannerSession, PruneConfig, ReplanOutcome,
    Strategy as SolverStrategy,
};
use astra::model::{JobSpec, Platform, WorkloadProfile};
use astra::pricing::{Money, PriceCatalog};
use proptest::prelude::*;

/// Last-wins global pool pin (same helper as `parallel_equivalence`).
fn pin_threads(n: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}

fn base_profile(map_u: f64) -> WorkloadProfile {
    WorkloadProfile {
        name: "replan-prop".to_string(),
        map_secs_per_mb_128: map_u,
        reduce_secs_per_mb_128: map_u * 0.7,
        coord_secs_per_mb_128: 0.002,
        shuffle_ratio: 0.6,
        reduce_ratio: 0.6,
        state_object_mb: 0.5,
        single_pass_reduce: false,
    }
}

/// One step of an interactive editing chain.
#[derive(Debug, Clone)]
enum DeltaStep {
    /// Recalibrate the mapper coefficient (multiplier).
    MapperCoeff(f64),
    /// Recalibrate the reduce coefficient (multiplier).
    ReduceCoeff(f64),
    /// Recalibrate the coordinator coefficient (multiplier).
    CoordCoeff(f64),
    /// Scale the lambda per-GB-second price by `num/denom`.
    Prices(i128, i128),
    /// Rename the job (cosmetic).
    Rename,
    /// Change every object's size (same count: no reshape).
    ObjectSize(f64),
    /// Change the input object count (reshape: space re-buckets).
    InputCount(usize),
}

fn arb_step() -> impl Strategy<Value = DeltaStep> + Clone {
    // (No `prop_oneof` in the offline shim: pick the variant by index.)
    (
        0usize..7,
        0.5f64..2.0,
        1i128..40,
        1i128..40,
        0.5f64..8.0,
        3usize..12,
    )
        .prop_map(|(kind, mult, num, denom, size, count)| match kind {
            0 => DeltaStep::MapperCoeff(mult),
            1 => DeltaStep::ReduceCoeff(mult),
            2 => DeltaStep::CoordCoeff(mult),
            3 => DeltaStep::Prices(num, denom),
            4 => DeltaStep::Rename,
            5 => DeltaStep::ObjectSize(size),
            _ => DeltaStep::InputCount(count),
        })
}

/// Apply one step to the current `(job, catalog)` inputs.
fn apply_step(step: &DeltaStep, job: &mut JobSpec, catalog: &mut PriceCatalog) {
    match *step {
        DeltaStep::MapperCoeff(m) => job.profile.map_secs_per_mb_128 *= m,
        DeltaStep::ReduceCoeff(m) => job.profile.reduce_secs_per_mb_128 *= m,
        DeltaStep::CoordCoeff(m) => job.profile.coord_secs_per_mb_128 *= m,
        DeltaStep::Prices(num, denom) => {
            catalog.lambda.per_gb_second =
                Money::from_nanos(catalog.lambda.per_gb_second.nanos() * num / denom);
        }
        DeltaStep::Rename => job.name.push('\''),
        DeltaStep::ObjectSize(size_mb) => {
            let n = job.num_objects();
            *job = JobSpec::uniform(&job.name, n, size_mb, job.profile.clone());
        }
        DeltaStep::InputCount(n) => {
            let size = job.object_sizes_mb[0];
            *job = JobSpec::uniform(&job.name, n, size, job.profile.clone());
        }
    }
}

/// Every query the equivalence check asks of both sessions: the
/// unconstrained endpoints plus budget and deadline grids spanning them.
fn assert_sessions_agree(warm: &PlannerSession, cold: &PlannerSession, ctx: &str) {
    // Potentials must be bit-identical: they are inputs to every label
    // search, so this catches repair drift even where answers tie.
    let (wp, cp) = (warm.potentials(), cold.potentials());
    assert_eq!(wp.min_time_to().len(), cp.min_time_to().len(), "{ctx}: node count");
    for (i, (a, b)) in wp.min_time_to().iter().zip(cp.min_time_to()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: min_time_to[{i}]");
    }
    for (i, (a, b)) in wp.min_cost_to().iter().zip(cp.min_cost_to()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: min_cost_to[{i}]");
    }
    // The DAG must be bit-identical too (patched store vs cold): node
    // labels and every edge-store array.
    let (wd, cd) = (warm.dag(), cold.dag());
    assert!(wd.nodes() == cd.nodes(), "{ctx}: node labels");
    let (ws, cs) = (wd.soa(), cd.soa());
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(ws.offsets() == cs.offsets(), "{ctx}: offsets");
    assert!(ws.heads() == cs.heads(), "{ctx}: heads");
    assert!(ws.edge_ids() == cs.edge_ids(), "{ctx}: edge ids");
    assert!(bits(ws.times()) == bits(cs.times()), "{ctx}: times");
    assert!(ws.costs() == cs.costs(), "{ctx}: costs");
    assert!(ws.multiplicity() == cs.multiplicity(), "{ctx}: multiplicity");
    assert!(ws.topo() == cs.topo(), "{ctx}: topo");

    let fastest = Objective::fastest();
    let cheapest = Objective::cheapest();
    assert_eq!(warm.solve(fastest), cold.solve(fastest), "{ctx}: fastest");
    assert_eq!(warm.solve(cheapest), cold.solve(cheapest), "{ctx}: cheapest");

    let (Ok(lo), Ok(hi)) = (cold.plan(cheapest), cold.plan(fastest)) else {
        return; // fully infeasible job: both sessions agreed on None above
    };
    let (lo_c, hi_c) = (lo.predicted_cost().nanos(), hi.predicted_cost().nanos());
    for step in 0..6 {
        let budget = Money::from_nanos(lo_c + (hi_c - lo_c) * step / 5);
        let o = Objective::MinimizeTime { budget };
        assert_eq!(warm.solve(o), cold.solve(o), "{ctx}: budget step {step}");
        // Same bound again: memo-served answers must equal the fresh solve.
        assert_eq!(warm.solve(o), cold.solve(o), "{ctx}: budget step {step} (memo)");
    }
    // Deadlines from infeasibly tight to loose around the fastest JCT.
    for (i, frac) in [0.5, 0.9, 1.0, 1.5, 3.0].iter().enumerate() {
        let o = Objective::MinimizeCost {
            deadline_s: hi.predicted_jct_s() * frac,
        };
        assert_eq!(warm.solve(o), cold.solve(o), "{ctx}: deadline {i}");
        assert_eq!(warm.solve(o), cold.solve(o), "{ctx}: deadline {i} (memo)");
    }
}

fn run_chain(
    steps: &[DeltaStep],
    strategy: SolverStrategy,
    prune: PruneConfig,
    threads: usize,
) {
    pin_threads(threads);
    let platform = Platform::aws_lambda();
    let mut job = JobSpec::uniform("replan-chain", 6, 2.0, base_profile(0.4));
    let mut catalog = PriceCatalog::aws_2020();
    let space = |j: &JobSpec| ConfigSpace::with_tiers(j, &platform, &[128, 512, 1792, 3008]);

    let mut warm = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        space(&job),
        strategy,
        prune,
    );
    // Warm the memo before the first delta so invalidation is exercised.
    let _ = warm.solve(Objective::fastest());
    let _ = warm.solve(Objective::cheapest());

    for (i, step) in steps.iter().enumerate() {
        apply_step(step, &mut job, &mut catalog);
        let sp = space(&job);
        warm.apply_delta(&job, &platform, &catalog, &sp);
        let cold = PlannerSession::new(&job, platform.clone(), catalog, sp, strategy, prune);
        assert_sessions_agree(&warm, &cold, &format!("step {i} ({step:?}, t={threads})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random delta chains, unpruned exact sessions (fast-recost tier).
    #[test]
    fn delta_chains_match_cold_sessions_unpruned(
        steps in proptest::collection::vec(arb_step(), 1..5)
    ) {
        run_chain(&steps, SolverStrategy::ExactCsp, PruneConfig::off(), 1);
    }

    /// Random delta chains, pruned exact sessions (every model-bearing
    /// delta rebuilds; renames keep the session).
    #[test]
    fn delta_chains_match_cold_sessions_pruned(
        steps in proptest::collection::vec(arb_step(), 1..5)
    ) {
        run_chain(&steps, SolverStrategy::ExactCsp, PruneConfig::on(), 2);
    }
}

/// A fixed representative chain at every supported thread count, both
/// prune settings (the `RAYON_NUM_THREADS=1/2/8` acceptance grid).
#[test]
fn fixed_chain_is_thread_count_invariant() {
    let steps = [
        DeltaStep::MapperCoeff(1.05),
        DeltaStep::Prices(11, 10),
        DeltaStep::ReduceCoeff(0.9),
        DeltaStep::InputCount(9),
        DeltaStep::ObjectSize(3.0),
        DeltaStep::Rename,
    ];
    for &threads in &[1usize, 2, 8] {
        run_chain(&steps, SolverStrategy::ExactCsp, PruneConfig::off(), threads);
        run_chain(&steps, SolverStrategy::ExactCsp, PruneConfig::on(), threads);
    }
}

/// Algorithm 1 sessions (prune forced off internally) survive chains.
#[test]
fn algorithm1_chains_match_cold_sessions() {
    let steps = [
        DeltaStep::MapperCoeff(1.2),
        DeltaStep::Prices(9, 10),
        DeltaStep::CoordCoeff(1.5),
    ];
    run_chain(&steps, SolverStrategy::Algorithm1, PruneConfig::on(), 1);
}

/// The repair tiers land where the taxonomy says they should.
#[test]
fn outcomes_follow_the_delta_taxonomy() {
    let platform = Platform::aws_lambda();
    let mut job = JobSpec::uniform("tiers", 6, 2.0, base_profile(0.4));
    let mut catalog = PriceCatalog::aws_2020();
    let space = |j: &JobSpec| ConfigSpace::with_tiers(j, &platform, &[128, 512, 1792, 3008]);
    let mut s = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        space(&job),
        SolverStrategy::ExactCsp,
        PruneConfig::off(),
    );

    // Identity: untouched inputs change nothing.
    let sp = space(&job);
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Unchanged);

    // Rename: cosmetic.
    job.name = "tiers-renamed".to_string();
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Unchanged);
    assert_eq!(s.job().name, "tiers-renamed");

    // Gentle mapper recalibration on an unpruned DAG: fast recost.
    job.profile.map_secs_per_mb_128 *= 1.01;
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Patched);

    // Price bump: fast recost.
    catalog.lambda.per_gb_second = Money::from_nanos(catalog.lambda.per_gb_second.nanos() * 2);
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Patched);

    // Reduce coefficient: outside the fast tier — rebuild.
    job.profile.reduce_secs_per_mb_128 *= 1.01;
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Rebuilt);

    // Input-count change: reshape — rebuild.
    job = JobSpec::uniform(&job.name, 8, 2.0, job.profile.clone());
    let sp = space(&job);
    assert_eq!(s.apply_delta(&job, &platform, &catalog, &sp), ReplanOutcome::Rebuilt);

    // After the rebuild the session still answers like a cold build.
    let cold = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        sp,
        SolverStrategy::ExactCsp,
        PruneConfig::off(),
    );
    assert_sessions_agree(&s, &cold, "post-rebuild");
}

/// A delta that flips a mapper timeout gate must fall back to a rebuild
/// (the fast tier refuses to change shape) and still answer cold.
#[test]
fn gate_flip_falls_back_and_stays_exact() {
    let platform = Platform::aws_lambda();
    let mut job = JobSpec::uniform("gate-flip", 8, 4.0, base_profile(0.4));
    let catalog = PriceCatalog::aws_2020();
    let space = |j: &JobSpec| ConfigSpace::with_tiers(j, &platform, &[128, 512, 1792, 3008]);
    let mut s = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        space(&job),
        SolverStrategy::ExactCsp,
        PruneConfig::off(),
    );
    // A 100x mapper slowdown pushes low tiers past the timeout: the
    // feasible set shrinks, so the patch must refuse.
    job.profile.map_secs_per_mb_128 *= 100.0;
    let sp = space(&job);
    let outcome = s.apply_delta(&job, &platform, &catalog, &sp);
    assert_eq!(outcome, ReplanOutcome::Rebuilt, "gate flip must rebuild");
    let cold = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        sp,
        SolverStrategy::ExactCsp,
        PruneConfig::off(),
    );
    assert_sessions_agree(&s, &cold, "gate flip");
}
