//! Re-quote equivalence: a chain of revised specs driven through one
//! [`SessionCache`] via [`SessionCache::get_or_patch`] — the daemon's
//! re-quote path — must answer every query **bit-identically** to a
//! session cold-built at the same inputs, at any rayon thread count,
//! with the answer memo engaged.
//!
//! Sessions are immutable, so every lookup either hits a resident
//! session or builds one cold. The suite pins which: a lookup hits
//! exactly when the chain revisits a model-input tuple — an unchanged
//! spec or a rename — and every model-bearing delta (coefficients,
//! prices, object sizes, input count) misses. A hit on a renamed spec
//! reuses a session built under the old name, so its DAG, potentials
//! and memo-served answers are checked against a cold build too.

use std::collections::HashSet;
use std::sync::Arc;

use astra::core::{
    ConfigSpace, Objective, PlannerSession, PruneConfig, Strategy as SolverStrategy,
};
use astra::model::{JobSpec, Platform, WorkloadProfile};
use astra::pricing::{Money, PriceCatalog};
use astra::service::{CacheLookup, SessionCache, SessionKey};
use astra::telemetry::Telemetry;
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
    /// Rename the job and its profile (labels only).
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
        DeltaStep::Rename => {
            job.name.push('\'');
            job.profile.name.push('\'');
        }
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
    // search, so this catches drift even where answers tie.
    let (wp, cp) = (warm.potentials(), cold.potentials());
    assert_eq!(
        wp.min_time_to().len(),
        cp.min_time_to().len(),
        "{ctx}: node count"
    );
    for (i, (a, b)) in wp.min_time_to().iter().zip(cp.min_time_to()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: min_time_to[{i}]");
    }
    for (i, (a, b)) in wp.min_cost_to().iter().zip(cp.min_cost_to()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: min_cost_to[{i}]");
    }
    // The DAG must be bit-identical too (cached store vs cold): node
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
    assert!(
        ws.multiplicity() == cs.multiplicity(),
        "{ctx}: multiplicity"
    );
    assert!(ws.topo() == cs.topo(), "{ctx}: topo");

    let fastest = Objective::fastest();
    let cheapest = Objective::cheapest();
    assert_eq!(warm.solve(fastest), cold.solve(fastest), "{ctx}: fastest");
    assert_eq!(
        warm.solve(cheapest),
        cold.solve(cheapest),
        "{ctx}: cheapest"
    );

    let (Ok(lo), Ok(hi)) = (cold.plan(cheapest), cold.plan(fastest)) else {
        return; // fully infeasible job: both sessions agreed on None above
    };
    let (lo_c, hi_c) = (lo.predicted_cost().nanos(), hi.predicted_cost().nanos());
    for step in 0..6 {
        let budget = Money::from_nanos(lo_c + (hi_c - lo_c) * step / 5);
        let o = Objective::MinimizeTime { budget };
        assert_eq!(warm.solve(o), cold.solve(o), "{ctx}: budget step {step}");
        // Same bound again: memo-served answers must equal the fresh solve.
        assert_eq!(
            warm.solve(o),
            cold.solve(o),
            "{ctx}: budget step {step} (memo)"
        );
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

/// The configuration space every test plans over.
fn space(job: &JobSpec, platform: &Platform) -> ConfigSpace {
    ConfigSpace::with_tiers(job, platform, &[128, 512, 1792, 3008])
}

/// One re-quote through the cache, exactly as the daemon makes it.
fn requote(
    cache: &SessionCache,
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    strategy: SolverStrategy,
    prune: PruneConfig,
) -> (Arc<PlannerSession>, CacheLookup) {
    let sp = space(job, platform);
    let key = SessionKey::for_inputs(job, &sp, platform, catalog, strategy, prune);
    cache.get_or_patch(key, job, &sp, platform, catalog, strategy, prune, || {
        PlannerSession::new(job, platform.clone(), *catalog, sp.clone(), strategy, prune)
    })
}

fn run_chain(steps: &[DeltaStep], strategy: SolverStrategy, prune: PruneConfig, threads: usize) {
    pin_threads(threads);
    let platform = Platform::aws_lambda();
    let mut job = JobSpec::uniform("replan-chain", 6, 2.0, base_profile(0.4));
    let mut catalog = PriceCatalog::aws_2020();
    let cache = SessionCache::new(64, Telemetry::disabled());
    let key = |job: &JobSpec, catalog: &PriceCatalog| {
        SessionKey::for_inputs(
            job,
            &space(job, &platform),
            &platform,
            catalog,
            strategy,
            prune,
        )
    };

    let (warm, lookup) = requote(&cache, &job, &platform, &catalog, strategy, prune);
    assert_eq!(lookup, CacheLookup::Miss);
    let mut seen = HashSet::from([key(&job, &catalog)]);
    // Warm the memo so a hit serves memoized answers.
    let _ = warm.solve(Objective::fastest());
    let _ = warm.solve(Objective::cheapest());

    for (i, step) in steps.iter().enumerate() {
        apply_step(step, &mut job, &mut catalog);
        let ctx = format!("step {i} ({step:?}, t={threads})");
        let (warm, lookup) = requote(&cache, &job, &platform, &catalog, strategy, prune);
        let revisit = !seen.insert(key(&job, &catalog));
        let expected = if revisit {
            CacheLookup::Hit
        } else {
            CacheLookup::Miss
        };
        assert_eq!(lookup, expected, "{ctx}");
        if matches!(step, DeltaStep::Rename) {
            assert_eq!(lookup, CacheLookup::Hit, "{ctx}: a rename must hit");
        }
        let sp = space(&job, &platform);
        let cold = PlannerSession::new(&job, platform.clone(), catalog, sp, strategy, prune);
        assert_sessions_agree(&warm, &cold, &ctx);
    }
    assert_eq!(cache.stats().patched, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random delta chains, unpruned exact sessions.
    #[test]
    fn delta_chains_match_cold_sessions_unpruned(
        steps in proptest::collection::vec(arb_step(), 1..5)
    ) {
        run_chain(&steps, SolverStrategy::ExactCsp, PruneConfig::off(), 1);
    }

    /// Random delta chains, pruned exact sessions (the daemon default).
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
        run_chain(
            &steps,
            SolverStrategy::ExactCsp,
            PruneConfig::off(),
            threads,
        );
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
        DeltaStep::Rename,
    ];
    run_chain(&steps, SolverStrategy::Algorithm1, PruneConfig::on(), 1);
}

/// Identity and rename re-quotes hit; every model-bearing delta misses
/// and builds once.
#[test]
fn outcomes_follow_the_delta_taxonomy() {
    let platform = Platform::aws_lambda();
    for prune in [PruneConfig::on(), PruneConfig::off()] {
        let cache = SessionCache::new(64, Telemetry::disabled());
        let mut job = JobSpec::uniform("tiers", 6, 2.0, base_profile(0.4));
        let mut catalog = PriceCatalog::aws_2020();
        let lookup = |job: &JobSpec, catalog: &PriceCatalog| {
            requote(
                &cache,
                job,
                &platform,
                catalog,
                SolverStrategy::ExactCsp,
                prune,
            )
            .1
        };
        assert_eq!(lookup(&job, &catalog), CacheLookup::Miss);

        // Identity: untouched inputs hit.
        assert_eq!(lookup(&job, &catalog), CacheLookup::Hit);

        // Renames: labels only, so they hit.
        job.name = "tiers-renamed".to_string();
        assert_eq!(lookup(&job, &catalog), CacheLookup::Hit);
        job.profile.name = "profile-renamed".to_string();
        assert_eq!(lookup(&job, &catalog), CacheLookup::Hit);

        // Every model-bearing delta misses.
        job.profile.map_secs_per_mb_128 *= 1.01;
        assert_eq!(
            lookup(&job, &catalog),
            CacheLookup::Miss,
            "mapper coefficient"
        );
        catalog.lambda.per_gb_second = Money::from_nanos(catalog.lambda.per_gb_second.nanos() * 2);
        assert_eq!(lookup(&job, &catalog), CacheLookup::Miss, "prices");
        job.profile.reduce_secs_per_mb_128 *= 1.01;
        assert_eq!(
            lookup(&job, &catalog),
            CacheLookup::Miss,
            "reduce coefficient"
        );
        job.profile.coord_secs_per_mb_128 *= 1.01;
        assert_eq!(
            lookup(&job, &catalog),
            CacheLookup::Miss,
            "coordinator coefficient"
        );
        job = JobSpec::uniform(&job.name, 6, 2.5, job.profile.clone());
        assert_eq!(lookup(&job, &catalog), CacheLookup::Miss, "object size");
        job = JobSpec::uniform(&job.name, 8, 2.5, job.profile.clone());
        assert_eq!(lookup(&job, &catalog), CacheLookup::Miss, "input count");

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.patched, stats.misses), (3, 0, 7));

        // The last session still answers like a cold build.
        let (s, _) = requote(
            &cache,
            &job,
            &platform,
            &catalog,
            SolverStrategy::ExactCsp,
            prune,
        );
        let cold = PlannerSession::new(
            &job,
            platform.clone(),
            catalog,
            space(&job, &platform),
            SolverStrategy::ExactCsp,
            prune,
        );
        assert_sessions_agree(&s, &cold, "post-delta");
    }
}

/// A delta that flips a mapper timeout gate changes the DAG's shape: it
/// misses, and the new session answers like a cold build.
#[test]
fn gate_flip_falls_back_and_stays_exact() {
    let platform = Platform::aws_lambda();
    let mut job = JobSpec::uniform("gate-flip", 8, 4.0, base_profile(0.4));
    let catalog = PriceCatalog::aws_2020();
    let cache = SessionCache::new(4, Telemetry::disabled());
    let prune = PruneConfig::off();
    let (before, _) = requote(
        &cache,
        &job,
        &platform,
        &catalog,
        SolverStrategy::ExactCsp,
        prune,
    );
    // A 100x mapper slowdown pushes low tiers past the timeout: the
    // feasible set shrinks.
    job.profile.map_secs_per_mb_128 *= 100.0;
    let (s, lookup) = requote(
        &cache,
        &job,
        &platform,
        &catalog,
        SolverStrategy::ExactCsp,
        prune,
    );
    assert_eq!(lookup, CacheLookup::Miss, "gate flip must miss");
    assert!(
        s.dag().soa().edges_stored() < before.dag().soa().edges_stored(),
        "the flip must drop infeasible edges"
    );
    let cold = PlannerSession::new(
        &job,
        platform.clone(),
        catalog,
        space(&job, &platform),
        SolverStrategy::ExactCsp,
        prune,
    );
    assert_sessions_agree(&s, &cold, "gate flip");
}
