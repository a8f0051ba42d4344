//! A bounded LRU of [`PlannerSession`]s shared by admission planning
//! and the worker pool.
//!
//! A [`PlannerSession`] pays the Fig. 5 DAG construction and the
//! backward-potential sweep once per `(job, space, platform, prices)`
//! tuple; the service sees the same tuple repeatedly — admission plans
//! a job at submit time, a worker re-plans it when it dispatches, and
//! tenants resubmit identical specs with different objectives. Caching
//! sessions turns all of those into label-search-speed queries.
//!
//! The key is a canonical fingerprint of every input that affects the
//! session ([`SessionKey::for_inputs`]); two jobs share a session only
//! if they would build bit-identical DAGs, so reuse can never change a
//! result.
//!
//! The cache lock covers only the lookup and the insert; builds and
//! patches run outside it, so a hit never waits behind another key's
//! build and two different keys build concurrently. Lookups are still
//! single-flight per key: a miss opens (or joins) the key's in-flight
//! `OnceLock`, and every caller runs `get_or_init` on it with its own
//! builder. Exactly one builder runs; the others wait for its session
//! and count as hits. If that builder panics, a waiting caller's builder
//! runs instead, so a failed build never wedges the key.
//!
//! A miss costs at most one DAG build. [`SessionCache::get_or_patch`]
//! serves a near-miss from a resident session only when
//! [`PlannerSession::patches_in_place`] says the delta needs no rebuild
//! — a rename, or a coefficient/price delta on an unpruned DAG. The
//! cached session is then cloned and repaired via
//! [`PlannerSession::apply_delta`], which recosts only the affected edge
//! families and resumes the potential sweep, so such re-quotes run at
//! interactive latency. Every other near-miss (under the default
//! pruning, every coefficient delta) goes straight to one cold build.
//!
//! Reuse is observable as `service.cache.hits` / `.patched` /
//! `.misses` / `.evictions` counters and a `service.cache.entries`
//! gauge.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use astra_core::{ConfigSpace, JobDelta, PlannerSession, PruneConfig, ReplanOutcome, Strategy};
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;
use astra_telemetry::Telemetry;

/// Canonical fingerprint of everything a [`PlannerSession`] depends on.
///
/// Built field by field: floats are fingerprinted by their IEEE-754 bit
/// pattern (exact — no formatting round-trip), strings are
/// length-prefixed so a separator inside a job name cannot collide with
/// field boundaries, and every list is length-prefixed. Two inputs
/// produce the same key iff every field is bit-identical, which is
/// exactly the condition under which two sessions are interchangeable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey(String);

/// Append-only canonical encoder behind [`SessionKey::for_inputs`].
struct Fingerprint(String);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(String::with_capacity(512))
    }

    /// Length-prefixed so embedded separators cannot forge boundaries.
    fn str(&mut self, v: &str) {
        let _ = write!(self.0, "s{}:{};", v.len(), v);
    }

    /// Exact bit pattern: distinguishes `-0.0`/`0.0` and NaN payloads,
    /// and never loses precision to decimal formatting.
    fn f64(&mut self, v: f64) {
        let _ = write!(self.0, "f{:016x};", v.to_bits());
    }

    fn u64(&mut self, v: u64) {
        let _ = write!(self.0, "u{v};");
    }

    fn i128(&mut self, v: i128) {
        let _ = write!(self.0, "i{v};");
    }

    fn bool(&mut self, v: bool) {
        self.0.push(if v { 'T' } else { 'F' });
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn money(&mut self, v: astra_pricing::Money) {
        self.i128(v.nanos());
    }
}

impl SessionKey {
    /// Fingerprint the full session input tuple.
    pub fn for_inputs(
        job: &JobSpec,
        space: &ConfigSpace,
        platform: &Platform,
        catalog: &PriceCatalog,
        strategy: Strategy,
        prune: PruneConfig,
    ) -> Self {
        let mut f = Fingerprint::new();

        // Job: name, inputs, workload profile.
        f.str(&job.name);
        f.f64s(&job.object_sizes_mb);
        let p = &job.profile;
        f.str(&p.name);
        f.f64(p.map_secs_per_mb_128);
        f.f64(p.reduce_secs_per_mb_128);
        f.f64(p.coord_secs_per_mb_128);
        f.f64(p.shuffle_ratio);
        f.f64(p.reduce_ratio);
        f.f64(p.state_object_mb);
        f.bool(p.single_pass_reduce);

        // Configuration space.
        f.u32s(&space.memory_tiers_mb);
        f.usizes(&space.k_m_values);
        f.usizes(&space.k_r_values);
        f.usizes(&space.k_m_weights);

        // Platform, including the transfer model and the optional
        // ephemeral intermediate store.
        f.u32s(&platform.memory_tiers_mb);
        f.u64(platform.cpu_ceiling_mb as u64);
        f.u64(platform.max_concurrency as u64);
        f.f64(platform.timeout_s);
        f.f64(platform.max_storage_mb);
        f.f64(platform.cold_start_s);
        f.f64(platform.transfer.bandwidth_mbps);
        f.f64(platform.transfer.get_latency_s);
        f.f64(platform.transfer.put_latency_s);
        f.f64(platform.efficiency_at_min);
        f.u64(platform.efficiency_full_mb as u64);
        f.f64(platform.bandwidth_exponent);
        f.f64(platform.max_bandwidth_mbps);
        f.f64(platform.orchestration_overhead_s);
        f.f64(platform.invoke_call_s);
        match &platform.intermediate {
            None => f.bool(false),
            Some(store) => {
                f.bool(true);
                f.str(&store.name);
                f.f64(store.get_latency_s);
                f.f64(store.put_latency_s);
                f.f64(store.bandwidth_mbps);
                f.money(store.per_get);
                f.money(store.per_put);
                f.f64(store.storage_gb_month_dollars);
                f.money(store.rental_per_hour);
            }
        }

        // Prices (Money is exact integer nanodollars).
        f.money(catalog.lambda.per_invocation);
        f.money(catalog.lambda.per_gb_second);
        f.u64(catalog.lambda.billing_granularity_us);
        f.money(catalog.s3.per_put);
        f.money(catalog.s3.per_get);
        f.f64(catalog.s3.gb_month_dollars);
        f.money(catalog.vm.emr_per_hour);
        f.u64(catalog.vm.min_billed_us);

        // Solver knobs.
        f.u64(match strategy {
            Strategy::Algorithm1 => 0,
            Strategy::ExactCsp => 1,
            Strategy::Exhaustive => 3,
        });
        f.bool(prune.pareto_tiers);

        SessionKey(f.0)
    }

    /// The fingerprint text (diagnostics only).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Lookups answered by an existing session.
    pub hits: u64,
    /// Near-miss lookups answered by cloning a cached session and
    /// patching it with the delta instead of cold-building.
    pub patched: u64,
    /// Lookups that had to build a session.
    pub misses: u64,
    /// Sessions evicted to stay within capacity.
    pub evictions: u64,
    /// Sessions currently resident.
    pub entries: usize,
}

impl SessionCacheStats {
    /// Hits over total lookups — hits, patches and misses (0 when no
    /// lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.patched + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    session: Arc<PlannerSession>,
    /// Last-touch stamp from the shared counter; smallest = LRU victim.
    touched: u64,
}

/// The single-flight slot of one key being built: every caller that
/// misses the key runs `get_or_init` on the same cell with its own
/// builder, so exactly one builder runs; if it panics, a waiter's
/// builder runs instead.
type Pending = Arc<OnceLock<Arc<PlannerSession>>>;

struct CacheState {
    entries: HashMap<SessionKey, Entry>,
    /// Keys whose session is being built or patched outside the lock.
    in_flight: HashMap<SessionKey, Pending>,
    clock: u64,
    hits: u64,
    patched: u64,
    misses: u64,
    evictions: u64,
}

impl CacheState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Insert `session` under `key`, evicting the LRU entry if the cache
    /// is at `capacity`. Capacity 0 stores nothing.
    fn insert(&mut self, key: SessionKey, session: &Arc<PlannerSession>, capacity: usize, telemetry: &Telemetry) {
        if capacity == 0 {
            return;
        }
        if self.entries.len() >= capacity {
            // Smallest touch stamp is the least recently used; ties
            // are impossible because stamps are unique.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
                telemetry.counter("service.cache.evictions", 1);
            }
        }
        let touched = self.tick();
        self.entries.insert(
            key,
            Entry {
                session: Arc::clone(session),
                touched,
            },
        );
    }
}

/// How a [`SessionCache::get_or_patch`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Exact fingerprint match — the cached session was returned as-is
    /// (or another caller's in-flight build of the same key was awaited).
    Hit,
    /// A cached session for different inputs was cloned and patched in
    /// place via [`PlannerSession::apply_delta`] (cheaper than a cold
    /// build for coefficient/price deltas).
    Patched,
    /// No usable entry: a session was cold-built.
    Miss,
}

/// The bounded LRU itself. Clone-cheap (`Arc` inside); all methods take
/// `&self`.
#[derive(Clone)]
pub struct SessionCache {
    state: Arc<Mutex<CacheState>>,
    capacity: usize,
    telemetry: Telemetry,
}

impl SessionCache {
    /// A cache holding at most `capacity` sessions. Capacity 0 disables
    /// retention entirely: every lookup builds and nothing is stored.
    pub fn new(capacity: usize, telemetry: Telemetry) -> Self {
        SessionCache {
            state: Arc::new(Mutex::new(CacheState {
                entries: HashMap::new(),
                in_flight: HashMap::new(),
                clock: 0,
                hits: 0,
                patched: 0,
                misses: 0,
                evictions: 0,
            })),
            capacity,
            telemetry,
        }
    }

    /// Maximum resident sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetch the session for `key`, building it with `build` on a miss.
    /// The build runs outside the cache lock; concurrent misses on the
    /// same key share one build (see the module docs).
    pub fn get_or_build(
        &self,
        key: SessionKey,
        build: impl FnOnce() -> PlannerSession,
    ) -> (Arc<PlannerSession>, bool) {
        let (session, lookup) = self.lookup(key, |_| None, |_| (build(), CacheLookup::Miss));
        (session, lookup == CacheLookup::Hit)
    }

    /// Fetch the session for `key`, revalidating a near-miss before
    /// falling back to a cold build.
    ///
    /// On an exact fingerprint hit this is [`SessionCache::get_or_build`].
    /// On a miss, every resident session with the same solver knobs is
    /// classified against the new inputs with [`JobDelta::classify`]; if
    /// one would serve the delta without a rebuild
    /// ([`PlannerSession::patches_in_place`]: renames, and coefficient or
    /// price deltas on an unpruned DAG), the most recently used such
    /// donor is cloned and patched via [`PlannerSession::apply_delta`],
    /// which is far cheaper than rebuilding the Fig. 5 DAG and is
    /// proptest-pinned to answer bit-identically to a cold build.
    /// Otherwise — including every coefficient delta under the default
    /// pruning — `build` runs once, with no donor cloned.
    ///
    /// The patched session is inserted under `key`; the donor entry is
    /// left untouched, so a tenant alternating between two specs keeps
    /// both resident.
    #[allow(clippy::too_many_arguments)] // the full session-input tuple, flattened
    pub fn get_or_patch(
        &self,
        key: SessionKey,
        job: &JobSpec,
        space: &ConfigSpace,
        platform: &Platform,
        catalog: &PriceCatalog,
        strategy: Strategy,
        prune: PruneConfig,
        build: impl FnOnce() -> PlannerSession,
    ) -> (Arc<PlannerSession>, CacheLookup) {
        // Near-miss scan: most recently used donor that patches in place
        // for this delta. `touched` stamps are unique, so the choice is
        // deterministic.
        let find_donor = |state: &CacheState| {
            state
                .entries
                .values()
                .filter(|e| {
                    let s = &e.session;
                    s.strategy() == strategy
                        && s.prune() == prune
                        && s.patches_in_place(&JobDelta::classify(
                            s.job(),
                            s.space(),
                            s.platform(),
                            s.catalog(),
                            job,
                            space,
                            platform,
                            catalog,
                        ))
                })
                .max_by_key(|e| e.touched)
                .map(|e| Arc::clone(&e.session))
        };
        self.lookup(key, find_donor, |donor| match donor {
            Some(donor) => {
                let mut patched = (*donor).clone();
                let outcome = patched.apply_delta(job, platform, catalog, space);
                // A mapper-coefficient patch that flips a timeout gate
                // rebuilds: still exact, but it paid the full build
                // price, so it counts as a miss.
                let lookup = if outcome == ReplanOutcome::Rebuilt {
                    CacheLookup::Miss
                } else {
                    CacheLookup::Patched
                };
                (patched, lookup)
            }
            None => (build(), CacheLookup::Miss),
        })
    }

    /// The shared lookup: a hit returns under the lock. A miss picks a
    /// donor (under the lock), joins or opens the key's in-flight slot,
    /// and runs `make` outside the lock; the caller whose `make` ran
    /// inserts the session and counts the miss or patch, and callers
    /// that awaited it count a hit.
    fn lookup(
        &self,
        key: SessionKey,
        find_donor: impl FnOnce(&CacheState) -> Option<Arc<PlannerSession>>,
        make: impl FnOnce(Option<Arc<PlannerSession>>) -> (PlannerSession, CacheLookup),
    ) -> (Arc<PlannerSession>, CacheLookup) {
        let (pending, donor) = {
            let mut state = self.state.lock().unwrap();
            let stamp = state.tick();
            if let Some(entry) = state.entries.get_mut(&key) {
                entry.touched = stamp;
                let session = Arc::clone(&entry.session);
                state.hits += 1;
                self.telemetry.counter("service.cache.hits", 1);
                return (session, CacheLookup::Hit);
            }
            let donor = find_donor(&state);
            let pending = Arc::clone(state.in_flight.entry(key.clone()).or_default());
            (pending, donor)
        };

        let mut made = None;
        let session = Arc::clone(pending.get_or_init(|| {
            let (session, lookup) = make(donor);
            made = Some(lookup);
            Arc::new(session)
        }));

        let mut state = self.state.lock().unwrap();
        let Some(lookup) = made else {
            // Another caller built it while this one waited.
            state.hits += 1;
            self.telemetry.counter("service.cache.hits", 1);
            return (session, CacheLookup::Hit);
        };
        // Only the slot's successful builder retires it; a builder that
        // panicked leaves it for the next caller of this key.
        state.in_flight.remove(&key);
        if lookup == CacheLookup::Patched {
            state.patched += 1;
            self.telemetry.counter("service.cache.patched", 1);
        } else {
            state.misses += 1;
            self.telemetry.counter("service.cache.misses", 1);
        }
        state.insert(key, &session, self.capacity, &self.telemetry);
        self.telemetry
            .gauge("service.cache.entries", state.entries.len() as f64);
        (session, lookup)
    }

    /// Current statistics.
    pub fn stats(&self) -> SessionCacheStats {
        let state = self.state.lock().unwrap();
        SessionCacheStats {
            hits: state.hits,
            patched: state.patched,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Objective;
    use astra_model::WorkloadProfile;
    use astra_pricing::Money;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn job(n: usize) -> JobSpec {
        JobSpec::uniform(format!("cache-{n}"), n, 1.0, WorkloadProfile::uniform_test())
    }

    fn key_for(job: &JobSpec, platform: &Platform) -> SessionKey {
        SessionKey::for_inputs(
            job,
            &ConfigSpace::with_tiers(job, platform, &[128, 512]),
            platform,
            &PriceCatalog::aws_2020(),
            Strategy::ExactCsp,
            PruneConfig::default(),
        )
    }

    fn session_for(job: &JobSpec, platform: &Platform) -> PlannerSession {
        PlannerSession::new(
            job,
            platform.clone(),
            PriceCatalog::aws_2020(),
            ConfigSpace::with_tiers(job, platform, &[128, 512]),
            Strategy::ExactCsp,
            PruneConfig::default(),
        )
    }

    #[test]
    fn same_key_hits_different_key_misses() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b) = (job(4), job(5));

        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit);
        let (_, hit) = cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        assert!(!hit);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_platforms_do_not_collide() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let j = job(4);
        let lambda = Platform::aws_lambda();
        let literal = Platform::paper_literal(10.0);
        cache.get_or_build(key_for(&j, &lambda), || session_for(&j, &lambda));
        let (_, hit) = cache.get_or_build(key_for(&j, &literal), || session_for(&j, &literal));
        assert!(!hit, "different platforms must not share a session");
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let cache = SessionCache::new(2, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b, c) = (job(3), job(4), job(5));

        cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        // Touch `a` so `b` becomes the LRU victim.
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit);
        cache.get_or_build(key_for(&c, &platform), || session_for(&c, &platform));

        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit, "recently touched entry must survive eviction");
        let (_, hit) = cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        assert!(!hit, "LRU entry must have been evicted");
    }

    #[test]
    fn fingerprint_distinguishes_every_field_class() {
        let platform = Platform::aws_lambda();
        let j = job(4);
        let base = key_for(&j, &platform);

        // Same inputs → same key.
        assert_eq!(base, key_for(&j, &platform));

        // A job name that tries to forge the field separator still gets
        // its own key (length-prefixing defeats injection).
        let mut renamed = j.clone();
        renamed.name = format!("{};f0000000000000000;", j.name);
        assert_ne!(base, key_for(&renamed, &platform));

        // Coefficient, price, platform and knob changes all move the key.
        let mut coeff = j.clone();
        coeff.profile.map_secs_per_mb_128 *= 1.5;
        assert_ne!(base, key_for(&coeff, &platform));

        let mut bumped = platform.clone();
        bumped.timeout_s += 1.0;
        assert_ne!(base, key_for(&j, &bumped));

        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512]);
        let mut catalog = PriceCatalog::aws_2020();
        catalog.lambda.per_gb_second = catalog.lambda.per_gb_second.scale(2.0);
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::ExactCsp,
                PruneConfig::default(),
            )
        );
        let catalog = PriceCatalog::aws_2020();
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::Algorithm1,
                PruneConfig::default(),
            )
        );
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::ExactCsp,
                PruneConfig::off(),
            )
        );
    }

    fn patch_lookup(
        cache: &SessionCache,
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        prune: PruneConfig,
    ) -> (Arc<PlannerSession>, CacheLookup) {
        let space = ConfigSpace::with_tiers(job, platform, &[128, 512]);
        let key = SessionKey::for_inputs(job, &space, platform, catalog, Strategy::ExactCsp, prune);
        cache.get_or_patch(
            key,
            job,
            &space,
            platform,
            catalog,
            Strategy::ExactCsp,
            prune,
            || {
                PlannerSession::new(
                    job,
                    platform.clone(),
                    *catalog,
                    space.clone(),
                    Strategy::ExactCsp,
                    prune,
                )
            },
        )
    }

    #[test]
    fn near_miss_patches_instead_of_building() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let j = job(4);
        // Pruning off keeps the DAG shape insensitive to coefficient
        // tweaks, so the near-miss is served by the fast recost tier.
        let prune = PruneConfig::off();

        let (_, lookup) = patch_lookup(&cache, &j, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        let (_, lookup) = patch_lookup(&cache, &j, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Hit);

        // Coefficient tweak: patchable, must be served by clone-and-patch.
        let mut tweaked = j.clone();
        tweaked.profile.map_secs_per_mb_128 *= 1.25;
        let (patched, lookup) = patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Patched);

        // The patched session must answer exactly like a cold build.
        let space = ConfigSpace::with_tiers(&tweaked, &platform, &[128, 512]);
        let cold = PlannerSession::new(
            &tweaked,
            platform.clone(),
            catalog,
            space,
            Strategy::ExactCsp,
            prune,
        );
        for objective in [
            Objective::MinimizeCost { deadline_s: 1e6 },
            Objective::MinimizeCost { deadline_s: 120.0 },
            Objective::MinimizeTime {
                budget: Money::from_dollars(1_000),
            },
        ] {
            assert_eq!(patched.solve(objective), cold.solve(objective));
        }

        // The patched entry is now resident under its own key.
        let (_, lookup) = patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.patched, stats.misses), (2, 1, 1));
    }

    #[test]
    fn shape_change_still_cold_builds() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let prune = PruneConfig::off();

        let (_, lookup) = patch_lookup(&cache, &job(4), &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        // Different object count reshapes the DAG: not patchable.
        let (_, lookup) = patch_lookup(&cache, &job(6), &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        assert_eq!(cache.stats().patched, 0);
    }

    #[test]
    fn hit_rate_counts_patched_lookups() {
        let stats = SessionCacheStats {
            hits: 2,
            patched: 1,
            misses: 1,
            ..SessionCacheStats::default()
        };
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(SessionCacheStats::default().hit_rate(), 0.0);

        // The same split produced by real lookups.
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let prune = PruneConfig::off();
        let j = job(4);
        let mut tweaked = j.clone();
        tweaked.profile.map_secs_per_mb_128 *= 1.25;
        patch_lookup(&cache, &j, &platform, &catalog, prune);
        patch_lookup(&cache, &j, &platform, &catalog, prune);
        patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.patched, stats.misses), (2, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn pruned_near_miss_builds_once_without_a_donor() {
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let j = job(4);
        let mut tweaked = j.clone();
        tweaked.profile.map_secs_per_mb_128 *= 1.25;

        // Pruned: the coefficient delta can move a pruning verdict, so
        // the near-miss is one cold build through the caller's closure.
        let cache = SessionCache::new(4, Telemetry::disabled());
        patch_lookup(&cache, &j, &platform, &catalog, PruneConfig::on());
        let space = ConfigSpace::with_tiers(&tweaked, &platform, &[128, 512]);
        let builds = std::cell::Cell::new(0);
        let (_, lookup) = cache.get_or_patch(
            key_for(&tweaked, &platform),
            &tweaked,
            &space,
            &platform,
            &catalog,
            Strategy::ExactCsp,
            PruneConfig::on(),
            || {
                builds.set(builds.get() + 1);
                session_for(&tweaked, &platform)
            },
        );
        assert_eq!(lookup, CacheLookup::Miss);
        assert_eq!(builds.get(), 1, "the near-miss must run its own build once");
        let stats = cache.stats();
        assert_eq!((stats.patched, stats.misses), (0, 2));

        // Unpruned: the same delta is still served by clone-and-patch.
        let cache = SessionCache::new(4, Telemetry::disabled());
        patch_lookup(&cache, &j, &platform, &catalog, PruneConfig::off());
        let (_, lookup) = patch_lookup(&cache, &tweaked, &platform, &catalog, PruneConfig::off());
        assert_eq!(lookup, CacheLookup::Patched);
    }

    /// Run `f` on a thread and wait at most 30 s for its result, so a
    /// lookup that wedges fails the test instead of hanging it.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("cache lookup wedged")
    }

    #[test]
    fn hit_returns_while_another_key_builds() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b) = (job(4), job(5));
        cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));

        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let (cache, platform, b) = (cache.clone(), platform.clone(), b.clone());
            thread::spawn(move || {
                cache.get_or_build(key_for(&b, &platform), || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    session_for(&b, &platform)
                })
            })
        };
        started_rx.recv().unwrap();

        // B's build is parked inside its closure; A must still hit.
        let hit = {
            let (cache, platform) = (cache.clone(), platform.clone());
            within_deadline(move || {
                cache
                    .get_or_build(key_for(&a, &platform), || panic!("A is resident"))
                    .1
            })
        };
        assert!(hit);

        release_tx.send(()).unwrap();
        let (_, hit) = builder.join().unwrap();
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let j = job(4);
        let builds = Arc::new(AtomicUsize::new(0));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let first = {
            let (cache, platform, j, builds) =
                (cache.clone(), platform.clone(), j.clone(), Arc::clone(&builds));
            thread::spawn(move || {
                cache.get_or_build(key_for(&j, &platform), || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    session_for(&j, &platform)
                })
            })
        };
        started_rx.recv().unwrap();
        let second = {
            let (cache, platform, j, builds) =
                (cache.clone(), platform.clone(), j.clone(), Arc::clone(&builds));
            thread::spawn(move || {
                cache.get_or_build(key_for(&j, &platform), || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    session_for(&j, &platform)
                })
            })
        };
        // Give the second caller time to join the in-flight build.
        thread::sleep(Duration::from_millis(200));
        release_tx.send(()).unwrap();

        let (s1, hit1) = first.join().unwrap();
        let (s2, hit2) = second.join().unwrap();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the build must run exactly once");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!((hit1, hit2), (false, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn panicking_build_hands_off_to_a_waiter() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let j = job(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let doomed = {
            let (cache, platform, j) = (cache.clone(), platform.clone(), j.clone());
            thread::spawn(move || {
                cache.get_or_build(key_for(&j, &platform), || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("injected build failure");
                })
            })
        };
        started_rx.recv().unwrap();
        let waiter = {
            let (cache, platform, j) = (cache.clone(), platform.clone(), j.clone());
            thread::spawn(move || {
                within_deadline(move || {
                    cache.get_or_build(key_for(&j, &platform), || session_for(&j, &platform))
                })
            })
        };
        thread::sleep(Duration::from_millis(200));
        release_tx.send(()).unwrap();

        assert!(doomed.join().is_err(), "the first build panics");
        let (_, hit) = waiter.join().expect("the waiter must not wedge");
        assert!(!hit, "the waiter ran its own build");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // The key is healthy afterwards.
        let (_, hit) = cache.get_or_build(key_for(&j, &platform), || session_for(&j, &platform));
        assert!(hit);
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = SessionCache::new(0, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let j = job(4);
        for _ in 0..3 {
            let (_, hit) = cache.get_or_build(key_for(&j, &platform), || session_for(&j, &platform));
            assert!(!hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (3, 0));
    }
}
