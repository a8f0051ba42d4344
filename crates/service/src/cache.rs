//! A bounded LRU of [`PlannerSession`]s shared by admission planning
//! and the worker pool.
//!
//! A [`PlannerSession`] pays the Fig. 5 DAG construction and the
//! backward-potential sweep once per `(job, space, platform, prices)`
//! tuple; the service sees the same tuple repeatedly — tenants resubmit
//! identical specs with different objectives, re-quote renamed specs,
//! and ask frontier questions about jobs already planned. Admission
//! plans each job once, through this cache; caching sessions turns every
//! repeat into a label-search-speed query.
//!
//! The key is a canonical fingerprint of every input the model reads
//! ([`SessionKey::for_inputs`]); two jobs share a session only if they
//! would build bit-identical DAGs, so reuse can never change a result.
//! Names are labels, not model inputs, so a renamed spec shares its
//! session.
//!
//! The cache lock covers only the lookup and the insert; builds run
//! outside it, so a hit never waits behind another key's build and two
//! different keys build concurrently. Lookups are still single-flight
//! per key: a miss opens (or joins) the key's in-flight `OnceLock`, and
//! every caller runs `get_or_init` on it with its own builder. Exactly
//! one builder runs; the others wait for its session and count as hits.
//! If that builder panics, a waiting caller's builder runs instead, so a
//! failed build never wedges the key.
//!
//! A re-quote is a lookup like any other: it hits, or it runs exactly
//! one cold build. Sessions are immutable once built, so nothing is
//! patched in place.
//!
//! Reuse is observable as `service.cache.hits` / `.misses` /
//! `.evictions` counters and a `service.cache.entries` gauge.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use astra_core::{ConfigSpace, PlannerSession, PruneConfig, Strategy};
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;
use astra_telemetry::Telemetry;

/// Canonical fingerprint of everything a [`PlannerSession`]'s answers
/// depend on.
///
/// Built field by field: floats are fingerprinted by their IEEE-754 bit
/// pattern (exact — no formatting round-trip) and every list is
/// length-prefixed. Two inputs produce the same key iff every
/// model-bearing field is bit-identical, which is exactly the condition
/// under which two sessions are interchangeable. The job, profile and
/// intermediate-store names are left out: no model term reads them, and
/// a [`astra_core::Plan`] is only a configuration and its evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey(String);

/// Append-only canonical encoder behind [`SessionKey::for_inputs`].
struct Fingerprint(String);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(String::with_capacity(512))
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
    /// Fingerprint the session input tuple (every field but the names).
    pub fn for_inputs(
        job: &JobSpec,
        space: &ConfigSpace,
        platform: &Platform,
        catalog: &PriceCatalog,
        strategy: Strategy,
        prune: PruneConfig,
    ) -> Self {
        let mut f = Fingerprint::new();

        // Job: inputs and workload profile.
        f.f64s(&job.object_sizes_mb);
        let p = &job.profile;
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
    /// Always 0: sessions are never patched in place, so every lookup
    /// is a hit or a miss. Kept so readers of the statistics still
    /// compile.
    pub patched: u64,
    /// Lookups that had to build a session.
    pub misses: u64,
    /// Sessions evicted to stay within capacity.
    pub evictions: u64,
    /// Sessions currently resident.
    pub entries: usize,
}

impl SessionCacheStats {
    /// Hits over total lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
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
    /// Keys whose session is being built outside the lock.
    in_flight: HashMap<SessionKey, Pending>,
    clock: u64,
    hits: u64,
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
    /// No resident session for the key: one was cold-built.
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
    ///
    /// A hit returns under the cache lock. A miss joins or opens the
    /// key's in-flight slot and runs `build` outside the lock; the
    /// caller whose `build` ran inserts the session and counts the miss,
    /// and callers that awaited it count a hit (see the module docs).
    ///
    /// The input tuple must be the one `key` was made from
    /// ([`SessionKey::for_inputs`]); it is checked in debug builds only.
    /// Despite the name, nothing is patched: a session is immutable, so
    /// a revised spec is one cold build.
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
        debug_assert!(
            key == SessionKey::for_inputs(job, space, platform, catalog, strategy, prune),
            "session key does not match its inputs"
        );
        let pending = {
            let mut state = self.state.lock().unwrap();
            let stamp = state.tick();
            if let Some(entry) = state.entries.get_mut(&key) {
                entry.touched = stamp;
                let session = Arc::clone(&entry.session);
                state.hits += 1;
                self.telemetry.counter("service.cache.hits", 1);
                return (session, CacheLookup::Hit);
            }
            Arc::clone(state.in_flight.entry(key.clone()).or_default())
        };

        let mut built = false;
        let session = Arc::clone(pending.get_or_init(|| {
            let session = Arc::new(build());
            built = true;
            session
        }));

        let mut state = self.state.lock().unwrap();
        if !built {
            // Another caller built it while this one waited.
            state.hits += 1;
            self.telemetry.counter("service.cache.hits", 1);
            return (session, CacheLookup::Hit);
        }
        // Only the slot's successful builder retires it; a builder that
        // panicked leaves it for the next caller of this key.
        state.in_flight.remove(&key);
        state.misses += 1;
        self.telemetry.counter("service.cache.misses", 1);
        state.insert(key, &session, self.capacity, &self.telemetry);
        self.telemetry
            .gauge("service.cache.entries", state.entries.len() as f64);
        (session, CacheLookup::Miss)
    }

    /// Current statistics.
    pub fn stats(&self) -> SessionCacheStats {
        let state = self.state.lock().unwrap();
        SessionCacheStats {
            hits: state.hits,
            patched: 0,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// One lookup of `job`'s session under the test tuple; `true` on a hit.
    fn get_or_build(
        cache: &SessionCache,
        job: &JobSpec,
        platform: &Platform,
        build: impl FnOnce() -> PlannerSession,
    ) -> (Arc<PlannerSession>, bool) {
        let (session, lookup) = cache.get_or_patch(
            key_for(job, platform),
            job,
            &ConfigSpace::with_tiers(job, platform, &[128, 512]),
            platform,
            &PriceCatalog::aws_2020(),
            Strategy::ExactCsp,
            PruneConfig::default(),
            build,
        );
        (session, lookup == CacheLookup::Hit)
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

        let (_, hit) = get_or_build(&cache, &a, &platform, || session_for(&a, &platform));
        assert!(!hit);
        let (_, hit) = get_or_build(&cache, &a, &platform, || session_for(&a, &platform));
        assert!(hit);
        let (_, hit) = get_or_build(&cache, &b, &platform, || session_for(&b, &platform));
        assert!(!hit);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        // A renamed spec hits without building.
        let mut renamed = a.clone();
        renamed.name.push_str("-renamed");
        let (_, hit) = get_or_build(&cache, &renamed, &platform, || panic!("a rename must hit"));
        assert!(hit);

        // A revised spec runs its own build exactly once, then hits.
        let mut revised = a.clone();
        revised.profile.map_secs_per_mb_128 *= 1.25;
        let builds = std::cell::Cell::new(0);
        for expect_hit in [false, true] {
            let (_, hit) = get_or_build(&cache, &revised, &platform, || {
                builds.set(builds.get() + 1);
                session_for(&revised, &platform)
            });
            assert_eq!(hit, expect_hit);
        }
        assert_eq!(builds.get(), 1, "the revised spec must build once");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.patched, stats.misses), (3, 0, 3));
    }

    #[test]
    fn distinct_platforms_do_not_collide() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let j = job(4);
        let lambda = Platform::aws_lambda();
        let literal = Platform::paper_literal(10.0);
        get_or_build(&cache, &j, &lambda, || session_for(&j, &lambda));
        let (_, hit) = get_or_build(&cache, &j, &literal, || session_for(&j, &literal));
        assert!(!hit, "different platforms must not share a session");
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let cache = SessionCache::new(2, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b, c) = (job(3), job(4), job(5));

        get_or_build(&cache, &a, &platform, || session_for(&a, &platform));
        get_or_build(&cache, &b, &platform, || session_for(&b, &platform));
        // Touch `a` so `b` becomes the LRU victim.
        let (_, hit) = get_or_build(&cache, &a, &platform, || session_for(&a, &platform));
        assert!(hit);
        get_or_build(&cache, &c, &platform, || session_for(&c, &platform));

        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        let (_, hit) = get_or_build(&cache, &a, &platform, || session_for(&a, &platform));
        assert!(hit, "recently touched entry must survive eviction");
        let (_, hit) = get_or_build(&cache, &b, &platform, || session_for(&b, &platform));
        assert!(!hit, "LRU entry must have been evicted");
    }

    #[test]
    fn fingerprint_distinguishes_every_field_class() {
        let platform = Platform::aws_lambda().with_elasticache();
        let j = job(4);
        let catalog = PriceCatalog::aws_2020();
        let key = |job: &JobSpec, platform: &Platform, catalog: &PriceCatalog| {
            SessionKey::for_inputs(
                job,
                &ConfigSpace::with_tiers(job, platform, &[128, 512]),
                platform,
                catalog,
                Strategy::ExactCsp,
                PruneConfig::default(),
            )
        };
        let base = key(&j, &platform, &catalog);

        // Same inputs → same key.
        assert_eq!(base, key(&j, &platform, &catalog));

        // Labels are not model inputs: renamed inputs share the key.
        let mut renamed = j.clone();
        renamed.name = format!("{};f0000000000000000;", j.name);
        renamed.profile.name.push_str("-v2");
        let mut relabeled = platform.clone();
        relabeled.intermediate.as_mut().unwrap().name = "redis".to_string();
        assert_eq!(base, key(&renamed, &relabeled, &catalog));

        // Every model-bearing field moves the key, and no two moves
        // collide.
        type Edit<T> = (&'static str, fn(&mut T));
        fn edited<T: Clone>(base: &T, edit: fn(&mut T)) -> T {
            let mut t = base.clone();
            edit(&mut t);
            t
        }
        fn bump(m: &mut Money) {
            *m = Money::from_nanos(m.nanos() + 1);
        }
        fn store(p: &mut Platform) -> &mut astra_model::IntermediateStorage {
            p.intermediate.as_mut().unwrap()
        }
        let mut keys = vec![("base", base)];
        let jobs: Vec<Edit<JobSpec>> = vec![
            ("object size", |j| j.object_sizes_mb[0] += 0.5),
            ("object count", |j| j.object_sizes_mb.push(1.0)),
            ("map coeff", |j| j.profile.map_secs_per_mb_128 += 0.01),
            ("reduce coeff", |j| j.profile.reduce_secs_per_mb_128 += 0.01),
            ("coord coeff", |j| j.profile.coord_secs_per_mb_128 += 0.01),
            ("shuffle ratio", |j| j.profile.shuffle_ratio += 0.1),
            ("reduce ratio", |j| j.profile.reduce_ratio += 0.1),
            ("state object", |j| j.profile.state_object_mb += 1.0),
            ("single pass", |j| j.profile.single_pass_reduce ^= true),
        ];
        for (name, edit) in jobs {
            keys.push((name, key(&edited(&j, edit), &platform, &catalog)));
        }
        let platforms: Vec<Edit<Platform>> = vec![
            ("memory tiers", |p| p.memory_tiers_mb.push(4096)),
            ("cpu ceiling", |p| p.cpu_ceiling_mb += 1),
            ("concurrency", |p| p.max_concurrency += 1),
            ("timeout", |p| p.timeout_s += 1.0),
            ("max storage", |p| p.max_storage_mb += 1.0),
            ("cold start", |p| p.cold_start_s += 0.5),
            ("bandwidth", |p| p.transfer.bandwidth_mbps += 1.0),
            ("get latency", |p| p.transfer.get_latency_s += 0.01),
            ("put latency", |p| p.transfer.put_latency_s += 0.01),
            ("efficiency", |p| p.efficiency_at_min += 0.01),
            ("efficiency full", |p| p.efficiency_full_mb += 1),
            ("bandwidth exponent", |p| p.bandwidth_exponent += 0.1),
            ("max bandwidth", |p| p.max_bandwidth_mbps += 1.0),
            ("orchestration", |p| p.orchestration_overhead_s += 0.1),
            ("invoke call", |p| p.invoke_call_s += 0.1),
            ("no store", |p| p.intermediate = None),
            ("store get", |p| store(p).get_latency_s += 0.01),
            ("store put", |p| store(p).put_latency_s += 0.01),
            ("store bandwidth", |p| store(p).bandwidth_mbps += 1.0),
            ("store get price", |p| bump(&mut store(p).per_get)),
            ("store put price", |p| bump(&mut store(p).per_put)),
            ("store storage", |p| store(p).storage_gb_month_dollars += 0.01),
            ("store rental", |p| bump(&mut store(p).rental_per_hour)),
        ];
        for (name, edit) in platforms {
            keys.push((name, key(&j, &edited(&platform, edit), &catalog)));
        }
        let catalogs: Vec<Edit<PriceCatalog>> = vec![
            ("per invocation", |c| bump(&mut c.lambda.per_invocation)),
            ("per gb-second", |c| bump(&mut c.lambda.per_gb_second)),
            ("granularity", |c| c.lambda.billing_granularity_us += 1),
            ("s3 put", |c| bump(&mut c.s3.per_put)),
            ("s3 get", |c| bump(&mut c.s3.per_get)),
            ("s3 storage", |c| c.s3.gb_month_dollars += 0.01),
            ("emr", |c| bump(&mut c.vm.emr_per_hour)),
            ("vm minimum", |c| c.vm.min_billed_us += 1),
        ];
        for (name, edit) in catalogs {
            keys.push((name, key(&j, &platform, &edited(&catalog, edit))));
        }
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512]);
        let knobs = |strategy, prune| {
            SessionKey::for_inputs(&j, &space, &platform, &catalog, strategy, prune)
        };
        let other = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        keys.push((
            "space",
            SessionKey::for_inputs(
                &j,
                &other,
                &platform,
                &catalog,
                Strategy::ExactCsp,
                PruneConfig::default(),
            ),
        ));
        keys.push(("algorithm 1", knobs(Strategy::Algorithm1, PruneConfig::default())));
        keys.push(("exhaustive", knobs(Strategy::Exhaustive, PruneConfig::default())));
        keys.push(("prune off", knobs(Strategy::ExactCsp, PruneConfig::off())));

        for (a, (name_a, key_a)) in keys.iter().enumerate() {
            for (name_b, key_b) in &keys[a + 1..] {
                assert_ne!(key_a, key_b, "{name_a} and {name_b} share a key");
            }
        }
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
        get_or_build(&cache, &a, &platform, || session_for(&a, &platform));

        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let (cache, platform, b) = (cache.clone(), platform.clone(), b.clone());
            thread::spawn(move || {
                get_or_build(&cache, &b, &platform, || {
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
                get_or_build(&cache, &a, &platform, || panic!("A is resident"))
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
                get_or_build(&cache, &j, &platform, || {
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
                get_or_build(&cache, &j, &platform, || {
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
                get_or_build(&cache, &j, &platform, || {
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
                    get_or_build(&cache, &j, &platform, || session_for(&j, &platform))
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
        let (_, hit) = get_or_build(&cache, &j, &platform, || session_for(&j, &platform));
        assert!(hit);
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = SessionCache::new(0, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let j = job(4);
        for _ in 0..3 {
            let (_, hit) = get_or_build(&cache, &j, &platform, || session_for(&j, &platform));
            assert!(!hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (3, 0));
    }
}
