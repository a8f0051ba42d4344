//! Memoized analytical-model evaluations shared across planner passes.
//!
//! The planner evaluates the same model sub-terms many times: an
//! exhaustive sweep re-derives the mapping phase for every
//! `(k_R, coordinator tier, reducer tier)` combination even though it
//! only depends on `(mapper tier, k_M)`, and re-derives the reduce-step
//! schedule for every tier triple even though it only depends on
//! `(k_M, k_R)`. [`ModelCache`] memoizes those sub-terms once per
//! `(job, platform)` pair so that repeated evaluations — across DAG
//! edges, exhaustive sweeps and frontier walks — are computed once.
//!
//! The DAG builder uses the mapper-phase, output and reduce-structure
//! memos but not the reduce-tier-times one: each column-3 recipe derives
//! its tier times once from the reduce structure and never needs them
//! again, so a memo insert per `(k_M, k_R, tier)` would only add
//! write-lock traffic across the build's threads.
//! [`ModelCache::reduce_tier_times`] stays for [`ModelCache::evaluate`],
//! whose exhaustive sweeps revisit each entry once per mapper and
//! coordinator tier.
//!
//! ## Cache invariants
//!
//! 1. **Keys are total.** Every cached value is a pure function of its
//!    key given the `(job, platform)` the cache was created for:
//!    - mapper phase ← `(mapper mem tier, k_M)`,
//!    - mapper output volumes ← `k_M`,
//!    - reduce structure (Table II schedule) ← `(k_M, k_R)`,
//!    - reduce tier times ← `(k_M, k_R, reducer mem tier)`.
//!
//!    Nothing tier- or volume-dependent is cached under a key that omits
//!    that tier or volume, so a cache can never serve a stale or
//!    mismatched value.
//! 2. **Transparency.** [`ModelCache::evaluate`] returns results
//!    bit-identical to [`astra_model::evaluate()`](astra_model::evaluate::evaluate)
//!    — the same `f64` times
//!    to the last ULP and the same cost to the last nano-dollar — because
//!    cached sub-terms are the *same computations* the uncached path
//!    runs, stored verbatim (a property test asserts this).
//! 3. **Concurrency-safe determinism.** Entries are `Arc`-shared behind
//!    `RwLock`ed maps; racing threads may compute an entry twice, but
//!    both computations produce identical values and the first insert
//!    wins, so results never depend on thread interleaving.
//! 4. **A cache never outlives its inputs.** The cache borrows the job
//!    and platform; rebuilding for a different job/platform is the only
//!    way to change them, so entries cannot be poisoned by mutation.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use astra_model::cost::full_cost;
use astra_model::evaluate::{check_feasibility, Evaluation, Infeasibility};
use astra_model::perf::{
    coordinator_compute_secs, coordinator_state_put_secs, mapper_phase, reduce_structure,
    reduce_tier_times, MapperPhase, PerfBreakdown, ReducePhase, ReduceStructure, ReduceTierTimes,
};
use astra_model::{JobConfig, JobSpec, Platform};
use astra_pricing::PriceCatalog;
use parking_lot::RwLock;

/// One memoized map: `Arc`-shared values behind a reader-writer lock,
/// plus relaxed hit/miss tallies for the planner's telemetry counters.
struct Memo<K, V> {
    map: RwLock<HashMap<K, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Copy, V> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetch the entry for `key`, computing it with `make` on a miss.
    /// If two threads race on the same miss the first insert wins (both
    /// compute identical values, see the module invariants). A racing
    /// loser still tallies a miss — the counter means "computed", which
    /// is the cost the hit rate is meant to expose.
    fn get_or(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.map.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(make());
        Arc::clone(self.map.write().entry(key).or_insert(v))
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Aggregate hit/miss tallies across all of a [`ModelCache`]'s maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a memoized entry.
    pub hits: u64,
    /// Lookups that computed their value (includes racing duplicates).
    pub misses: u64,
    /// Entries currently memoized.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoized model evaluations for one `(job, platform)` pair.
///
/// Create one per planning request and share it (by reference) across
/// threads; see the module docs for the invariants that make that safe.
pub struct ModelCache<'a> {
    job: &'a JobSpec,
    platform: &'a Platform,
    /// `Some(size)` when every input object has the bit-identical size
    /// — the common production shape, where the mapping phase admits a
    /// closed form (see [`ModelCache::mapper_phase`]).
    uniform_mb: Option<f64>,
    /// Prefix sums of `c` copies of the uniform size, built by the same
    /// left-fold the open-form `objs.iter().sum()` performs, so
    /// `size_prefix[c]` is bit-identical to summing any `c`-object
    /// assignment. Lazily built, shared across threads.
    size_prefix: OnceLock<Arc<Vec<f64>>>,
    /// Per-tier prefix sums of `get_secs(mem, size)` (same fold
    /// argument). Kept out of [`CacheStats`] — internal scaffolding,
    /// not a model sub-term.
    get_prefix: Memo<u32, Vec<f64>>,
    total_mb: OnceLock<f64>,
    mapper: Memo<(u32, usize), MapperPhase>,
    outputs: Memo<usize, Vec<f64>>,
    structure: Memo<(usize, usize), ReduceStructure>,
    tier_times: Memo<(usize, usize, u32), ReduceTierTimes>,
}

impl<'a> ModelCache<'a> {
    /// An empty cache for `job` on `platform`.
    pub fn new(job: &'a JobSpec, platform: &'a Platform) -> Self {
        let uniform_mb = match job.object_sizes_mb.split_first() {
            Some((&first, rest)) if rest.iter().all(|s| s.to_bits() == first.to_bits()) => {
                Some(first)
            }
            _ => None,
        };
        ModelCache {
            job,
            platform,
            uniform_mb,
            size_prefix: OnceLock::new(),
            get_prefix: Memo::new(),
            total_mb: OnceLock::new(),
            mapper: Memo::new(),
            outputs: Memo::new(),
            structure: Memo::new(),
            tier_times: Memo::new(),
        }
    }

    /// `job.total_mb()` computed once (it is an `O(N)` scan the DAG
    /// builder would otherwise repeat per `(k_M, k_R)` pair).
    pub fn job_total_mb(&self) -> f64 {
        *self.total_mb.get_or_init(|| self.job.total_mb())
    }

    fn size_prefix(&self, len: usize) -> Arc<Vec<f64>> {
        let s = self.uniform_mb.expect("size_prefix requires a uniform job");
        Arc::clone(self.size_prefix.get_or_init(|| {
            let mut t = Vec::with_capacity(len + 1);
            t.push(0.0);
            for c in 1..=len {
                t.push(t[c - 1] + s);
            }
            Arc::new(t)
        }))
    }

    fn get_prefix(&self, mem_mb: u32) -> Arc<Vec<f64>> {
        let s = self.uniform_mb.expect("get_prefix requires a uniform job");
        let n = self.job.num_objects();
        self.get_prefix.get_or(mem_mb, || {
            let g = self.platform.get_secs(mem_mb, s);
            let mut t = Vec::with_capacity(n + 1);
            t.push(0.0);
            for c in 1..=n {
                t.push(t[c - 1] + g);
            }
            t
        })
    }

    /// Closed-form [`mapper_phase`] for uniform jobs: every worker holds
    /// `k_M` objects except the last (remainder), so the per-worker sums
    /// are two prefix-table lookups instead of an `O(N)` scan — and
    /// bit-identical to the open form, because the tables replay the
    /// exact left-folds `objs.iter().sum()` would run (a test asserts
    /// this across the whole `k_M` range).
    fn mapper_phase_uniform(&self, mem_mb: u32, k_m: usize) -> MapperPhase {
        let n = self.job.num_objects();
        let workers = n.div_ceil(k_m);
        let last = n - k_m * (workers - 1);
        let secs_per_mb = self
            .platform
            .secs_per_mb(mem_mb, self.job.profile.map_secs_per_mb_128);
        let sizes = self.size_prefix(n);
        let gets = self.get_prefix(mem_mb);
        let lifetime = |c: usize| {
            let input_mb = sizes[c];
            let output_mb = input_mb * self.job.profile.shuffle_ratio;
            let transfer = gets[c] + self.platform.inter_put_secs(mem_mb, output_mb);
            (transfer + input_mb * secs_per_mb, output_mb)
        };
        let (full_s, full_mb) = lifetime(k_m);
        let (last_s, last_mb) = if last == k_m {
            (full_s, full_mb)
        } else {
            lifetime(last)
        };
        let mut per_mapper = vec![full_s; workers];
        let mut outputs = vec![full_mb; workers];
        per_mapper[workers - 1] = last_s;
        outputs[workers - 1] = last_mb;
        let spawn = self.platform.spawn_secs(per_mapper.len());
        let duration = per_mapper.iter().cloned().fold(0.0, f64::max) + spawn;
        MapperPhase {
            per_mapper_secs: per_mapper,
            duration_s: duration,
            output_sizes_mb: outputs,
        }
    }

    /// The job this cache evaluates.
    pub fn job(&self) -> &JobSpec {
        self.job
    }

    /// The platform this cache evaluates against.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The mapping phase at `(mapper mem tier, k_M)` (Eq. 1–4). Uniform
    /// jobs take the `O(j)` closed form; ragged jobs the `O(N)` scan.
    pub fn mapper_phase(&self, mem_mb: u32, k_m: usize) -> Arc<MapperPhase> {
        self.mapper.get_or((mem_mb, k_m), || {
            if self.uniform_mb.is_some() {
                self.mapper_phase_uniform(mem_mb, k_m)
            } else {
                mapper_phase(self.job, self.platform, mem_mb, k_m)
            }
        })
    }

    /// Per-mapper shuffle output volumes for `k_M` (tier-independent:
    /// sizes depend only on the object assignment and the shuffle ratio).
    pub fn mapper_outputs(&self, k_m: usize) -> Arc<Vec<f64>> {
        self.outputs.get_or(k_m, || {
            if self.uniform_mb.is_some() {
                let n = self.job.num_objects();
                let workers = n.div_ceil(k_m);
                let last = n - k_m * (workers - 1);
                let sizes = self.size_prefix(n);
                let ratio = self.job.profile.shuffle_ratio;
                let mut out = vec![sizes[k_m] * ratio; workers];
                out[workers - 1] = sizes[last] * ratio;
                return out;
            }
            astra_model::distribute::distribute_sizes(&self.job.object_sizes_mb, k_m)
                .into_iter()
                .map(|objs| objs.iter().sum::<f64>() * self.job.profile.shuffle_ratio)
                .collect()
        })
    }

    /// The Table II reduce-step schedule for `(k_M, k_R)`.
    pub fn reduce_structure(&self, k_m: usize, k_r: usize) -> Arc<ReduceStructure> {
        self.structure.get_or((k_m, k_r), || {
            let outputs = self.mapper_outputs(k_m);
            reduce_structure(&outputs, k_r, &self.job.profile, self.platform)
        })
    }

    /// Reducer lifetimes for `(k_M, k_R)` at one reducer memory tier.
    pub fn reduce_tier_times(&self, k_m: usize, k_r: usize, mem_mb: u32) -> Arc<ReduceTierTimes> {
        self.tier_times.get_or((k_m, k_r, mem_mb), || {
            let structure = self.reduce_structure(k_m, k_r);
            reduce_tier_times(&structure, self.platform, &self.job.profile, mem_mb)
        })
    }

    /// Evaluate one configuration end to end through the cache.
    ///
    /// Bit-identical to [`astra_model::evaluate()`](astra_model::evaluate::evaluate)
    /// on the same inputs
    /// (invariant 2): the feasibility checks, their order, and every
    /// arithmetic operation match the uncached path.
    pub fn evaluate(
        &self,
        config: &JobConfig,
        catalog: &PriceCatalog,
    ) -> Result<Evaluation, Infeasibility> {
        for mem in [
            config.mapper_mem_mb,
            config.coordinator_mem_mb,
            config.reducer_mem_mb,
        ] {
            if !self.platform.is_valid_tier(mem) {
                return Err(Infeasibility::InvalidMemoryTier { mem_mb: mem });
            }
        }
        config.validate();
        self.job.profile.validate();

        let mapper = (*self.mapper_phase(config.mapper_mem_mb, config.objects_per_mapper)).clone();
        let structure =
            (*self.reduce_structure(config.objects_per_mapper, config.objects_per_reducer)).clone();
        let times = (*self.reduce_tier_times(
            config.objects_per_mapper,
            config.objects_per_reducer,
            config.reducer_mem_mb,
        ))
        .clone();
        let coord_compute_s = coordinator_compute_secs(
            self.job.shuffle_mb(),
            self.platform,
            &self.job.profile,
            config.coordinator_mem_mb,
        );
        let coord_state_put_s = coordinator_state_put_secs(
            structure.num_steps(),
            self.platform,
            &self.job.profile,
            config.coordinator_mem_mb,
        );
        let perf = PerfBreakdown {
            mapper,
            coord_compute_s,
            coord_state_put_s,
            reduce: ReducePhase { structure, times },
        };
        check_feasibility(self.job, self.platform, &perf)?;
        let cost = full_cost(self.job, config, &perf, self.platform, catalog);
        Ok(Evaluation { perf, cost })
    }

    /// Number of memoized entries across all maps (for diagnostics and
    /// the bench runner's cache-effectiveness report).
    pub fn entries(&self) -> usize {
        self.mapper.len() + self.outputs.len() + self.structure.len() + self.tier_times.len()
    }

    /// Hit/miss tallies across all maps. Purely diagnostic (telemetry
    /// counters `planner.cache.hits` / `planner.cache.misses`); the
    /// counts never influence planning.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.mapper.hits()
                + self.outputs.hits()
                + self.structure.hits()
                + self.tier_times.hits(),
            misses: self.mapper.misses()
                + self.outputs.misses()
                + self.structure.misses()
                + self.tier_times.misses(),
            entries: self.entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::{evaluate, WorkloadProfile};

    fn cfg(mem: u32, k_m: usize, k_r: usize) -> JobConfig {
        JobConfig {
            mapper_mem_mb: mem,
            coordinator_mem_mb: mem,
            reducer_mem_mb: mem,
            objects_per_mapper: k_m,
            objects_per_reducer: k_r,
        }
    }

    #[test]
    fn cached_evaluation_matches_uncached_exactly() {
        let job = JobSpec::uniform("t", 12, 1.5, WorkloadProfile::uniform_test());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let cache = ModelCache::new(&job, &platform);
        for mem in [128, 512, 3008] {
            for k_m in [1, 2, 5] {
                for k_r in [2, 4] {
                    let c = cfg(mem, k_m, k_r);
                    let a = cache.evaluate(&c, &catalog);
                    let b = evaluate(&job, &platform, &c, &catalog);
                    match (a, b) {
                        (Ok(x), Ok(y)) => {
                            assert_eq!(x.total_cost(), y.total_cost(), "{c:?}");
                            assert_eq!(x.jct_s().to_bits(), y.jct_s().to_bits(), "{c:?}");
                        }
                        (Err(x), Err(y)) => assert_eq!(x, y),
                        (x, y) => panic!("verdicts diverge for {c:?}: {x:?} vs {y:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_mapper_matches_open_form_bitwise() {
        use astra_model::perf::mapper_phase as open_form;
        let platform = Platform::aws_lambda();
        for n in [1usize, 2, 5, 12, 37] {
            let job = JobSpec::uniform("t", n, 1.75, WorkloadProfile::uniform_test());
            let cache = ModelCache::new(&job, &platform);
            assert!(cache.uniform_mb.is_some());
            for mem in [128, 1792, 3008] {
                for k_m in 1..=n {
                    let fast = cache.mapper_phase(mem, k_m);
                    let slow = open_form(&job, &platform, mem, k_m);
                    assert_eq!(
                        fast.duration_s.to_bits(),
                        slow.duration_s.to_bits(),
                        "n={n} mem={mem} k_m={k_m}"
                    );
                    assert_eq!(fast.per_mapper_secs.len(), slow.per_mapper_secs.len());
                    for (a, b) in fast.per_mapper_secs.iter().zip(&slow.per_mapper_secs) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} mem={mem} k_m={k_m}");
                    }
                    for (a, b) in fast.output_sizes_mb.iter().zip(&slow.output_sizes_mb) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} mem={mem} k_m={k_m}");
                    }
                    let outs = cache.mapper_outputs(k_m);
                    for (a, b) in outs.iter().zip(&slow.output_sizes_mb) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} k_m={k_m}");
                    }
                }
            }
        }
        // Ragged jobs must not take the closed form.
        let ragged = JobSpec {
            name: "r".into(),
            object_sizes_mb: vec![1.0, 2.0, 1.0],
            profile: WorkloadProfile::uniform_test(),
        };
        assert!(ModelCache::new(&ragged, &platform).uniform_mb.is_none());
    }

    #[test]
    fn cache_is_populated_and_reused() {
        let job = JobSpec::uniform("t", 8, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let cache = ModelCache::new(&job, &platform);
        cache.evaluate(&cfg(128, 2, 2), &catalog).unwrap();
        let after_first = cache.entries();
        assert!(after_first >= 4, "mapper + outputs + structure + times");
        // Same sub-keys: only the reducer-tier entry is new.
        cache.evaluate(&cfg(128, 2, 2), &catalog).unwrap();
        assert_eq!(cache.entries(), after_first);
        cache
            .evaluate(
                &JobConfig {
                    reducer_mem_mb: 1024,
                    ..cfg(128, 2, 2)
                },
                &catalog,
            )
            .unwrap();
        assert_eq!(cache.entries(), after_first + 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let job = JobSpec::uniform("t", 8, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let cache = ModelCache::new(&job, &platform);
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.evaluate(&cfg(128, 2, 2), &catalog).unwrap();
        let first = cache.stats();
        assert!(first.misses >= 4, "mapper + outputs + structure + times");
        // Re-evaluating the same configuration only hits.
        cache.evaluate(&cfg(128, 2, 2), &catalog).unwrap();
        let second = cache.stats();
        assert_eq!(second.misses, first.misses);
        assert!(second.hits > first.hits);
        assert!(second.hit_rate() > 0.0);
        assert_eq!(second.entries, cache.entries());
    }

    #[test]
    fn invalid_tier_short_circuits() {
        let job = JobSpec::uniform("t", 4, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::aws_lambda();
        let cache = ModelCache::new(&job, &platform);
        let err = cache
            .evaluate(&cfg(100, 2, 2), &PriceCatalog::aws_2020())
            .unwrap_err();
        assert_eq!(err, Infeasibility::InvalidMemoryTier { mem_mb: 100 });
        assert_eq!(cache.entries(), 0, "nothing cached for rejected tiers");
    }

    #[test]
    fn shared_across_threads_stays_consistent() {
        let job = JobSpec::uniform("t", 10, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let cache = ModelCache::new(&job, &platform);
        let reference = evaluate(&job, &platform, &cfg(512, 2, 3), &catalog).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let ev = cache.evaluate(&cfg(512, 2, 3), &catalog).unwrap();
                        assert_eq!(ev.total_cost(), reference.total_cost());
                    }
                });
            }
        });
    }
}
