//! The configuration space the planner searches.

use astra_model::{JobConfig, JobSpec, Platform};
use serde::{Deserialize, Serialize};

/// Enumerable bounds of the search: which memory tiers and which
/// partitioning values to consider.
///
/// The full space for a job with `N` objects is `L³ × N × N` points
/// (three independent memory choices, `k_M`, `k_R`); the DAG encoding
/// never materialises it, but the exhaustive validator does, so tests use
/// [`ConfigSpace::with_tiers`] to shrink `L`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Candidate memory tiers (MB) for all three roles.
    pub memory_tiers_mb: Vec<u32>,
    /// Candidate objects-per-mapper values (`k_M`).
    pub k_m_values: Vec<usize>,
    /// Candidate objects-per-reducer values (`k_R`); values above the
    /// mapper count `j` collapse to `j` (single-step reduce) and are
    /// deduplicated per `k_M`.
    pub k_r_values: Vec<usize>,
    /// Per-entry multiplicities for `k_m_values`: how many raw `k_M`
    /// candidates each representative stands for when the space was built
    /// by [`ConfigSpace::bundled`]. Empty (the default, and the state of
    /// every previously serialized space) means all ones — every entry
    /// represents only itself.
    #[serde(default)]
    pub k_m_weights: Vec<usize>,
}

impl ConfigSpace {
    /// The complete space for `job` on `platform`: every tier, every
    /// `k_M` producing at most `max_concurrency` mappers, every `k_R`.
    pub fn full(job: &JobSpec, platform: &Platform) -> Self {
        let n = job.num_objects();
        let min_k_m = n.div_ceil(platform.max_concurrency as usize).max(1);
        ConfigSpace {
            memory_tiers_mb: platform.memory_tiers_mb.clone(),
            k_m_values: (min_k_m..=n).collect(),
            k_r_values: (2..=n.max(2)).collect(),
            k_m_weights: Vec::new(),
        }
    }

    /// The production-scale space, an **approximation** of
    /// [`ConfigSpace::full`]: every memory tier, but partitioning
    /// candidates collapsed into bundles so the DAG stays sub-second at
    /// `N = 10^5`–`10^6` objects. Its optimum is never better than the
    /// full space's and can be worse (`bundled_space_is_approximate` in
    /// `tests/prune_equivalence.rs` pins two such inputs).
    ///
    /// Two collapses, applied on top of [`ConfigSpace::full`]:
    ///
    /// * **`k_M` classes.** All raw `k_M` values that yield the same
    ///   mapper count `j = ceil(N/k_M)` form one class; the class is
    ///   represented by its smallest member (the most balanced
    ///   partition) and carries the class size in `k_m_weights`. Members
    ///   of a class differ in skew (`(k_M, …, k_M, remainder)` splits),
    ///   so a dropped member can be the full space's optimum.
    /// * **`k_R` ladder.** Instead of every value in `2..=N`, a
    ///   geometric ladder (powers of four, plus the maximum useful
    ///   value). Per `j`, [`k_r_candidates`](Self::k_r_candidates) still
    ///   clamps and deduplicates, so every ladder rung above `j`
    ///   collapses onto the exact single-step bundle `k_R = j` just as
    ///   the raw `j..=N` range would; the rungs below skip values.
    ///
    /// The SoA edge store records the class sizes as edge
    /// multiplicities; `planner.dag.bundles_collapsed` reports how many
    /// raw candidates were folded away.
    pub fn bundled(job: &JobSpec, platform: &Platform) -> Self {
        let n = job.num_objects();
        let min_k_m = n.div_ceil(platform.max_concurrency as usize).max(1);
        let j_max = n.div_ceil(min_k_m).max(1);
        // One representative k_M (the smallest, with the largest
        // remainder worker — the most balanced split) per achievable j,
        // visited in increasing-k_M order to keep k_m_values ascending.
        let mut k_m_values = Vec::new();
        let mut k_m_weights = Vec::new();
        for j in (1..=j_max).rev() {
            // k_M values with ceil(n/k_M) == j form the contiguous range
            // [ceil(n/j), floor((n-1)/(j-1))] (unbounded above for j=1).
            let lo = n.div_ceil(j).max(min_k_m);
            let hi = if j == 1 {
                n
            } else {
                ((n - 1) / (j - 1)).min(n)
            };
            if lo > hi || n.div_ceil(lo) != j {
                continue; // j unachievable within [min_k_m, n]
            }
            k_m_values.push(lo);
            k_m_weights.push(hi - lo + 1);
        }
        // Geometric k_R ladder: 2, 8, 32, ... capped by the widest
        // mapper fan-out (larger values clamp to j anyway).
        let cap = j_max.max(2);
        let mut k_r_values = Vec::new();
        let mut k = 2usize;
        while k < cap {
            k_r_values.push(k);
            k = k.saturating_mul(4);
        }
        k_r_values.push(cap);
        ConfigSpace {
            memory_tiers_mb: platform.memory_tiers_mb.clone(),
            k_m_values,
            k_r_values,
            k_m_weights,
        }
    }

    /// How many raw `k_M` candidates the entry `k_m` represents (1 for
    /// spaces without bundle weights, or for unknown values).
    pub fn k_m_weight(&self, k_m: usize) -> usize {
        if self.k_m_weights.is_empty() {
            return 1;
        }
        self.k_m_values
            .iter()
            .position(|&v| v == k_m)
            .and_then(|i| self.k_m_weights.get(i).copied())
            .unwrap_or(1)
    }

    /// How many raw `k_R` values in this space collapse onto the
    /// candidate `k_r` at mapper count `j` (the `min(k_R, j)` clamp of
    /// [`k_r_candidates`](Self::k_r_candidates) merges every value
    /// `>= j` into the single-step bundle).
    pub fn k_r_weight(&self, j: usize, k_r: usize) -> usize {
        let cap = j.max(2);
        self.k_r_values
            .iter()
            .filter(|&&v| v.min(cap) == k_r)
            .count()
            .max(1)
    }

    /// Same partitioning range but a restricted tier list (for tests and
    /// ablations).
    pub fn with_tiers(job: &JobSpec, platform: &Platform, tiers: &[u32]) -> Self {
        ConfigSpace {
            memory_tiers_mb: tiers.to_vec(),
            ..Self::full(job, platform)
        }
    }

    /// The `k_R` candidates that are meaningfully distinct for `j` mapper
    /// outputs: values in `2..=j`, plus `j` itself if every candidate
    /// exceeds it (all `k_R >= j` give the same single-step schedule).
    pub fn k_r_candidates(&self, j: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .k_r_values
            .iter()
            .copied()
            .map(|k| k.min(j.max(2)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every configuration in the space (deduplicated `k_R` per `k_M`).
    pub fn iter_configs<'a>(&'a self, job: &'a JobSpec) -> impl Iterator<Item = JobConfig> + 'a {
        let n = job.num_objects();
        self.k_m_values.iter().flat_map(move |&k_m| {
            let j = n.div_ceil(k_m);
            let k_rs = self.k_r_candidates(j);
            let tiers = &self.memory_tiers_mb;
            k_rs.into_iter().flat_map(move |k_r| {
                tiers.iter().flat_map(move |&i| {
                    tiers.iter().flat_map(move |&a| {
                        tiers.iter().map(move |&s| JobConfig {
                            mapper_mem_mb: i,
                            coordinator_mem_mb: a,
                            reducer_mem_mb: s,
                            objects_per_mapper: k_m,
                            objects_per_reducer: k_r,
                        })
                    })
                })
            })
        })
    }

    /// Number of configurations [`iter_configs`](Self::iter_configs)
    /// yields.
    pub fn size(&self, job: &JobSpec) -> usize {
        let n = job.num_objects();
        let tiers = self.memory_tiers_mb.len();
        self.k_m_values
            .iter()
            .map(|&k_m| self.k_r_candidates(n.div_ceil(k_m)).len())
            .sum::<usize>()
            * tiers
            * tiers
            * tiers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn job(n: usize) -> JobSpec {
        JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test())
    }

    #[test]
    fn full_space_covers_all_tiers_and_k() {
        let platform = Platform::aws_lambda();
        let s = ConfigSpace::full(&job(10), &platform);
        assert_eq!(s.memory_tiers_mb.len(), 46);
        assert_eq!(s.k_m_values, (1..=10).collect::<Vec<_>>());
        assert_eq!(s.k_r_values, (2..=10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrency_bounds_k_m_from_below() {
        let mut platform = Platform::aws_lambda();
        platform.max_concurrency = 4;
        let s = ConfigSpace::full(&job(10), &platform);
        // Fewer than ceil(10/4)=3 objects per mapper would need > 4 mappers.
        assert_eq!(s.k_m_values[0], 3);
    }

    #[test]
    fn k_r_candidates_collapse_above_j() {
        let platform = Platform::aws_lambda();
        let s = ConfigSpace::full(&job(10), &platform);
        // j = 3 mappers: k_R in {2, 3} only (4..10 behave like 3).
        assert_eq!(s.k_r_candidates(3), vec![2, 3]);
        // j = 1: single candidate.
        assert_eq!(s.k_r_candidates(1), vec![2]);
    }

    #[test]
    fn bundled_representatives_partition_the_full_k_m_range() {
        let platform = Platform::aws_lambda();
        for n in [1, 2, 7, 10, 97, 1000] {
            let j = job(n);
            let full = ConfigSpace::full(&j, &platform);
            let b = ConfigSpace::bundled(&j, &platform);
            // One representative per achievable mapper count, ascending.
            let full_js: std::collections::BTreeSet<usize> =
                full.k_m_values.iter().map(|&k| n.div_ceil(k)).collect();
            let b_js: Vec<usize> = b.k_m_values.iter().map(|&k| n.div_ceil(k)).collect();
            let b_j_set: std::collections::BTreeSet<usize> = b_js.iter().copied().collect();
            assert_eq!(b_j_set, full_js, "n={n}");
            assert_eq!(b_j_set.len(), b_js.len(), "n={n}: duplicate class");
            let mut sorted = b.k_m_values.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, b.k_m_values, "n={n}: representatives ascending");
            // Class weights partition the raw candidate range exactly.
            assert_eq!(
                b.k_m_weights.iter().sum::<usize>(),
                full.k_m_values.len(),
                "n={n}"
            );
            // Each representative is the smallest member of its class.
            for (&k, &w) in b.k_m_values.iter().zip(&b.k_m_weights) {
                assert_eq!(b.k_m_weight(k), w);
                if k > full.k_m_values[0] {
                    assert_ne!(n.div_ceil(k - 1), n.div_ceil(k), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn bundled_k_r_ladder_clamps_like_the_full_range() {
        let platform = Platform::aws_lambda();
        let j1000 = job(1000);
        let b = ConfigSpace::bundled(&j1000, &platform);
        assert_eq!(b.k_r_values, vec![2, 8, 32, 128, 512, 1000]);
        // Rungs above j collapse onto the single-step bundle k_R = j,
        // and the weight counts every merged rung.
        assert_eq!(b.k_r_candidates(10), vec![2, 8, 10]);
        assert_eq!(b.k_r_weight(10, 10), 4); // 32, 128, 512, 1000
        assert_eq!(b.k_r_weight(10, 2), 1);
    }

    #[test]
    fn unweighted_spaces_report_unit_weights() {
        let platform = Platform::aws_lambda();
        let j10 = job(10);
        let s = ConfigSpace::full(&j10, &platform);
        assert!(s.k_m_weights.is_empty());
        assert_eq!(s.k_m_weight(3), 1);
        assert_eq!(s.k_m_weight(999), 1);
    }

    #[test]
    fn size_matches_iterator_count() {
        let platform = Platform::aws_lambda();
        let j = job(6);
        let s = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        assert_eq!(s.size(&j), s.iter_configs(&j).count());
    }

    #[test]
    fn iterated_configs_are_unique() {
        let platform = Platform::aws_lambda();
        let j = job(5);
        let s = ConfigSpace::with_tiers(&j, &platform, &[128, 3008]);
        let configs: Vec<JobConfig> = s.iter_configs(&j).collect();
        let mut dedup = configs.clone();
        dedup.sort_by_key(|c| {
            (
                c.mapper_mem_mb,
                c.coordinator_mem_mb,
                c.reducer_mem_mb,
                c.objects_per_mapper,
                c.objects_per_reducer,
            )
        });
        dedup.dedup();
        assert_eq!(dedup.len(), configs.len());
    }
}
