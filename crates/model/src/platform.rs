//! The FaaS platform's resource envelope: memory tiers, CPU scaling,
//! quotas and network characteristics.

use astra_storage::TransferModel;
use serde::{Deserialize, Serialize};

use crate::ephemeral::IntermediateStorage;

/// Smallest AWS Lambda memory size (MB).
pub const MIN_MEMORY_MB: u32 = 128;
/// Largest AWS Lambda memory size at the paper's evaluation time (MB).
pub const MAX_MEMORY_MB: u32 = 3008;
/// Memory increment (MB).
pub const MEMORY_STEP_MB: u32 = 64;

/// Platform description: everything Sec. II-B lists about AWS Lambda, as
/// model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Allocatable memory sizes in MB, ascending (`L` categories).
    pub memory_tiers_mb: Vec<u32>,
    /// CPU share grows linearly with memory up to this ceiling, then
    /// flattens (AWS grants a full vCPU around 1.8 GB; the paper's Fig. 6
    /// observes no improvement past 1536 MB). Set to `MAX_MEMORY_MB` for
    /// strictly-proportional scaling.
    pub cpu_ceiling_mb: u32,
    /// Account-level concurrent-execution limit (`R`, 1000 on AWS).
    pub max_concurrency: u32,
    /// Per-function execution timeout in seconds (900 s on AWS).
    pub timeout_s: f64,
    /// Maximum total storage for a job's objects in MB (`O`, 5 TB).
    pub max_storage_mb: f64,
    /// Cold-start delay in seconds (simulator only; the analytical model
    /// follows the paper in ignoring it, which is part of model error).
    pub cold_start_s: f64,
    /// Network model between functions and the object store. Its
    /// `bandwidth_mbps` is the per-function bandwidth *at the smallest
    /// memory tier*; larger tiers scale it (see
    /// [`bandwidth_mbps`](Self::bandwidth_mbps)).
    pub transfer: TransferModel,
    /// CPU efficiency at the smallest tier, relative to proportional
    /// scaling (1.0 = the paper's idealised "speed proportional to
    /// memory"). Measured small lambdas are disproportionately slow —
    /// fixed runtime overheads eat a bigger share of a sliver of vCPU —
    /// which is what makes the paper's Fig. 6 *cost* curve high at
    /// 128 MB and minimal mid-range.
    pub efficiency_at_min: f64,
    /// Memory (MB) at and above which efficiency reaches 1.0; efficiency
    /// interpolates linearly from `efficiency_at_min` below it.
    pub efficiency_full_mb: u32,
    /// Per-function network bandwidth grows as `(mem/128)^exponent`
    /// (0 = flat, the paper's single-`B` model; ~0.5 matches Lambda↔S3
    /// throughput measurements).
    pub bandwidth_exponent: f64,
    /// Per-function bandwidth cap in MB/s.
    pub max_bandwidth_mbps: f64,
    /// Fixed latency of launching one batch of functions (the reference
    /// framework triggers phases through S3 events and polling — seconds,
    /// not milliseconds). Paid once per mapper fanout, once for the
    /// coordinator, and once per reduce step.
    pub orchestration_overhead_s: f64,
    /// Per-function invoke-API call latency; a batch of `n` functions is
    /// launched by `n` sequential calls.
    pub invoke_call_s: f64,
    /// Where *ephemeral* objects (shuffle output, state, reduce
    /// intermediates) live. `None` = S3, the paper's default; `Some` =
    /// an alternative store per the Discussion extension (see
    /// [`IntermediateStorage`]).
    pub intermediate: Option<IntermediateStorage>,
}

impl Platform {
    /// AWS Lambda as described in the paper (46 memory tiers from 128 to
    /// 3008 MB in 64 MB steps, 1000 concurrency, 900 s timeout, 5 TB cap).
    pub fn aws_lambda() -> Self {
        Platform {
            memory_tiers_mb: (MIN_MEMORY_MB..=MAX_MEMORY_MB)
                .step_by(MEMORY_STEP_MB as usize)
                .collect(),
            cpu_ceiling_mb: 1792,
            max_concurrency: 1000,
            timeout_s: 900.0,
            max_storage_mb: 5.0 * 1024.0 * 1024.0,
            cold_start_s: 0.25,
            transfer: TransferModel::aws_like(),
            efficiency_at_min: 0.6,
            efficiency_full_mb: 1024,
            bandwidth_exponent: 0.5,
            max_bandwidth_mbps: 90.0,
            orchestration_overhead_s: 1.0,
            invoke_call_s: 0.02,
            intermediate: None,
        }
    }

    /// A strictly paper-literal platform: speed exactly proportional to
    /// memory over the whole range, one flat bandwidth `B`, no request
    /// latency, no cold starts.
    pub fn paper_literal(bandwidth_mbps: f64) -> Self {
        Platform {
            cpu_ceiling_mb: MAX_MEMORY_MB,
            cold_start_s: 0.0,
            transfer: TransferModel::paper_literal(bandwidth_mbps),
            efficiency_at_min: 1.0,
            bandwidth_exponent: 0.0,
            max_bandwidth_mbps: bandwidth_mbps,
            orchestration_overhead_s: 0.0,
            invoke_call_s: 0.0,
            intermediate: None,
            ..Self::aws_lambda()
        }
    }

    /// Google Cloud Functions (gen-1): only five memory sizes, CPU
    /// coupled to memory across the whole range (no mid-range vCPU
    /// ceiling), 540 s timeout, 1000 concurrent executions, and a
    /// somewhat slower function↔storage path than Lambda↔S3.
    pub fn gcp_functions() -> Self {
        Platform {
            memory_tiers_mb: vec![128, 256, 512, 1024, 2048],
            cpu_ceiling_mb: 2048,
            max_concurrency: 1000,
            timeout_s: 540.0,
            max_bandwidth_mbps: 75.0,
            ..Self::aws_lambda()
        }
    }

    /// Azure Functions consumption plan: memory is elastic up to
    /// 1536 MB (modelled as explicit tiers), 600 s timeout, 200-instance
    /// scale-out limit.
    pub fn azure_functions() -> Self {
        Platform {
            memory_tiers_mb: (MIN_MEMORY_MB..=1536)
                .step_by(MEMORY_STEP_MB as usize)
                .collect(),
            cpu_ceiling_mb: 1536,
            max_concurrency: 200,
            timeout_s: 600.0,
            ..Self::aws_lambda()
        }
    }

    /// Number of memory categories (`L`).
    pub fn tier_count(&self) -> usize {
        self.memory_tiers_mb.len()
    }

    /// CPU efficiency of tier `mem_mb` relative to proportional scaling.
    pub fn efficiency(&self, mem_mb: u32) -> f64 {
        if mem_mb >= self.efficiency_full_mb || self.efficiency_at_min >= 1.0 {
            return 1.0;
        }
        let span = (self.efficiency_full_mb - MIN_MEMORY_MB) as f64;
        let pos = (mem_mb.saturating_sub(MIN_MEMORY_MB)) as f64 / span;
        self.efficiency_at_min + (1.0 - self.efficiency_at_min) * pos
    }

    /// Relative processing speed of a `mem_mb` lambda versus an *ideal*
    /// 128 MB one.
    ///
    /// "The computation time of each lambda is proportional to its memory
    /// size" (Sec. V setup), saturating at the vCPU ceiling and degraded
    /// at small tiers by [`efficiency`](Self::efficiency).
    pub fn speed_factor(&self, mem_mb: u32) -> f64 {
        mem_mb.min(self.cpu_ceiling_mb) as f64 / MIN_MEMORY_MB as f64 * self.efficiency(mem_mb)
    }

    /// Per-function network bandwidth at tier `mem_mb` in MB/s.
    pub fn bandwidth_mbps(&self, mem_mb: u32) -> f64 {
        let scale = (mem_mb as f64 / MIN_MEMORY_MB as f64).powf(self.bandwidth_exponent);
        (self.transfer.bandwidth_mbps * scale).min(self.max_bandwidth_mbps)
    }

    /// Seconds for a `mem_mb` lambda to GET `size_mb` from the store.
    pub fn get_secs(&self, mem_mb: u32, size_mb: f64) -> f64 {
        self.transfer.get_latency_s + size_mb / self.bandwidth_mbps(mem_mb)
    }

    /// Seconds for a `mem_mb` lambda to PUT `size_mb` to the store.
    pub fn put_secs(&self, mem_mb: u32, size_mb: f64) -> f64 {
        self.transfer.put_latency_s + size_mb / self.bandwidth_mbps(mem_mb)
    }

    /// Seconds to launch a batch of `n` functions: the fixed phase
    /// trigger overhead plus `n` sequential invoke calls.
    pub fn spawn_secs(&self, n: usize) -> f64 {
        self.orchestration_overhead_s + n as f64 * self.invoke_call_s
    }

    /// Seconds for a `mem_mb` lambda to read `size_mb` of *ephemeral*
    /// data (shuffle/state/intermediate objects) from the configured
    /// intermediate store. Falls back to S3 when none is configured.
    pub fn inter_get_secs(&self, mem_mb: u32, size_mb: f64) -> f64 {
        let (latency_s, bandwidth_mbps) = self.inter_get_link(mem_mb);
        latency_s + size_mb / bandwidth_mbps
    }

    /// The `(latency_s, bandwidth_mbps)` pair behind
    /// [`Platform::inter_get_secs`] at `mem_mb`, for callers that read
    /// many objects at one tier: `latency_s + size_mb / bandwidth_mbps`
    /// is `inter_get_secs(mem_mb, size_mb)` bit for bit.
    pub fn inter_get_link(&self, mem_mb: u32) -> (f64, f64) {
        match &self.intermediate {
            None => (self.transfer.get_latency_s, self.bandwidth_mbps(mem_mb)),
            Some(c) => (
                c.get_latency_s,
                self.bandwidth_mbps(mem_mb).min(c.bandwidth_mbps),
            ),
        }
    }

    /// Seconds for a `mem_mb` lambda to write `size_mb` of ephemeral data.
    pub fn inter_put_secs(&self, mem_mb: u32, size_mb: f64) -> f64 {
        let (latency_s, bandwidth_mbps) = self.inter_put_link(mem_mb);
        latency_s + size_mb / bandwidth_mbps
    }

    /// The `(latency_s, bandwidth_mbps)` pair behind
    /// [`Platform::inter_put_secs`] at `mem_mb`: `latency_s + size_mb /
    /// bandwidth_mbps` is `inter_put_secs(mem_mb, size_mb)` bit for bit.
    pub fn inter_put_link(&self, mem_mb: u32) -> (f64, f64) {
        match &self.intermediate {
            None => (self.transfer.put_latency_s, self.bandwidth_mbps(mem_mb)),
            Some(c) => (
                c.put_latency_s,
                self.bandwidth_mbps(mem_mb).min(c.bandwidth_mbps),
            ),
        }
    }

    /// This platform with a Redis-like in-memory intermediate tier (the
    /// Discussion's ElastiCache variant).
    pub fn with_elasticache(mut self) -> Self {
        self.intermediate = Some(IntermediateStorage::elasticache());
        self
    }

    /// Seconds to process one MB at tier `mem_mb` for a workload whose
    /// 128 MB-tier unit time is `secs_per_mb_128` (the `u_i` of Eq. 3).
    pub fn secs_per_mb(&self, mem_mb: u32, secs_per_mb_128: f64) -> f64 {
        secs_per_mb_128 / self.speed_factor(mem_mb)
    }

    /// Validate that `mem_mb` is one of the allocatable tiers.
    pub fn is_valid_tier(&self, mem_mb: u32) -> bool {
        self.memory_tiers_mb.binary_search(&mem_mb).is_ok()
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::aws_lambda()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_has_46_tiers() {
        let p = Platform::aws_lambda();
        assert_eq!(p.tier_count(), 46);
        assert_eq!(p.memory_tiers_mb[0], 128);
        assert_eq!(*p.memory_tiers_mb.last().unwrap(), 3008);
        assert!(p.is_valid_tier(1024));
        assert!(!p.is_valid_tier(1000));
    }

    #[test]
    fn speed_scales_linearly_then_saturates() {
        let p = Platform::paper_literal(40.0);
        assert_eq!(p.speed_factor(128), 1.0);
        assert_eq!(p.speed_factor(256), 2.0);
        let mut aws = Platform::aws_lambda();
        aws.efficiency_at_min = 1.0;
        assert_eq!(aws.speed_factor(1792), 14.0);
        // Past the ceiling no further speedup (Fig. 6 plateau).
        assert_eq!(aws.speed_factor(3008), 14.0);
    }

    #[test]
    fn small_tiers_pay_an_efficiency_penalty() {
        let p = Platform::aws_lambda();
        assert_eq!(p.efficiency(128), 0.6);
        assert_eq!(p.efficiency(1024), 1.0);
        assert_eq!(p.efficiency(3008), 1.0);
        let mid = p.efficiency(576); // halfway 128..1024
        assert!((mid - 0.8).abs() < 1e-12);
        // Speed at 128 MB is 0.6x the proportional ideal.
        assert!((p.speed_factor(128) - 0.6).abs() < 1e-12);
        // Per-GB-s cost efficiency therefore favours mid tiers: duration
        // at 128 is 1/0.6 of the proportional value.
    }

    #[test]
    fn bandwidth_scales_with_memory_and_caps() {
        let p = Platform::aws_lambda();
        assert_eq!(p.bandwidth_mbps(128), 40.0);
        assert!((p.bandwidth_mbps(512) - 80.0).abs() < 1e-9); // 40 * 2
        assert_eq!(p.bandwidth_mbps(3008), 90.0); // capped
        let lit = Platform::paper_literal(40.0);
        assert_eq!(lit.bandwidth_mbps(128), 40.0);
        assert_eq!(lit.bandwidth_mbps(3008), 40.0); // flat
    }

    #[test]
    fn get_put_secs_use_tier_bandwidth() {
        let p = Platform::paper_literal(10.0);
        assert_eq!(p.get_secs(128, 20.0), 2.0);
        assert_eq!(p.put_secs(3008, 10.0), 1.0);
    }

    #[test]
    fn paper_literal_scales_to_the_top() {
        let p = Platform::paper_literal(40.0);
        assert_eq!(p.speed_factor(3008), 23.5);
        assert_eq!(p.cold_start_s, 0.0);
        assert_eq!(p.transfer.get_latency_s, 0.0);
    }

    #[test]
    fn secs_per_mb_divides_by_speed() {
        let p = Platform::paper_literal(40.0);
        assert_eq!(p.secs_per_mb(128, 1.0), 1.0);
        assert_eq!(p.secs_per_mb(256, 1.0), 0.5);
        assert_eq!(p.secs_per_mb(512, 2.0), 0.5);
    }
}
