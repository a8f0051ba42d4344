//! Completion-time model — paper Sec. III-A (Eq. 1–9).

use serde::{Deserialize, Serialize};

use crate::config::JobConfig;
use crate::job::JobSpec;
use crate::platform::Platform;
use crate::schedule::ReduceStep;
use crate::workload::WorkloadProfile;

/// The mapping phase: per-mapper lifetimes and the phase duration `T1`
/// (Eq. 4: the slowest of `j` parallel mappers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperPhase {
    /// Lifetime of each mapper in seconds (S3 traffic + compute).
    pub per_mapper_secs: Vec<f64>,
    /// `T1`: the maximum of `per_mapper_secs`.
    pub duration_s: f64,
    /// Output object sizes (one per mapper, `e_m = alpha * d_m`).
    pub output_sizes_mb: Vec<f64>,
}

/// Compute the mapping phase for mapper memory `mem_mb` and `k_M` objects
/// per mapper.
pub fn mapper_phase(job: &JobSpec, platform: &Platform, mem_mb: u32, k_m: usize) -> MapperPhase {
    let secs_per_mb = platform.secs_per_mb(mem_mb, job.profile.map_secs_per_mb_128);
    // The tier's links, hoisted: `latency + size / bandwidth` is
    // `get_secs` / `inter_put_secs` bit for bit, without a `powf` per call.
    // Inputs come from S3; the shuffle object is ephemeral.
    let (get_latency_s, get_bandwidth_mbps) = (
        platform.transfer.get_latency_s,
        platform.bandwidth_mbps(mem_mb),
    );
    let (put_latency_s, put_bandwidth_mbps) = platform.inter_put_link(mem_mb);
    assert!(!job.object_sizes_mb.is_empty(), "nothing to distribute");
    let workers = job.object_sizes_mb.len().div_ceil(k_m);
    let mut per_mapper = Vec::with_capacity(workers);
    let mut outputs = Vec::with_capacity(workers);
    // `chunks(k_m)` is `distribute_counts`' split: `k_m` objects per
    // mapper, the last one taking the remainder.
    for objs in job.object_sizes_mb.chunks(k_m) {
        let input_mb: f64 = objs.iter().sum();
        let output_mb = input_mb * job.profile.shuffle_ratio;
        // Eq. 4: (d + e)/B (per-object GETs + one PUT) plus compute c = d*u.
        let transfer: f64 = objs
            .iter()
            .map(|&d| get_latency_s + d / get_bandwidth_mbps)
            .sum::<f64>()
            + (put_latency_s + output_mb / put_bandwidth_mbps);
        let compute = input_mb * secs_per_mb;
        per_mapper.push(transfer + compute);
        outputs.push(output_mb);
    }
    // The mapping phase also pays for its own launch: the client fires
    // `j` invoke calls behind one orchestration trigger.
    let spawn = platform.spawn_secs(per_mapper.len());
    let duration = per_mapper.iter().cloned().fold(0.0, f64::max) + spawn;
    MapperPhase {
        per_mapper_secs: per_mapper,
        duration_s: duration,
        output_sizes_mb: outputs,
    }
}

/// Compute the mapping phase for an explicit object-index assignment
/// (the skew-mitigation extension; the paper's framework uses the
/// consecutive assignment of [`mapper_phase`]).
pub fn mapper_phase_with_assignment(
    job: &JobSpec,
    platform: &Platform,
    mem_mb: u32,
    assignments: &[Vec<usize>],
) -> MapperPhase {
    assert!(!assignments.is_empty(), "need at least one mapper");
    let secs_per_mb = platform.secs_per_mb(mem_mb, job.profile.map_secs_per_mb_128);
    // `get_secs` / `put_secs` with the tier's bandwidth hoisted.
    let bandwidth_mbps = platform.bandwidth_mbps(mem_mb);
    let (get_latency_s, put_latency_s) = (
        platform.transfer.get_latency_s,
        platform.transfer.put_latency_s,
    );
    let mut per_mapper = Vec::with_capacity(assignments.len());
    let mut outputs = Vec::with_capacity(assignments.len());
    for objs in assignments {
        let input_mb: f64 = objs.iter().map(|&i| job.object_sizes_mb[i]).sum();
        let output_mb = input_mb * job.profile.shuffle_ratio;
        let transfer: f64 = objs
            .iter()
            .map(|&i| get_latency_s + job.object_sizes_mb[i] / bandwidth_mbps)
            .sum::<f64>()
            + (put_latency_s + output_mb / bandwidth_mbps);
        per_mapper.push(transfer + input_mb * secs_per_mb);
        outputs.push(output_mb);
    }
    let spawn = platform.spawn_secs(per_mapper.len());
    let duration = per_mapper.iter().cloned().fold(0.0, f64::max) + spawn;
    MapperPhase {
        per_mapper_secs: per_mapper,
        duration_s: duration,
        output_sizes_mb: outputs,
    }
}

/// Data-flow structure of the reducing phase: the Table II schedule.
/// Everything here depends only on `(k_M, k_R)` — object counts and
/// sizes — not on any memory tier, which is what lets the planner share
/// it across the tier choices of its DAG columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReduceStructure {
    /// The step schedule.
    pub steps: Vec<ReduceStep>,
    /// Per-step launch latency (`spawn_secs(g_p)`), part of each step's
    /// duration and of the coordinator's billed lifetime.
    pub per_step_spawn_s: Vec<f64>,
}

impl ReduceStructure {
    /// Number of reduce steps (`P`).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total reducers across steps (`g`).
    pub fn total_reducers(&self) -> usize {
        self.steps.iter().map(ReduceStep::reducers).sum()
    }
}

/// Build the reducing-phase structure from the mapper outputs.
pub fn reduce_structure(
    mapper_outputs_mb: &[f64],
    k_r: usize,
    profile: &WorkloadProfile,
    platform: &Platform,
) -> ReduceStructure {
    let steps = crate::schedule::schedule_steps(
        mapper_outputs_mb,
        k_r,
        profile.reduce_ratio,
        profile.single_pass_reduce,
    );
    reduce_structure_from_steps(steps, profile, platform)
}

/// Build the reducing-phase structure from an already-computed step
/// schedule (the path explicitly-specified plans like Baseline 3 take).
pub fn reduce_structure_from_steps(
    steps: Vec<ReduceStep>,
    profile: &WorkloadProfile,
    platform: &Platform,
) -> ReduceStructure {
    let _ = profile;
    let per_step_spawn_s = steps
        .iter()
        .map(|s| platform.spawn_secs(s.reducers()))
        .collect();
    ReduceStructure {
        steps,
        per_step_spawn_s,
    }
}

/// Per-reducer lifetimes of the reducing phase at one reducer memory
/// tier: state GET + input GETs + compute (Eq. 9's `o`) + output PUT.
/// Both transfer and compute scale with the tier (bandwidth and CPU),
/// so the whole lifetime lives here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReduceTierTimes {
    /// `per_reducer_s[p][r]`: reducer `r` of step `p`'s full lifetime.
    pub per_reducer_s: Vec<Vec<f64>>,
    /// Per-step slowest-reducer lifetime (the step's duration).
    pub per_step_max_s: Vec<f64>,
}

impl ReduceTierTimes {
    /// `T_P`: the reducing phase's total duration (sum of step maxima).
    pub fn duration_s(&self) -> f64 {
        self.per_step_max_s.iter().sum()
    }
}

/// Evaluate reducer lifetimes for one memory tier.
///
/// Adjacent reducers with bit-identical assignments share one computed
/// lifetime: under an even split every reducer of a step except possibly
/// the remainder-holding last one reads the same object sizes, so the
/// per-row model runs `O(steps)` times instead of `O(reducers)` — and
/// returns the exact value the repeated fold would, because the reused
/// number *is* that fold's result for identical input bits.
pub fn reduce_tier_times(
    structure: &ReduceStructure,
    platform: &Platform,
    profile: &WorkloadProfile,
    mem_mb: u32,
) -> ReduceTierTimes {
    let secs_per_mb = platform.secs_per_mb(mem_mb, profile.reduce_secs_per_mb_128);
    // Everything a reducer touches is ephemeral data.
    let (get_latency_s, get_bandwidth_mbps) = platform.inter_get_link(mem_mb);
    let get_s = |size_mb: f64| get_latency_s + size_mb / get_bandwidth_mbps;
    let state_get_s = get_s(profile.state_object_mb);
    let (put_latency_s, put_bandwidth_mbps) = platform.inter_put_link(mem_mb);
    let row_time = |objs: &[f64], out: f64| {
        state_get_s
            + objs.iter().map(|&d| get_s(d)).sum::<f64>()
            + objs.iter().sum::<f64>() * secs_per_mb
            + (put_latency_s + out / put_bandwidth_mbps)
    };
    let same_row = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let mut per_reducer = Vec::with_capacity(structure.steps.len());
    let mut per_step_max = Vec::with_capacity(structure.steps.len());
    for step in &structure.steps {
        let mut times: Vec<f64> = Vec::with_capacity(step.assignments.len());
        let mut prev: Option<(&[f64], f64, f64)> = None;
        for (objs, &out) in step.assignments.iter().zip(&step.output_sizes) {
            let t = match prev {
                Some((pobjs, pout, pt))
                    if pout.to_bits() == out.to_bits() && same_row(pobjs, objs) =>
                {
                    pt
                }
                _ => row_time(objs, out),
            };
            prev = Some((objs, out, t));
            times.push(t);
        }
        per_step_max.push(
            times.iter().cloned().fold(0.0, f64::max)
                + structure.per_step_spawn_s[per_reducer.len()],
        );
        per_reducer.push(times);
    }
    ReduceTierTimes {
        per_reducer_s: per_reducer,
        per_step_max_s: per_step_max,
    }
}

/// Coordinator planning time (`c_2` of Eq. 6): proportional to the shuffle
/// volume it organises, scaled by its memory tier.
pub fn coordinator_compute_secs(
    shuffle_mb: f64,
    platform: &Platform,
    profile: &WorkloadProfile,
    mem_mb: u32,
) -> f64 {
    shuffle_mb * platform.secs_per_mb(mem_mb, profile.coord_secs_per_mb_128)
}

/// Time for the coordinator's `P` state-object PUTs (`P·l/B` of Eq. 6),
/// at the coordinator's tier bandwidth.
pub fn coordinator_state_put_secs(
    num_steps: usize,
    platform: &Platform,
    profile: &WorkloadProfile,
    mem_mb: u32,
) -> f64 {
    // Includes the coordinator's own launch (one spawn of one function)
    // so that `T2` covers everything between the mapping and reducing
    // phases.
    platform.spawn_secs(1)
        + num_steps as f64 * platform.inter_put_secs(mem_mb, profile.state_object_mb)
}

/// The reducing phase combined (schedule + lifetimes at one tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReducePhase {
    /// Data-flow structure (tier-free).
    pub structure: ReduceStructure,
    /// Lifetimes at the chosen reducer tier.
    pub times: ReduceTierTimes,
}

impl ReducePhase {
    /// Full duration of step `p` (0-based): its slowest reducer.
    pub fn step_time_s(&self, p: usize) -> f64 {
        self.times.per_step_max_s[p]
    }

    /// `T_P`: total reducing-phase duration across all steps.
    pub fn duration_s(&self) -> f64 {
        self.times.duration_s()
    }

    /// Lifetime of one reducer.
    pub fn reducer_time_s(&self, p: usize, r: usize) -> f64 {
        self.times.per_reducer_s[p][r]
    }
}

/// Complete completion-time breakdown for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfBreakdown {
    /// The mapping phase.
    pub mapper: MapperPhase,
    /// Coordinator planning compute (`c_2`).
    pub coord_compute_s: f64,
    /// Coordinator state-object PUT time (`P·l/B`).
    pub coord_state_put_s: f64,
    /// The reducing phase.
    pub reduce: ReducePhase,
}

impl PerfBreakdown {
    /// `T2`: the coordinator's non-overlapping lifetime (Eq. 6).
    pub fn coordinator_s(&self) -> f64 {
        self.coord_compute_s + self.coord_state_put_s
    }

    /// Job completion time: `T1 + T2 + T_P` (the Eq. 16 objective).
    pub fn jct_s(&self) -> f64 {
        self.mapper.duration_s + self.coordinator_s() + self.reduce.duration_s()
    }

    /// The coordinator's *billed* lifetime: it also stays alive while the
    /// first `P-1` reducer steps run (Eq. 14's `T_{P-1}` term), and pays
    /// the launch latency of the final step before exiting
    /// fire-and-forget.
    pub fn coordinator_billed_s(&self) -> f64 {
        let p = self.reduce.structure.num_steps();
        let waits: f64 = (0..p.saturating_sub(1))
            .map(|q| self.reduce.step_time_s(q))
            .sum();
        let last_spawn = self.reduce.structure.per_step_spawn_s[p - 1];
        self.coordinator_s() + waits + last_spawn
    }
}

/// Evaluate the full performance model for one configuration.
pub fn full_perf(job: &JobSpec, platform: &Platform, config: &JobConfig) -> PerfBreakdown {
    config.validate();
    job.profile.validate();
    let mapper = mapper_phase(
        job,
        platform,
        config.mapper_mem_mb,
        config.objects_per_mapper,
    );
    let structure = reduce_structure(
        &mapper.output_sizes_mb,
        config.objects_per_reducer,
        &job.profile,
        platform,
    );
    let times = reduce_tier_times(&structure, platform, &job.profile, config.reducer_mem_mb);
    let coord_compute_s = coordinator_compute_secs(
        job.shuffle_mb(),
        platform,
        &job.profile,
        config.coordinator_mem_mb,
    );
    let coord_state_put_s = coordinator_state_put_secs(
        structure.num_steps(),
        platform,
        &job.profile,
        config.coordinator_mem_mb,
    );
    PerfBreakdown {
        mapper,
        coord_compute_s,
        coord_state_put_s,
        reduce: ReducePhase { structure, times },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use proptest::prelude::*;

    fn job(n: usize, size: f64) -> JobSpec {
        JobSpec::uniform("t", n, size, WorkloadProfile::uniform_test())
    }

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
    fn mapper_phase_hand_computed() {
        // Pure-bandwidth platform: B = 10 MB/s, u = 1 s/MB at 128 MB.
        let p = Platform::paper_literal(10.0);
        let j = job(4, 5.0); // 4 objects of 5 MB, alpha = 1
        let phase = mapper_phase(&j, &p, 128, 2);
        // 2 mappers, each: input 10 MB, output 10 MB.
        // transfer = (10 + 10)/10 = 2 s; compute = 10 * 1 = 10 s.
        assert_eq!(phase.per_mapper_secs, vec![12.0, 12.0]);
        assert_eq!(phase.duration_s, 12.0);
        assert_eq!(phase.output_sizes_mb, vec![10.0, 10.0]);
    }

    #[test]
    fn bigger_memory_shrinks_compute_only() {
        let p = Platform::paper_literal(10.0);
        let j = job(4, 5.0);
        let slow = mapper_phase(&j, &p, 128, 2);
        let fast = mapper_phase(&j, &p, 256, 2);
        // Compute halves (10 -> 5), transfer unchanged (2).
        assert_eq!(slow.duration_s, 12.0);
        assert_eq!(fast.duration_s, 7.0);
    }

    #[test]
    fn skew_lengthens_the_straggler() {
        let p = Platform::paper_literal(10.0);
        let j = job(10, 1.0);
        let balanced = mapper_phase(&j, &p, 128, 5); // (5,5)
        let skewed = mapper_phase(&j, &p, 128, 9); // (9,1)
        assert!(skewed.duration_s > balanced.duration_s);
    }

    #[test]
    fn reduce_phase_hand_computed() {
        let p = Platform::paper_literal(10.0);
        let prof = WorkloadProfile::uniform_test();
        // 4 mapper outputs of 2 MB each, k_R = 2 -> steps (2, 1).
        let s = reduce_structure(&[2.0; 4], 2, &prof, &p);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.total_reducers(), 3);
        let t = reduce_tier_times(&s, &p, &prof, 128);
        // Step 1 reducer: state get 0.1 + inputs 0.4 + compute 4.0 +
        // put 0.4 = 4.9 s.
        assert!((t.per_step_max_s[0] - 4.9).abs() < 1e-9);
        let phase = ReducePhase {
            structure: s,
            times: t,
        };
        assert!((phase.step_time_s(0) - 4.9).abs() < 1e-9);
        assert!((phase.reducer_time_s(0, 0) - 4.9).abs() < 1e-9);
    }

    #[test]
    fn jct_is_sum_of_phases() {
        let p = Platform::paper_literal(10.0);
        let j = job(10, 0.2);
        let perf = full_perf(&j, &p, &cfg(128, 2, 2));
        let expected = perf.mapper.duration_s + perf.coordinator_s() + perf.reduce.duration_s();
        assert_eq!(perf.jct_s(), expected);
        assert!(perf.jct_s() > 0.0);
    }

    #[test]
    fn coordinator_billed_exceeds_lifetime_when_multiple_steps() {
        let p = Platform::paper_literal(10.0);
        let j = job(10, 0.2);
        // k_R = 2 over 5 mapper outputs -> 3 steps.
        let perf = full_perf(&j, &p, &cfg(128, 2, 2));
        assert_eq!(perf.reduce.structure.num_steps(), 3);
        assert!(perf.coordinator_billed_s() > perf.coordinator_s());
        // Billed = lifetime + steps 1..P-1.
        let waits = perf.reduce.step_time_s(0) + perf.reduce.step_time_s(1);
        assert!((perf.coordinator_billed_s() - perf.coordinator_s() - waits).abs() < 1e-9);
    }

    #[test]
    fn single_step_coordinator_billed_equals_lifetime() {
        let p = Platform::paper_literal(10.0);
        let j = job(4, 1.0);
        let perf = full_perf(&j, &p, &cfg(128, 2, 8));
        assert_eq!(perf.reduce.structure.num_steps(), 1);
        assert_eq!(perf.coordinator_billed_s(), perf.coordinator_s());
    }

    #[test]
    fn request_latency_penalises_many_small_objects() {
        // With per-request latency, k_M = 1 (many mappers, one object each)
        // pays more aggregate latency than k_M = 2, visible in cost/time of
        // the whole reduce chain. Here check mapper phase only at equal
        // per-mapper data: latency adds per GET.
        let mut p = Platform::paper_literal(10.0);
        p.transfer.get_latency_s = 0.5;
        let j = job(8, 1.0);
        let one = mapper_phase(&j, &p, 128, 1); // 1 get each
        let four = mapper_phase(&j, &p, 128, 4); // 4 gets each
                                                 // Slowest mapper with k=4 reads 4 MB (0.4s) + 4*0.5s latency + put
                                                 // 0.4s + compute 4s = 6.8; with k=1: 0.1 + 0.5 + 0.1 + 1 = 1.7.
        assert!(four.duration_s > one.duration_s);
        assert!((one.duration_s - 1.7).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn jct_decreases_with_memory_on_literal_platform(
            n in 2usize..40, k_m in 1usize..10, k_r in 2usize..10
        ) {
            let p = Platform::paper_literal(20.0);
            let j = job(n, 1.0);
            let small = full_perf(&j, &p, &cfg(128, k_m, k_r)).jct_s();
            let big = full_perf(&j, &p, &cfg(3008, k_m, k_r)).jct_s();
            prop_assert!(big <= small + 1e-9);
        }

        #[test]
        fn mapper_count_matches_config(n in 1usize..100, k in 1usize..20) {
            let p = Platform::paper_literal(20.0);
            let j = job(n, 1.0);
            let phase = mapper_phase(&j, &p, 128, k);
            prop_assert_eq!(phase.per_mapper_secs.len(), n.div_ceil(k));
        }
    }
}
