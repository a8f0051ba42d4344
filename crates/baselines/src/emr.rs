//! The VM-based comparison system of Fig. 9: Amazon EMR with three
//! `m3.xlarge` on-demand instances and 100 concurrent map tasks.
//!
//! A deliberately coarse but structurally faithful Hadoop model: map
//! tasks are scheduled in waves over the cluster's cores, input is pulled
//! from S3 through the cluster NICs, the shuffle crosses the local
//! network, and the bill is VM-hours — coarse-grained and payable whether
//! or not every core is busy. Those two structural facts (wave scheduling
//! + coarse billing) are what Fig. 9 exercises.

use astra_model::JobSpec;
use astra_pricing::{Money, VmPricing, M3_XLARGE};
use serde::{Deserialize, Serialize};

/// Cluster description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmrCluster {
    /// Number of VM instances (paper: 3).
    pub instances: u32,
    /// vCPUs per instance (`m3.xlarge`: 4).
    pub vcpus_per_instance: u32,
    /// Configured concurrent map tasks (paper: 100). Tasks beyond the
    /// core count time-share; throughput stays core-bound.
    pub map_slots: u32,
    /// One vCPU's speed relative to an ideal 128 MB lambda. A bare vCPU
    /// equals the lambda CPU ceiling (1792/128 = 14), but Hadoop-era EMR
    /// pays JVM + Hadoop-streaming overheads per record, halving the
    /// effective analytics throughput (the calibration DESIGN.md
    /// documents).
    pub vcpu_speed_vs_128: f64,
    /// Aggregate cluster↔S3 / intra-cluster bandwidth in MB/s
    /// (`m3.xlarge` "high" networking ≈ 1 Gb/s per instance).
    pub cluster_net_mbps: f64,
    /// Fixed per-job framework overhead in seconds (JVM spin-up, job
    /// setup, scheduling).
    pub job_overhead_s: f64,
    /// Per-task scheduling overhead in seconds.
    pub task_overhead_s: f64,
    /// Instance pricing.
    pub pricing: VmPricing,
}

impl EmrCluster {
    /// The paper's Fig. 9 cluster.
    pub fn paper_setup() -> Self {
        EmrCluster {
            instances: 3,
            vcpus_per_instance: 4,
            map_slots: 100,
            vcpu_speed_vs_128: 7.0,
            cluster_net_mbps: 3.0 * 125.0,
            job_overhead_s: 25.0,
            task_overhead_s: 2.0,
            pricing: M3_XLARGE,
        }
    }

    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.instances * self.vcpus_per_instance
    }

    /// Run `job` on the cluster model.
    pub fn run(&self, job: &JobSpec) -> EmrReport {
        let cores = self.cores() as f64;
        let profile = &job.profile;
        let d = job.total_mb();
        let s = job.shuffle_mb();

        // Map phase: compute-bound core time vs S3-ingest-bound time.
        let map_tasks = job.num_objects() as f64;
        let map_work_core_s = d * profile.map_secs_per_mb_128 / self.vcpu_speed_vs_128;
        let effective_parallel = cores.min(self.map_slots as f64).min(map_tasks);
        let waves = (map_tasks / self.map_slots as f64).ceil();
        let map_compute_s = map_work_core_s / effective_parallel + waves * self.task_overhead_s;
        let map_ingest_s = d / self.cluster_net_mbps;
        let map_s = map_compute_s.max(map_ingest_s);

        // Shuffle: mapper output crosses the local network once.
        let shuffle_s = s / self.cluster_net_mbps;

        // Reduce: merge work over the cores, then write the output.
        // Multi-step funnelling is unnecessary on a cluster — reducers
        // hold state in memory — so one logical reduce over S = alpha*D.
        let reduce_work_core_s = s * profile.reduce_secs_per_mb_128 / self.vcpu_speed_vs_128;
        let reduce_s =
            reduce_work_core_s / cores + s * profile.reduce_ratio / self.cluster_net_mbps;

        let jct_s = self.job_overhead_s + map_s + shuffle_s + reduce_s;
        let cost = self
            .pricing
            .cluster_cost(self.instances, (jct_s * 1e6).round() as u64);
        EmrReport {
            jct_s,
            map_s,
            shuffle_s,
            reduce_s,
            cost,
        }
    }
}

/// Result of one EMR run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmrReport {
    /// Job completion time in seconds (including framework overhead).
    pub jct_s: f64,
    /// Map phase seconds.
    pub map_s: f64,
    /// Shuffle seconds.
    pub shuffle_s: f64,
    /// Reduce phase seconds.
    pub reduce_s: f64,
    /// Cluster bill for the job duration.
    pub cost: Money,
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn wc_like(n: usize, size_mb: f64) -> JobSpec {
        let profile = WorkloadProfile {
            name: "wc".into(),
            map_secs_per_mb_128: 0.9,
            reduce_secs_per_mb_128: 0.6,
            coord_secs_per_mb_128: 0.002,
            shuffle_ratio: 0.05,
            reduce_ratio: 0.6,
            state_object_mb: 1.0,
            single_pass_reduce: false,
        };
        JobSpec::uniform("wc", n, size_mb, profile)
    }

    #[test]
    fn paper_setup_has_twelve_cores() {
        let c = EmrCluster::paper_setup();
        assert_eq!(c.cores(), 12);
        assert_eq!(c.instances, 3);
        assert_eq!(c.map_slots, 100);
    }

    #[test]
    fn wordcount_20gb_is_compute_bound() {
        let c = EmrCluster::paper_setup();
        let report = c.run(&wc_like(40, 512.0));
        // 20480 MB * 0.9 / 7 = 2633 core-s over 12 cores ≈ 219 s,
        // vs ingest 20480/375 ≈ 55 s: compute wins.
        assert!(report.map_s > 200.0 && report.map_s < 240.0, "{report:?}");
        assert!(report.jct_s > report.map_s);
    }

    #[test]
    fn sort_like_is_network_bound() {
        let profile = WorkloadProfile {
            name: "sort".into(),
            map_secs_per_mb_128: 0.2,
            reduce_secs_per_mb_128: 0.2,
            coord_secs_per_mb_128: 0.001,
            shuffle_ratio: 1.0,
            reduce_ratio: 1.0,
            state_object_mb: 1.0,
            single_pass_reduce: true,
        };
        let job = JobSpec::uniform("sort", 200, 500.0, profile);
        let c = EmrCluster::paper_setup();
        let report = c.run(&job);
        // Ingest bound: 100000 MB / 375 MB/s ≈ 267 s > compute ≈ 242 s.
        assert!((report.map_s - 266.7).abs() < 5.0, "{report:?}");
        assert!(report.shuffle_s > 200.0);
    }

    #[test]
    fn cost_scales_with_duration() {
        let c = EmrCluster::paper_setup();
        let small = c.run(&wc_like(4, 100.0));
        let large = c.run(&wc_like(40, 512.0));
        assert!(large.jct_s > small.jct_s);
        assert!(large.cost > small.cost);
    }

    #[test]
    fn billing_uses_vm_rates() {
        let c = EmrCluster::paper_setup();
        let report = c.run(&wc_like(10, 100.0));
        let expected = M3_XLARGE.cluster_cost(3, (report.jct_s * 1e6).round() as u64);
        assert_eq!(report.cost, expected);
    }
}
