//! Derive a [`WorkloadProfile`] by measuring a real application.
//!
//! The paper's Performance/Cost Predictors rely on per-workload
//! coefficients (`u_i`, the shuffle proportionality, the per-step
//! reduction ratio) that its authors obtained by profiling the real jobs
//! on AWS. This module does the same against the byte-level runtime:
//! generate sample data, time `map` and `reduce` on this host, measure
//! the actual data-size ratios, and normalise host time to the 128 MB
//! lambda tier through a calibration constant.
//!
//! The *ratios* (shuffle, reduce) are exact — they are measured from real
//! output sizes. The *time* coefficients inherit the host↔lambda
//! calibration factor, exactly as any real profiler's would.

use std::time::Instant;

use astra_mapreduce::MapReduceApp;
use astra_model::WorkloadProfile;
use bytes::Bytes;

/// How to translate host measurements into model coefficients.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Host-seconds-per-MB × this factor = 128 MB-lambda-seconds-per-MB.
    /// A modern host core is roughly as fast as the lambda vCPU ceiling
    /// (14 × the 128 MB tier), so ~14 is a reasonable default; measure
    /// once per host for accuracy.
    pub host_to_128_factor: f64,
    /// Number of timing repetitions (median taken).
    pub repetitions: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            host_to_128_factor: 14.0,
            repetitions: 3,
        }
    }
}

/// Measured characteristics of an app on sample data.
#[derive(Debug, Clone)]
pub struct ProfileMeasurement {
    /// Host seconds per MB of `map` input.
    pub map_host_secs_per_mb: f64,
    /// Host seconds per MB of `reduce` input.
    pub reduce_host_secs_per_mb: f64,
    /// Measured mapper output / input ratio.
    pub shuffle_ratio: f64,
    /// Measured reduce output / input ratio.
    pub reduce_ratio: f64,
}

impl ProfileMeasurement {
    /// Convert to a model profile under `config`'s calibration.
    pub fn into_profile(self, name: impl Into<String>, config: &ProfilerConfig) -> WorkloadProfile {
        WorkloadProfile {
            name: name.into(),
            map_secs_per_mb_128: self.map_host_secs_per_mb * config.host_to_128_factor,
            reduce_secs_per_mb_128: self.reduce_host_secs_per_mb * config.host_to_128_factor,
            coord_secs_per_mb_128: 0.002,
            // Ratios are clamped to the model's valid ranges: an expanding
            // reduce (ratio > 1) is folded to 1.0 with the expansion noted
            // in the shuffle ratio instead.
            shuffle_ratio: self.shuffle_ratio.max(1e-6),
            reduce_ratio: self.reduce_ratio.clamp(1e-6, 1.0),
            state_object_mb: 1.0,
            single_pass_reduce: false,
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Profile `app` on `samples` (each one mapper's input bytes).
///
/// Panics if `samples` is empty or all-empty.
pub fn profile_app(
    app: &dyn MapReduceApp,
    samples: &[Vec<u8>],
    config: &ProfilerConfig,
) -> ProfileMeasurement {
    assert!(!samples.is_empty(), "need at least one sample");
    let total_in: usize = samples.iter().map(Vec::len).sum();
    assert!(total_in > 0, "samples must contain data");
    let mb_in = total_in as f64 / (1024.0 * 1024.0);

    // Map timing + outputs.
    let mut map_times = Vec::with_capacity(config.repetitions);
    let mut outputs: Vec<Bytes> = Vec::new();
    for rep in 0..config.repetitions.max(1) {
        let t0 = Instant::now();
        let out: Vec<Vec<u8>> = samples.iter().map(|s| app.map(s)).collect();
        map_times.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            outputs = out.into_iter().map(Bytes::from).collect();
        }
    }
    let shuffle_bytes: usize = outputs.iter().map(Bytes::len).sum();
    let mb_shuffle = shuffle_bytes as f64 / (1024.0 * 1024.0);

    // Reduce timing + output.
    let mut reduce_times = Vec::with_capacity(config.repetitions);
    let mut reduced_len = 0usize;
    for rep in 0..config.repetitions.max(1) {
        let t0 = Instant::now();
        let merged = app.reduce(&outputs);
        reduce_times.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            reduced_len = merged.len();
        }
    }

    ProfileMeasurement {
        map_host_secs_per_mb: median(map_times) / mb_in,
        reduce_host_secs_per_mb: if mb_shuffle > 0.0 {
            median(reduce_times) / mb_shuffle
        } else {
            0.0
        },
        shuffle_ratio: mb_shuffle / mb_in,
        reduce_ratio: if shuffle_bytes > 0 {
            reduced_len as f64 / shuffle_bytes as f64
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{QueryApp, SortApp, WordCountApp};
    use crate::datagen;

    fn wc_samples() -> Vec<Vec<u8>> {
        (0..4)
            .map(|i| datagen::zipf_text(i, 200_000, 2_000))
            .collect()
    }

    #[test]
    fn wordcount_profile_shrinks_data() {
        let m = profile_app(&WordCountApp, &wc_samples(), &ProfilerConfig::default());
        // Counting tables are much smaller than the text.
        assert!(m.shuffle_ratio < 0.5, "shuffle {}", m.shuffle_ratio);
        // Merging four tables dedups words across them.
        assert!(m.reduce_ratio < 1.01, "reduce {}", m.reduce_ratio);
        assert!(m.map_host_secs_per_mb > 0.0);
    }

    #[test]
    fn sort_profile_preserves_volume() {
        let samples: Vec<Vec<u8>> = (0..3).map(|i| datagen::sort_records(i, 2_000)).collect();
        let m = profile_app(&SortApp::default(), &samples, &ProfilerConfig::default());
        assert!(
            (m.shuffle_ratio - 1.0).abs() < 1e-9,
            "sort moves every byte"
        );
        assert!(
            (m.reduce_ratio - 1.0).abs() < 1e-9,
            "merging preserves records"
        );
    }

    #[test]
    fn query_profile_aggregates_heavily() {
        let samples: Vec<Vec<u8>> = (0..3).map(|i| datagen::uservisits(i, 300_000)).collect();
        let m = profile_app(&QueryApp, &samples, &ProfilerConfig::default());
        assert!(
            m.shuffle_ratio < 0.6,
            "aggregates are small: {}",
            m.shuffle_ratio
        );
    }

    #[test]
    fn measurement_converts_to_a_valid_profile() {
        let m = profile_app(&WordCountApp, &wc_samples(), &ProfilerConfig::default());
        let profile = m.into_profile("measured-wordcount", &ProfilerConfig::default());
        profile.validate();
        assert_eq!(profile.name, "measured-wordcount");
        assert!(profile.map_secs_per_mb_128 > 0.0);
    }

    #[test]
    fn measured_profile_plans_end_to_end() {
        // The full loop the paper implies: profile a real app, feed the
        // profile to the planner, get a plan.
        use astra_core::{Astra, Objective};
        use astra_model::JobSpec;
        let m = profile_app(&WordCountApp, &wc_samples(), &ProfilerConfig::default());
        let profile = m.into_profile("measured", &ProfilerConfig::default());
        let job = JobSpec::uniform("measured-job", 20, 51.2, profile);
        let plan = Astra::with_defaults()
            .plan(&job, Objective::fastest())
            .expect("measured profiles are plannable");
        assert!(plan.mappers() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        profile_app(&WordCountApp, &[], &ProfilerConfig::default());
    }
}
