//! The coordinator's reducer-step schedule — paper Table II.

use serde::{Deserialize, Serialize};

use crate::distribute::distribute_sizes;

/// One step of the reducing phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReduceStep {
    /// 1-based step index (`p`).
    pub step: usize,
    /// Per-reducer input object sizes (MB): `assignments[r]` lists the
    /// objects reducer `r` of this step reads.
    pub assignments: Vec<Vec<f64>>,
    /// Per-reducer output size (MB): `reduce_ratio ×` its input total.
    pub output_sizes: Vec<f64>,
}

impl ReduceStep {
    /// Number of reducers launched in this step (`g_p`).
    pub fn reducers(&self) -> usize {
        self.assignments.len()
    }

    /// Number of input objects consumed (`g_{p-1}`, or `j` for step 1).
    pub fn input_objects(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Total input size in MB (`q_{p-1}`).
    pub fn input_mb(&self) -> f64 {
        self.assignments.iter().flatten().sum()
    }

    /// Total output size in MB (`q_p`).
    pub fn output_mb(&self) -> f64 {
        self.output_sizes.iter().sum()
    }
}

/// Compute the full reducing-phase schedule (Table II): starting from the
/// mapper output objects, launch `g_p = ceil(n_p / k_R)` reducers per step
/// until a single reducer produces the final result.
///
/// Per-object sizes are tracked exactly — under mapper skew the first
/// reducers receive larger objects, which is what makes large-`k` configs
/// slow in Fig. 1.
///
/// Convention for `k_R = 1`: a reduce step must combine at least two
/// objects to make progress (`ceil(n/1) = n` would never terminate), so an
/// effective `k_R` of 2 is used. The paper's Table I tabulates `k = 1`
/// without comment; this is the only terminating reading consistent with
/// its Fig. 1 trend (maximum steps, slowest completion at `k = 1`).
pub fn reduce_schedule(mapper_outputs: &[f64], k_r: usize, reduce_ratio: f64) -> Vec<ReduceStep> {
    schedule_steps(mapper_outputs, k_r, reduce_ratio, false)
}

/// Like [`reduce_schedule`], with a `single_pass` mode: reduce every
/// object exactly once and stop, leaving `ceil(j / k_R)` output objects.
/// This is how the paper's Sort benchmark finishes (Table III reports 7
/// reducers in 1 step for 50 mapper outputs at `k_R = 8`) — a
/// range-partitioned sort needs no final merge to one object.
pub fn schedule_steps(
    mapper_outputs: &[f64],
    k_r: usize,
    reduce_ratio: f64,
    single_pass: bool,
) -> Vec<ReduceStep> {
    assert!(!mapper_outputs.is_empty(), "no mapper outputs to reduce");
    assert!(k_r >= 1, "k_R must be at least 1");
    assert!(reduce_ratio > 0.0, "reduce ratio must be positive");
    let k_eff = k_r.max(2);

    let mut steps = Vec::new();
    let mut inputs: Vec<f64> = mapper_outputs.to_vec();
    loop {
        let assignments = distribute_sizes(&inputs, k_eff);
        let output_sizes: Vec<f64> = assignments
            .iter()
            .map(|objs| objs.iter().sum::<f64>() * reduce_ratio)
            .collect();
        let done = single_pass || assignments.len() == 1;
        steps.push(ReduceStep {
            step: steps.len() + 1,
            assignments,
            output_sizes: output_sizes.clone(),
        });
        if done {
            return steps;
        }
        inputs = output_sizes;
    }
}

/// Build a reducing-phase schedule from an explicit per-step reducer count
/// (instead of deriving it from `k_R`). Objects are split as evenly as
/// possible within each step. Used by hand-specified configurations such
/// as Baseline 3 in the paper's evaluation ("1536 MB to three reducer
/// lambdas in two steps, the two reducers in the first step each process
/// half of the total objects").
///
/// Panics unless each step's reducer count is at most its input object
/// count and the final step has exactly one reducer.
pub fn explicit_schedule(
    mapper_outputs: &[f64],
    reducers_per_step: &[usize],
    reduce_ratio: f64,
) -> Vec<ReduceStep> {
    assert!(!mapper_outputs.is_empty(), "no mapper outputs to reduce");
    assert!(
        !reducers_per_step.is_empty(),
        "need at least one reduce step"
    );
    assert_eq!(
        *reducers_per_step.last().unwrap(),
        1,
        "final step must have exactly one reducer"
    );
    let mut steps = Vec::with_capacity(reducers_per_step.len());
    let mut inputs: Vec<f64> = mapper_outputs.to_vec();
    for (idx, &g) in reducers_per_step.iter().enumerate() {
        assert!(
            g >= 1 && g <= inputs.len(),
            "step {} wants {g} reducers for {} objects",
            idx + 1,
            inputs.len()
        );
        let assignments = crate::distribute::distribute_sizes_even(&inputs, g);
        let output_sizes: Vec<f64> = assignments
            .iter()
            .map(|objs| objs.iter().sum::<f64>() * reduce_ratio)
            .collect();
        steps.push(ReduceStep {
            step: idx + 1,
            assignments,
            output_sizes: output_sizes.clone(),
        });
        inputs = output_sizes;
    }
    steps
}

/// Total number of reducers across all steps (`g = Σ g_p`).
pub fn total_reducers(steps: &[ReduceStep]) -> usize {
    steps.iter().map(ReduceStep::reducers).sum()
}

/// Total reducing-phase input volume (`Q = Σ_{p=0}^{P-1} q_p`, Eq. 9's
/// read volume).
pub fn total_input_mb(steps: &[ReduceStep]) -> f64 {
    steps.iter().map(ReduceStep::input_mb).sum()
}

/// Total reducing-phase output volume (`R = Σ_{p=1}^{P} q_p`).
pub fn total_output_mb(steps: &[ReduceStep]) -> f64 {
    steps.iter().map(ReduceStep::output_mb).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// Paper Table I: step structure for 10 input objects as `k` varies.
    #[test]
    fn table_one_step_structure() {
        // k = 2: 5 mapper outputs -> 3, 2, 1 reducers.
        let s = reduce_schedule(&uniform(5), 2, 1.0);
        assert_eq!(
            s.iter().map(ReduceStep::reducers).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        // k = 3: 4 outputs -> 2, 1.
        let s = reduce_schedule(&uniform(4), 3, 1.0);
        assert_eq!(
            s.iter().map(ReduceStep::reducers).collect::<Vec<_>>(),
            vec![2, 1]
        );
        // k = 4: 3 outputs -> 1.
        let s = reduce_schedule(&uniform(3), 4, 1.0);
        assert_eq!(
            s.iter().map(ReduceStep::reducers).collect::<Vec<_>>(),
            vec![1]
        );
        // k = 5: 2 outputs -> 1.
        let s = reduce_schedule(&uniform(2), 5, 1.0);
        assert_eq!(
            s.iter().map(ReduceStep::reducers).collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn k_one_uses_effective_two() {
        // 10 mapper outputs, k_R = 1 -> 5, 3, 2, 1 (the most steps).
        let s = reduce_schedule(&uniform(10), 1, 1.0);
        assert_eq!(
            s.iter().map(ReduceStep::reducers).collect::<Vec<_>>(),
            vec![5, 3, 2, 1]
        );
    }

    #[test]
    fn single_mapper_output_still_reduces_once() {
        let s = reduce_schedule(&[4.0], 8, 0.5);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].reducers(), 1);
        assert_eq!(s[0].output_mb(), 2.0);
    }

    #[test]
    fn volumes_shrink_by_reduce_ratio() {
        let s = reduce_schedule(&uniform(8), 2, 0.5);
        // Step 1 reads 8 MB, writes 4 MB; step 2 reads 4, writes 2; ...
        assert_eq!(s[0].input_mb(), 8.0);
        assert_eq!(s[0].output_mb(), 4.0);
        assert_eq!(s[1].input_mb(), 4.0);
        assert_eq!(s[1].output_mb(), 2.0);
    }

    #[test]
    fn skewed_sizes_flow_to_first_reducer() {
        // Mapper skew: outputs (9, 1). One step with k_R = 2.
        let s = reduce_schedule(&[9.0, 1.0], 2, 1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].assignments, vec![vec![9.0, 1.0]]);
    }

    #[test]
    fn totals_match_paper_symbols() {
        let s = reduce_schedule(&uniform(5), 2, 1.0);
        // g = 3 + 2 + 1
        assert_eq!(total_reducers(&s), 6);
        // Q = q0 + q1 + q2 = 5 + 3... with ratio 1.0 all volumes stay 5.
        assert_eq!(total_input_mb(&s), 15.0);
        assert_eq!(total_output_mb(&s), 15.0);
    }

    #[test]
    fn explicit_schedule_baseline3_shape() {
        // 10 mapper outputs, steps (2, 1): the Baseline 3 layout.
        let s = explicit_schedule(&uniform(10), &[2, 1], 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].reducers(), 2);
        // "each process half of the total objects"
        assert_eq!(s[0].assignments[0].len(), 5);
        assert_eq!(s[0].assignments[1].len(), 5);
        assert_eq!(s[1].reducers(), 1);
        assert_eq!(s[1].input_objects(), 2);
    }

    #[test]
    #[should_panic(expected = "final step must have exactly one reducer")]
    fn explicit_schedule_must_end_with_one() {
        explicit_schedule(&uniform(4), &[2, 2], 1.0);
    }

    #[test]
    #[should_panic(expected = "wants 5 reducers")]
    fn explicit_schedule_rejects_too_many_reducers() {
        explicit_schedule(&uniform(4), &[5, 1], 1.0);
    }

    proptest! {
        #[test]
        fn terminates_with_single_final_reducer(n in 1usize..300, k in 1usize..40, ratio in 0.1f64..1.0) {
            let s = reduce_schedule(&uniform(n), k, ratio);
            prop_assert_eq!(s.last().unwrap().reducers(), 1);
            // Reducer counts strictly decrease step over step.
            for w in s.windows(2) {
                prop_assert!(w[1].reducers() < w[0].reducers());
            }
            // Each step consumes exactly the previous step's outputs.
            for w in s.windows(2) {
                prop_assert_eq!(w[1].input_objects(), w[0].reducers());
                prop_assert!((w[1].input_mb() - w[0].output_mb()).abs() < 1e-9);
            }
            // First step consumes all mapper outputs.
            prop_assert_eq!(s[0].input_objects(), n);
        }

        #[test]
        fn step_count_is_logarithmic(n in 2usize..1000, k in 2usize..20) {
            let s = reduce_schedule(&uniform(n), k, 1.0);
            let bound = (n as f64).log(k as f64).ceil() as usize + 1;
            prop_assert!(s.len() <= bound, "steps {} bound {bound}", s.len());
        }
    }
}
