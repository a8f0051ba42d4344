//! Order-preserving parallel execution of independent simulator runs.
//!
//! Every evaluation number in this repository comes from Monte-Carlo
//! sweeps over `(roots, config, seed)` combinations, and each run is an
//! isolated [`FaasSim`] with its own seeded RNG — so a batch of runs is
//! embarrassingly parallel *and* bit-deterministic: fanning it over
//! threads changes wall-clock only, never a single report bit. The
//! order-preserving collection below is what turns that property into an
//! API guarantee: `SimBatch::run()` returns results in push order, and
//! each result is byte-identical to what a serial `for` loop over the
//! same runs would produce at any `RAYON_NUM_THREADS`.

use rayon::prelude::*;

use crate::engine::{FaasSim, SimConfig, SimError};
use crate::ops::LambdaSpec;
use crate::report::SimReport;

/// One simulator run: a config plus the root invocations and
/// pre-existing input objects.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Engine parameters (platform, noise CV, seed, …).
    pub config: SimConfig,
    /// Root invocations submitted at t = 0.
    pub roots: Vec<LambdaSpec>,
    /// `(key, size_mb)` objects pre-existing in the persistent store.
    pub inputs: Vec<(String, f64)>,
}

/// A set of independent simulator runs executed across all cores.
///
/// ```
/// # use astra_faas::{SimBatch, SimConfig, LambdaSpec, Op};
/// # use astra_model::Platform;
/// let mut batch = SimBatch::new();
/// for seed in 0..4 {
///     let config = SimConfig::deterministic(Platform::aws_lambda()).with_noise(0.1, seed);
///     let roots = vec![LambdaSpec::new("f", 128, vec![Op::Compute { secs_at_128: 1.0 }])];
///     batch.push(config, roots, Vec::new());
/// }
/// let reports = batch.run();
/// assert_eq!(reports.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct SimBatch {
    runs: Vec<BatchRun>,
}

impl SimBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `cap` runs.
    pub fn with_capacity(cap: usize) -> Self {
        SimBatch {
            runs: Vec::with_capacity(cap),
        }
    }

    /// Append one run; returns its index in the results vector.
    pub fn push(
        &mut self,
        config: SimConfig,
        roots: Vec<LambdaSpec>,
        inputs: Vec<(String, f64)>,
    ) -> usize {
        self.runs.push(BatchRun {
            config,
            roots,
            inputs,
        });
        self.runs.len() - 1
    }

    /// Number of runs queued.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are queued.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Execute every run in parallel; results come back in push order and
    /// are bit-identical to a serial loop at any thread count.
    ///
    /// Cases fan out with a one-case minimum chunk (each simulator run
    /// dwarfs a thread hand-off), enumerated by the iterator adapter
    /// rather than a hand-rolled `(index, run)` collect — under real
    /// rayon the pairing never materializes at all.
    pub fn run(self) -> Vec<Result<SimReport, SimError>> {
        self.runs
            .into_par_iter()
            .enumerate()
            .with_min_len(1)
            .map(|(index, r)| run_case(index, r))
            .collect()
    }

    /// Every run on the calling thread, in push order: the reference the
    /// parallel `run()` is tested against, and the service daemon's path
    /// for a job's replications (a job runs on one worker thread, so its
    /// runs reuse that thread's parked simulator arena).
    pub fn run_serial(self) -> Vec<Result<SimReport, SimError>> {
        self.runs
            .into_iter()
            .enumerate()
            .map(|(index, r)| run_case(index, r))
            .collect()
    }
}

/// Execute one batch case, wrapped (when telemetry is enabled) in a
/// wall-clock span whose track names the executing worker thread — the
/// Chrome trace then shows how the sweep was scheduled across cores.
/// Thread attribution is wall-clock metadata only; the report itself is
/// a pure function of the run (the determinism tests enforce this).
fn run_case(index: usize, r: BatchRun) -> Result<SimReport, SimError> {
    let tel = r.config.telemetry.clone();
    let _span = if tel.enabled() {
        let track = format!("sweep-worker-{:?}", std::thread::current().id());
        Some(tel.wall_span(track, format!("case-{index}"), "batch_case"))
    } else {
        None
    };
    let result = FaasSim::new(r.config, &r.inputs).run(r.roots);
    if tel.enabled() {
        tel.counter("batch.cases", 1);
        if result.is_err() {
            tel.counter("batch.failed_cases", 1);
        }
    }
    result
}

/// Derive the seed for replication `index` of a sweep keyed by `base`.
///
/// SplitMix64 finalization over `base ⊕ golden-ratio·index`: replications
/// get well-separated `StdRng` streams (no overlapping low-entropy seeds
/// like `base`, `base+1`, …), and the derivation is a pure function of
/// `(base, index)` — independent of which thread executes the run, which
/// is the other half of the parallel-sweep determinism guarantee (see
/// DESIGN.md, "Seed derivation for parallel replications").
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use astra_model::Platform;

    fn one_run(seed: u64) -> BatchRun {
        let mut platform = Platform::paper_literal(10.0);
        platform.cold_start_s = 0.0;
        BatchRun {
            config: SimConfig::deterministic(platform).with_noise(0.2, seed),
            roots: vec![LambdaSpec::new(
                format!("f{seed}"),
                128,
                vec![
                    Op::Compute { secs_at_128: 1.0 },
                    Op::Put {
                        key: "out".into(),
                        size_mb: 1.0,
                        store: crate::StoreKind::Persistent,
                    },
                ],
            )],
            inputs: Vec::new(),
        }
    }

    #[test]
    fn parallel_batch_matches_serial_loop() {
        let runs: Vec<BatchRun> = (0..8).map(one_run).collect();
        let mut parallel = SimBatch::new();
        let mut serial = SimBatch::new();
        for r in &runs {
            parallel.push(r.config.clone(), r.roots.clone(), r.inputs.clone());
            serial.push(r.config.clone(), r.roots.clone(), r.inputs.clone());
        }
        let par = parallel.run();
        let ser = serial.run_serial();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.makespan, s.makespan);
            assert_eq!(p.total_cost(), s.total_cost());
            assert_eq!(p.invoices, s.invoices);
            assert_eq!(p.events, s.events);
        }
    }

    #[test]
    fn results_come_back_in_push_order() {
        let mut batch = SimBatch::with_capacity(6);
        for seed in 0..6u64 {
            batch.push(
                one_run(seed).config,
                vec![LambdaSpec::new(
                    format!("f{seed}"),
                    128,
                    vec![Op::Compute { secs_at_128: 1.0 }],
                )],
                Vec::new(),
            );
        }
        let reports = batch.run();
        for (i, r) in reports.iter().enumerate() {
            let r = r.as_ref().unwrap();
            assert!(
                r.invoice(&format!("f{i}")).is_some(),
                "run {i} out of order"
            );
        }
    }

    #[test]
    fn errors_stay_at_their_index() {
        let mut batch = SimBatch::new();
        batch.push(one_run(0).config, one_run(0).roots, Vec::new());
        // Invalid memory tier: fails fast, result must stay at index 1.
        batch.push(
            one_run(0).config,
            vec![LambdaSpec::new("bad", 100, vec![])],
            Vec::new(),
        );
        let reports = batch.run();
        assert!(reports[0].is_ok());
        assert!(matches!(
            reports[1],
            Err(SimError::InvalidMemory { memory_mb: 100, .. })
        ));
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 11, u64::MAX] {
            for i in 0..100 {
                assert!(seen.insert(derive_seed(base, i)), "collision at {base}/{i}");
                assert_eq!(derive_seed(base, i), derive_seed(base, i), "stability");
            }
        }
    }
}
