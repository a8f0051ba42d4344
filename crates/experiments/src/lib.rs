#![warn(missing_docs)]

//! The experiment harness: one module (and one binary) per table/figure
//! of the paper's evaluation, plus ablations.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table I (orchestration for 10 objects) | [`exp_table1`] | `exp_table1` |
//! | Fig. 1 + Fig. 2 (JCT & cost vs objects/λ × memory) | [`exp_fig1_fig2`] | `exp_fig1_fig2` |
//! | Fig. 3 (job timelines, two configs) | [`exp_fig3`] | `exp_fig3` |
//! | Fig. 6 (JCT / mapper time / cost vs memory) | [`exp_fig6`] | `exp_fig6` |
//! | Fig. 7 + Table III (budget-constrained perf vs baselines) | [`exp_fig7_table3`] | `exp_fig7_table3` |
//! | Fig. 8 (QoS-constrained cost vs baselines) | [`exp_fig8`] | `exp_fig8` |
//! | Fig. 9 (Astra vs EMR) | [`exp_fig9`] | `exp_fig9` |
//! | Discussion ¶ (vs VM Spark, ≥92 % cheaper) | [`exp_spark`] | `exp_spark` |
//! | Discussion ¶ (solver overhead) + Algorithm 1 | [`exp_solvers`] | `exp_solvers` |
//! | Model accuracy (predictor vs simulator) | [`exp_model_accuracy`] | `exp_model_accuracy` |
//! | Discussion ¶ (alternative intermediate storage) | [`exp_ephemeral`] | `exp_ephemeral` |
//! | Discussion ¶ (other providers: GCF, Azure) | [`exp_multicloud`] | `exp_multicloud` |
//! | Noise/failure robustness ablation | [`exp_noise`] | `exp_noise` |
//! | Input-skew + LPT assignment extension | [`exp_skew`] | `exp_skew` |
//! | Warm-container reuse ablation | [`exp_warm`] | `exp_warm` |
//! | Service daemon bit-identity + throughput | [`exp_service`] | `exp_service` |
//!
//! `cargo run --release -p astra-experiments --bin run_all` regenerates
//! everything into `results/` (ASCII tables on stdout and per-experiment
//! `.txt`/`.json` files); EXPERIMENTS.md quotes those outputs.

pub mod exp_ephemeral;
pub mod exp_fig1_fig2;
pub mod exp_fig3;
pub mod exp_fig6;
pub mod exp_fig7_table3;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_model_accuracy;
pub mod exp_multicloud;
pub mod exp_noise;
pub mod exp_service;
pub mod exp_skew;
pub mod exp_solvers;
pub mod exp_spark;
pub mod exp_table1;
pub mod exp_warm;
pub mod harness;
pub mod output;

pub use output::Output;

/// Pin the rayon thread pool from a `--threads N` command-line flag.
///
/// Every experiment binary calls this before running, so the sweep
/// fan-out can be pinned (e.g. `--threads 1` to reproduce the serial
/// path, or a fixed count for comparable timings) without exporting
/// `RAYON_NUM_THREADS`. Without the flag the pool uses all cores.
pub fn init_threads() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--threads") {
        let n: usize = argv
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            });
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
}

/// Finalizes telemetry capture when an experiment binary exits.
///
/// Returned by [`init`]; on drop it stops the process-global recorder,
/// prints the counter/gauge summary to stderr (`--metrics`), and writes
/// the Chrome trace (`--trace-out <path>`). Holding it for the whole of
/// `main` means every planner/simulator call in between is captured.
pub struct TelemetryGuard {
    recorder: Option<std::sync::Arc<astra_telemetry::sinks::ChromeTraceRecorder>>,
    trace_out: Option<String>,
    metrics: bool,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let Some(rec) = self.recorder.take() else {
            return;
        };
        astra_telemetry::install_global(astra_telemetry::Telemetry::disabled());
        if self.metrics {
            eprintln!("-- telemetry --");
            for line in rec.inner().summary_lines() {
                eprintln!("{line}");
            }
        }
        if let Some(path) = &self.trace_out {
            match rec.write_to(path) {
                Ok(()) => {
                    eprintln!("trace written to {path} (open in chrome://tracing or Perfetto)")
                }
                Err(e) => eprintln!("failed to write trace to {path}: {e}"),
            }
        }
    }
}

/// Initialize an experiment binary: pin threads ([`init_threads`]) and,
/// when `--trace-out <path>` or `--metrics` is on the command line,
/// install a process-global Chrome-trace recorder that the planner and
/// simulator pick up at construction time. Telemetry is observational:
/// the experiment's tables and JSON are bit-identical with it on or off.
///
/// Bind the result for the duration of `main`:
/// `let _telemetry = astra_experiments::init();`
pub fn init() -> TelemetryGuard {
    init_threads();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = argv.iter().position(|a| a == "--trace-out").map(|i| {
        argv.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace-out needs a path");
            std::process::exit(2);
        })
    });
    let metrics = argv.iter().any(|a| a == "--metrics");
    let recorder = if trace_out.is_some() || metrics {
        let rec = std::sync::Arc::new(astra_telemetry::sinks::ChromeTraceRecorder::new());
        astra_telemetry::install_global(astra_telemetry::Telemetry::new(rec.clone()));
        Some(rec)
    } else {
        None
    };
    TelemetryGuard {
        recorder,
        trace_out,
        metrics,
    }
}
