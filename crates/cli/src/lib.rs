#![warn(missing_docs)]

//! Library backing the `astra` command-line tool.
//!
//! A deliberately dependency-free argument parser (the approved crate set
//! has no CLI framework) plus one function per subcommand. The binary in
//! `main.rs` is a thin shim so everything here is unit-testable.

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};

/// Run a parsed command, writing human-readable output to `out`.
///
/// When `--trace-out` or `--metrics` is given, a [`ChromeTraceRecorder`]
/// is installed as the process-global telemetry sink before the command
/// runs (the planner and simulator snapshot it at construction time) and
/// torn down afterwards. Telemetry is observational only: plans, reports
/// and their printed numbers are bit-identical with it on or off.
///
/// [`ChromeTraceRecorder`]: astra_telemetry::sinks::ChromeTraceRecorder
pub fn run(command: Command, out: &mut dyn std::io::Write) -> std::io::Result<()> {
    use astra_telemetry::{sinks::ChromeTraceRecorder, Telemetry};
    use std::sync::Arc;

    if let Some(n) = command.threads() {
        // Pin the planner's parallelism before any parallel call runs.
        // Plans are identical for every thread count (the planner's
        // determinism guarantee); this only changes wall-clock.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }

    let trace_out = command.trace_out().map(String::from);
    let metrics = command.metrics();
    let recorder = if trace_out.is_some() || metrics {
        let rec = Arc::new(ChromeTraceRecorder::new());
        astra_telemetry::install_global(Telemetry::new(rec.clone()));
        Some(rec)
    } else {
        None
    };

    let result = match command {
        Command::Workloads => commands::workloads(out),
        Command::Plan(opts) => commands::plan(opts, out),
        Command::Simulate(opts) => commands::simulate(opts, out),
        Command::Baselines(opts) => commands::baselines(opts, out),
        Command::Timeline(opts) => commands::timeline(opts, out),
        Command::Frontier(opts) => commands::frontier(opts, out),
        Command::Serve(opts) => commands::serve(opts, out),
        Command::Submit(opts) => commands::submit(opts, out),
        Command::Help => commands::help(out),
    };

    if let Some(rec) = recorder {
        // Stop recording before reading the buffers out.
        astra_telemetry::install_global(Telemetry::disabled());
        if metrics {
            writeln!(out, "\n-- telemetry --")?;
            for line in rec.inner().summary_lines() {
                writeln!(out, "{line}")?;
            }
        }
        if let Some(path) = trace_out {
            rec.write_to(&path)?;
            writeln!(
                out,
                "trace written to {path} (open in chrome://tracing or Perfetto)"
            )?;
        }
    }
    result
}
