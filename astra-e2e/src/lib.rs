#![warn(missing_docs)]

//! `astra-e2e`, the repository benchmark: what a client of the
//! `astra.jobs/1` daemon sees, and where a job's time goes.
//!
//! A run starts the daemon in-process exactly as `astra serve --listen`
//! does (`ServiceConfig::default().with_workers(2)`, `NetConfig::default()`,
//! a journal only for `tenant_flood`) and sends it seeded traffic over
//! loopback TCP. Because client and daemon share one process, the
//! client's stamps and the snapshots' `history[].at_ns` come from the
//! same clock (`astra_telemetry::wall_clock_ns`): open-loop latency is
//! exact (`DONE` stamp − due time) and splits into six stages that sum
//! to it. A traced run also replays the stream layer by layer
//! ([`trace`]).
//!
//! * [`gen`] — seeded traffic for the four workloads;
//! * [`client`] — the line client and the open/windowed/closed loops;
//! * [`verify`] — lifecycle checks and bit-exact library re-derivation;
//! * [`metrics`] — the metric catalogue and its computation;
//! * [`trace`] — the traced in-process replay;
//! * [`run`] — one workload end to end.

pub mod client;
pub mod gen;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod verify;

pub use gen::Workload;
pub use run::{run, Options, Outcome};

use serde_json::{Map, Value};

/// The result object a run prints as its last line: `correct`,
/// `attempted`, `failed`, and the end-to-end (untraced) or per-layer
/// (traced) metrics as `{name: {value, unit}}`. A metric that could not
/// be measured (not finite) is `null` and counts as a failure.
pub fn result_json(outcome: &Outcome, traced: bool) -> Value {
    let printed = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let unmeasured = printed.iter().filter(|m| !m.value.is_finite()).count() as u64;
    let metrics: Map<String, Value> = printed
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                Value::from(m.value)
            } else {
                Value::Null
            };
            let mut entry = Map::new();
            entry.insert("value".to_string(), value);
            entry.insert("unit".to_string(), Value::from(m.unit));
            (m.name.to_string(), Value::Object(entry))
        })
        .collect();
    let failed = outcome.failed + unmeasured;
    let mut result = Map::new();
    result.insert("correct".to_string(), Value::from(failed == 0));
    result.insert("attempted".to_string(), Value::from(outcome.attempted));
    result.insert("failed".to_string(), Value::from(failed));
    result.insert("metrics".to_string(), Value::Object(metrics));
    Value::Object(result)
}
