//! The built-in [`Recorder`] sinks: null, in-memory, Chrome trace.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::{json, Value};

use crate::{Clock, Recorder, SpanRecord};

/// Discards every event. Exists so the cost of *dispatching* telemetry
/// (the virtual call, not a real sink's work) can be measured and gated;
/// see the `telemetry_null` bench in `astra-sim-bench`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn span(&self, _span: &SpanRecord) {}
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn value(&self, _name: &'static str, _sample: f64) {}
}

/// Summary statistics of one named value distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ValueStats {
    fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for ValueStats {
    fn default() -> Self {
        ValueStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Collects everything into memory — the sink behind tests and the
/// `--metrics` summaries.
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    values: Mutex<BTreeMap<&'static str, ValueStats>>,
}

impl InMemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Current value of one counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Snapshot of all gauges (latest observation wins), sorted by name.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Snapshot of all value distributions, sorted by name.
    pub fn values(&self) -> BTreeMap<String, ValueStats> {
        self.values
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Human-readable metric summary, one `name = value` line per
    /// counter/gauge/value (what `--metrics` prints).
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, v) in self.counters.lock().iter() {
            lines.push(format!("{name} = {v}"));
        }
        for (name, v) in self.gauges.lock().iter() {
            lines.push(format!("{name} = {v:.3}"));
        }
        for (name, s) in self.values.lock().iter() {
            lines.push(format!(
                "{name}: n={} mean={:.3} min={:.3} max={:.3}",
                s.count,
                s.mean(),
                s.min,
                s.max
            ));
        }
        lines
    }
}

impl Recorder for InMemoryRecorder {
    fn span(&self, span: &SpanRecord) {
        self.spans.lock().push(span.clone());
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.counters.lock().entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.gauges.lock().insert(name, value);
    }

    fn value(&self, name: &'static str, sample: f64) {
        self.values.lock().entry(name).or_default().record(sample);
    }
}

/// Collects spans and serializes them in the Chrome trace-event JSON
/// format, loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Layout: two trace "processes" — pid 1 carries sim-clock spans (`ts` =
/// simulated µs), pid 2 carries wall-clock spans (`ts` = wall µs since
/// process start) — and within each process every span track (actor or
/// component) gets its own named thread lane. Counters, gauges and value
/// stats land in `otherData`.
#[derive(Debug, Default)]
pub struct ChromeTraceRecorder {
    inner: InMemoryRecorder,
}

/// Sim-clock spans render under this pid.
const SIM_PID: u64 = 1;
/// Wall-clock spans render under this pid.
const WALL_PID: u64 = 2;

impl ChromeTraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying in-memory store (for metric summaries next to the
    /// trace file).
    pub fn inner(&self) -> &InMemoryRecorder {
        &self.inner
    }

    /// Render the trace as a Chrome trace-event JSON document.
    pub fn to_json(&self) -> Value {
        let spans = self.inner.spans();
        // Assign one tid per (pid, track) in first-seen order and name
        // the lanes with thread_name metadata events.
        let mut lanes: BTreeMap<(u64, String), u64> = BTreeMap::new();
        let mut events: Vec<Value> = Vec::new();
        let mut next_tid = 1u64;
        for span in &spans {
            let pid = match span.clock {
                Clock::Sim => SIM_PID,
                Clock::Wall => WALL_PID,
            };
            let key = (pid, span.track.to_string());
            let tid = *lanes.entry(key).or_insert_with(|| {
                let tid = next_tid;
                next_tid += 1;
                events.push(json!({
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": span.track.as_ref()},
                }));
                tid
            });
            let (ts, dur) = match span.clock {
                Clock::Sim => (
                    span.sim_start_us as f64,
                    (span.sim_end_us - span.sim_start_us) as f64,
                ),
                Clock::Wall => (
                    span.wall_start_ns as f64 / 1e3,
                    (span.wall_end_ns - span.wall_start_ns) as f64 / 1e3,
                ),
            };
            events.push(json!({
                "name": span.name.as_ref(),
                "cat": span.kind,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": span.id,
                    "parent": span.parent.map(Value::from).unwrap_or(Value::Null),
                    "sim_start_us": span.sim_start_us,
                    "sim_end_us": span.sim_end_us,
                    "wall_start_ns": span.wall_start_ns,
                    "wall_end_ns": span.wall_end_ns,
                },
            }));
        }
        for pid in [SIM_PID, WALL_PID] {
            let name = if pid == SIM_PID {
                "sim clock"
            } else {
                "wall clock"
            };
            events.push(json!({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }));
        }
        let counters: Vec<Value> = self
            .inner
            .counters()
            .into_iter()
            .map(|(k, v)| json!({"name": k, "value": v}))
            .collect();
        let gauges: Vec<Value> = self
            .inner
            .gauges()
            .into_iter()
            .map(|(k, v)| json!({"name": k, "value": v}))
            .collect();
        let values: Vec<Value> = self
            .inner
            .values()
            .into_iter()
            .map(|(k, s)| {
                json!({"name": k, "count": s.count, "mean": s.mean(), "min": s.min, "max": s.max})
            })
            .collect();
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "counters": counters,
                "gauges": gauges,
                "values": values,
            },
        })
    }

    /// Write the trace to `path` (conventionally `trace.json`).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let doc = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, doc)
    }
}

impl Recorder for ChromeTraceRecorder {
    fn span(&self, span: &SpanRecord) {
        self.inner.span(span);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        Recorder::counter(&self.inner, name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn value(&self, name: &'static str, sample: f64) {
        self.inner.value(name, sample);
    }
}

/// Convenience: a [`Telemetry`](crate::Telemetry) handle plus the
/// strongly-typed recorder behind it, so callers can install the handle
/// and still reach sink-specific methods (`write_to`, `spans`, …).
pub fn in_memory() -> (crate::Telemetry, Arc<InMemoryRecorder>) {
    let rec = Arc::new(InMemoryRecorder::new());
    (crate::Telemetry::new(rec.clone()), rec)
}

/// Like [`in_memory`] for the Chrome-trace sink.
pub fn chrome_trace() -> (crate::Telemetry, Arc<ChromeTraceRecorder>) {
    let rec = Arc::new(ChromeTraceRecorder::new());
    (crate::Telemetry::new(rec.clone()), rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sim_span(
        track: &str,
        name: &str,
        start: u64,
        end: u64,
        id: u64,
        parent: Option<u64>,
    ) -> SpanRecord {
        SpanRecord {
            track: track.into(),
            name: name.into(),
            kind: "test",
            clock: Clock::Sim,
            sim_start_us: start,
            sim_end_us: end,
            wall_start_ns: 0,
            wall_end_ns: 0,
            id,
            parent,
        }
    }

    #[test]
    fn in_memory_accumulates_counters_and_values() {
        let rec = InMemoryRecorder::new();
        Recorder::counter(&rec, "a", 2);
        Recorder::counter(&rec, "a", 3);
        Recorder::counter(&rec, "b", 1);
        Recorder::gauge(&rec, "g", 4.0);
        Recorder::gauge(&rec, "g", 5.0);
        Recorder::value(&rec, "v", 1.0);
        Recorder::value(&rec, "v", 3.0);
        assert_eq!(rec.counter_value("a"), 5);
        assert_eq!(rec.counter_value("b"), 1);
        assert_eq!(rec.counter_value("missing"), 0);
        assert_eq!(rec.gauges()["g"], 5.0);
        let v = rec.values()["v"];
        assert_eq!(v.count, 2);
        assert_eq!(v.mean(), 2.0);
        assert_eq!((v.min, v.max), (1.0, 3.0));
        assert!(!rec.summary_lines().is_empty());
    }

    #[test]
    fn chrome_trace_shape_is_valid() {
        let (t, rec) = chrome_trace();
        t.span(sim_span("mapper-0", "invocation", 0, 100, 1, None));
        t.span(sim_span("mapper-0", "get", 0, 40, 2, Some(1)));
        t.counter("engine.events", 7);
        {
            let _w = t.wall_span("planner", "plan", "planner");
        }
        let doc = rec.to_json();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 3 spans + 2 thread_name lanes (mapper-0 sim, planner wall)
        // + 2 process_name records.
        assert_eq!(events.len(), 7);
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        // Sim spans carry sim-µs timestamps; the child nests inside its
        // parent's interval.
        let get = complete
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("get"))
            .unwrap();
        assert_eq!(get.get("ts").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(get.get("dur").unwrap().as_f64().unwrap(), 40.0);
        assert_eq!(
            get.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(1)
        );
        let counters = doc
            .get("otherData")
            .unwrap()
            .get("counters")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn chrome_trace_writes_a_file() {
        let (t, rec) = chrome_trace();
        t.span(sim_span("a", "s", 0, 10, 1, None));
        let dir = std::env::temp_dir().join("astra-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        rec.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() >= 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn null_recorder_accepts_everything() {
        let t = Telemetry::new(Arc::new(NullRecorder));
        assert!(t.enabled());
        t.counter("c", 1);
        t.span(sim_span("a", "s", 0, 1, 1, None));
    }
}
