//! Span traces for reconstructing job timelines (paper Fig. 3).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// What a span represents, mirroring the phases in the paper's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Cold-start / container initialisation.
    ColdStart,
    /// Reading objects from the store.
    StorageGet,
    /// Writing objects to the store.
    StoragePut,
    /// Pure computation inside a function.
    Compute,
    /// A function waiting for children it spawned (the coordinator waiting
    /// on a reducer step).
    WaitChildren,
    /// Whole lifetime of one function invocation.
    Invocation,
    /// Queued behind the platform concurrency limit.
    QueuedConcurrency,
}

/// One traced interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Owning actor, e.g. `"mapper-3"`, `"coordinator"`, `"reducer-1-0"`.
    ///
    /// Shared (`Arc<str>`) rather than owned: the simulator records
    /// several spans per invocation, and sharing one allocation per actor
    /// keeps span recording off the allocator's hot path.
    pub actor: Arc<str>,
    /// What the interval represents.
    pub kind: SpanKind,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// An append-only log of spans produced during a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    spans: Vec<Span>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span. `end` must not precede `start`.
    ///
    /// Accepts anything convertible to a shared string; callers that
    /// record many spans for the same actor should pass an `Arc<str>`
    /// clone so recording does not allocate.
    pub fn record(
        &mut self,
        actor: impl Into<Arc<str>>,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
    ) {
        assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            actor: actor.into(),
            kind,
            start,
            end,
        });
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one actor, in record order.
    pub fn for_actor<'a>(&'a self, actor: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| &*s.actor == actor)
    }

    /// Spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Latest end time across all spans (the job makespan when the log
    /// covers a whole job).
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Render an ASCII Gantt chart, one row per actor, `width` columns.
    ///
    /// This is how the experiment harness reproduces the Fig. 3 timeline
    /// decomposition. Glyphs: `c` cold start, `r` get, `w` put, `#`
    /// compute, `.` waiting on children, `q` queued.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let end = self.makespan().as_micros().max(1);
        let mut actors: Vec<&str> = Vec::new();
        for s in &self.spans {
            if s.kind != SpanKind::Invocation && !actors.contains(&&*s.actor) {
                actors.push(&s.actor);
            }
        }
        let label_w = actors.iter().map(|a| a.len()).max().unwrap_or(0).max(8);
        let mut out = String::new();
        for actor in actors {
            let mut row = vec![' '; width];
            for s in self.for_actor(actor) {
                let glyph = match s.kind {
                    SpanKind::ColdStart => 'c',
                    SpanKind::StorageGet => 'r',
                    SpanKind::StoragePut => 'w',
                    SpanKind::Compute => '#',
                    SpanKind::WaitChildren => '.',
                    SpanKind::QueuedConcurrency => 'q',
                    SpanKind::Invocation => continue,
                };
                let a = (s.start.as_micros() as u128 * width as u128 / end as u128) as usize;
                let b = (s.end.as_micros() as u128 * width as u128 / end as u128) as usize;
                let b = b.clamp(a + 1, width).max(a + 1).min(width);
                for cell in row.iter_mut().take(b).skip(a.min(width.saturating_sub(1))) {
                    *cell = glyph;
                }
            }
            out.push_str(&format!("{actor:>label_w$} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s)
    }

    #[test]
    fn records_and_queries() {
        let mut log = TraceLog::new();
        log.record("mapper-0", SpanKind::Compute, t(0), t(10));
        log.record("mapper-0", SpanKind::StoragePut, t(10), t(12));
        log.record("reducer-0", SpanKind::Compute, t(12), t(20));
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.for_actor("mapper-0").count(), 2);
        assert_eq!(log.of_kind(SpanKind::Compute).count(), 2);
        assert_eq!(log.makespan(), t(20));
    }

    #[test]
    fn span_duration() {
        let mut log = TraceLog::new();
        log.record("a", SpanKind::StorageGet, t(5), t(9));
        assert_eq!(log.spans()[0].duration(), SimDuration::from_micros(4));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn backwards_span_panics() {
        let mut log = TraceLog::new();
        log.record("a", SpanKind::Compute, t(10), t(5));
    }

    #[test]
    fn gantt_renders_every_actor_once() {
        let mut log = TraceLog::new();
        log.record("mapper-0", SpanKind::Compute, t(0), t(50));
        log.record("mapper-1", SpanKind::Compute, t(0), t(100));
        log.record("mapper-0", SpanKind::Invocation, t(0), t(50));
        let chart = log.ascii_gantt(40);
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains("mapper-0"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn empty_log_makespan_is_zero() {
        assert_eq!(TraceLog::new().makespan(), SimTime::ZERO);
    }
}
