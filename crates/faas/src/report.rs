//! Run results: per-invocation invoices and the aggregate report.

use std::collections::BTreeMap;
use std::sync::Arc;

use astra_pricing::{Money, PriceCatalog};
use astra_simcore::{SimDuration, SimTime, SpanKind, TraceLog};
use astra_storage::LedgerSnapshot;

/// The bill for one function invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invoice {
    /// Invocation name. Shared with the engine's trace spans, so billing
    /// an invocation does not copy its name.
    pub name: Arc<str>,
    /// Memory tier (MB).
    pub memory_mb: u32,
    /// When the handler started (after cold start).
    pub started: SimTime,
    /// When the handler finished.
    pub finished: SimTime,
    /// Billed duration in microseconds (rounded up to the billing
    /// granularity).
    pub billed_us: u64,
    /// Invocation fee + runtime charge.
    pub cost: Money,
}

impl Invoice {
    /// Raw handler duration (pre-rounding).
    pub fn duration(&self) -> SimDuration {
        self.finished.since(self.started)
    }
}

/// Aggregate result of one simulated job run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Time from submission to the last event (job completion time).
    pub makespan: SimDuration,
    /// Sum of all lambda invoices.
    pub lambda_cost: Money,
    /// Persistent object-store (S3) bill (requests + storage integral).
    pub storage_cost: Money,
    /// Intermediate-store bill (requests + storage + rental); zero when
    /// no intermediate store is configured.
    pub ephemeral_cost: Money,
    /// Per-invocation invoices, in finish order.
    pub invoices: Vec<Invoice>,
    /// Persistent-store accounting snapshot at completion.
    pub ledger: LedgerSnapshot,
    /// Intermediate-store accounting snapshot (all zero without one).
    pub inter_ledger: LedgerSnapshot,
    /// Span trace (Gantt source for the Fig. 3 timelines).
    pub trace: TraceLog,
    /// Highest number of concurrently running lambdas observed.
    pub peak_concurrency: usize,
    /// Number of invocations that had to queue behind the concurrency cap.
    pub queued_invocations: u64,
    /// Injected container crashes that were retried.
    pub crashes: u64,
    /// Invocations served by a warm container (container reuse only).
    pub warm_starts: u64,
    /// Total discrete events the engine processed for this run (the
    /// denominator of the events/sec throughput benches).
    pub events: u64,
}

impl SimReport {
    /// Total bill: lambda + persistent storage + intermediate store.
    pub fn total_cost(&self) -> Money {
        self.lambda_cost + self.storage_cost + self.ephemeral_cost
    }

    /// Job completion time in seconds.
    pub fn jct_s(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Invoice lookup by name.
    pub fn invoice(&self, name: &str) -> Option<&Invoice> {
        self.invoices.iter().find(|i| &*i.name == name)
    }

    /// Number of invocations.
    pub fn invocation_count(&self) -> usize {
        self.invoices.len()
    }

    /// Recompute the lambda bill from the invoices under a different
    /// catalog (used by pricing what-if ablations).
    pub fn reprice_lambdas(&self, catalog: &PriceCatalog) -> Money {
        self.invoices
            .iter()
            .map(|i| {
                catalog
                    .lambda
                    .invocation_cost(i.memory_mb, i.duration().as_micros())
            })
            .sum()
    }

    /// Partition the job's critical-path time `[0, makespan]` into
    /// exclusive phases: at every simulated instant the job is attributed
    /// to the highest-priority phase any invocation is in (cold start >
    /// S3 GET > S3 PUT > compute > waiting on children > queued behind
    /// the concurrency cap), or `idle` if nothing is active. The phase
    /// durations therefore sum to the makespan *exactly* — this is the
    /// "where does JCT go" view printed by `--metrics` and the
    /// `exp_fig7_table3` phase table.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        // Line sweep: ±1 boundary events per span, grouped by timestamp;
        // between consecutive timestamps the active phase is the
        // highest-priority class with a positive cover count.
        let mut events: Vec<(u64, i64, usize)> = Vec::new();
        for span in self.trace.spans() {
            let Some(class) = phase_class(span.kind) else {
                continue;
            };
            let (s, e) = (span.start.as_micros(), span.end.as_micros());
            if e > s {
                events.push((s, 1, class));
                events.push((e, -1, class));
            }
        }
        events.sort_unstable();
        let end_us = self.makespan.as_micros();
        let mut counts = [0i64; PHASES];
        let mut totals = [0u64; PHASES + 1]; // + trailing idle slot
        let mut prev = 0u64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            let seg_end = t.min(end_us);
            if seg_end > prev {
                let active = counts.iter().position(|&c| c > 0).unwrap_or(PHASES);
                totals[active] += seg_end - prev;
                prev = seg_end;
            }
            while i < events.len() && events[i].0 == t {
                counts[events[i].2] += events[i].1;
                i += 1;
            }
        }
        if end_us > prev {
            totals[PHASES] += end_us - prev;
        }
        PhaseBreakdown::from_totals(totals)
    }

    /// Cumulative lambda-time per execution stage and phase, where the
    /// stage is the invocation name with trailing numeric indices
    /// stripped (`mapper-3` → `mapper`, `reducer-1-0` → `reducer`).
    ///
    /// Unlike [`SimReport::phase_breakdown`], parallel invocations
    /// *accumulate*: a stage's totals are lambda-seconds, not wall time,
    /// so they can exceed the makespan. `idle` is always zero here.
    /// Stages come back in name order (deterministic).
    pub fn stage_breakdown(&self) -> Vec<StagePhases> {
        let mut stages: BTreeMap<&str, StagePhases> = BTreeMap::new();
        for span in self.trace.spans() {
            let stage = stage_of(&span.actor);
            let entry = stages.entry(stage).or_insert_with(|| StagePhases {
                stage: stage.to_string(),
                invocations: 0,
                phases: PhaseBreakdown::default(),
            });
            let d = span.end.since(span.start);
            match span.kind {
                SpanKind::Invocation => entry.invocations += 1,
                SpanKind::ColdStart => entry.phases.cold_start += d,
                SpanKind::StorageGet => entry.phases.storage_get += d,
                SpanKind::StoragePut => entry.phases.storage_put += d,
                SpanKind::Compute => entry.phases.compute += d,
                SpanKind::WaitChildren => entry.phases.wait_children += d,
                SpanKind::QueuedConcurrency => entry.phases.queued += d,
            }
        }
        stages.into_values().collect()
    }
}

/// Number of exclusive (non-idle) phase classes, in priority order.
const PHASES: usize = 6;

/// Priority index of a span kind for the exclusive partition (lower wins
/// when phases overlap); `Invocation` spans are containers, not phases.
fn phase_class(kind: SpanKind) -> Option<usize> {
    match kind {
        SpanKind::ColdStart => Some(0),
        SpanKind::StorageGet => Some(1),
        SpanKind::StoragePut => Some(2),
        SpanKind::Compute => Some(3),
        SpanKind::WaitChildren => Some(4),
        SpanKind::QueuedConcurrency => Some(5),
        SpanKind::Invocation => None,
    }
}

/// The execution stage an invocation belongs to: its name minus any
/// trailing `-<digits>` index segments.
fn stage_of(actor: &str) -> &str {
    let mut s = actor;
    while let Some(pos) = s.rfind('-') {
        let tail = &s[pos + 1..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            s = &s[..pos];
        } else {
            break;
        }
    }
    s
}

/// Simulated time attributed to each execution phase (see
/// [`SimReport::phase_breakdown`] for the exclusive-partition semantics
/// and [`SimReport::stage_breakdown`] for the cumulative ones).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Container launch (cold start) time.
    pub cold_start: SimDuration,
    /// Object-store GET transfer time.
    pub storage_get: SimDuration,
    /// Object-store PUT transfer time.
    pub storage_put: SimDuration,
    /// Handler compute (and spawn-orchestration) time.
    pub compute: SimDuration,
    /// Parents blocked on child barriers.
    pub wait_children: SimDuration,
    /// Arrivals queued behind the platform concurrency cap.
    pub queued: SimDuration,
    /// No invocation active (exclusive partition only; zero elsewhere).
    pub idle: SimDuration,
}

impl PhaseBreakdown {
    fn from_totals(totals: [u64; PHASES + 1]) -> Self {
        PhaseBreakdown {
            cold_start: SimDuration::from_micros(totals[0]),
            storage_get: SimDuration::from_micros(totals[1]),
            storage_put: SimDuration::from_micros(totals[2]),
            compute: SimDuration::from_micros(totals[3]),
            wait_children: SimDuration::from_micros(totals[4]),
            queued: SimDuration::from_micros(totals[5]),
            idle: SimDuration::from_micros(totals[6]),
        }
    }

    /// `(label, duration)` rows in priority order, for table printing.
    pub fn rows(&self) -> [(&'static str, SimDuration); 7] {
        [
            ("cold_start", self.cold_start),
            ("s3_get", self.storage_get),
            ("s3_put", self.storage_put),
            ("compute", self.compute),
            ("wait_children", self.wait_children),
            ("queued", self.queued),
            ("idle", self.idle),
        ]
    }

    /// Sum of all phases; equals the makespan for the exclusive
    /// partition.
    pub fn total(&self) -> SimDuration {
        self.rows()
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

/// Per-stage cumulative phase totals (see [`SimReport::stage_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StagePhases {
    /// Stage name (`mapper`, `reducer`, …).
    pub stage: String,
    /// Invocations in this stage (0 for stages that only queue/wait
    /// before their invocation span is recorded — in practice ≥ 1).
    pub invocations: usize,
    /// Cumulative lambda-time per phase; `idle` is always zero.
    pub phases: PhaseBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FaasSim, SimConfig};
    use crate::ops::{LambdaSpec, Op, StoreKind};
    use astra_model::Platform;

    fn report_with_phases() -> SimReport {
        // 10 MB/s bandwidth, 0.5 s cold start: cold 0.5 s, GET 20 MB =
        // 2 s, compute 1 s, PUT 5 MB = 0.5 s → makespan 4 s, no idle.
        let mut p = Platform::paper_literal(10.0);
        p.cold_start_s = 0.5;
        let spec = LambdaSpec::new(
            "mapper-0",
            128,
            vec![
                Op::Get {
                    key: "in".into(),
                    store: StoreKind::Persistent,
                },
                Op::Compute { secs_at_128: 1.0 },
                Op::Put {
                    key: "out".into(),
                    size_mb: 5.0,
                    store: StoreKind::Persistent,
                },
            ],
        );
        FaasSim::new(SimConfig::deterministic(p), &[("in".into(), 20.0)])
            .run(vec![spec])
            .unwrap()
    }

    #[test]
    fn phase_breakdown_partitions_the_makespan_exactly() {
        let report = report_with_phases();
        let phases = report.phase_breakdown();
        assert_eq!(phases.total(), report.makespan, "exclusive partition");
        assert_eq!(phases.cold_start, SimDuration::from_millis(500));
        assert_eq!(phases.storage_get, SimDuration::from_secs(2));
        assert_eq!(phases.compute, SimDuration::from_secs(1));
        assert_eq!(phases.storage_put, SimDuration::from_millis(500));
        assert_eq!(phases.idle, SimDuration::ZERO);
        assert_eq!(phases.wait_children, SimDuration::ZERO);
        assert_eq!(phases.queued, SimDuration::ZERO);
    }

    #[test]
    fn overlapping_phases_attribute_by_priority() {
        // Two parallel lambdas: one cold-starting (1 s) while the other
        // computes (2 s). Cold start wins the overlap second; compute
        // gets only its exclusive second.
        let mut p = Platform::paper_literal(10.0);
        p.cold_start_s = 0.0;
        let slow = LambdaSpec::new("a", 128, vec![Op::Compute { secs_at_128: 2.0 }]);
        let report = FaasSim::new(SimConfig::deterministic(p.clone()), &[])
            .run(vec![slow.clone()])
            .unwrap();
        assert_eq!(report.phase_breakdown().compute, SimDuration::from_secs(2));

        p.cold_start_s = 1.0;
        let report = FaasSim::new(SimConfig::deterministic(p), &[])
            .run(vec![
                slow,
                LambdaSpec::new("b", 128, vec![Op::Compute { secs_at_128: 0.5 }]),
            ])
            .unwrap();
        let phases = report.phase_breakdown();
        // Both cold starts overlap in [0, 1]; compute owns the rest.
        assert_eq!(phases.cold_start, SimDuration::from_secs(1));
        assert_eq!(phases.compute, SimDuration::from_secs(2));
        assert_eq!(phases.total(), report.makespan);
    }

    #[test]
    fn stage_breakdown_groups_indexed_actors() {
        let mut p = Platform::paper_literal(10.0);
        p.cold_start_s = 0.0;
        let roots = vec![
            LambdaSpec::new("mapper-0", 128, vec![Op::Compute { secs_at_128: 1.0 }]),
            LambdaSpec::new("mapper-1", 128, vec![Op::Compute { secs_at_128: 2.0 }]),
            LambdaSpec::new("reducer-0-1", 128, vec![Op::Compute { secs_at_128: 4.0 }]),
        ];
        let report = FaasSim::new(SimConfig::deterministic(p), &[])
            .run(roots)
            .unwrap();
        let stages = report.stage_breakdown();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage, "mapper");
        assert_eq!(stages[0].invocations, 2);
        assert_eq!(stages[0].phases.compute, SimDuration::from_secs(3));
        assert_eq!(stages[1].stage, "reducer");
        assert_eq!(stages[1].invocations, 1);
        assert_eq!(stages[1].phases.compute, SimDuration::from_secs(4));
    }

    #[test]
    fn stage_of_strips_trailing_indices_only() {
        assert_eq!(stage_of("mapper-3"), "mapper");
        assert_eq!(stage_of("reducer-1-0"), "reducer");
        assert_eq!(stage_of("driver"), "driver");
        assert_eq!(stage_of("stage-2-final"), "stage-2-final");
        assert_eq!(stage_of("x-"), "x-");
    }
}
