//! Every workload, briefly, through the library entry point: no job
//! fails, the six stages add up to each job's latency, and the metrics
//! a run emits are exactly the ones `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;

use astra_e2e::metrics::{self, END_TO_END, PER_LAYER};
use astra_e2e::{result_json, run, Options, Workload};
use serde_json::Value;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry in one `BENCHMARK.json` list.
fn entries(list: &Value) -> BTreeSet<(String, String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn smoke(workload: Workload) {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", workload.name()));
    let outcome = run(&Options {
        workload,
        seed: 1,
        seconds: 1.0,
        trace: true,
        out_dir: out_dir.clone(),
    })
    .expect("the run completes");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.problems);
    assert!(!outcome.records.is_empty());
    assert!(out_dir
        .join(format!("trace-{}.json", workload.name()))
        .exists());

    for record in &outcome.records {
        let stages = metrics::stages(record).expect("every job finished");
        let latency = metrics::latency_ns(record).expect("every job finished");
        assert!(stages.iter().all(|&s| s >= 0), "negative stage {stages:?}");
        assert_eq!(
            stages.iter().sum::<i64>(),
            latency,
            "stages must partition latency"
        );
    }

    // Emitted names equal declared names, in both directions.
    let benchmark = declared();
    for (traced, list, defs) in [
        (false, &benchmark["end_to_end"], &END_TO_END[..]),
        (true, &benchmark["per_layer"], &PER_LAYER[..]),
    ] {
        let result = result_json(&outcome, traced);
        assert_eq!(result["correct"].as_bool(), Some(true), "{result:?}");
        let emitted: BTreeSet<(String, String, String)> = defs
            .iter()
            .map(|d| {
                let metric = &result["metrics"][d.name];
                assert!(metric["value"].as_f64().is_some(), "{} unmeasured", d.name);
                assert_eq!(metric["unit"].as_str(), Some(d.unit));
                (d.name.to_string(), d.unit.to_string(), d.better.to_string())
            })
            .collect();
        let printed = result["metrics"].as_object().expect("metrics object").len();
        assert_eq!(printed, defs.len(), "result prints undeclared metrics");
        let declared = entries(list);
        let missing: Vec<_> = declared.difference(&emitted).collect();
        let undeclared: Vec<_> = emitted.difference(&declared).collect();
        assert!(missing.is_empty(), "declared but not emitted: {missing:?}");
        assert!(
            undeclared.is_empty(),
            "emitted but not declared: {undeclared:?}"
        );
    }
}

#[test]
fn benchmark_json_stays_within_its_limits() {
    let benchmark = declared();
    let e2e = benchmark["end_to_end"].as_array().expect("end_to_end list");
    let layers = benchmark["per_layer"].as_array().expect("per_layer list");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names = BTreeSet::new();
    for metric in e2e.iter().chain(layers) {
        let name = metric["name"].as_str().expect("name");
        assert!(valid_name(name), "bad metric name {name}");
        assert!(names.insert(name), "duplicate metric name {name}");
    }
    for metric in e2e {
        let bound = metric["bound"].as_f64().expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
    let workloads: BTreeSet<&str> = benchmark["workloads"]
        .as_array()
        .expect("workloads list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    let ours: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn warm_steady_smoke() {
    smoke(Workload::WarmSteady);
}

#[test]
fn cold_distinct_smoke() {
    smoke(Workload::ColdDistinct);
}

#[test]
fn requote_smoke() {
    smoke(Workload::Requote);
}

#[test]
fn tenant_flood_smoke() {
    smoke(Workload::TenantFlood);
}
