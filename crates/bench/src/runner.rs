//! Shared machinery for the fixed-size bench runners (`astra-bench`,
//! `astra-sim-bench`): CLI parsing, timing, the report envelope, the
//! regression check and the check-or-write driver. Each binary supplies
//! only its suite function and its size table.

use std::time::Instant;

use serde_json::{json, Value};

/// Parsed command-line options common to every runner.
pub struct BenchArgs {
    /// Output path for the report (ignored under `--check`).
    pub out: String,
    /// Baseline file to compare against instead of writing.
    pub check: Option<String>,
    /// Allowed relative slowdown before a metric counts as regressed.
    pub tolerance: f64,
    /// Problem sizes to run.
    pub sizes: Vec<usize>,
    /// Timed samples per bench (after one warmup).
    pub samples: usize,
    /// Explicit rayon thread count, if pinned.
    pub threads: Option<usize>,
}

impl BenchArgs {
    /// Parse `argv` (the arguments after the program name).
    ///
    /// `tiny` and `full` are the size sets behind `--sizes tiny|full`;
    /// the default is `full`.
    pub fn parse(
        argv: &[String],
        default_out: &str,
        tiny: &[usize],
        full: &[usize],
    ) -> Result<BenchArgs, String> {
        let mut args = BenchArgs {
            out: default_out.to_string(),
            check: None,
            tolerance: 0.20,
            sizes: full.to_vec(),
            samples: 5,
            threads: None,
        };
        for pair in argv.chunks(2) {
            let flag = pair[0].as_str();
            let value = || pair.get(1).ok_or(format!("flag '{flag}' needs a value"));
            match flag {
                "--out" => args.out = value()?.clone(),
                "--check" => args.check = Some(value()?.clone()),
                "--tolerance" => {
                    args.tolerance = value()?.parse().map_err(|e| format!("--tolerance: {e}"))?
                }
                "--sizes" => {
                    args.sizes = match value()?.as_str() {
                        "tiny" => tiny.to_vec(),
                        "full" => full.to_vec(),
                        other => return Err(format!("--sizes must be tiny|full, got '{other}'")),
                    }
                }
                "--samples" => {
                    args.samples = value()?.parse().map_err(|e| format!("--samples: {e}"))?
                }
                "--threads" => {
                    args.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if args.samples == 0 {
            return Err("--samples must be >= 1".into());
        }
        if !(args.tolerance.is_finite() && args.tolerance >= 0.0) {
            return Err(format!(
                "--tolerance must be a finite fraction >= 0, got {}",
                args.tolerance
            ));
        }
        Ok(args)
    }
}

/// Time `samples` runs of `f` (after one warmup); returns (mean, min) ms.
pub fn time_ms<O>(samples: usize, mut f: impl FnMut() -> O) -> (f64, f64) {
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    (mean, min)
}

/// Refuse a baseline that cannot gate a run of `suite`: one recorded by
/// another suite, or one with a row lacking a name or a numeric `min_ms`.
pub fn check_baseline(baseline: &Value, suite: &str) -> Result<(), String> {
    if baseline["suite"].as_str() != Some(suite) {
        return Err(format!(
            "baseline suite is {}, not \"{suite}\"",
            baseline["suite"]
        ));
    }
    let rows = baseline["results"]
        .as_array()
        .ok_or("baseline has no \"results\" array")?;
    for (i, row) in rows.iter().enumerate() {
        if row["name"].as_str().is_none() || row["min_ms"].as_f64().is_none() {
            return Err(format!(
                "baseline row {i} ({}) lacks a name or a numeric min_ms",
                row["name"]
            ));
        }
    }
    Ok(())
}

/// Compare `current` against `baseline` on `min_ms` per shared bench
/// name; returns the regressions found, or why the baseline cannot gate
/// this run ([`check_baseline`], or no row name in common).
///
/// Entries stamped with a `threads` field (the parallel-sweep benches)
/// are compared only when both sides ran at the same worker count — a
/// baseline recorded on an 8-core box says nothing about a 1-thread CI
/// run's parallel timings.
pub fn regressions(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    check_baseline(baseline, current["suite"].as_str().unwrap_or_default())?;
    let empty = Vec::new();
    let base = baseline["results"].as_array().unwrap_or(&empty);
    let mut shared = 0;
    let mut out = Vec::new();
    for r in current["results"].as_array().unwrap_or(&empty) {
        let (Some(name), Some(min)) = (r["name"].as_str(), r["min_ms"].as_f64()) else {
            continue;
        };
        let Some(b) = base.iter().find(|b| b["name"].as_str() == Some(name)) else {
            continue;
        };
        shared += 1;
        // Null == Null for unstamped entries, so only a genuine
        // thread-count mismatch skips the comparison.
        if r["threads"] != b["threads"] {
            continue;
        }
        let base_min = b["min_ms"].as_f64().unwrap_or_default();
        if min > base_min * (1.0 + tolerance) {
            out.push(format!(
                "{name}: {min:.2} ms vs baseline {base_min:.2} ms (+{:.0}% > +{:.0}% allowed)",
                (min / base_min - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if shared == 0 {
        return Err("the run and the baseline share no row".into());
    }
    Ok(out)
}

/// The full runner lifecycle: parse args, pin threads, load and check
/// the baseline (before spending bench time, so a bad baseline fails in
/// milliseconds), run `suite_rows`, wrap its rows in the `suite` report
/// envelope, then either gate against the baseline (exit 1 on
/// regression) or write the report to `args.out`. Usage errors and
/// baselines that cannot gate the run exit 2.
pub fn run_cli(
    tool: &str,
    suite: &str,
    default_out: &str,
    tiny: &[usize],
    full: &[usize],
    suite_rows: impl FnOnce(&BenchArgs) -> Vec<Value>,
) {
    let fail = |msg: String| -> ! {
        eprintln!("{tool}: {msg}");
        std::process::exit(2);
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = BenchArgs::parse(&argv, default_out, tiny, full).unwrap_or_else(|e| fail(e));
    if let Some(n) = args.threads {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }

    let baseline: Option<Value> = args.check.as_ref().map(|baseline_path| {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| fail(format!("cannot read baseline {baseline_path}: {e}")));
        let baseline: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(format!("baseline {baseline_path} is not valid JSON: {e}")));
        check_baseline(&baseline, suite)
            .unwrap_or_else(|e| fail(format!("cannot check against {baseline_path}: {e}")));
        baseline
    });

    let report = json!({
        "schema_version": 1,
        "suite": suite,
        "cores": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "threads": rayon::current_num_threads(),
        "samples": args.samples,
        "results": suite_rows(&args),
    });

    if let (Some(baseline_path), Some(baseline)) = (&args.check, &baseline) {
        let bad = regressions(&report, baseline, args.tolerance)
            .unwrap_or_else(|e| fail(format!("cannot check against {baseline_path}: {e}")));
        if bad.is_empty() {
            println!(
                "{tool}: no regressions beyond {:.0}% against {baseline_path}",
                args.tolerance * 100.0
            );
        } else {
            eprintln!("{tool}: performance regressions detected:");
            for b in &bad {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        }
    } else {
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&args.out, text + "\n").expect("write report");
        println!("{tool}: wrote {}", args.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLANNER_BASELINE: &str = include_str!("../../../BENCH_planner.json");
    const SIM_BASELINE: &str = include_str!("../../../BENCH_sim.json");

    fn report(names: &[(&str, f64)]) -> Value {
        let rows: Vec<Value> = names
            .iter()
            .map(|(name, min_ms)| json!({"name": name, "min_ms": min_ms}))
            .collect();
        json!({"suite": "s", "results": rows})
    }

    fn parse(argv: &[&str]) -> Result<BenchArgs, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        BenchArgs::parse(&argv, "out.json", &[1], &[1, 2])
    }

    #[test]
    fn regression_beyond_tolerance_is_flagged() {
        let bad = regressions(&report(&[("a", 13.0)]), &report(&[("a", 10.0)]), 0.20).unwrap();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("a: 13.00 ms"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let bad = regressions(&report(&[("a", 11.9)]), &report(&[("a", 10.0)]), 0.20).unwrap();
        assert!(bad.is_empty());
    }

    #[test]
    fn unshared_names_are_ignored() {
        let cur = report(&[("a", 10.0), ("new", 99.0)]);
        let base = report(&[("a", 10.0), ("old", 1.0)]);
        assert!(regressions(&cur, &base, 0.20).unwrap().is_empty());
    }

    #[test]
    fn a_baseline_sharing_no_row_is_refused() {
        let err = regressions(&report(&[("new", 99.0)]), &report(&[("old", 1.0)]), 0.20);
        assert!(err.unwrap_err().contains("share no row"));
    }

    #[test]
    fn another_suites_baseline_is_refused() {
        let base = json!({"suite": "other", "results": [{"name": "a", "min_ms": 10.0}]});
        let err = regressions(&report(&[("a", 10.0)]), &base, 0.20).unwrap_err();
        assert!(err.contains("\"other\""), "{err}");
        // The committed simulator baseline cannot gate the planner suite.
        let sim: Value = serde_json::from_str(SIM_BASELINE).unwrap();
        assert!(check_baseline(&sim, "astra-planner-bench").is_err());
    }

    #[test]
    fn a_baseline_row_without_numeric_min_ms_is_refused() {
        for row in [json!({"name": "a"}), json!({"name": "a", "min_ms": "1.0"})] {
            let base = json!({"suite": "s", "results": [row]});
            let err = regressions(&report(&[("a", 10.0)]), &base, 0.20).unwrap_err();
            assert!(err.contains("numeric min_ms"), "{err}");
        }
        let base = json!({"suite": "s"});
        assert!(check_baseline(&base, "s").is_err());
    }

    #[test]
    fn a_tolerance_that_is_not_a_finite_nonnegative_fraction_is_refused() {
        for bad in ["nan", "inf", "-inf", "-0.1"] {
            let err = parse(&["--tolerance", bad]).err().expect(bad);
            assert!(err.contains("--tolerance"), "{err}");
        }
        assert_eq!(parse(&["--tolerance", "2.0"]).unwrap().tolerance, 2.0);
        assert_eq!(parse(&["--tolerance", "0"]).unwrap().tolerance, 0.0);
    }

    #[test]
    fn flags_parse_and_a_dangling_flag_is_refused() {
        let args = parse(&["--sizes", "tiny", "--samples", "3", "--check", "b.json"]).unwrap();
        assert_eq!(args.sizes, [1]);
        assert_eq!(args.samples, 3);
        assert_eq!(args.check.as_deref(), Some("b.json"));
        assert!(parse(&["--samples"]).is_err());
        assert!(parse(&["--bogus"]).err().unwrap().contains("unknown flag"));
    }

    #[test]
    fn committed_baselines_gate_their_own_suite() {
        for (text, suite) in [
            (PLANNER_BASELINE, "astra-planner-bench"),
            (SIM_BASELINE, "astra-sim-bench"),
        ] {
            let baseline: Value = serde_json::from_str(text).unwrap();
            check_baseline(&baseline, suite).unwrap();
            // Exactly the envelope `run_cli` writes: no derived sections.
            let keys: Vec<&str> = baseline
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                [
                    "cores",
                    "results",
                    "samples",
                    "schema_version",
                    "suite",
                    "threads"
                ],
                "{suite}"
            );
            // A baseline compared with itself shares every row and passes.
            assert!(regressions(&baseline, &baseline, 0.0).unwrap().is_empty());
        }
    }

    #[test]
    fn thread_stamped_entries_skip_mismatched_baselines() {
        let cur = json!({"suite": "s", "threads": 1, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 90.0, "threads": 1}
        ]});
        let base = json!({"suite": "s", "threads": 8, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 10.0, "threads": 8}
        ]});
        // 9x slower, but at 1 thread vs an 8-thread baseline: not a
        // regression, just a different machine shape.
        assert!(regressions(&cur, &base, 0.20).unwrap().is_empty());
        let same = json!({"suite": "s", "threads": 8, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 90.0, "threads": 8}
        ]});
        assert_eq!(regressions(&same, &base, 0.20).unwrap().len(), 1);
    }

    #[test]
    fn time_ms_returns_sane_stats() {
        let (mean, min) = time_ms(3, || std::hint::black_box(1 + 1));
        assert!(min >= 0.0 && mean >= min);
    }
}
