//! Shared machinery for the fixed-size bench runners (`astra-bench`,
//! `astra-sim-bench`): CLI parsing, timing, the regression check and the
//! check-or-write driver. Each binary supplies only its suite function
//! and its size table.

use std::time::Instant;

use serde_json::Value;

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
    /// Disable DAG dominance pruning in the suites that support it
    /// (`--no-prune`): every entry then measures the full Fig. 5 DAG.
    pub no_prune: bool,
}

impl BenchArgs {
    /// Parse `std::env::args()`.
    ///
    /// `tiny` and `full` are the size sets behind `--sizes tiny|full`;
    /// the default is `full`.
    pub fn parse(default_out: &str, tiny: &[usize], full: &[usize]) -> Result<BenchArgs, String> {
        let mut args = BenchArgs {
            out: default_out.to_string(),
            check: None,
            tolerance: 0.20,
            sizes: full.to_vec(),
            samples: 5,
            threads: None,
            no_prune: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let value = |i: usize| -> Result<&String, String> {
                argv.get(i + 1)
                    .ok_or(format!("flag '{flag}' needs a value"))
            };
            // Valueless flags advance by one, flag+value pairs by two.
            if flag == "--no-prune" {
                args.no_prune = true;
                i += 1;
                continue;
            }
            match flag {
                "--out" => args.out = value(i)?.clone(),
                "--check" => args.check = Some(value(i)?.clone()),
                "--tolerance" => {
                    args.tolerance = value(i)?.parse().map_err(|e| format!("--tolerance: {e}"))?
                }
                "--sizes" => {
                    args.sizes = match value(i)?.as_str() {
                        "tiny" => tiny.to_vec(),
                        "full" => full.to_vec(),
                        other => return Err(format!("--sizes must be tiny|full, got '{other}'")),
                    }
                }
                "--samples" => {
                    args.samples = value(i)?.parse().map_err(|e| format!("--samples: {e}"))?
                }
                "--threads" => {
                    args.threads = Some(value(i)?.parse().map_err(|e| format!("--threads: {e}"))?)
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 2;
        }
        if args.samples == 0 {
            return Err("--samples must be >= 1".into());
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

/// Compare `current` against `baseline` on `min_ms` per shared bench
/// name; returns the regressions found.
///
/// Entries stamped with a `threads` field (the parallel-sweep benches)
/// are compared only when both sides ran at the same worker count — a
/// baseline recorded on an 8-core box says nothing about a 1-thread CI
/// run's parallel timings. Likewise, `speedups` entries (higher is
/// better) gate only between reports whose top-level `threads` match.
pub fn regressions(current: &Value, baseline: &Value, tolerance: f64) -> Vec<String> {
    let empty = Vec::new();
    let base: Vec<(&str, &Value)> = baseline["results"]
        .as_array()
        .unwrap_or(&empty)
        .iter()
        .filter_map(|r| Some((r["name"].as_str()?, r)))
        .collect();
    let mut out = Vec::new();
    for r in current["results"].as_array().unwrap_or(&empty) {
        let (Some(name), Some(min)) = (r["name"].as_str(), r["min_ms"].as_f64()) else {
            continue;
        };
        let Some(&(_, b)) = base.iter().find(|(bn, _)| *bn == name) else {
            continue;
        };
        let Some(base_min) = b["min_ms"].as_f64() else {
            continue;
        };
        // Null == Null for unstamped entries, so only a genuine
        // thread-count mismatch skips the comparison.
        if r["threads"] != b["threads"] {
            continue;
        }
        if min > base_min * (1.0 + tolerance) {
            out.push(format!(
                "{name}: {min:.2} ms vs baseline {base_min:.2} ms (+{:.0}% > +{:.0}% allowed)",
                (min / base_min - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if !matches!(current["threads"], Value::Null) && current["threads"] == baseline["threads"] {
        let base_speedups: Vec<(&str, f64)> = baseline["speedups"]
            .as_array()
            .unwrap_or(&empty)
            .iter()
            .filter_map(|s| Some((s["name"].as_str()?, s["speedup"].as_f64()?)))
            .collect();
        for s in current["speedups"].as_array().unwrap_or(&empty) {
            let (Some(name), Some(sp)) = (s["name"].as_str(), s["speedup"].as_f64()) else {
                continue;
            };
            if let Some(&(_, base_sp)) = base_speedups.iter().find(|(b, _)| *b == name) {
                if sp < base_sp * (1.0 - tolerance) {
                    out.push(format!(
                        "{name}: speedup {sp:.2}x vs baseline {base_sp:.2}x \
                         (-{:.0}% > -{:.0}% allowed at {} threads)",
                        (1.0 - sp / base_sp) * 100.0,
                        tolerance * 100.0,
                        current["threads"]
                    ));
                }
            }
        }
    }
    out
}

/// The full runner lifecycle: parse args, pin threads, load the baseline
/// (before spending bench time, so a bad path fails in milliseconds),
/// run `suite`, then either gate against the baseline (exit 1 on
/// regression) or write the report to `args.out`.
pub fn run_cli(
    tool: &str,
    default_out: &str,
    tiny: &[usize],
    full: &[usize],
    suite: impl FnOnce(&BenchArgs) -> Value,
) {
    let args = match BenchArgs::parse(default_out, tiny, full) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{tool}: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }

    let baseline: Option<Value> = args.check.as_ref().map(|baseline_path| {
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("{tool}: cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("{tool}: baseline {baseline_path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    });

    let report = suite(&args);

    if let (Some(baseline_path), Some(baseline)) = (&args.check, &baseline) {
        let bad = regressions(&report, baseline, args.tolerance);
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
    use serde_json::json;

    fn report(name: &str, min_ms: f64) -> Value {
        json!({"results": [{"name": name, "min_ms": min_ms}]})
    }

    #[test]
    fn regression_beyond_tolerance_is_flagged() {
        let bad = regressions(&report("a", 13.0), &report("a", 10.0), 0.20);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("a: 13.00 ms"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        assert!(regressions(&report("a", 11.9), &report("a", 10.0), 0.20).is_empty());
    }

    #[test]
    fn unshared_names_are_ignored() {
        assert!(regressions(&report("new", 99.0), &report("old", 1.0), 0.20).is_empty());
    }

    #[test]
    fn thread_stamped_entries_skip_mismatched_baselines() {
        let cur = json!({"threads": 1, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 90.0, "threads": 1}
        ]});
        let base = json!({"threads": 8, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 10.0, "threads": 8}
        ]});
        // 9x slower, but at 1 thread vs an 8-thread baseline: not a
        // regression, just a different machine shape.
        assert!(regressions(&cur, &base, 0.20).is_empty());
        let same = json!({"threads": 8, "results": [
            {"name": "sweep_parallel/N202", "min_ms": 90.0, "threads": 8}
        ]});
        assert_eq!(regressions(&same, &base, 0.20).len(), 1);
    }

    #[test]
    fn speedups_gate_only_at_matching_thread_counts() {
        let mk = |threads: u64, speedup: f64| {
            json!({"threads": threads, "results": [],
                   "speedups": [{"name": "sweep/N202", "speedup": speedup}]})
        };
        // Same thread count, speedup halved: flagged.
        let bad = regressions(&mk(4, 1.0), &mk(4, 2.0), 0.20);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("speedup"));
        // Within tolerance: passes.
        assert!(regressions(&mk(4, 1.9), &mk(4, 2.0), 0.20).is_empty());
        // Different thread count: speedups are incomparable.
        assert!(regressions(&mk(1, 0.5), &mk(4, 2.0), 0.20).is_empty());
    }

    #[test]
    fn time_ms_returns_sane_stats() {
        let (mean, min) = time_ms(3, || std::hint::black_box(1 + 1));
        assert!(min >= 0.0 && mean >= min);
    }
}
