//! `astra-e2e` — the repository benchmark's command line.
//!
//! ```text
//! astra-e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//!     one workload in this process; prints every metric with its unit,
//!     then the result object as the last line (exit 1 if any job failed
//!     or did not verify, 2 on a usage or I/O error)
//! astra-e2e --seed N [--seconds S] [--out FILE]
//!     every workload, untraced and then traced, each in a fresh child
//!     process; FILE receives all result objects
//! ```
//!
//! Journals and Chrome traces go to `$CARGO_TARGET_DIR/astra-e2e/`
//! (`target/astra-e2e/` when the variable is unset).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use astra_e2e::stats::highest_supported_percentile;
use astra_e2e::{metrics, result_json, run, Options, Workload};
use serde_json::{Map, Value};

/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                parsed.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!("unknown workload '{name}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("astra-e2e")
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("astra-e2e {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    let printed = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let samples = metrics::headline_latencies_ms(workload, &outcome.records).len();
    println!(
        "# {} seed {} ({} s{}): {} jobs, {} failed; {samples} headline latencies \
         (tail p{}; p{:.1} is the highest with 10 beyond)",
        workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        outcome.attempted,
        outcome.failed,
        workload.tail_percentile(),
        highest_supported_percentile(samples, 10).unwrap_or(0.0),
    );
    for m in printed {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in outcome.problems.iter().take(10) {
        eprintln!("astra-e2e {}: {problem}", workload.name());
    }
    let result = result_json(&outcome, args.trace);
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON encoding is infallible")
    );
    if result["correct"].as_bool() == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, untraced then traced, each in a fresh child process
/// (a fresh daemon and a fresh peak-RSS mark).
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("astra-e2e: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Map::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let output = match child {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("astra-e2e: cannot run {}: {e}", workload.name());
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines
                .pop()
                .and_then(|last| serde_json::from_str(last).ok())
                .unwrap_or(Value::Null);
            for line in lines {
                println!("{line}");
            }
            all_correct &= output.status.success() && result["correct"].as_bool() == Some(true);
            let key = if trace == "1" {
                format!("{}/trace", workload.name())
            } else {
                workload.name().to_string()
            };
            results.insert(key, result);
        }
    }
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&Value::Object(results))
            .expect("JSON encoding is infallible");
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, text));
        if let Err(e) = written {
            eprintln!("astra-e2e: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("astra-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
