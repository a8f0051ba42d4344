//! Argument parsing for the `astra` binary.

use astra_service::ServiceConfig;
use astra_workloads::WorkloadSpec;

/// Planning/simulation options shared by several subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOpts {
    /// Which benchmark workload to operate on.
    pub workload: WorkloadSpec,
    /// Budget in dollars (`--budget`), if the user gave one.
    pub budget: Option<f64>,
    /// Deadline in seconds (`--deadline`), if the user gave one.
    pub deadline_s: Option<f64>,
    /// Simulator noise CV (`--noise`, default 0.1 for `simulate`).
    pub noise_cv: f64,
    /// Simulator seed (`--seed`).
    pub seed: u64,
    /// Planner thread-count override (`--threads`); `None` keeps the
    /// `RAYON_NUM_THREADS` / auto-detected default.
    pub threads: Option<usize>,
    /// Write a Chrome-trace JSON of the run to this path (`--trace-out`);
    /// load it in chrome://tracing or Perfetto. See OBSERVABILITY.md.
    pub trace_out: Option<String>,
    /// Print telemetry counters/gauges and the phase-breakdown table
    /// after the command (`--metrics`).
    pub metrics: bool,
}

/// Options for `astra serve` — drive a demo job mix through the
/// in-process service daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// How many jobs to submit (`--jobs`, default 12).
    pub jobs: usize,
    /// Daemon worker-pool size (`--workers`, default: one per core).
    pub workers: usize,
    /// Simulation replications per job (`--reps`, default 1; 0 = plan only).
    pub reps: u32,
    /// Simulator noise CV (`--noise`, default 0.1).
    pub noise_cv: f64,
    /// Base simulator seed; job i uses `seed + i` (`--seed`).
    pub seed: u64,
    /// Planner thread-count override (`--threads`).
    pub threads: Option<usize>,
    /// Chrome-trace output path (`--trace-out`).
    pub trace_out: Option<String>,
    /// Print telemetry counters after the run (`--metrics`).
    pub metrics: bool,
    /// Bind the TCP line-protocol listener here (`--listen HOST:PORT`)
    /// and serve until stdin closes, instead of running the demo mix.
    pub listen: Option<String>,
    /// Durable job-journal path (`--journal PATH`): replay it at
    /// startup (recovering jobs from a previous run) and log every
    /// lifecycle transition to it.
    pub journal: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            jobs: 12,
            workers: ServiceConfig::default().workers,
            reps: 1,
            noise_cv: 0.1,
            seed: 42,
            threads: None,
            trace_out: None,
            metrics: false,
            listen: None,
            journal: None,
        }
    }
}

/// Options for `astra submit` — one job through a fresh daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOpts {
    /// The workload/objective/noise/seed options shared with `plan`.
    pub job: JobOpts,
    /// Daemon worker-pool size (`--workers`, default: one per core).
    pub workers: usize,
    /// Simulation replications (`--reps`, default 1; 0 = plan only).
    pub reps: u32,
    /// Emit the full snapshot as wire JSON instead of the human table
    /// (`--json`).
    pub json: bool,
    /// Submit over TCP to a running `astra serve --listen` server
    /// (`--connect HOST:PORT`) instead of a fresh in-process daemon.
    pub connect: Option<String>,
    /// Tenant name stamped on the request (`--tenant`, default "").
    pub tenant: Option<String>,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `astra workloads` — list the built-in benchmarks.
    Workloads,
    /// `astra plan --workload W [--budget $ | --deadline s]`.
    Plan(JobOpts),
    /// `astra simulate --workload W [--budget | --deadline] [--noise --seed]`.
    Simulate(JobOpts),
    /// `astra baselines --workload W` — compare against Baselines 1–3.
    Baselines(JobOpts),
    /// `astra timeline --workload W [...]` — ASCII Gantt of a run.
    Timeline(JobOpts),
    /// `astra frontier --workload W` — the cost-performance Pareto
    /// frontier.
    Frontier(JobOpts),
    /// `astra serve [--jobs N --workers N --reps N]` — run a demo job
    /// mix through the in-process service daemon.
    Serve(ServeOpts),
    /// `astra submit --workload W [...]` — submit one job through the
    /// daemon and await its terminal snapshot.
    Submit(SubmitOpts),
    /// `astra help`.
    Help,
}

impl Command {
    /// The shared job options this invocation carries, if any.
    pub fn job_opts(&self) -> Option<&JobOpts> {
        match self {
            Command::Plan(o)
            | Command::Simulate(o)
            | Command::Baselines(o)
            | Command::Timeline(o)
            | Command::Frontier(o) => Some(o),
            Command::Submit(o) => Some(&o.job),
            Command::Workloads | Command::Serve(_) | Command::Help => None,
        }
    }

    /// The `--threads` override this invocation carries, if any.
    pub fn threads(&self) -> Option<usize> {
        match self {
            Command::Serve(o) => o.threads,
            _ => self.job_opts().and_then(|o| o.threads),
        }
    }

    /// The `--trace-out` path this invocation carries, if any.
    pub fn trace_out(&self) -> Option<&str> {
        match self {
            Command::Serve(o) => o.trace_out.as_deref(),
            _ => self.job_opts().and_then(|o| o.trace_out.as_deref()),
        }
    }

    /// Whether `--metrics` was given.
    pub fn metrics(&self) -> bool {
        match self {
            Command::Serve(o) => o.metrics,
            _ => self.job_opts().map(|o| o.metrics).unwrap_or(false),
        }
    }
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown or malformed flag.
    BadFlag(String),
    /// A flag that needs a value did not get one.
    MissingValue(String),
    /// Unknown workload name.
    UnknownWorkload(String),
    /// No subcommand given.
    Empty,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownCommand(c) => write!(f, "unknown command '{c}' (try 'astra help')"),
            ParseError::BadFlag(x) => write!(f, "unknown flag '{x}'"),
            ParseError::MissingValue(x) => write!(f, "flag '{x}' needs a value"),
            ParseError::UnknownWorkload(w) => write!(
                f,
                "unknown workload '{w}' (try wordcount-1gb, wordcount-10gb, wordcount-20gb, sort-100gb, query)"
            ),
            ParseError::Empty => write!(f, "no command given (try 'astra help')"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a workload name.
pub fn parse_workload(name: &str) -> Result<WorkloadSpec, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "wordcount-1gb" | "wc1" => Ok(WorkloadSpec::wordcount_gb(1)),
        "wordcount-10gb" | "wc10" => Ok(WorkloadSpec::wordcount_gb(10)),
        "wordcount-20gb" | "wc20" => Ok(WorkloadSpec::wordcount_gb(20)),
        "sort-100gb" | "sort" => Ok(WorkloadSpec::Sort100),
        "query" | "query-uservisits" => Ok(WorkloadSpec::QueryUservisits),
        other => Err(ParseError::UnknownWorkload(other.to_string())),
    }
}

fn parse_job_opts(args: &[String]) -> Result<JobOpts, ParseError> {
    let mut workload = WorkloadSpec::wordcount_gb(1);
    let mut budget = None;
    let mut deadline = None;
    let mut noise = 0.1;
    let mut seed = 42u64;
    let mut threads = None;
    let mut trace_out = None;
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, ParseError> {
            args.get(i + 1)
                .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
        };
        match flag {
            "--workload" | "-w" => {
                workload = parse_workload(value()?)?;
                i += 2;
            }
            "--budget" | "-b" => {
                budget = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| ParseError::BadFlag(flag.to_string()))?,
                );
                i += 2;
            }
            "--deadline" | "-d" => {
                deadline = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| ParseError::BadFlag(flag.to_string()))?,
                );
                i += 2;
            }
            "--noise" => {
                noise = value()?
                    .parse::<f64>()
                    .map_err(|_| ParseError::BadFlag(flag.to_string()))?;
                i += 2;
            }
            "--seed" => {
                seed = value()?
                    .parse::<u64>()
                    .map_err(|_| ParseError::BadFlag(flag.to_string()))?;
                i += 2;
            }
            "--threads" | "-t" => {
                let n = value()?
                    .parse::<usize>()
                    .map_err(|_| ParseError::BadFlag(flag.to_string()))?;
                if n == 0 {
                    return Err(ParseError::BadFlag(flag.to_string()));
                }
                threads = Some(n);
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(value()?.clone());
                i += 2;
            }
            "--metrics" => {
                metrics = true;
                i += 1;
            }
            other => return Err(ParseError::BadFlag(other.to_string())),
        }
    }
    Ok(JobOpts {
        workload,
        budget,
        deadline_s: deadline,
        noise_cv: noise,
        seed,
        threads,
        trace_out,
        metrics,
    })
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, ParseError> {
    let mut opts = ServeOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, ParseError> {
            args.get(i + 1)
                .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
        };
        let bad = || ParseError::BadFlag(flag.to_string());
        match flag {
            "--jobs" | "-n" => {
                opts.jobs = value()?.parse().map_err(|_| bad())?;
                if opts.jobs == 0 {
                    return Err(bad());
                }
                i += 2;
            }
            "--workers" => {
                opts.workers = value()?.parse().map_err(|_| bad())?;
                if opts.workers == 0 {
                    return Err(bad());
                }
                i += 2;
            }
            "--reps" => {
                opts.reps = value()?.parse().map_err(|_| bad())?;
                i += 2;
            }
            "--noise" => {
                opts.noise_cv = value()?.parse().map_err(|_| bad())?;
                i += 2;
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|_| bad())?;
                i += 2;
            }
            "--threads" | "-t" => {
                let n: usize = value()?.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                opts.threads = Some(n);
                i += 2;
            }
            "--trace-out" => {
                opts.trace_out = Some(value()?.clone());
                i += 2;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--listen" | "-l" => {
                opts.listen = Some(value()?.clone());
                i += 2;
            }
            "--journal" => {
                opts.journal = Some(value()?.clone());
                i += 2;
            }
            other => return Err(ParseError::BadFlag(other.to_string())),
        }
    }
    Ok(opts)
}

fn parse_submit_opts(args: &[String]) -> Result<SubmitOpts, ParseError> {
    // Peel off the submit-specific flags, hand the rest to the shared
    // job-option parser.
    let mut workers = ServiceConfig::default().workers;
    let mut reps = 1u32;
    let mut json = false;
    let mut connect = None;
    let mut tenant = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, ParseError> {
            args.get(i + 1)
                .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
        };
        let bad = || ParseError::BadFlag(flag.to_string());
        match flag {
            "--workers" => {
                workers = value()?.parse().map_err(|_| bad())?;
                if workers == 0 {
                    return Err(bad());
                }
                i += 2;
            }
            "--reps" => {
                reps = value()?.parse().map_err(|_| bad())?;
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--connect" | "-c" => {
                connect = Some(value()?.clone());
                i += 2;
            }
            "--tenant" => {
                tenant = Some(value()?.clone());
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok(SubmitOpts {
        job: parse_job_opts(&rest)?,
        workers,
        reps,
        json,
        connect,
        tenant,
    })
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(command) = args.first() else {
        return Err(ParseError::Empty);
    };
    let rest = &args[1..];
    match command.as_str() {
        "workloads" => Ok(Command::Workloads),
        "plan" => Ok(Command::Plan(parse_job_opts(rest)?)),
        "simulate" | "sim" => Ok(Command::Simulate(parse_job_opts(rest)?)),
        "baselines" => Ok(Command::Baselines(parse_job_opts(rest)?)),
        "timeline" => Ok(Command::Timeline(parse_job_opts(rest)?)),
        "frontier" => Ok(Command::Frontier(parse_job_opts(rest)?)),
        "serve" => Ok(Command::Serve(parse_serve_opts(rest)?)),
        "submit" => Ok(Command::Submit(parse_submit_opts(rest)?)),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_plan_with_budget() {
        let cmd = parse(&argv("plan --workload sort-100gb --budget 0.25")).unwrap();
        let Command::Plan(opts) = cmd else { panic!() };
        assert_eq!(opts.workload, WorkloadSpec::Sort100);
        assert_eq!(opts.budget, Some(0.25));
        assert_eq!(opts.deadline_s, None);
    }

    #[test]
    fn parses_simulate_with_noise_and_seed() {
        let cmd = parse(&argv("sim -w query --deadline 60 --noise 0.2 --seed 7")).unwrap();
        let Command::Simulate(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.workload, WorkloadSpec::QueryUservisits);
        assert_eq!(opts.deadline_s, Some(60.0));
        assert_eq!(opts.noise_cv, 0.2);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn workload_aliases() {
        assert_eq!(
            parse_workload("wc20").unwrap(),
            WorkloadSpec::wordcount_gb(20)
        );
        assert_eq!(parse_workload("SORT").unwrap(), WorkloadSpec::Sort100);
        assert!(parse_workload("nope").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(parse(&[]), Err(ParseError::Empty));
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&argv("plan --budget")),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&argv("plan --wat 3")),
            Err(ParseError::BadFlag(_))
        ));
    }

    #[test]
    fn frontier_parses() {
        let cmd = parse(&argv("frontier -w sort")).unwrap();
        let Command::Frontier(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.workload, WorkloadSpec::Sort100);
        assert_eq!(opts.threads, None);
    }

    #[test]
    fn threads_flag_parses_everywhere() {
        let cmd = parse(&argv("plan -w wc1 --threads 4")).unwrap();
        assert_eq!(cmd.threads(), Some(4));
        let Command::Plan(opts) = cmd else { panic!() };
        assert_eq!(opts.threads, Some(4));

        let cmd = parse(&argv("frontier -w sort -t 8")).unwrap();
        assert_eq!(cmd.threads(), Some(8));
        let Command::Frontier(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.workload, WorkloadSpec::Sort100);

        // Default: no override.
        assert_eq!(parse(&argv("plan -w wc1")).unwrap().threads(), None);
        // Zero threads is meaningless.
        assert!(matches!(
            parse(&argv("plan --threads 0")),
            Err(ParseError::BadFlag(_))
        ));
    }

    #[test]
    fn telemetry_flags_parse() {
        let cmd = parse(&argv("sim -w wc1 --trace-out trace.json --metrics")).unwrap();
        assert_eq!(cmd.trace_out(), Some("trace.json"));
        assert!(cmd.metrics());

        // Default: telemetry off.
        let cmd = parse(&argv("sim -w wc1")).unwrap();
        assert_eq!(cmd.trace_out(), None);
        assert!(!cmd.metrics());

        // Available on every job subcommand, e.g. baselines.
        let cmd = parse(&argv("baselines -w sort --metrics")).unwrap();
        assert!(cmd.metrics());

        // --trace-out needs a path.
        assert!(matches!(
            parse(&argv("sim --trace-out")),
            Err(ParseError::MissingValue(_))
        ));
    }

    #[test]
    fn help_parses() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn serve_parses_with_defaults_and_overrides() {
        let cmd = parse(&argv("serve")).unwrap();
        let Command::Serve(opts) = cmd else { panic!() };
        assert_eq!(opts, ServeOpts::default());

        let cmd = parse(&argv(
            "serve --jobs 20 --workers 4 --reps 2 --seed 7 --metrics",
        ))
        .unwrap();
        assert!(cmd.metrics());
        let Command::Serve(opts) = cmd else { panic!() };
        assert_eq!(opts.jobs, 20);
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.reps, 2);
        assert_eq!(opts.seed, 7);

        // Telemetry/threads flags ride along like the job subcommands.
        let cmd = parse(&argv("serve -t 4 --trace-out svc.json")).unwrap();
        assert_eq!(cmd.threads(), Some(4));
        assert_eq!(cmd.trace_out(), Some("svc.json"));
        assert!(cmd.job_opts().is_none());

        // Zero jobs or workers is meaningless.
        assert!(matches!(
            parse(&argv("serve --jobs 0")),
            Err(ParseError::BadFlag(_))
        ));
        assert!(matches!(
            parse(&argv("serve --workers 0")),
            Err(ParseError::BadFlag(_))
        ));
        assert!(matches!(
            parse(&argv("serve --wat")),
            Err(ParseError::BadFlag(_))
        ));
    }

    #[test]
    fn submit_parses_job_flags_plus_service_flags() {
        let cmd = parse(&argv(
            "submit -w sort --budget 4 --workers 3 --reps 2 --json --seed 9",
        ))
        .unwrap();
        let Command::Submit(opts) = cmd else { panic!() };
        assert_eq!(opts.job.workload, WorkloadSpec::Sort100);
        assert_eq!(opts.job.budget, Some(4.0));
        assert_eq!(opts.job.seed, 9);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.reps, 2);
        assert!(opts.json);

        // Defaults, and the shared accessors see the inner JobOpts.
        let cmd = parse(&argv("submit -w wc1 --metrics")).unwrap();
        assert!(cmd.metrics());
        let Command::Submit(opts) = cmd else { panic!() };
        assert_eq!(opts.workers, ServiceConfig::default().workers);
        assert_eq!(opts.reps, 1);
        assert!(!opts.json);

        assert!(matches!(
            parse(&argv("submit --workers")),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&argv("submit --wat 3")),
            Err(ParseError::BadFlag(_))
        ));
    }

    #[test]
    fn serve_listen_parses() {
        let cmd = parse(&argv("serve --listen 127.0.0.1:7878 --workers 4")).unwrap();
        let Command::Serve(opts) = cmd else { panic!() };
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(opts.workers, 4);

        // Default is the in-process demo mix.
        let Command::Serve(opts) = parse(&argv("serve")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.listen, None);

        assert!(matches!(
            parse(&argv("serve --listen")),
            Err(ParseError::MissingValue(_))
        ));
    }

    #[test]
    fn serve_journal_parses() {
        let cmd = parse(&argv(
            "serve --listen 127.0.0.1:0 --journal /tmp/astra.journal",
        ))
        .unwrap();
        let Command::Serve(opts) = cmd else { panic!() };
        assert_eq!(opts.journal.as_deref(), Some("/tmp/astra.journal"));

        let Command::Serve(opts) = parse(&argv("serve")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.journal, None);

        assert!(matches!(
            parse(&argv("serve --journal")),
            Err(ParseError::MissingValue(_))
        ));
    }

    #[test]
    fn submit_connect_and_tenant_parse() {
        let cmd = parse(&argv(
            "submit -w wc1 --connect 127.0.0.1:7878 --tenant acme --json",
        ))
        .unwrap();
        let Command::Submit(opts) = cmd else { panic!() };
        assert_eq!(opts.connect.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(opts.tenant.as_deref(), Some("acme"));
        assert!(opts.json);

        // Defaults: in-process, anonymous tenant.
        let Command::Submit(opts) = parse(&argv("submit -w wc1")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.connect, None);
        assert_eq!(opts.tenant, None);

        assert!(matches!(
            parse(&argv("submit --connect")),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&argv("submit --tenant")),
            Err(ParseError::MissingValue(_))
        ));
    }
}
