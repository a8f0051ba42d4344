//! Strict JSON wire format for service types.
//!
//! The offline `serde` shim's derives are no-ops, so the wire format is
//! explicit code over the `serde_json` document model — which also
//! makes the service's compatibility promises explicit:
//!
//! * **Unknown fields are errors.** A request carrying a field this
//!   version does not understand is rejected (mapped onto the
//!   `Rejected` lifecycle state by [`crate::ServiceHandle::submit_json`])
//!   rather than silently ignored — a misspelt `"deadline_s"` must not
//!   quietly plan an unconstrained job.
//! * **Money is exact.** Budgets travel as decimal nanodollar strings
//!   (`"budget_nanos": "2500000000"`), never floats, so a budget
//!   round-trips bit-identically; `"budget_dollars": 2.5` is accepted
//!   as a convenience on input.
//! * **Round-trip is lossless.** `from_json(to_json(x)) == x` for every
//!   request/status/snapshot — `tests/service_serde.rs` pins it.

use astra_core::Objective;
use astra_model::{JobSpec, WorkloadProfile};
use astra_pricing::Money;
use serde_json::{json, Map, Value};

use crate::types::{JobRequest, JobSnapshot, SimOptions};

/// Why decoding failed. The message is what lands in a `Rejected`
/// snapshot's reason.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Not valid JSON at all.
    Parse(String),
    /// A field this version does not understand.
    UnknownField {
        /// The object it appeared in.
        context: &'static str,
        /// The offending key.
        field: String,
    },
    /// A required field is absent.
    MissingField {
        /// The object it is missing from.
        context: &'static str,
        /// The absent key.
        field: &'static str,
    },
    /// A field is present but has the wrong type or an invalid value.
    Invalid {
        /// The object the field lives in.
        context: &'static str,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Parse(m) => write!(f, "invalid JSON: {m}"),
            WireError::UnknownField { context, field } => {
                write!(f, "unknown field '{field}' in {context}")
            }
            WireError::MissingField { context, field } => {
                write!(f, "missing field '{field}' in {context}")
            }
            WireError::Invalid { context, message } => {
                write!(f, "invalid {context}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Check that `object` only carries keys from `allowed`.
fn deny_unknown(
    object: &Map<String, Value>,
    context: &'static str,
    allowed: &[&str],
) -> Result<(), WireError> {
    for key in object.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(WireError::UnknownField {
                context,
                field: key.clone(),
            });
        }
    }
    Ok(())
}

fn as_object<'v>(
    value: &'v Value,
    context: &'static str,
) -> Result<&'v Map<String, Value>, WireError> {
    value.as_object().ok_or(WireError::Invalid {
        context,
        message: "expected a JSON object".to_string(),
    })
}

fn get_str(
    object: &Map<String, Value>,
    context: &'static str,
    field: &'static str,
) -> Result<String, WireError> {
    object
        .get(field)
        .ok_or(WireError::MissingField { context, field })?
        .as_str()
        .map(String::from)
        .ok_or(WireError::Invalid {
            context,
            message: format!("'{field}' must be a string"),
        })
}

fn get_f64(
    object: &Map<String, Value>,
    context: &'static str,
    field: &'static str,
) -> Result<f64, WireError> {
    object
        .get(field)
        .ok_or(WireError::MissingField { context, field })?
        .as_f64()
        .ok_or(WireError::Invalid {
            context,
            message: format!("'{field}' must be a number"),
        })
}

fn get_bool(
    object: &Map<String, Value>,
    context: &'static str,
    field: &'static str,
) -> Result<bool, WireError> {
    object
        .get(field)
        .ok_or(WireError::MissingField { context, field })?
        .as_bool()
        .ok_or(WireError::Invalid {
            context,
            message: format!("'{field}' must be a boolean"),
        })
}

fn get_u64(
    object: &Map<String, Value>,
    context: &'static str,
    field: &'static str,
) -> Result<u64, WireError> {
    object
        .get(field)
        .ok_or(WireError::MissingField { context, field })?
        .as_u64()
        .ok_or(WireError::Invalid {
            context,
            message: format!("'{field}' must be a non-negative integer"),
        })
}

// ---------------------------------------------------------------- profile

const PROFILE_FIELDS: [&str; 8] = [
    "name",
    "map_secs_per_mb_128",
    "reduce_secs_per_mb_128",
    "coord_secs_per_mb_128",
    "shuffle_ratio",
    "reduce_ratio",
    "state_object_mb",
    "single_pass_reduce",
];

/// Encode a workload profile.
pub fn profile_to_json(p: &WorkloadProfile) -> Value {
    json!({
        "name": p.name.clone(),
        "map_secs_per_mb_128": p.map_secs_per_mb_128,
        "reduce_secs_per_mb_128": p.reduce_secs_per_mb_128,
        "coord_secs_per_mb_128": p.coord_secs_per_mb_128,
        "shuffle_ratio": p.shuffle_ratio,
        "reduce_ratio": p.reduce_ratio,
        "state_object_mb": p.state_object_mb,
        "single_pass_reduce": p.single_pass_reduce,
    })
}

/// Decode a workload profile (strict).
pub fn profile_from_json(value: &Value) -> Result<WorkloadProfile, WireError> {
    const CTX: &str = "profile";
    let object = as_object(value, CTX)?;
    deny_unknown(object, CTX, &PROFILE_FIELDS)?;
    Ok(WorkloadProfile {
        name: get_str(object, CTX, "name")?,
        map_secs_per_mb_128: get_f64(object, CTX, "map_secs_per_mb_128")?,
        reduce_secs_per_mb_128: get_f64(object, CTX, "reduce_secs_per_mb_128")?,
        coord_secs_per_mb_128: get_f64(object, CTX, "coord_secs_per_mb_128")?,
        shuffle_ratio: get_f64(object, CTX, "shuffle_ratio")?,
        reduce_ratio: get_f64(object, CTX, "reduce_ratio")?,
        state_object_mb: get_f64(object, CTX, "state_object_mb")?,
        single_pass_reduce: get_bool(object, CTX, "single_pass_reduce")?,
    })
}

// ---------------------------------------------------------------- job spec

/// Encode a job spec.
pub fn job_spec_to_json(job: &JobSpec) -> Value {
    json!({
        "name": job.name.clone(),
        "object_sizes_mb": Value::Array(
            job.object_sizes_mb.iter().map(|&mb| Value::from(mb)).collect()
        ),
        "profile": profile_to_json(&job.profile),
    })
}

/// Decode a job spec (strict).
pub fn job_spec_from_json(value: &Value) -> Result<JobSpec, WireError> {
    const CTX: &str = "job";
    let object = as_object(value, CTX)?;
    deny_unknown(object, CTX, &["name", "object_sizes_mb", "profile"])?;
    let sizes = object
        .get("object_sizes_mb")
        .ok_or(WireError::MissingField {
            context: CTX,
            field: "object_sizes_mb",
        })?
        .as_array()
        .ok_or(WireError::Invalid {
            context: CTX,
            message: "'object_sizes_mb' must be an array".to_string(),
        })?
        .iter()
        .map(|v| {
            v.as_f64().ok_or(WireError::Invalid {
                context: CTX,
                message: "'object_sizes_mb' entries must be numbers".to_string(),
            })
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    let profile = profile_from_json(object.get("profile").ok_or(WireError::MissingField {
        context: CTX,
        field: "profile",
    })?)?;
    Ok(JobSpec {
        name: get_str(object, CTX, "name")?,
        object_sizes_mb: sizes,
        profile,
    })
}

// --------------------------------------------------------------- objective

/// Encode an objective. Budgets are emitted as exact nanodollar
/// strings; an unbounded deadline (`Objective::cheapest()` carries
/// `f64::INFINITY`, which JSON numbers cannot express) encodes as
/// `null`.
pub fn objective_to_json(objective: &Objective) -> Value {
    match objective {
        Objective::MinimizeTime { budget } => json!({
            "minimize": "time",
            "budget_nanos": budget.nanos().to_string(),
        }),
        Objective::MinimizeCost { deadline_s } => json!({
            "minimize": "cost",
            "deadline_s": if deadline_s.is_finite() {
                Value::from(*deadline_s)
            } else {
                Value::Null
            },
        }),
    }
}

/// Decode an objective (strict). Accepts `budget_nanos` (exact decimal
/// string) or `budget_dollars` (float convenience), but not both.
pub fn objective_from_json(value: &Value) -> Result<Objective, WireError> {
    const CTX: &str = "objective";
    let object = as_object(value, CTX)?;
    deny_unknown(
        object,
        CTX,
        &["minimize", "budget_nanos", "budget_dollars", "deadline_s"],
    )?;
    match get_str(object, CTX, "minimize")?.as_str() {
        "time" => {
            let budget = match (object.get("budget_nanos"), object.get("budget_dollars")) {
                (Some(nanos), None) => {
                    let text = nanos.as_str().ok_or(WireError::Invalid {
                        context: CTX,
                        message: "'budget_nanos' must be a decimal string".to_string(),
                    })?;
                    Money::from_nanos(text.parse::<i128>().map_err(|e| WireError::Invalid {
                        context: CTX,
                        message: format!("'budget_nanos': {e}"),
                    })?)
                }
                (None, Some(dollars)) => {
                    Money::from_dollars_f64(dollars.as_f64().ok_or(WireError::Invalid {
                        context: CTX,
                        message: "'budget_dollars' must be a number".to_string(),
                    })?)
                }
                (Some(_), Some(_)) => {
                    return Err(WireError::Invalid {
                        context: CTX,
                        message: "give 'budget_nanos' or 'budget_dollars', not both".to_string(),
                    })
                }
                (None, None) => {
                    return Err(WireError::MissingField {
                        context: CTX,
                        field: "budget_nanos",
                    })
                }
            };
            if object.get("deadline_s").is_some() {
                return Err(WireError::Invalid {
                    context: CTX,
                    message: "'deadline_s' does not apply when minimizing time".to_string(),
                });
            }
            Ok(Objective::MinimizeTime { budget })
        }
        "cost" => {
            if object.get("budget_nanos").is_some() || object.get("budget_dollars").is_some() {
                return Err(WireError::Invalid {
                    context: CTX,
                    message: "a budget does not apply when minimizing cost".to_string(),
                });
            }
            let deadline_s = match object.get("deadline_s") {
                None => {
                    return Err(WireError::MissingField {
                        context: CTX,
                        field: "deadline_s",
                    })
                }
                // null = unbounded (the encoding of Objective::cheapest()).
                Some(Value::Null) => f64::INFINITY,
                Some(_) => get_f64(object, CTX, "deadline_s")?,
            };
            Ok(Objective::MinimizeCost { deadline_s })
        }
        other => Err(WireError::Invalid {
            context: CTX,
            message: format!("'minimize' must be \"time\" or \"cost\", got \"{other}\""),
        }),
    }
}

// ----------------------------------------------------------------- request

/// Encode a job request.
pub fn job_request_to_json(request: &JobRequest) -> Value {
    json!({
        "name": request.name.clone(),
        "tenant": request.tenant.clone(),
        "job": job_spec_to_json(&request.job),
        "objective": objective_to_json(&request.objective),
        "sim": {
            "noise_cv": request.sim.noise_cv,
            "seed": request.sim.seed,
            "replications": request.sim.replications as u64,
        },
    })
}

/// Decode a job request (strict). `tenant` and `sim` are optional and
/// default; everything else is required.
pub fn job_request_from_json(value: &Value) -> Result<JobRequest, WireError> {
    const CTX: &str = "request";
    let object = as_object(value, CTX)?;
    deny_unknown(object, CTX, &["name", "tenant", "job", "objective", "sim"])?;
    let sim = match object.get("sim") {
        None => SimOptions::default(),
        Some(v) => {
            const SIM_CTX: &str = "sim options";
            let sim_obj = as_object(v, SIM_CTX)?;
            deny_unknown(sim_obj, SIM_CTX, &["noise_cv", "seed", "replications"])?;
            let defaults = SimOptions::default();
            SimOptions {
                noise_cv: match sim_obj.get("noise_cv") {
                    Some(_) => get_f64(sim_obj, SIM_CTX, "noise_cv")?,
                    None => defaults.noise_cv,
                },
                seed: match sim_obj.get("seed") {
                    Some(_) => get_u64(sim_obj, SIM_CTX, "seed")?,
                    None => defaults.seed,
                },
                replications: match sim_obj.get("replications") {
                    Some(_) => {
                        let n = get_u64(sim_obj, SIM_CTX, "replications")?;
                        u32::try_from(n).map_err(|_| WireError::Invalid {
                            context: SIM_CTX,
                            message: format!("'replications' {n} out of range"),
                        })?
                    }
                    None => defaults.replications,
                },
            }
        }
    };
    Ok(JobRequest {
        name: get_str(object, CTX, "name")?,
        tenant: match object.get("tenant") {
            Some(_) => get_str(object, CTX, "tenant")?,
            None => String::new(),
        },
        job: job_spec_from_json(object.get("job").ok_or(WireError::MissingField {
            context: CTX,
            field: "job",
        })?)?,
        objective: objective_from_json(object.get("objective").ok_or(
            WireError::MissingField {
                context: CTX,
                field: "objective",
            },
        )?)?,
        sim,
    })
}

/// Parse a job request from JSON text.
pub fn job_request_from_str(text: &str) -> Result<JobRequest, WireError> {
    let value = serde_json::from_str(text).map_err(|e| WireError::Parse(e.to_string()))?;
    job_request_from_json(&value)
}

// ---------------------------------------------------------------- snapshot

/// Encode a job snapshot (status answers; one-way — the service never
/// ingests snapshots).
pub fn snapshot_to_json(snap: &JobSnapshot) -> Value {
    let history: Vec<Value> = snap
        .history
        .iter()
        .map(|&(status, at_ns)| json!({ "status": status.as_str(), "at_ns": at_ns }))
        .collect();
    let plan = match &snap.plan {
        None => Value::Null,
        Some(p) => json!({
            "summary": p.summary.clone(),
            "predicted_jct_s": p.predicted_jct_s,
            "predicted_cost_nanos": p.predicted_cost.nanos().to_string(),
        }),
    };
    let sim = match &snap.sim {
        None => Value::Null,
        Some(s) => json!({
            "jct_s": Value::Array(s.jct_s.iter().map(|&x| Value::from(x)).collect()),
            "cost_nanos": Value::Array(
                s.cost.iter().map(|c| Value::from(c.nanos().to_string())).collect()
            ),
            "events": Value::Array(s.events.iter().map(|&e| Value::from(e)).collect()),
            "mean_jct_s": s.mean_jct_s(),
            "mean_cost_nanos": s.mean_cost().nanos().to_string(),
        }),
    };
    let mut value = json!({
        "id": snap.id,
        "name": snap.request.name.clone(),
        "tenant": snap.request.tenant.clone(),
        "status": snap.status.as_str(),
        "history": Value::Array(history),
        "reason": snap.reason.clone().map(Value::from).unwrap_or(Value::Null),
        "plan": plan,
        "sim": sim,
        "session_cache_hit": snap.session_cache_hit,
        "metrics": {
            "queue_wait_ns": snap.metrics.queue_wait_ns,
            "plan_ns": snap.metrics.plan_ns,
            "sim_ns": snap.metrics.sim_ns,
            "total_ns": snap.metrics.total_ns,
        },
    });
    // Emitted only on overload-shed rejections, so ordinary snapshots
    // (including PROTOCOL.md's byte-exact transcript) are unchanged.
    if let Some(retry_after_ms) = snap.retry_after_ms {
        if let Value::Object(map) = &mut value {
            map.insert("retry_after_ms".to_string(), Value::from(retry_after_ms));
        }
    }
    value
}

// ----------------------------------------------------------------- journal
//
// The journal persists *complete* snapshots — unlike the status answer
// above they carry the full request and the chosen PlanSpec, so a
// restarted daemon can serve terminal results without re-planning and
// re-admit the rest. `from(to(x)) == x` bit-for-bit: Money travels as
// nanodollar strings and f64s rely on Rust's shortest-round-trip float
// formatting (which the serde_json shim uses).

/// Encode a plan spec (journal records; not part of the status wire
/// format).
pub fn plan_spec_to_json(spec: &astra_core::PlanSpec) -> Value {
    let reduce_spec = match &spec.reduce_spec {
        astra_core::ReduceSpec::PerReducer(k) => json!({ "per_reducer": *k as u64 }),
        astra_core::ReduceSpec::ExplicitSteps(steps) => json!({
            "explicit_steps": Value::Array(steps.iter().map(|&s| Value::from(s as u64)).collect()),
        }),
    };
    json!({
        "mapper_mem_mb": spec.mapper_mem_mb,
        "coordinator_mem_mb": spec.coordinator_mem_mb,
        "reducer_mem_mb": spec.reducer_mem_mb,
        "objects_per_mapper": spec.objects_per_mapper as u64,
        "reduce_spec": reduce_spec,
    })
}

/// Decode a plan spec (strict).
pub fn plan_spec_from_json(value: &Value) -> Result<astra_core::PlanSpec, WireError> {
    const CTX: &str = "plan spec";
    let object = as_object(value, CTX)?;
    deny_unknown(
        object,
        CTX,
        &[
            "mapper_mem_mb",
            "coordinator_mem_mb",
            "reducer_mem_mb",
            "objects_per_mapper",
            "reduce_spec",
        ],
    )?;
    let mem = |field| -> Result<u32, WireError> {
        let raw = get_u64(object, CTX, field)?;
        u32::try_from(raw).map_err(|_| WireError::Invalid {
            context: CTX,
            message: format!("'{field}' {raw} out of range"),
        })
    };
    let reduce_value = object.get("reduce_spec").ok_or(WireError::MissingField {
        context: CTX,
        field: "reduce_spec",
    })?;
    const RCTX: &str = "reduce spec";
    let reduce_obj = as_object(reduce_value, RCTX)?;
    deny_unknown(reduce_obj, RCTX, &["per_reducer", "explicit_steps"])?;
    let reduce_spec = match (
        reduce_obj.get("per_reducer"),
        reduce_obj.get("explicit_steps"),
    ) {
        (Some(_), None) => {
            astra_core::ReduceSpec::PerReducer(get_u64(reduce_obj, RCTX, "per_reducer")? as usize)
        }
        (None, Some(steps)) => {
            let steps = steps
                .as_array()
                .ok_or(WireError::Invalid {
                    context: RCTX,
                    message: "'explicit_steps' must be an array".to_string(),
                })?
                .iter()
                .map(|v| {
                    v.as_u64().map(|n| n as usize).ok_or(WireError::Invalid {
                        context: RCTX,
                        message: "'explicit_steps' entries must be non-negative integers"
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<usize>, WireError>>()?;
            astra_core::ReduceSpec::ExplicitSteps(steps)
        }
        _ => {
            return Err(WireError::Invalid {
                context: RCTX,
                message: "give exactly one of 'per_reducer' or 'explicit_steps'".to_string(),
            })
        }
    };
    Ok(astra_core::PlanSpec {
        mapper_mem_mb: mem("mapper_mem_mb")?,
        coordinator_mem_mb: mem("coordinator_mem_mb")?,
        reducer_mem_mb: mem("reducer_mem_mb")?,
        objects_per_mapper: get_u64(object, CTX, "objects_per_mapper")? as usize,
        reduce_spec,
    })
}

fn money_from_nanos_str(
    object: &Map<String, Value>,
    context: &'static str,
    field: &'static str,
) -> Result<Money, WireError> {
    let text = object
        .get(field)
        .ok_or(WireError::MissingField { context, field })?
        .as_str()
        .ok_or(WireError::Invalid {
            context,
            message: format!("'{field}' must be a decimal string"),
        })?;
    Ok(Money::from_nanos(text.parse::<i128>().map_err(|e| {
        WireError::Invalid {
            context,
            message: format!("'{field}': {e}"),
        }
    })?))
}

/// Encode a full job snapshot for the journal (complete request, plan
/// spec, and `retry_after_ms` included).
pub fn snapshot_to_journal_json(snap: &JobSnapshot) -> Value {
    let history: Vec<Value> = snap
        .history
        .iter()
        .map(|&(status, at_ns)| json!({ "status": status.as_str(), "at_ns": at_ns }))
        .collect();
    let plan = match &snap.plan {
        None => Value::Null,
        Some(p) => json!({
            "spec": plan_spec_to_json(&p.spec),
            "predicted_jct_s": p.predicted_jct_s,
            "predicted_cost_nanos": p.predicted_cost.nanos().to_string(),
            "summary": p.summary.clone(),
        }),
    };
    let sim = match &snap.sim {
        None => Value::Null,
        Some(s) => json!({
            "jct_s": Value::Array(s.jct_s.iter().map(|&x| Value::from(x)).collect()),
            "cost_nanos": Value::Array(
                s.cost.iter().map(|c| Value::from(c.nanos().to_string())).collect()
            ),
            "events": Value::Array(s.events.iter().map(|&e| Value::from(e)).collect()),
        }),
    };
    json!({
        "id": snap.id,
        "request": job_request_to_json(&snap.request),
        "status": snap.status.as_str(),
        "history": Value::Array(history),
        "reason": snap.reason.clone().map(Value::from).unwrap_or(Value::Null),
        "plan": plan,
        "sim": sim,
        "metrics": {
            "queue_wait_ns": snap.metrics.queue_wait_ns,
            "plan_ns": snap.metrics.plan_ns,
            "sim_ns": snap.metrics.sim_ns,
            "total_ns": snap.metrics.total_ns,
        },
        "session_cache_hit": snap.session_cache_hit,
        "retry_after_ms": snap.retry_after_ms.map(Value::from).unwrap_or(Value::Null),
    })
}

/// Decode a journal snapshot (strict). The exact inverse of
/// [`snapshot_to_journal_json`].
pub fn snapshot_from_journal_json(value: &Value) -> Result<JobSnapshot, WireError> {
    const CTX: &str = "journal snapshot";
    let object = as_object(value, CTX)?;
    deny_unknown(
        object,
        CTX,
        &[
            "id",
            "request",
            "status",
            "history",
            "reason",
            "plan",
            "sim",
            "metrics",
            "session_cache_hit",
            "retry_after_ms",
        ],
    )?;
    let status_name = get_str(object, CTX, "status")?;
    let status = crate::types::JobStatus::parse(&status_name).ok_or(WireError::Invalid {
        context: CTX,
        message: format!("unknown status '{status_name}'"),
    })?;
    let history = object
        .get("history")
        .ok_or(WireError::MissingField {
            context: CTX,
            field: "history",
        })?
        .as_array()
        .ok_or(WireError::Invalid {
            context: CTX,
            message: "'history' must be an array".to_string(),
        })?
        .iter()
        .map(|entry| {
            const HCTX: &str = "history entry";
            let entry = as_object(entry, HCTX)?;
            deny_unknown(entry, HCTX, &["status", "at_ns"])?;
            let name = get_str(entry, HCTX, "status")?;
            let status = crate::types::JobStatus::parse(&name).ok_or(WireError::Invalid {
                context: HCTX,
                message: format!("unknown status '{name}'"),
            })?;
            Ok((status, get_u64(entry, HCTX, "at_ns")?))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let plan = match object.get("plan") {
        None | Some(Value::Null) => None,
        Some(value) => {
            const PCTX: &str = "plan outcome";
            let plan = as_object(value, PCTX)?;
            deny_unknown(
                plan,
                PCTX,
                &["spec", "predicted_jct_s", "predicted_cost_nanos", "summary"],
            )?;
            Some(crate::types::PlanOutcome {
                spec: plan_spec_from_json(plan.get("spec").ok_or(WireError::MissingField {
                    context: PCTX,
                    field: "spec",
                })?)?,
                predicted_jct_s: get_f64(plan, PCTX, "predicted_jct_s")?,
                predicted_cost: money_from_nanos_str(plan, PCTX, "predicted_cost_nanos")?,
                summary: get_str(plan, PCTX, "summary")?,
            })
        }
    };
    let sim = match object.get("sim") {
        None | Some(Value::Null) => None,
        Some(value) => {
            const SCTX: &str = "sim outcome";
            let sim = as_object(value, SCTX)?;
            deny_unknown(sim, SCTX, &["jct_s", "cost_nanos", "events"])?;
            let array = |field: &'static str| -> Result<&Vec<Value>, WireError> {
                sim.get(field)
                    .ok_or(WireError::MissingField {
                        context: SCTX,
                        field,
                    })?
                    .as_array()
                    .ok_or(WireError::Invalid {
                        context: SCTX,
                        message: format!("'{field}' must be an array"),
                    })
            };
            let jct_s = array("jct_s")?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or(WireError::Invalid {
                        context: SCTX,
                        message: "'jct_s' entries must be numbers".to_string(),
                    })
                })
                .collect::<Result<Vec<f64>, WireError>>()?;
            let cost = array("cost_nanos")?
                .iter()
                .map(|v| {
                    let text = v.as_str().ok_or(WireError::Invalid {
                        context: SCTX,
                        message: "'cost_nanos' entries must be decimal strings".to_string(),
                    })?;
                    Ok(Money::from_nanos(text.parse::<i128>().map_err(|e| {
                        WireError::Invalid {
                            context: SCTX,
                            message: format!("'cost_nanos': {e}"),
                        }
                    })?))
                })
                .collect::<Result<Vec<Money>, WireError>>()?;
            let events = array("events")?
                .iter()
                .map(|v| {
                    v.as_u64().ok_or(WireError::Invalid {
                        context: SCTX,
                        message: "'events' entries must be non-negative integers".to_string(),
                    })
                })
                .collect::<Result<Vec<u64>, WireError>>()?;
            Some(crate::types::SimOutcome {
                jct_s,
                cost,
                events,
            })
        }
    };
    const MCTX: &str = "metrics";
    let metrics_obj = as_object(
        object.get("metrics").ok_or(WireError::MissingField {
            context: CTX,
            field: "metrics",
        })?,
        MCTX,
    )?;
    deny_unknown(
        metrics_obj,
        MCTX,
        &["queue_wait_ns", "plan_ns", "sim_ns", "total_ns"],
    )?;
    let metrics = crate::types::JobMetrics {
        queue_wait_ns: get_u64(metrics_obj, MCTX, "queue_wait_ns")?,
        plan_ns: get_u64(metrics_obj, MCTX, "plan_ns")?,
        sim_ns: get_u64(metrics_obj, MCTX, "sim_ns")?,
        total_ns: get_u64(metrics_obj, MCTX, "total_ns")?,
    };
    let retry_after_ms = match object.get("retry_after_ms") {
        None | Some(Value::Null) => None,
        Some(_) => Some(get_u64(object, CTX, "retry_after_ms")?),
    };
    Ok(JobSnapshot {
        id: get_u64(object, CTX, "id")?,
        request: job_request_from_json(object.get("request").ok_or(WireError::MissingField {
            context: CTX,
            field: "request",
        })?)?,
        status,
        history,
        reason: match object.get("reason") {
            None | Some(Value::Null) => None,
            Some(_) => Some(get_str(object, CTX, "reason")?),
        },
        plan,
        sim,
        metrics,
        session_cache_hit: get_bool(object, CTX, "session_cache_hit")?,
        retry_after_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn request() -> JobRequest {
        JobRequest::new(
            "wire-test",
            JobSpec::uniform("wire-test", 6, 1.5, WorkloadProfile::uniform_test()),
            Objective::min_time_with_budget_dollars(2.5),
        )
        .with_tenant("acme")
        .with_sim(SimOptions {
            noise_cv: 0.2,
            seed: 9,
            replications: 4,
        })
    }

    #[test]
    fn request_round_trips() {
        let original = request();
        let text = serde_json::to_string(&job_request_to_json(&original)).unwrap();
        assert_eq!(job_request_from_str(&text).unwrap(), original);
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        for (path, expected) in [
            ("frobnicate", "request"),
            ("job.frobnicate", "job"),
            ("job.profile.frobnicate", "profile"),
            ("objective.frobnicate", "objective"),
            ("sim.frobnicate", "sim options"),
        ] {
            let mut value = job_request_to_json(&request());
            // Walk to the parent object and plant the unknown key.
            let mut target = &mut value;
            let parts: Vec<&str> = path.split('.').collect();
            for part in &parts[..parts.len() - 1] {
                let Value::Object(map) = target else { panic!() };
                target = map.get_mut(*part).unwrap();
            }
            let Value::Object(map) = target else { panic!() };
            map.insert(parts.last().unwrap().to_string(), Value::Bool(true));

            let err = job_request_from_json(&value).unwrap_err();
            match err {
                WireError::UnknownField { context, field } => {
                    assert_eq!(context, expected, "path {path}");
                    assert_eq!(field, "frobnicate");
                }
                other => panic!("expected UnknownField for {path}, got {other}"),
            }
        }
    }

    #[test]
    fn budget_travels_exactly() {
        // A nanodollar amount a float would mangle.
        let request = JobRequest::new(
            "exact",
            JobSpec::uniform("exact", 2, 1.0, WorkloadProfile::uniform_test()),
            Objective::MinimizeTime {
                budget: Money::from_nanos(1_000_000_000_000_000_001),
            },
        );
        let text = serde_json::to_string(&job_request_to_json(&request)).unwrap();
        assert_eq!(
            job_request_from_str(&text).unwrap().objective,
            request.objective
        );
    }

    #[test]
    fn dollars_convenience_accepted_but_not_both() {
        let mut value = job_request_to_json(&request());
        {
            let Value::Object(map) = &mut value else {
                panic!()
            };
            let Some(Value::Object(obj)) = map.get_mut("objective") else {
                panic!()
            };
            obj.insert("budget_dollars".to_string(), Value::from(2.5));
        }
        let err = job_request_from_json(&value).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");

        {
            let Value::Object(map) = &mut value else {
                panic!()
            };
            let Some(Value::Object(obj)) = map.get_mut("objective") else {
                panic!()
            };
            obj.remove("budget_nanos");
        }
        let parsed = job_request_from_json(&value).unwrap();
        assert_eq!(
            parsed.objective,
            Objective::min_time_with_budget_dollars(2.5)
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(
            job_request_from_str("{not json"),
            Err(WireError::Parse(_))
        ));
        assert!(matches!(
            job_request_from_str("[]"),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            job_request_from_str("{}"),
            Err(WireError::MissingField { .. })
        ));
    }
}
