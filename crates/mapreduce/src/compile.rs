//! Compile an execution plan into FaaS op scripts.

use astra_core::Plan;
use astra_faas::{LambdaSpec, Op, StoreKind};
use astra_model::distribute::distribute_counts;
use astra_model::JobSpec;

use crate::keys;

/// The compiled form of one job: its input objects (pre-existing in the
/// store) and the root invocations to submit.
#[derive(Debug, Clone)]
pub struct CompiledJob {
    /// `(key, size_mb)` of every input object.
    pub inputs: Vec<(String, f64)>,
    /// Root specs: an unbilled client driver that runs the mappers, then
    /// fires the coordinator.
    pub roots: Vec<LambdaSpec>,
    /// The key under which the final result will appear.
    pub result_key: String,
}

/// Compile `plan` for `job` into simulator scripts.
///
/// The produced orchestration mirrors the paper's framework exactly:
///
/// * the *client driver* (the user's machine — unbilled) invokes all `j`
///   mappers concurrently, waits for the mapping phase, then invokes the
///   coordinator and exits;
/// * each *mapper* GETs its `k_M` input objects, computes, and PUTs one
///   shuffle object;
/// * the *coordinator* computes the step schedule, and for each step PUTs
///   a state object then invokes the step's reducers — waiting for every
///   step except the last, which it fires and forgets (paper Eq. 14);
/// * each *reducer* GETs the state object and its inputs, computes, and
///   PUTs one output object.
pub fn compile(job: &JobSpec, plan: &Plan) -> CompiledJob {
    let name = job.name.as_str();
    let profile = &job.profile;
    let structure = &plan.evaluation.perf.reduce.structure;

    let inputs: Vec<(String, f64)> = job
        .object_sizes_mb
        .iter()
        .enumerate()
        .map(|(i, &size)| (keys::input(name, i), size))
        .collect();

    // Mappers: consecutive greedy assignment of k_M objects each.
    let counts = distribute_counts(job.num_objects(), plan.spec.objects_per_mapper);
    let mut mappers = Vec::with_capacity(counts.len());
    let mut next_obj = 0usize;
    for (m, &count) in counts.iter().enumerate() {
        let my_objects = next_obj..next_obj + count;
        next_obj += count;
        let input_mb: f64 = my_objects.clone().map(|i| job.object_sizes_mb[i]).sum();
        let output_mb = input_mb * profile.shuffle_ratio;
        let mut ops: Vec<Op> = my_objects
            .map(|i| Op::Get {
                key: keys::input(name, i),
                store: StoreKind::Persistent,
            })
            .collect();
        ops.push(Op::Compute {
            secs_at_128: input_mb * profile.map_secs_per_mb_128,
        });
        ops.push(Op::Put {
            key: keys::shuffle(name, m),
            size_mb: output_mb,
            store: StoreKind::Ephemeral,
        });
        mappers.push(LambdaSpec::new(
            format!("mapper-{m}"),
            plan.spec.mapper_mem_mb,
            ops,
        ));
    }

    // Coordinator: plan compute, then per-step state PUT + reducer fanout.
    let num_steps = structure.num_steps();
    let mut coord_ops = vec![Op::Compute {
        secs_at_128: job.shuffle_mb() * profile.coord_secs_per_mb_128,
    }];
    for (p_idx, step) in structure.steps.iter().enumerate() {
        let p = p_idx + 1;
        coord_ops.push(Op::Put {
            key: keys::state(name, p),
            size_mb: profile.state_object_mb,
            store: StoreKind::Ephemeral,
        });
        let mut reducers = Vec::with_capacity(step.reducers());
        let mut next_input = 0usize;
        for (r, objs) in step.assignments.iter().enumerate() {
            let my_inputs = next_input..next_input + objs.len();
            next_input += objs.len();
            let input_mb: f64 = objs.iter().sum();
            let mut ops = vec![Op::Get {
                key: keys::state(name, p),
                store: StoreKind::Ephemeral,
            }];
            ops.extend(my_inputs.map(|idx| Op::Get {
                key: keys::step_input(name, p, idx),
                store: StoreKind::Ephemeral,
            }));
            ops.push(Op::Compute {
                secs_at_128: input_mb * profile.reduce_secs_per_mb_128,
            });
            ops.push(Op::Put {
                key: keys::reduce_out(name, p, r),
                size_mb: step.output_sizes[r],
                store: StoreKind::Ephemeral,
            });
            reducers.push(LambdaSpec::new(
                format!("reducer-{p}-{r}"),
                plan.spec.reducer_mem_mb,
                ops,
            ));
        }
        coord_ops.push(Op::Spawn {
            children: reducers,
            wait: p < num_steps, // final step is fire-and-forget (Eq. 14)
        });
    }
    let coordinator = LambdaSpec::new("coordinator", plan.spec.coordinator_mem_mb, coord_ops);

    let driver = LambdaSpec::client_driver(
        "client-driver",
        vec![
            Op::Spawn {
                children: mappers,
                wait: true,
            },
            Op::Spawn {
                children: vec![coordinator],
                wait: false,
            },
        ],
    );

    CompiledJob {
        inputs,
        roots: vec![driver],
        result_key: keys::result(name, num_steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::{Plan, PlanSpec, ReduceSpec};
    use astra_model::{Platform, WorkloadProfile};
    use astra_pricing::PriceCatalog;

    fn compiled(n: usize, k_m: usize, k_r: usize) -> (JobSpec, CompiledJob) {
        let job = JobSpec::uniform("job", n, 1.0, WorkloadProfile::uniform_test());
        let plan = Plan::evaluate(
            &job,
            &Platform::paper_literal(10.0),
            &PriceCatalog::aws_2020(),
            PlanSpec {
                mapper_mem_mb: 128,
                coordinator_mem_mb: 256,
                reducer_mem_mb: 512,
                objects_per_mapper: k_m,
                reduce_spec: ReduceSpec::PerReducer(k_r),
            },
        )
        .unwrap();
        let c = compile(&job, &plan);
        (job, c)
    }

    fn driver_children(c: &CompiledJob) -> (&[LambdaSpec], &LambdaSpec) {
        assert_eq!(c.roots.len(), 1);
        let driver = &c.roots[0];
        assert!(driver.client);
        let Op::Spawn {
            children: mappers,
            wait: true,
        } = &driver.ops[0]
        else {
            panic!("driver op 0 should spawn-wait mappers");
        };
        let Op::Spawn {
            children: coord,
            wait: false,
        } = &driver.ops[1]
        else {
            panic!("driver op 1 should fire the coordinator");
        };
        (mappers, &coord[0])
    }

    #[test]
    fn table_one_structure_compiles() {
        // 10 objects, k_M = 2, k_R = 2: 5 mappers, steps (3, 2, 1).
        let (_, c) = compiled(10, 2, 2);
        let (mappers, coordinator) = driver_children(&c);
        assert_eq!(mappers.len(), 5);
        assert_eq!(coordinator.name, "coordinator");
        // Coordinator: 1 compute + 3x (put + spawn) = 7 ops.
        assert_eq!(coordinator.ops.len(), 7);
        let spawns: Vec<(usize, bool)> = coordinator
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Spawn { children, wait } => Some((children.len(), *wait)),
                _ => None,
            })
            .collect();
        assert_eq!(spawns, vec![(3, true), (2, true), (1, false)]);
    }

    #[test]
    fn mapper_scripts_read_their_objects() {
        let (_, c) = compiled(10, 3, 2);
        let (mappers, _) = driver_children(&c);
        assert_eq!(mappers.len(), 4); // ceil(10/3)
                                      // Mapper 3 (last) gets only the remainder object.
        let gets = mappers[3]
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Get { .. }))
            .count();
        assert_eq!(gets, 1);
        let gets0 = mappers[0]
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Get { .. }))
            .count();
        assert_eq!(gets0, 3);
        assert_eq!(mappers[0].memory_mb, 128);
    }

    #[test]
    fn reducer_scripts_chain_between_steps() {
        let (_, c) = compiled(10, 2, 2);
        let (_, coordinator) = driver_children(&c);
        // Step 2's reducers must read step 1's outputs.
        let Op::Spawn {
            children: step2, ..
        } = &coordinator.ops[4]
        else {
            panic!();
        };
        let Op::Get { key, .. } = &step2[0].ops[1] else {
            panic!("first data get");
        };
        assert_eq!(key, &keys::reduce_out("job", 1, 0));
        // And each reducer reads the step's state object first.
        let Op::Get { key: state_key, .. } = &step2[0].ops[0] else {
            panic!();
        };
        assert_eq!(state_key, &keys::state("job", 2));
    }

    #[test]
    fn result_key_points_at_last_step() {
        let (_, c) = compiled(10, 2, 2);
        assert_eq!(c.result_key, keys::reduce_out("job", 3, 0));
    }

    #[test]
    fn inputs_enumerate_all_objects() {
        let (job, c) = compiled(7, 2, 2);
        assert_eq!(c.inputs.len(), 7);
        let total: f64 = c.inputs.iter().map(|(_, s)| s).sum();
        assert!((total - job.total_mb()).abs() < 1e-12);
    }
}
