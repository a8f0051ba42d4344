//! Visualise a job's execution timeline on the FaaS simulator — the
//! paper's Fig. 3, for any configuration you like.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use astra::core::{Plan, PlanSpec, ReduceSpec};
use astra::faas::SimConfig;
use astra::mapreduce::simulate;
use astra::model::{JobSpec, Platform, WorkloadProfile};
use astra::pricing::PriceCatalog;

fn main() {
    let job = JobSpec::uniform("demo", 10, 0.2, WorkloadProfile::uniform_test());
    let platform = Platform::aws_lambda();
    let catalog = PriceCatalog::aws_2020();

    for (title, mem, k) in [
        ("3 objects per lambda at 128 MB", 128u32, 3usize),
        ("2 objects per lambda at 3008 MB", 3008, 2),
    ] {
        let plan = Plan::evaluate(
            &job,
            &platform,
            &catalog,
            PlanSpec {
                mapper_mem_mb: mem,
                coordinator_mem_mb: mem,
                reducer_mem_mb: mem,
                objects_per_mapper: k,
                reduce_spec: ReduceSpec::PerReducer(k),
            },
        )
        .expect("feasible");
        let report =
            simulate(&job, &plan, SimConfig::deterministic(platform.clone())).expect("simulates");
        println!("=== {title} ===");
        println!(
            "JCT {:.2}s, cost {}, {} invocations",
            report.jct_s(),
            report.total_cost(),
            report.invocation_count()
        );
        println!("legend: c cold-start | r GET | # compute | w PUT | . waiting\n");
        println!("{}", report.trace.ascii_gantt(100));
    }
}
