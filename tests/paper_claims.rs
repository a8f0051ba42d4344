//! The paper's headline evaluation claims, as executable assertions over
//! the full pipeline (planner → simulator → bills). These are the
//! shape-level checks EXPERIMENTS.md reports on; if a refactor breaks a
//! claim, this suite fails before the harness would show it.

use astra::baselines::{Baseline, EmrCluster, SparkVmModel};
use astra::core::{Objective, Plan};
use astra::faas::SimConfig;
use astra::mapreduce::simulate;
use astra::model::{JobSpec, Platform};
use astra::pricing::{Money, PriceCatalog};
use astra::workloads::WorkloadSpec;

fn platform() -> Platform {
    Platform::aws_lambda()
}

fn astra() -> astra::core::Astra {
    astra::core::Astra::with_defaults()
}

/// One noisy measured run (seed 42, 10 % CV, relaxed timeout).
fn measure(job: &JobSpec, plan: &Plan) -> (f64, Money) {
    let mut relaxed = platform();
    relaxed.timeout_s = f64::INFINITY;
    let report = simulate(
        job,
        plan,
        SimConfig::deterministic(relaxed).with_noise(0.10, 42),
    )
    .expect("simulates");
    (report.jct_s(), report.total_cost())
}

fn baseline_plans(job: &JobSpec) -> Vec<(&'static str, Plan)> {
    let mut relaxed = platform();
    relaxed.timeout_s = f64::INFINITY;
    Baseline::all()
        .into_iter()
        .map(|b| {
            let plan =
                Plan::evaluate(job, &relaxed, &PriceCatalog::aws_2020(), b.spec_for(job)).unwrap();
            (b.name, plan)
        })
        .collect()
}

/// Fig. 7's claim: under the budget the priciest baseline spends, Astra
/// is the fastest system on every paper workload, without exceeding the
/// budget.
#[test]
fn budget_constrained_astra_beats_every_baseline_everywhere() {
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let baselines = baseline_plans(&job);
        let budget = baselines
            .iter()
            .map(|(_, p)| p.predicted_cost())
            .max()
            .unwrap();
        let plan = astra()
            .plan(&job, Objective::MinimizeTime { budget })
            .unwrap();
        assert!(plan.predicted_cost() <= budget, "{}", spec.label());
        let (astra_jct, _) = measure(&job, &plan);
        for (name, bplan) in &baselines {
            let (b_jct, _) = measure(&job, bplan);
            assert!(
                astra_jct < b_jct,
                "{}: Astra {astra_jct:.1}s vs {name} {b_jct:.1}s",
                spec.label()
            );
        }
    }
}

/// Fig. 8's claim: under a 2x-fastest QoS threshold, Astra is the
/// cheapest system on every paper workload and honours the threshold in
/// prediction.
#[test]
fn qos_constrained_astra_is_cheapest_everywhere() {
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let fastest = astra().plan(&job, Objective::fastest()).unwrap();
        let deadline = fastest.predicted_jct_s() * 2.0;
        let plan = astra()
            .plan(&job, Objective::min_cost_with_deadline_s(deadline))
            .unwrap();
        assert!(plan.predicted_jct_s() <= deadline + 1e-9);
        let (_, astra_cost) = measure(&job, &plan);
        for (name, bplan) in &baseline_plans(&job) {
            let (_, b_cost) = measure(&job, bplan);
            assert!(
                astra_cost < b_cost,
                "{}: Astra {astra_cost} vs {name} {b_cost}",
                spec.label()
            );
        }
    }
}

/// Fig. 9's claim: Astra beats EMR on completion time *and* cost for
/// both Wordcount 20 GB and Sort 100 GB.
#[test]
fn astra_beats_emr_on_both_metrics() {
    let cluster = EmrCluster::paper_setup();
    for spec in [WorkloadSpec::wordcount_gb(20), WorkloadSpec::Sort100] {
        let job = spec.into_job();
        let budget = baseline_plans(&job)
            .iter()
            .map(|(_, p)| p.predicted_cost())
            .max()
            .unwrap();
        let plan = astra()
            .plan(&job, Objective::MinimizeTime { budget })
            .unwrap();
        let (jct, cost) = measure(&job, &plan);
        let emr = cluster.run(&job);
        assert!(
            jct < emr.jct_s,
            "{}: {jct:.1} vs EMR {:.1}",
            spec.label(),
            emr.jct_s
        );
        assert!(
            cost.dollars() < emr.cost.dollars(),
            "{}: {cost} vs EMR {}",
            spec.label(),
            emr.cost
        );
    }
}

/// The Discussion's claim: ≥92 % cost reduction versus VM-based vanilla
/// Spark at matched completion time.
#[test]
fn astra_undercuts_vanilla_spark_by_92_percent() {
    let spark = SparkVmModel::paper_setup();
    for spec in [WorkloadSpec::wordcount_gb(1), WorkloadSpec::QueryUservisits] {
        let job = spec.into_job();
        let plan = astra()
            .plan(&job, Objective::min_cost_with_deadline_s(spark.jct_s(&job)))
            .unwrap();
        let (_, cost) = measure(&job, &plan);
        let saving = 1.0 - cost.dollars() / spark.cost(&job).dollars();
        assert!(saving >= 0.92, "{}: saving {saving:.3}", spec.label());
    }
}

/// The Discussion's overhead claim: planning takes "a few seconds on a
/// laptop" — we require < 30 s per workload even in debug-ish CI.
#[test]
fn planner_overhead_is_a_few_seconds() {
    for spec in WorkloadSpec::paper_suite() {
        let job = spec.into_job();
        let t0 = std::time::Instant::now();
        let _ = astra().plan(&job, Objective::fastest()).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed.as_secs_f64() < 30.0,
            "{}: planning took {elapsed:?}",
            spec.label()
        );
    }
}

/// Table I is reproduced exactly by the coordinator's schedule.
#[test]
fn table_one_orchestration_is_exact() {
    use astra::model::schedule::reduce_schedule;
    let cases = [
        (2usize, vec![3usize, 2, 1]),
        (3, vec![2, 1]),
        (4, vec![1]),
        (5, vec![1]),
    ];
    for (k, expected) in cases {
        let mappers = 10usize.div_ceil(k);
        let steps = reduce_schedule(&vec![1.0; mappers], k, 1.0);
        let got: Vec<usize> = steps.iter().map(|s| s.reducers()).collect();
        assert_eq!(got, expected, "k = {k}");
    }
}
