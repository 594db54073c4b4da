//! Cost-based enumerator vs fixed plans: records every MG query's simulated
//! cluster cost under the enumerator's choice (`chosen_*`) and under each
//! family's fixed default plans (`fixed_*`) into `BENCH_plan.json`.
//!
//! The measured quantity is the *deterministic simulated cost* in model
//! seconds (reported through `iter_custom`, 1 iteration = `cost` seconds),
//! not wall time — plan choice is the thing under test, and the simulator's
//! metrics are worker-count independent, so the recorded numbers are exact
//! and reproducible. Floors checked by `scripts/bench_report.sh plan`:
//! chosen never worse than fixed per family, and at least one MG query
//! where a chosen plan beats the fixed Hive-MQO baseline by >= 1.1x.

use rapida_bench::Workbench;
use rapida_core::enumerate::{enumerate_best, Family};
use rapida_core::{extract, DataCatalog, QueryEngine, QueryPlan};
use rapida_datagen::query;
use rapida_mapred::{ClusterModel, Engine};
use rapida_sparql::parse_query;
use rapida_testkit::bench::{smoke_mode, BenchmarkId, Criterion};
use rapida_testkit::{criterion_group, criterion_main};
use std::time::Duration;

/// Measured simulated cost of one already-compiled plan on the pinned
/// simulator (the same measurement the enumerator's dry-run phase uses).
fn measured_cost(
    plan: &QueryPlan,
    aq: &rapida_core::AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> f64 {
    let mr = Engine::pinned(cat.dfs.clone());
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let cost = model.workflow_time(&wf);
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    cost
}

/// Report a fixed, pre-computed cost (in model seconds) as the benchmark's
/// measured time.
fn record(group: &mut rapida_testkit::bench::BenchmarkGroup<'_>, id: BenchmarkId, cost: f64) {
    group.bench_function(id, |b| {
        b.iter_custom(|iters| Duration::from_secs_f64(cost * iters as f64))
    });
}

fn bench(c: &mut Criterion) {
    let wb = if smoke_mode() {
        Workbench::bsbm_tiny()
    } else {
        Workbench::bsbm_500k()
    };
    let cat = &wb.cat;
    let model = wb.model;

    let fixed: Vec<(&str, Box<dyn QueryEngine>)> = vec![
        ("fixed_hive_naive", Box::new(rapida_core::engines::HiveNaive::default())),
        ("fixed_hive_mqo", Box::new(rapida_core::engines::HiveMqo::default())),
        ("fixed_rapid_plus", Box::new(rapida_core::engines::RapidPlus::default())),
        ("fixed_rapida", Box::new(rapida_core::engines::RapidAnalytics::default())),
    ];

    let mut group = c.benchmark_group("plan");
    group.sample_size(10).measurement_time(Duration::from_millis(100));
    for id in ["MG1", "MG2", "MG3", "MG4"] {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();

        for (label, engine) in &fixed {
            let plan = engine.plan(&aq, cat).expect("fixed plan compiles");
            let cost = measured_cost(&plan, &aq, cat, &model);
            record(&mut group, BenchmarkId::new(*label, id), cost);
        }
        for (label, family) in [("chosen_hive", Family::Hive), ("chosen_rapid", Family::Rapid)] {
            let e = enumerate_best(family, &aq, cat, &model).expect("enumeration succeeds");
            let cost = measured_cost(&e.plan, &aq, cat, &model);
            println!("  {label}/{id}: {} -> {cost:.2} model-s", e.choice);
            record(&mut group, BenchmarkId::new(label, id), cost);
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
