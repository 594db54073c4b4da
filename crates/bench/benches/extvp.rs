//! ExtVP semi-join reductions vs full VP scans: records every MG query's
//! simulated cluster cost on a catalog loaded *with* ExtVP reductions
//! (`extvp_*` ids) and on one loaded *without* them (`fullscan_*` ids),
//! per engine family, into `BENCH_extvp.json`.
//!
//! The measured quantity is the deterministic simulated cost in model
//! seconds (`iter_custom`, 1 iteration = `cost` seconds) — the same
//! pinned-simulator measurement as `plan.rs` — so the recorded numbers
//! are exact and reproducible. Both sides share one cluster model
//! calibrated on the *full-scan* catalog's stored bytes; the ExtVP
//! catalog's extra stored reductions are deliberately excluded from the
//! calibration so the ratio isolates scan-side savings. Floors checked by
//! `scripts/bench_report.sh extvp`: ExtVP never worse on any (query,
//! family) pair, and at least one MG pair >= 1.2x faster.

use rapida_core::engines::{HiveMqo, RapidAnalytics};
use rapida_core::{extract, DataCatalog, LoadConfig, QueryEngine, QueryPlan};
use rapida_datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida_mapred::{ClusterModel, Engine};
use rapida_rdf::Graph;
use rapida_sparql::parse_query;
use rapida_testkit::bench::{smoke_mode, BenchmarkId, Criterion};
use rapida_testkit::{criterion_group, criterion_main};
use std::time::Duration;

/// Load the ExtVP-on / ExtVP-off catalog pair and a cluster model
/// calibrated to the paper's dataset size on the full-scan catalog.
fn workload(graph: &Graph, paper_bytes: f64) -> (DataCatalog, DataCatalog, ClusterModel) {
    let off = DataCatalog::load_with(
        graph,
        LoadConfig {
            extvp: false,
            ..LoadConfig::default()
        },
    );
    let on = DataCatalog::load(graph);
    let mut model = ClusterModel::nodes10();
    model.data_scale = paper_bytes / off.dfs.stored_bytes().max(1) as f64;
    (on, off, model)
}

/// Measured simulated cost of one engine's fixed plan on the pinned
/// simulator, plus the run's input-byte total (for the report printout).
fn measured_cost(
    cat: &DataCatalog,
    aq: &rapida_core::AnalyticalQuery,
    engine: &dyn QueryEngine,
    model: &ClusterModel,
) -> (f64, u64) {
    let mr = Engine::pinned(cat.dfs.clone());
    let plan: QueryPlan = engine.plan(aq, cat).expect("fixed plan compiles");
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let cost = model.workflow_time(&wf);
    let input = wf.total_input_bytes();
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    (cost, input)
}

fn record(group: &mut rapida_testkit::bench::BenchmarkGroup<'_>, id: BenchmarkId, cost: f64) {
    group.bench_function(id, |b| {
        b.iter_custom(|iters| Duration::from_secs_f64(cost * iters as f64))
    });
}

fn sweep(
    group: &mut rapida_testkit::bench::BenchmarkGroup<'_>,
    on: &DataCatalog,
    off: &DataCatalog,
    model: &ClusterModel,
    ids: &[&str],
) {
    let engines: Vec<(&str, Box<dyn QueryEngine>)> = vec![
        ("hive", Box::new(HiveMqo::default())),
        ("rapida", Box::new(RapidAnalytics::default())),
    ];
    for id in ids {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
        for (family, engine) in &engines {
            let (full_cost, full_in) = measured_cost(off, &aq, engine.as_ref(), model);
            let (ext_cost, ext_in) = measured_cost(on, &aq, engine.as_ref(), model);
            println!(
                "  {id}/{family}: fullscan {full_cost:.2} model-s ({full_in} B in) \
                 -> extvp {ext_cost:.2} model-s ({ext_in} B in)"
            );
            let param = format!("{id}_{family}");
            record(group, BenchmarkId::new("fullscan", &param), full_cost);
            record(group, BenchmarkId::new("extvp", &param), ext_cost);
        }
    }
}

fn bench(c: &mut Criterion) {
    let (bsbm, chem) = if smoke_mode() {
        (generate_bsbm(&BsbmConfig::tiny()), generate_chem(&ChemConfig::tiny()))
    } else {
        (generate_bsbm(&BsbmConfig::small()), generate_chem(&ChemConfig::default()))
    };

    let mut group = c.benchmark_group("extvp");
    group.sample_size(10).measurement_time(Duration::from_millis(100));
    let (on, off, model) = workload(&bsbm, 43e9);
    sweep(&mut group, &on, &off, &model, &["MG1", "MG2", "MG3", "MG4"]);
    let (on, off, model) = workload(&chem, 60e9);
    sweep(&mut group, &on, &off, &model, &["MG6"]);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
