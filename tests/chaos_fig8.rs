//! Chaos over the full Fig. 8 workflow matrix: every (query, engine) pair
//! the paper evaluates must survive injected task failures, stragglers,
//! node loss, read-path corruption and whole-job aborts with byte-identical
//! DFS output — and must report the extra attempts (with correspondingly
//! higher simulated cost) in its metrics, with every detected corruption
//! ledgered and none slipping through silently.
//!
//! This is the acceptance gate for the fault-injection layer: recovery is
//! only correct if the *whole* query pipeline (planner output, shuffle
//! contract, fixups, final join) is invariant under faults.

use rapida::core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida::core::{extract, AnalyticalQuery, DataCatalog, QueryEngine};
use rapida::datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida::mapred::{ClusterModel, Engine as MrEngine, FaultPlan, WorkflowMetrics};
use rapida::sparql::parse_query;
use rapida_testkit::chaos::{ChaosConfig, Scenario};

fn engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// The sweep grid for the full matrix: trimmed relative to the mapred chaos
/// suite (workers {1, 4}, at most 2 seeds) because it multiplies by 9
/// queries × 4 engines; `RAPIDA_CHAOS_SEEDS=1` shrinks it further.
fn grid() -> ChaosConfig {
    let mut cfg = ChaosConfig::from_env();
    cfg.seeds.truncate(2);
    cfg.workers = vec![1, 4];
    cfg
}

/// What a run observes: the output dataset's exact block bytes plus the
/// committed per-job data-flow counters (attempt counters excluded — those
/// are *supposed* to differ between scenarios). Job names are excluded
/// too: they embed the per-plan id, which differs between plan instances.
type RunSignature = (Vec<Vec<u8>>, Vec<(bool, usize, usize, [u64; 8])>);

fn committed(wf: &WorkflowMetrics) -> Vec<(bool, usize, usize, [u64; 8])> {
    wf.jobs
        .iter()
        .map(|m| {
            (
                m.map_only,
                m.map_tasks,
                m.reduce_tasks,
                [
                    m.input_bytes,
                    m.input_records,
                    m.map_output_records,
                    m.map_output_bytes,
                    m.shuffle_records,
                    m.shuffle_bytes,
                    m.output_records,
                    m.output_bytes,
                ],
            )
        })
        .collect()
}

/// Plan + execute one (query, engine) pair under a scenario, returning the
/// run's signature and its full metrics.
fn run_one(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    engine: &dyn QueryEngine,
    scenario: &Scenario,
) -> (RunSignature, WorkflowMetrics) {
    let mut mr = MrEngine::with_workers(cat.dfs.clone(), scenario.workers);
    mr.faults = scenario.fault_seed.map(FaultPlan::chaotic);
    let plan = engine
        .plan(aq, cat)
        .unwrap_or_else(|e| panic!("{} failed to plan: {e}", engine.name()));
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let blocks: Vec<Vec<u8>> = cat
        .dfs
        .get(&plan.output_dataset)
        .map(|ds| ds.blocks.iter().map(|b| b.as_ref().to_vec()).collect())
        .unwrap_or_default();
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    ((blocks, committed(&wf)), wf)
}

/// Sweep one catalog's queries through the grid on all four engines.
fn chaos_matrix(cat: &DataCatalog, ids: &[&str]) {
    let model = ClusterModel::nodes10();
    let cfg = grid();
    let scenarios = cfg.scenarios();
    // Corruption detections aggregate across the whole matrix: a single
    // (query, engine) pair may read too few blocks for the corrupting
    // probabilities to fire, but the matrix as a whole must both detect
    // corruption and quarantine all of it (the silent counter stays zero
    // per run, asserted inside the sweep).
    let mut detected = 0u64;
    for id in ids {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
        for engine in engines() {
            let (golden, golden_wf) = run_one(cat, &aq, engine.as_ref(), &scenarios[0]);
            assert!(
                !golden.0.is_empty() || golden_wf.jobs.is_empty(),
                "{id}/{}: golden run produced no output blocks",
                engine.name()
            );
            let golden_cost = model.workflow_time(&golden_wf);
            // Aggregate chaos evidence across the faulted scenarios: the
            // tiny workloads make any single seed's injections sparse, but
            // the sweep as a whole must both retry and speculate.
            let mut injected = 0u64;
            for s in &scenarios[1..] {
                let (got, wf) = run_one(cat, &aq, engine.as_ref(), s);
                assert_eq!(
                    got,
                    golden,
                    "{id}/{}: [{}] diverged from the fault-free golden run",
                    engine.name(),
                    s.label()
                );
                assert_eq!(
                    wf.total_silent_corruptions(),
                    0,
                    "{id}/{}: [{}] corruption slipped past the checksum gate",
                    engine.name(),
                    s.label()
                );
                if s.fault_seed.is_some() {
                    let extra = wf.total_retried_attempts() + wf.total_speculative_attempts();
                    injected += extra;
                    detected += wf.total_corrupt_blocks_detected()
                        + wf.total_corrupt_spills_detected();
                    // Wasted attempts must be charged: strictly costlier
                    // whenever anything was injected.
                    if extra > 0 {
                        assert!(
                            model.workflow_time(&wf) > golden_cost,
                            "{id}/{}: [{}] absorbed {extra} extra attempts but costs no more",
                            engine.name(),
                            s.label()
                        );
                    }
                } else {
                    assert_eq!(wf.total_retried_attempts(), 0);
                    assert_eq!(wf.total_speculative_attempts(), 0);
                }
            }
            assert!(
                injected > 0,
                "{id}/{}: chaotic sweep injected nothing across {} faulted scenarios",
                engine.name(),
                cfg.seeds.len() * cfg.workers.len()
            );
        }
    }
    assert!(
        detected > 0,
        "chaotic sweep detected no corruption across the whole matrix"
    );
}

#[test]
fn bsbm_g_queries_survive_chaos() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    chaos_matrix(&cat, &["G1", "G2", "G3", "G4"]);
}

#[test]
fn bsbm_mg_queries_survive_chaos() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    chaos_matrix(&cat, &["MG1", "MG2", "MG3", "MG4"]);
}

#[test]
fn chem_mg6_survives_chaos() {
    let cat = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
    chaos_matrix(&cat, &["MG6"]);
}

/// The zero-copy view operators under chaos: a Fig. 8 query must recover
/// byte-identically from every fault scenario in the sweep. The fault-free
/// golden itself is pinned to the reference evaluator by
/// `engine_agreement` and `property_agreement`.
#[test]
fn view_operators_survive_chaos_byte_identically() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let q = query("MG2");
    let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
    let views = RapidAnalytics::default();

    let cfg = grid();
    let scenarios = cfg.scenarios();
    let (golden, _) = run_one(&cat, &aq, &views, &scenarios[0]);

    let mut injected = 0u64;
    for s in &scenarios[1..] {
        let (got, wf) = run_one(&cat, &aq, &views, s);
        assert_eq!(
            got,
            golden,
            "view path [{}] diverged from the fault-free golden run",
            s.label()
        );
        injected += wf.total_retried_attempts() + wf.total_speculative_attempts();
    }
    assert!(
        injected > 0,
        "chaotic sweep injected nothing across the faulted scenarios"
    );
}
