//! # rapida-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation section (§5): workload construction, engine execution, metric
//! collection, and paper-style table rendering. Criterion micro-benchmarks
//! under `benches/` reuse these helpers.

use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{extract, DataCatalog, PlanError, QueryEngine};
use rapida_datagen::{
    generate_bsbm, generate_chem, generate_pubmed, query, BsbmConfig, CatalogQuery, ChemConfig,
    PubmedConfig,
};
use rapida_mapred::{ClusterModel, Engine, FaultPlan};
use rapida_sparql::parse_query;
use std::time::Instant;

/// The four engines in the paper's presentation order.
pub fn all_engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// Hive vs RAPIDAnalytics only (Table 3's comparison).
pub fn table3_engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// One measured engine run.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// Query id.
    pub query: String,
    /// Engine name.
    pub engine: String,
    /// In-process wall milliseconds.
    pub wall_ms: f64,
    /// Simulated cluster seconds under the experiment's [`ClusterModel`].
    pub sim_seconds: f64,
    /// Total MR cycles.
    pub cycles: usize,
    /// Full (shuffling) cycles.
    pub full_cycles: usize,
    /// Map-only cycles.
    pub map_only_cycles: usize,
    /// Shuffled megabytes (measured).
    pub shuffle_mb: f64,
    /// Materialized (DFS-written) megabytes (measured).
    pub materialized_mb: f64,
    /// Result row count.
    pub rows: usize,
    /// Total task attempts (map + reduce, incl. retries and speculation).
    pub task_attempts: u64,
    /// Attempts killed by injected failures and retried.
    pub retried_attempts: u64,
    /// Speculative duplicate attempts launched for stragglers.
    pub speculative_attempts: u64,
    /// Straggling tasks observed.
    pub straggler_tasks: u64,
    /// Megabytes produced by attempts whose work was discarded.
    pub wasted_mb: f64,
    /// Simulated retry backoff, seconds.
    pub backoff_s: f64,
    /// Corrupt DFS block copies detected and quarantined on read.
    pub corrupt_blocks_detected: u64,
    /// Corrupt shuffle spill runs detected and quarantined at commit.
    pub corrupt_spills_detected: u64,
    /// Megabytes re-read from replicas after a checksum mismatch.
    pub integrity_reread_mb: f64,
    /// Malformed records skipped (and counted) by operator decode paths.
    pub corrupt_records_skipped: u64,
    /// Jobs replayed by workflow-level recovery.
    pub jobs_replayed: u64,
    /// Megabytes recomputed by replayed jobs.
    pub recomputed_mb: f64,
    /// Checkpoint megabytes verified + read instead of recomputed.
    pub checkpoint_mb: f64,
}

/// A prepared workload: catalog + cluster model calibrated to the paper's
/// dataset size.
pub struct Workbench {
    /// The loaded catalog.
    pub cat: DataCatalog,
    /// The MR engine bound to the catalog's DFS.
    pub mr: Engine,
    /// The cluster model (with `data_scale` mapping simulator bytes to the
    /// paper's dataset size).
    pub model: ClusterModel,
    /// Human-readable dataset label.
    pub label: &'static str,
}

impl Workbench {
    fn new(
        graph: rapida_rdf::Graph,
        mut model: ClusterModel,
        paper_bytes: f64,
        label: &'static str,
    ) -> Workbench {
        let cat = DataCatalog::load(&graph);
        // Calibrate: simulator bytes × data_scale ≈ the paper's on-disk size,
        // so simulated seconds land in a comparable regime.
        let stored = cat.dfs.stored_bytes().max(1) as f64;
        model.data_scale = paper_bytes / stored;
        let mr = Engine::new(cat.dfs.clone());
        Workbench {
            cat,
            mr,
            model,
            label,
        }
    }

    /// The BSBM-500K stand-in (43 GB in the paper, 10-node cluster).
    pub fn bsbm_500k() -> Workbench {
        Workbench::new(
            generate_bsbm(&BsbmConfig::small()),
            ClusterModel::nodes10(),
            43e9,
            "BSBM-500K",
        )
    }

    /// The BSBM-2M stand-in (172 GB, 50-node cluster).
    pub fn bsbm_2m() -> Workbench {
        Workbench::new(
            generate_bsbm(&BsbmConfig::large()),
            ClusterModel::nodes50(),
            172e9,
            "BSBM-2M",
        )
    }

    /// The Chem2Bio2RDF stand-in (60 GB, 10-node cluster).
    pub fn chem() -> Workbench {
        Workbench::new(
            generate_chem(&ChemConfig::default()),
            ClusterModel::nodes10(),
            60e9,
            "Chem2Bio2RDF",
        )
    }

    /// The PubMed stand-in (230 GB, 60-node cluster).
    pub fn pubmed() -> Workbench {
        Workbench::new(
            generate_pubmed(&PubmedConfig::default()),
            ClusterModel::nodes60(),
            230e9,
            "PubMed",
        )
    }

    /// A tiny BSBM workbench for fast bench runs and smoke tests.
    pub fn bsbm_tiny() -> Workbench {
        Workbench::new(
            generate_bsbm(&BsbmConfig::tiny()),
            ClusterModel::nodes10(),
            43e9,
            "BSBM-tiny",
        )
    }

    /// Run one catalog query on one engine.
    pub fn run(
        &self,
        engine: &dyn QueryEngine,
        q: &CatalogQuery,
    ) -> Result<ExperimentResult, PlanError> {
        let parsed = parse_query(&q.sparql)
            .map_err(|e| PlanError::Unsupported(format!("parse: {e}")))?;
        let aq = extract(&parsed)?;
        let plan = engine.plan(&aq, &self.cat)?;
        let start = Instant::now();
        let run = plan.try_execute(&self.mr, &aq, &self.cat.dict);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        plan.cleanup(&self.mr.dfs);
        self.mr.dfs.remove(&plan.output_dataset);
        let (rel, wf) = run?;
        Ok(ExperimentResult {
            query: q.id.to_string(),
            engine: engine.name().to_string(),
            wall_ms,
            sim_seconds: self.model.workflow_time(&wf),
            cycles: wf.cycles(),
            full_cycles: wf.full_cycles(),
            map_only_cycles: wf.map_only_cycles(),
            shuffle_mb: wf.total_shuffle_bytes() as f64 / 1e6,
            materialized_mb: wf.total_output_bytes() as f64 / 1e6,
            rows: rel.len(),
            task_attempts: wf.total_task_attempts(),
            retried_attempts: wf.total_retried_attempts(),
            speculative_attempts: wf.total_speculative_attempts(),
            straggler_tasks: wf.total_straggler_tasks(),
            wasted_mb: wf.total_wasted_output_bytes() as f64 / 1e6,
            backoff_s: wf.total_backoff_s(),
            corrupt_blocks_detected: wf.total_corrupt_blocks_detected(),
            corrupt_spills_detected: wf.total_corrupt_spills_detected(),
            integrity_reread_mb: wf.total_integrity_reread_bytes() as f64 / 1e6,
            corrupt_records_skipped: wf.total_corrupt_records_skipped(),
            jobs_replayed: wf.recovery.jobs_replayed,
            recomputed_mb: wf.recovery.recomputed_bytes as f64 / 1e6,
            checkpoint_mb: wf.recovery.checkpoint_bytes_read as f64 / 1e6,
        })
    }

    /// Attach (or clear) a fault-injection plan for subsequent runs.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.mr.faults = faults;
    }

    /// Run one query id across a set of engines.
    pub fn run_query(
        &self,
        engines: &[Box<dyn QueryEngine>],
        id: &str,
    ) -> Vec<ExperimentResult> {
        let q = query(id);
        engines
            .iter()
            .map(|e| {
                self.run(e.as_ref(), &q)
                    .unwrap_or_else(|err| panic!("{id} on {}: {err}", e.name()))
            })
            .collect()
    }
}

/// Render a set of results as a markdown table: one row per query, one
/// column pair (sim s / cycles) per engine.
pub fn render_table(title: &str, results: &[Vec<ExperimentResult>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("\n### {title}\n\n"));
    if results.is_empty() {
        return s;
    }
    let engines: Vec<&str> = results[0].iter().map(|r| r.engine.as_str()).collect();
    s.push_str("| Query |");
    for e in &engines {
        s.push_str(&format!(" {e} (sim s) | cycles |"));
    }
    s.push_str(" rows |\n|---|");
    for _ in &engines {
        s.push_str("---|---|");
    }
    s.push_str("---|\n");
    for row in results {
        s.push_str(&format!("| {} |", row[0].query));
        for r in row {
            s.push_str(&format!(
                " {:.0} | {} ({} mo) |",
                r.sim_seconds, r.cycles, r.map_only_cycles
            ));
        }
        s.push_str(&format!(" {} |\n", row[0].rows));
    }
    s
}

/// A crossed-secondary ablation query (Table 2 row-4 shape, using the
/// paper's own Fig. 4 properties): block 1 requires `validFrom`, block 2
/// requires `validTo` — offers carrying neither match no pattern, so the
/// α-join prunes them (the pruning is a no-op on the MG catalog, whose
/// blocks always subsume one another).
pub fn crossed_secondary_query() -> String {
    "PREFIX bsbm: <http://bsbm.example.org/v01/>
SELECT ?n1 ?s1 ?n2 ?s2 {
  { SELECT (COUNT(?v1) AS ?n1) (SUM(?pc1) AS ?s1)
    { ?p a bsbm:ProductType1 . ?o bsbm:product ?p ; bsbm:price ?pc1 ; bsbm:validFrom ?v1 . } }
  { SELECT (COUNT(?v2) AS ?n2) (SUM(?pc2) AS ?s2)
    { ?p2 a bsbm:ProductType1 . ?o2 bsbm:product ?p2 ; bsbm:price ?pc2 ; bsbm:validTo ?v2 . } }
}"
    .to_string()
}

/// Run a raw SPARQL string (not from the catalog) on one engine.
pub fn run_sparql(
    wb: &Workbench,
    engine: &dyn QueryEngine,
    id: &str,
    sparql: &str,
) -> Result<ExperimentResult, PlanError> {
    let q = CatalogQuery {
        id: "adhoc",
        workload: rapida_datagen::Workload::Bsbm,
        selectivity: None,
        sparql: sparql.to_string(),
        shapes: &[],
        groups: &[],
    };
    let mut r = wb.run(engine, &q)?;
    r.query = id.to_string();
    Ok(r)
}

/// Serialize experiment rows as a JSON document (same hand-rolled style as
/// `rapida_testkit::bench`'s reports), including the fault counters — the
/// machine-readable companion to [`render_table`].
pub fn results_json(title: &str, results: &[Vec<ExperimentResult>]) -> String {
    let esc = |s: &str| {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    };
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"title\": {},\n", esc(title)));
    json.push_str("  \"results\": [\n");
    let flat: Vec<&ExperimentResult> = results.iter().flatten().collect();
    for (i, r) in flat.iter().enumerate() {
        json.push_str("    {");
        json.push_str(&format!("\"query\": {}, ", esc(&r.query)));
        json.push_str(&format!("\"engine\": {}, ", esc(&r.engine)));
        json.push_str(&format!("\"sim_seconds\": {}, ", num(r.sim_seconds)));
        json.push_str(&format!("\"cycles\": {}, ", r.cycles));
        json.push_str(&format!("\"full_cycles\": {}, ", r.full_cycles));
        json.push_str(&format!("\"map_only_cycles\": {}, ", r.map_only_cycles));
        json.push_str(&format!("\"shuffle_mb\": {}, ", num(r.shuffle_mb)));
        json.push_str(&format!("\"materialized_mb\": {}, ", num(r.materialized_mb)));
        json.push_str(&format!("\"rows\": {}, ", r.rows));
        json.push_str(&format!("\"task_attempts\": {}, ", r.task_attempts));
        json.push_str(&format!("\"retried_attempts\": {}, ", r.retried_attempts));
        json.push_str(&format!(
            "\"speculative_attempts\": {}, ",
            r.speculative_attempts
        ));
        json.push_str(&format!("\"straggler_tasks\": {}, ", r.straggler_tasks));
        json.push_str(&format!("\"wasted_mb\": {}, ", num(r.wasted_mb)));
        json.push_str(&format!("\"backoff_s\": {}, ", num(r.backoff_s)));
        json.push_str(&format!(
            "\"corrupt_blocks_detected\": {}, ",
            r.corrupt_blocks_detected
        ));
        json.push_str(&format!(
            "\"corrupt_spills_detected\": {}, ",
            r.corrupt_spills_detected
        ));
        json.push_str(&format!(
            "\"integrity_reread_mb\": {}, ",
            num(r.integrity_reread_mb)
        ));
        json.push_str(&format!(
            "\"corrupt_records_skipped\": {}, ",
            r.corrupt_records_skipped
        ));
        json.push_str(&format!("\"jobs_replayed\": {}, ", r.jobs_replayed));
        json.push_str(&format!("\"recomputed_mb\": {}, ", num(r.recomputed_mb)));
        json.push_str(&format!("\"checkpoint_mb\": {}", num(r.checkpoint_mb)));
        json.push_str(if i + 1 == flat.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Compute the slowdown factor of every other engine relative to the last
/// column (RAPIDAnalytics in the standard ordering).
pub fn speedups(row: &[ExperimentResult]) -> Vec<(String, f64)> {
    let base = row.last().expect("non-empty").sim_seconds.max(1e-9);
    row[..row.len() - 1]
        .iter()
        .map(|r| (r.engine.clone(), r.sim_seconds / base))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workbench_runs_mg1_with_expected_ordering() {
        let wb = Workbench::bsbm_tiny();
        let results = wb.run_query(&all_engines(), "MG1");
        assert_eq!(results.len(), 4);
        // Cycle ordering from the paper: RA < RAPID+ < MQO <= naive.
        let by: std::collections::HashMap<&str, &ExperimentResult> = results
            .iter()
            .map(|r| (r.engine.as_str(), r))
            .collect();
        assert!(by["RAPIDAnalytics"].cycles < by["RAPID+ (Naive)"].cycles);
        assert!(by["RAPID+ (Naive)"].cycles < by["Hive (MQO)"].cycles);
        assert!(by["Hive (MQO)"].cycles <= by["Hive (Naive)"].cycles);
        // All engines produced the same number of rows.
        assert!(results.windows(2).all(|w| w[0].rows == w[1].rows));
    }

    #[test]
    fn render_produces_markdown() {
        let wb = Workbench::bsbm_tiny();
        let results = vec![wb.run_query(&table3_engines(), "G1")];
        let md = render_table("Table 3 smoke", &results);
        assert!(md.contains("| G1 |"));
        assert!(md.contains("Hive (Naive)"));
    }

    #[test]
    fn fault_counters_surface_in_results_and_json() {
        let mut wb = Workbench::bsbm_tiny();
        let engines = all_engines();
        let clean = wb.run_query(&engines, "MG1");
        assert!(clean.iter().all(|r| r.retried_attempts == 0
            && r.speculative_attempts == 0
            && r.task_attempts > 0));

        wb.set_faults(Some(FaultPlan::chaotic(0xBEEF)));
        let faulted = wb.run_query(&engines, "MG1");
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!(c.rows, f.rows, "{}: rows changed under faults", c.engine);
            assert_eq!(
                c.shuffle_mb, f.shuffle_mb,
                "{}: committed shuffle changed under faults",
                c.engine
            );
            assert!(
                f.task_attempts >= c.task_attempts,
                "{}: attempts can only grow under faults",
                c.engine
            );
        }
        let injected: u64 = faulted
            .iter()
            .map(|r| r.retried_attempts + r.speculative_attempts)
            .sum();
        assert!(injected > 0, "chaotic plan injected nothing across engines");
        let total_extra_cost: f64 = faulted
            .iter()
            .zip(&clean)
            .map(|(f, c)| f.sim_seconds - c.sim_seconds)
            .sum();
        assert!(total_extra_cost > 0.0, "faults must cost simulated seconds");

        // The chaotic preset also injects read-path corruption: the sweep
        // must detect some of it and none may slip through silently (rows
        // and committed shuffle already asserted unchanged above).
        let detected: u64 = faulted
            .iter()
            .map(|r| r.corrupt_blocks_detected + r.corrupt_spills_detected)
            .sum();
        assert!(detected > 0, "chaotic plan corrupted nothing across engines");

        let json = results_json("chaos", &[faulted]);
        for key in [
            "\"task_attempts\"",
            "\"retried_attempts\"",
            "\"speculative_attempts\"",
            "\"wasted_mb\"",
            "\"backoff_s\"",
            "\"corrupt_blocks_detected\"",
            "\"corrupt_spills_detected\"",
            "\"integrity_reread_mb\"",
            "\"corrupt_records_skipped\"",
            "\"jobs_replayed\"",
            "\"recomputed_mb\"",
            "\"checkpoint_mb\"",
        ] {
            assert!(json.contains(key), "missing {key} in: {json}");
        }
    }

    #[test]
    fn speedup_helper() {
        let mk = |engine: &str, s: f64| ExperimentResult {
            query: "q".into(),
            engine: engine.into(),
            sim_seconds: s,
            ..Default::default()
        };
        let row = vec![mk("a", 100.0), mk("b", 50.0), mk("ra", 10.0)];
        let sp = speedups(&row);
        assert_eq!(sp[0], ("a".to_string(), 10.0));
        assert_eq!(sp[1], ("b".to_string(), 5.0));
    }
}
