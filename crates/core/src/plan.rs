//! Query plans: the uniform output of every engine's compiler — a job
//! sequence, driver-side fixups, an optional final map-only join, and the
//! output assembly into a [`Relation`].

use crate::aquery::AnalyticalQuery;
use crate::rows::{decode_row, row_bytes, RVal};
use rapida_mapred::codec::BlockBuilder;
use rapida_mapred::{
    Dataset, Engine, InputSrc, Job, MapOutput, MapTask, MapTaskFactory, SimDfs, WorkflowError,
    WorkflowMetrics,
};
use rapida_ntga::{AggOp, AggRec};
use rapida_rdf::{Dictionary, FxHashMap, TermId};
use rapida_sparql::ast::AggFunc;
use rapida_sparql::{Cell, Relation};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A cell source within the per-block [`AggRec`] outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSrc {
    /// Grouping key `idx` of block `block`.
    Key {
        /// Block index.
        block: usize,
        /// Key position.
        idx: usize,
    },
    /// Aggregate value `idx` of block `block`.
    Agg {
        /// Block index.
        block: usize,
        /// Aggregate position.
        idx: usize,
    },
}

/// Config of the final map-only join of aggregated block results.
///
/// Block results are [`AggRec`]s stamped with their block id; several blocks
/// may share one physical dataset (the RAPID engines' parallel Agg-Join
/// writes all blocks into a single output), so every read filters on the id.
#[derive(Clone)]
pub struct FinalJoinCfg {
    /// Per-block result dataset names; block 0 is streamed, the rest are
    /// broadcast (they are small aggregates — the paper's map-only final
    /// join).
    pub datasets: Vec<String>,
    /// `joins[j-1]` describes how block `j` joins the accumulated blocks:
    /// pairs of (source cell among blocks `< j`, key index within block
    /// `j`). Empty = cross join (GROUP BY ALL blocks).
    pub joins: Vec<Vec<(CellSrc, usize)>>,
    /// Output row layout (the outer projection).
    pub output: Vec<CellSrc>,
}

type BlockTables = Vec<FxHashMap<Vec<u64>, Vec<AggRec>>>;

/// Factory for the final-join map task; loads the broadcast blocks lazily.
pub struct FinalJoinFactory {
    cfg: Arc<FinalJoinCfg>,
    dfs: SimDfs,
    cache: OnceLock<Arc<BlockTables>>,
}

impl FinalJoinFactory {
    /// Create bound to the DFS.
    pub fn new(cfg: Arc<FinalJoinCfg>, dfs: SimDfs) -> Self {
        FinalJoinFactory {
            cfg,
            dfs,
            cache: OnceLock::new(),
        }
    }

    fn tables(&self) -> Arc<BlockTables> {
        self.cache
            .get_or_init(|| {
                let mut tables = Vec::new();
                for (j, name) in self.cfg.datasets.iter().enumerate().skip(1) {
                    let mut map: FxHashMap<Vec<u64>, Vec<AggRec>> = FxHashMap::default();
                    let own_keys: Vec<usize> =
                        self.cfg.joins[j - 1].iter().map(|(_, k)| *k).collect();
                    if let Some(ds) = self.dfs.get(name) {
                        for rec in ds.iter_records() {
                            if let Some(r) = AggRec::decode(rec) {
                                if usize::from(r.id) != j {
                                    continue;
                                }
                                let key: Vec<u64> =
                                    own_keys.iter().map(|&k| r.key[k]).collect();
                                map.entry(key).or_default().push(r);
                            }
                        }
                    }
                    tables.push(map);
                }
                Arc::new(tables)
            })
            .clone()
    }
}

impl MapTaskFactory for FinalJoinFactory {
    fn create(&self) -> Box<dyn MapTask> {
        Box::new(FinalJoinTask {
            cfg: self.cfg.clone(),
            tables: self.tables(),
        })
    }
}

/// The final-join map task.
pub struct FinalJoinTask {
    cfg: Arc<FinalJoinCfg>,
    tables: Arc<BlockTables>,
}

impl FinalJoinTask {
    fn probe(&self, j: usize, acc: &mut Vec<AggRec>, out: &mut MapOutput) {
        if j == self.cfg.datasets.len() {
            let row: Vec<RVal> = self
                .cfg
                .output
                .iter()
                .map(|src| match src {
                    CellSrc::Key { block, idx } => RVal::Id(acc[*block].key[*idx]),
                    CellSrc::Agg { block, idx } => match acc[*block].values[*idx] {
                        Some(v) => RVal::Num(v),
                        None => RVal::Null,
                    },
                })
                .collect();
            out.write(&row_bytes(&row));
            return;
        }
        let probe_key: Vec<u64> = self.cfg.joins[j - 1]
            .iter()
            .map(|(src, _)| match src {
                CellSrc::Key { block, idx } => acc[*block].key[*idx],
                CellSrc::Agg { .. } => unreachable!("joins are on grouping keys"),
            })
            .collect();
        if let Some(matches) = self.tables[j - 1].get(&probe_key) {
            for m in matches {
                acc.push(m.clone());
                self.probe(j + 1, acc, out);
                acc.pop();
            }
        }
    }
}

impl MapTask for FinalJoinTask {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let Some(rec) = AggRec::decode(record) else {
            out.skip_corrupt();
            return;
        };
        if rec.id != 0 {
            return; // Only block 0 is streamed.
        }
        let mut acc = vec![rec];
        self.probe(1, &mut acc, out);
    }
}

/// A driver-side fixup: if a GROUP-BY-ALL block produced no groups, SPARQL
/// still defines one group (COUNT = 0, numeric aggregates unbound). Applied
/// between the block jobs and the final join without an extra MR cycle —
/// the Hive-driver analog of a short-circuit task.
#[derive(Debug, Clone)]
pub struct AllGroupFixup {
    /// The block's result dataset.
    pub dataset: String,
    /// The block id stamped on the synthesized record.
    pub block_id: u8,
    /// The block's aggregate ops (COUNT synthesizes 0, others unbound).
    pub aggs: Vec<AggOp>,
}

impl AllGroupFixup {
    /// Apply: append the synthesized record if the dataset holds no record
    /// stamped with this block's id (the dataset may be shared between
    /// blocks).
    pub fn apply(&self, dfs: &SimDfs) {
        let existing = dfs.peek(&self.dataset).unwrap_or_default();
        let has_block = existing
            .iter_records()
            .filter_map(AggRec::decode)
            .any(|r| r.id == self.block_id);
        if has_block {
            return;
        }
        let rec = AggRec {
            id: self.block_id,
            key: Vec::new(),
            values: self
                .aggs
                .iter()
                .map(|op| match op {
                    AggOp::Count => Some(0.0),
                    _ => None,
                })
                .collect(),
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let mut bb = BlockBuilder::new();
        bb.push(&buf);
        let mut blocks = existing.blocks.clone();
        blocks.push(rapida_mapred::Bytes::from(bb.finish()));
        // Extend per-block record counts only when the existing dataset
        // tracks them for every block; otherwise leave them unknown.
        let mut block_records = existing.block_records.clone();
        if block_records.len() + 1 == blocks.len() {
            block_records.push(1);
        } else {
            block_records = Vec::new();
        }
        dfs.put(
            &self.dataset,
            Dataset {
                records: existing.records + 1,
                blocks,
                block_records,
            },
        );
    }
}

/// How the plan's output dataset is decoded.
#[derive(Debug, Clone)]
pub enum OutputKind {
    /// Encoded rows in outer-projection order (multi-block plans).
    Rows,
    /// [`AggRec`]s of a single block; cells located by the projection map.
    AggRecs {
        /// Per projection var: where the cell lives.
        projection: Vec<CellSrc>,
    },
}

/// A compiled query plan.
pub struct QueryPlan {
    /// The compiling engine's name.
    pub engine: &'static str,
    /// The unique plan id embedded in this plan's intermediate dataset
    /// names (see [`next_plan_id`]); [`QueryPlan::dump`] normalizes it away.
    pub plan_id: String,
    /// The MR jobs, in order.
    pub jobs: Vec<Job>,
    /// Driver-side fixups applied after `jobs`.
    pub fixups: Vec<AllGroupFixup>,
    /// The final map-only join (absent for single-block plans).
    pub final_job: Option<Job>,
    /// The dataset holding the query output.
    pub output_dataset: String,
    /// Output decoding.
    pub output: OutputKind,
}

impl QueryPlan {
    /// Total MR cycles (the paper's plan-quality headline number).
    pub fn cycles(&self) -> usize {
        self.jobs.len() + usize::from(self.final_job.is_some())
    }

    /// Full (shuffling) cycles.
    pub fn full_cycles(&self) -> usize {
        self.jobs
            .iter()
            .chain(self.final_job.iter())
            .filter(|j| !j.is_map_only())
            .count()
    }

    /// Map-only cycles.
    pub fn map_only_cycles(&self) -> usize {
        self.cycles() - self.full_cycles()
    }

    /// A human-readable plan explanation (the `EXPLAIN` of this system):
    /// one line per MR cycle with job names, plus fixups and output shape.
    pub fn explain(&self) -> String {
        let mut s = format!(
            "{} plan: {} MR cycles ({} full, {} map-only)\n",
            self.engine,
            self.cycles(),
            self.full_cycles(),
            self.map_only_cycles()
        );
        for (i, job) in self.jobs.iter().enumerate() {
            let inputs: Vec<String> = job
                .inputs
                .iter()
                .map(|i| match scan_kind(i) {
                    Some(kind) => format!("{i} {kind}"),
                    None => i.clone(),
                })
                .collect();
            s.push_str(&format!(
                "  MR{} [{}] {} <- {}\n",
                i + 1,
                if job.is_map_only() { "map-only" } else { "map-reduce" },
                job.name,
                inputs.join(", ")
            ));
        }
        for f in &self.fixups {
            s.push_str(&format!(
                "  driver: synthesize empty-ALL group for block {} in {}\n",
                f.block_id, f.dataset
            ));
        }
        if let Some(job) = &self.final_job {
            s.push_str(&format!(
                "  MR{} [map-only] {} <- {}\n",
                self.jobs.len() + 1,
                job.name,
                job.inputs.join(", ")
            ));
        }
        s.push_str(&format!("  output: {}\n", self.output_dataset));
        s
    }

    /// A compact, *stable* textual plan dump: like [`QueryPlan::explain`]
    /// but with the per-compilation plan id replaced by `«P»`, so two
    /// compilations of the same plan produce byte-identical dumps. This is
    /// the representation the golden plan snapshots and the enumerator's
    /// determinism test pin.
    pub fn dump(&self) -> String {
        let mut s = format!(
            "{}: {} cycles ({} full, {} map-only)\n",
            self.engine,
            self.cycles(),
            self.full_cycles(),
            self.map_only_cycles()
        );
        for (i, job) in self.jobs.iter().chain(self.final_job.iter()).enumerate() {
            s.push_str(&format!(
                "MR{} {} {}",
                i + 1,
                if job.is_map_only() { "map-only " } else { "map-reduce" },
                job.name,
            ));
            if !job.tag.is_empty() {
                s.push_str(&format!("  [{}]", job.tag));
            }
            let inputs: Vec<String> = job
                .inputs
                .iter()
                .map(|i| match scan_kind(i) {
                    Some(kind) => format!("{i} {kind}"),
                    None => i.clone(),
                })
                .collect();
            s.push_str(&format!(
                "\n     <- {}\n     -> {}\n",
                inputs.join(", "),
                job.output
            ));
        }
        for f in &self.fixups {
            s.push_str(&format!(
                "driver: empty-ALL fixup block {} in {}\n",
                f.block_id, f.dataset
            ));
        }
        s.push_str(&format!(
            "output: {} ({})\n",
            self.output_dataset,
            match &self.output {
                OutputKind::Rows => "rows",
                OutputKind::AggRecs { .. } => "agg-recs",
            }
        ));
        if self.plan_id.is_empty() {
            s
        } else {
            s.replace(&self.plan_id, "«P»")
        }
    }

    /// Execute against an MR engine, returning the result relation and the
    /// measured workflow metrics. Runs with workflow-level
    /// checkpoint/recovery: lost jobs resume from the last committed
    /// checkpoint, and an exhausted retry budget degrades to a typed
    /// [`WorkflowError`] carrying the partial metrics instead of panicking.
    pub fn try_execute(
        &self,
        mr: &Engine,
        aq: &AnalyticalQuery,
        dict: &Dictionary,
    ) -> Result<(Relation, WorkflowMetrics), WorkflowError> {
        let mut wf = mr.try_run_workflow(&self.jobs)?;
        for f in &self.fixups {
            f.apply(&mr.dfs);
        }
        if let Some(job) = &self.final_job {
            // The final join runs as a one-job continuation of the workflow
            // so it shares the same recovery machinery (checkpoints of the
            // block jobs are already committed above).
            let tail = mr.try_run_workflow(std::slice::from_ref(job))?;
            wf.jobs.extend(tail.jobs);
            wf.recovery.absorb(&tail.recovery);
        }
        let rel = self.assemble(&mr.dfs, aq, dict);
        Ok((rel, wf))
    }

    /// Attach cross-query scan-cache keys to every job of this plan.
    ///
    /// `plan_sig` must uniquely determine the whole compilation: the
    /// caller folds in the engine name, the full planner configuration,
    /// and a canonical signature of the analytical query (see
    /// [`crate::AnalyticalQuery::signature`]). Planning is a pure function
    /// of those inputs, so every job's output bytes are determined by
    /// `(plan_sig, job position)` plus the base datasets — and the cache
    /// is only sound while it is bound to **one** loaded catalog, which is
    /// the serving layer's contract (one cache per server, one server per
    /// catalog). The per-compilation plan id is normalized out of names so
    /// recompilations of the same query share cache entries, including the
    /// scan-kind-bearing base inputs (`vp_*`, `extvp_*`, `tg_ec*`) the key
    /// embeds via the normalized input list.
    pub fn attach_scan_cache_keys(&mut self, plan_sig: &str) {
        let pid = self.plan_id.clone();
        let norm = |s: &str| {
            if pid.is_empty() {
                s.to_string()
            } else {
                s.replace(&pid, "«P»")
            }
        };
        for (slot, job) in self
            .jobs
            .iter_mut()
            .chain(self.final_job.iter_mut())
            .enumerate()
        {
            let inputs: Vec<String> = job
                .inputs
                .iter()
                .map(|i| match rapida_storage::scan_class(i) {
                    Some(class) => format!("{i}#{class}"),
                    None => norm(i),
                })
                .collect();
            job.cache_key = Some(format!(
                "{plan_sig}|#{slot}|{}->{}<-[{}]",
                norm(&job.name),
                norm(&job.output),
                inputs.join(",")
            ));
        }
    }

    /// Remove the plan's intermediate datasets from the DFS (everything the
    /// jobs wrote except the final output). Call after the result has been
    /// assembled; benchmark loops use this to keep the simulated DFS from
    /// accumulating dead data.
    pub fn cleanup(&self, dfs: &SimDfs) {
        for job in self.jobs.iter().chain(self.final_job.iter()) {
            if job.output != self.output_dataset {
                dfs.remove(&job.output);
            }
        }
    }

    /// Decode the output dataset into a [`Relation`] over the outer
    /// projection.
    pub fn assemble(&self, dfs: &SimDfs, aq: &AnalyticalQuery, _dict: &Dictionary) -> Relation {
        let vars = aq.projection.clone();
        let Some(ds) = dfs.peek(&self.output_dataset) else {
            return Relation::empty(vars);
        };
        let mut rows = Vec::with_capacity(ds.records);
        match &self.output {
            OutputKind::Rows => {
                for rec in ds.iter_records() {
                    if let Some(row) = decode_row(rec) {
                        rows.push(row.iter().map(rval_to_cell).collect());
                    }
                }
            }
            OutputKind::AggRecs { projection } => {
                for rec in ds.iter_records() {
                    if let Some(r) = AggRec::decode(rec) {
                        if r.id != 0 {
                            continue;
                        }
                        rows.push(
                            projection
                                .iter()
                                .map(|src| match src {
                                    CellSrc::Key { idx, .. } => Cell::Term(TermId(r.key[*idx])),
                                    CellSrc::Agg { idx, .. } => match r.values[*idx] {
                                        Some(v) => Cell::Num(v),
                                        None => Cell::Null,
                                    },
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
        Relation { vars, rows }
    }
}

/// Scan-kind annotation of a plan input dataset, keyed on the storage
/// layer's naming scheme (see [`rapida_storage::scan_class`]): full VP
/// tables vs ExtVP semi-join reductions. Intermediate datasets
/// (plan-id-prefixed) and triplegroup partitions get no annotation.
fn scan_kind(name: &str) -> Option<&'static str> {
    rapida_storage::scan_class(name).and_then(|c| c.plan_label())
}

fn rval_to_cell(v: &RVal) -> Cell {
    match v {
        RVal::Null => Cell::Null,
        RVal::Id(i) => Cell::Term(TermId(*i)),
        RVal::Num(n) => Cell::Num(*n),
    }
}

/// Map the AST aggregate function to the operator-level op.
pub fn agg_op_of(f: AggFunc) -> AggOp {
    match f {
        AggFunc::Count => AggOp::Count,
        AggFunc::Sum => AggOp::Sum,
        AggFunc::Avg => AggOp::Avg,
        AggFunc::Min => AggOp::Min,
        AggFunc::Max => AggOp::Max,
    }
}

/// Errors from plan compilation, and from the plan executions run by
/// [`crate::enumerate_best`]'s dry-runs and [`crate::run_query`].
#[derive(Debug, Clone)]
pub enum PlanError {
    /// IR extraction / analysis failure.
    Extract(crate::aquery::ExtractError),
    /// The construct is outside the engine subset.
    Unsupported(String),
    /// A plan execution exhausted its workflow recovery budget.
    Workflow(WorkflowError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Extract(e) => write!(f, "{e}"),
            PlanError::Unsupported(m) => write!(f, "unsupported by this engine: {m}"),
            PlanError::Workflow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<crate::aquery::ExtractError> for PlanError {
    fn from(e: crate::aquery::ExtractError) -> Self {
        PlanError::Extract(e)
    }
}

impl From<WorkflowError> for PlanError {
    fn from(e: WorkflowError) -> Self {
        PlanError::Workflow(e)
    }
}

/// The engine interface: compile an analytical query over a catalog into a
/// [`QueryPlan`].
pub trait QueryEngine {
    /// Engine name (matches the paper's system names).
    fn name(&self) -> &'static str;
    /// Compile a plan.
    fn plan(
        &self,
        aq: &AnalyticalQuery,
        cat: &crate::catalog::DataCatalog,
    ) -> Result<QueryPlan, PlanError>;
}

/// Build the standard fixups + final join for a multi-block plan, given the
/// per-block AggRec dataset names. Single-block plans get `OutputKind::AggRecs`
/// instead (no extra cycle, matching the paper's cycle counts).
pub fn finish_plan(
    engine: &'static str,
    aq: &AnalyticalQuery,
    jobs: Vec<Job>,
    block_datasets: Vec<String>,
    dfs: &SimDfs,
    plan_id: &str,
) -> Result<QueryPlan, PlanError> {
    let resolved = aq.resolve_projection()?;
    let fixups: Vec<AllGroupFixup> = aq
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.group_by.is_empty())
        .map(|(i, b)| AllGroupFixup {
            dataset: block_datasets[i].clone(),
            block_id: i as u8,
            aggs: b.aggregates.iter().map(|a| agg_op_of(a.func)).collect(),
        })
        .collect();

    if aq.blocks.len() == 1 {
        let projection = resolved
            .iter()
            .map(|(b, c)| match c {
                crate::aquery::ColRef::Key(k) => CellSrc::Key { block: *b, idx: *k },
                crate::aquery::ColRef::Agg(a) => CellSrc::Agg { block: *b, idx: *a },
            })
            .collect();
        return Ok(QueryPlan {
            engine,
            plan_id: plan_id.to_string(),
            jobs,
            fixups,
            final_job: None,
            output_dataset: block_datasets[0].clone(),
            output: OutputKind::AggRecs { projection },
        });
    }

    // Multi-block: final map-only join. Block j joins the accumulated
    // blocks on its grouping keys shared with any earlier block.
    let mut joins = Vec::with_capacity(aq.blocks.len() - 1);
    for j in 1..aq.blocks.len() {
        let mut pairs = Vec::new();
        for (kj, v) in aq.blocks[j].group_by.iter().enumerate() {
            // Find the first earlier block defining v as a key.
            for b in 0..j {
                if let Some(kb) = aq.blocks[b].group_by.iter().position(|g| g == v) {
                    pairs.push((CellSrc::Key { block: b, idx: kb }, kj));
                    break;
                }
            }
        }
        joins.push(pairs);
    }
    let output: Vec<CellSrc> = resolved
        .iter()
        .map(|(b, c)| match c {
            crate::aquery::ColRef::Key(k) => CellSrc::Key { block: *b, idx: *k },
            crate::aquery::ColRef::Agg(a) => CellSrc::Agg { block: *b, idx: *a },
        })
        .collect();
    let out_name = format!("{plan_id}_final");
    let cfg = Arc::new(FinalJoinCfg {
        datasets: block_datasets.clone(),
        joins,
        output,
    });
    let final_job = rapida_mapred::JobBuilder::new(format!("{engine}:final-join"))
        .input(block_datasets[0].clone())
        .mapper(Arc::new(FinalJoinFactory::new(cfg, dfs.clone())))
        .output(out_name.clone())
        .tag("final")
        .build();
    Ok(QueryPlan {
        engine,
        plan_id: plan_id.to_string(),
        jobs,
        fixups,
        final_job: Some(final_job),
        output_dataset: out_name,
        output: OutputKind::Rows,
    })
}

/// Monotonic plan-id generator: keeps dataset names unique within a shared
/// DFS across engines and queries.
pub fn next_plan_id(prefix: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixup_synthesizes_single_all_group() {
        let dfs = SimDfs::new();
        let f = AllGroupFixup {
            dataset: "blk".into(),
            block_id: 1,
            aggs: vec![AggOp::Count, AggOp::Sum],
        };
        f.apply(&dfs);
        let ds = dfs.peek("blk").unwrap();
        assert_eq!(ds.records, 1);
        let rec = AggRec::decode(ds.iter_records().next().unwrap()).unwrap();
        assert_eq!(rec.values, vec![Some(0.0), None]);
        // Re-applying over a non-empty dataset is a no-op.
        f.apply(&dfs);
        assert_eq!(dfs.peek("blk").unwrap().records, 1);
    }

    #[test]
    fn plan_ids_are_unique() {
        let a = next_plan_id("x");
        let b = next_plan_id("x");
        assert_ne!(a, b);
    }

    #[test]
    fn agg_op_mapping() {
        assert_eq!(agg_op_of(AggFunc::Count), AggOp::Count);
        assert_eq!(agg_op_of(AggFunc::Avg), AggOp::Avg);
    }
}
