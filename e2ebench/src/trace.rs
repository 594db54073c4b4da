//! The traced run: the same path as the end-to-end run, split into the
//! public calls of each layer, with a span around every call. Spans live
//! in memory and become the per-layer metrics; the counters come from
//! what the program already reports (`JobMetrics`, `WorkflowMetrics`,
//! `Enumerated`, `ServeLedger`). Every traced result is checked against
//! the untraced path's, and the difference in wall time is reported as
//! the tracing overhead.

use crate::data::{self, Input, SetupSpans};
use crate::queries::{engines, run_query, sparql, Agreement, Fingerprint, QUERY_IDS};
use crate::report::{median, ms, percentile, ratio, Metrics};
use crate::serving::{self, Checker};
use rapida_core::engines::{HiveConfig, HiveMqo};
use rapida_core::{
    demux_member_plan, enumerate_best, extract, fusion_groups, plan_fused_group, AnalyticalQuery,
    DataCatalog, Family, LoadConfig, QueryEngine, QueryPlan,
};
use rapida_datagen::traffic::sparql_of;
use rapida_datagen::TrafficEvent;
use rapida_mapred::{ClusterModel, Engine, ScanCache, SimDfs, WorkflowMetrics};
use rapida_rdf::Graph;
use rapida_serve::{ServeConfig, WindowTrace};
use rapida_sparql::{parse_query, Relation};
use rapida_storage::{StatsCatalog, TgStore, VpStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order. Workloads
/// whose path does not reach a layer report it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("datagen.triples", "count"),
    ("rdf.read_s", "s"),
    ("rdf.parse_s", "s"),
    ("rdf.graph_build_s", "s"),
    ("rdf.input_mb", "MB"),
    ("storage.vp_load_s", "s"),
    ("storage.tg_load_s", "s"),
    ("storage.stats_s", "s"),
    ("storage.extvp_tables", "count"),
    ("storage.stored_mb", "MB"),
    ("storage.stored_per_input_byte", "ratio"),
    ("core.catalog_s", "s"),
    ("sparql.parse_us", "us"),
    ("core.extract_us", "us"),
    ("serve.dedup_ms", "ms"),
    ("core.fusion_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.enumerate_ms", "ms"),
    ("core.plan_share", "ratio"),
    ("core.enumerate.candidates", "count"),
    ("core.enumerate.dry_runs", "count"),
    ("core.enumerate.qerror_p50", "ratio"),
    ("core.demux_ms", "ms"),
    ("core.fixups_ms", "ms"),
    ("core.final_join_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.cleanup_ms", "ms"),
    ("mapred.workflow_ms", "ms"),
    ("mapred.jobs", "count"),
    ("mapred.cycles", "count"),
    ("mapred.job_wall_ms", "ms"),
    ("mapred.ra.job_wall_ms", "ms"),
    ("mapred.mqo.job_wall_ms", "ms"),
    ("mapred.map_busy_ms", "ms"),
    ("mapred.reduce_busy_ms", "ms"),
    ("mapred.unattributed_ms", "ms"),
    ("mapred.input_mb", "MB"),
    ("mapred.shuffle_mb", "MB"),
    ("mapred.output_mb", "MB"),
    ("mapred.segments_skipped", "count"),
    ("mapred.task_attempts", "count"),
    ("mapred.steals", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.fused_share", "ratio"),
    ("serve.shared_jobs", "count"),
    ("serve.rejected", "count"),
    ("serve.window_p50_ms", "ms"),
    ("serve.window_p90_ms", "ms"),
    ("trace.setup_coverage", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("trace.coverage_p50", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// All per-layer metrics at 0, ready to be filled in.
pub fn blank() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
    m
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every per-layer metric is listed in PER_LAYER")
}

fn set(m: &mut Metrics, name: &str, value: f64) {
    m.set(name, value, unit_of(name));
}

/// Record the input and set-up spans: the `rdf` steps, then the catalog
/// built layer by layer (`VpStore::load_ext`, `TgStore::load`,
/// `StatsCatalog::compute`) in place of `DataCatalog::load`. The result is
/// checked against an untraced `DataCatalog::load` of the same graph,
/// which is the catalog returned.
pub fn traced_setup(input: &Input, m: &mut Metrics) -> Result<(Graph, DataCatalog), String> {
    set(m, "datagen.generate_s", input.generate_s);
    set(m, "datagen.triples", input.triples as f64);
    set(m, "rdf.input_mb", input.bytes as f64 / 1e6);
    let setup = Instant::now();
    let mut spans = SetupSpans::default();
    let graph = data::read_graph(input, &mut spans)?;
    set(m, "rdf.read_s", spans.read_s);
    set(m, "rdf.parse_s", spans.parse_s);
    set(m, "rdf.graph_build_s", spans.graph_build_s);

    let cfg = LoadConfig::default();
    let dfs = SimDfs::new();
    let t = Instant::now();
    let vp = VpStore::load_ext(
        &graph,
        &dfs,
        cfg.vp_segment_rows,
        cfg.extvp.then_some(cfg.extvp_threshold),
    );
    set(m, "storage.vp_load_s", secs(t.elapsed()));
    let t = Instant::now();
    let tg = TgStore::load(&graph, &dfs, cfg.tg_split_bytes);
    set(m, "storage.tg_load_s", secs(t.elapsed()));
    let t = Instant::now();
    let mut pstats = StatsCatalog::compute(&graph);
    pstats.register_ext_tables(vp.ext_tables());
    set(m, "storage.stats_s", secs(t.elapsed()));
    let t = Instant::now();
    let traced = DataCatalog {
        dict: graph.dict.clone(),
        dfs,
        vp,
        tg,
        numeric: Arc::new(graph.dict.numeric_snapshot()),
        lexical: Arc::new(graph.dict.lexical_snapshot()),
        stats: Arc::new(graph.stats()),
        pstats: Arc::new(pstats),
    };
    set(m, "core.catalog_s", secs(t.elapsed()));
    let setup_wall = secs(setup.elapsed());
    let setup_spans = [
        "rdf.read_s",
        "rdf.parse_s",
        "rdf.graph_build_s",
        "storage.vp_load_s",
        "storage.tg_load_s",
        "storage.stats_s",
        "core.catalog_s",
    ];
    let covered: f64 = setup_spans.iter().filter_map(|n| m.get(n)).sum();
    set(m, "trace.setup_coverage", ratio(covered, setup_wall));
    set(
        m,
        "storage.extvp_tables",
        traced.vp.ext_tables().len() as f64,
    );
    let stored = traced.dfs.stored_bytes() as f64;
    set(m, "storage.stored_mb", stored / 1e6);
    set(
        m,
        "storage.stored_per_input_byte",
        ratio(stored, input.bytes as f64),
    );

    let cat = DataCatalog::load(&graph);
    let mut a = traced.dfs.names();
    let mut b = cat.dfs.names();
    a.sort();
    b.sort();
    if a != b
        || traced.dfs.stored_bytes() != cat.dfs.stored_bytes()
        || traced.vp.ext_tables().len() != cat.vp.ext_tables().len()
    {
        return Err("traced load differs from DataCatalog::load".into());
    }
    Ok((graph, cat))
}

/// Spans of one traced query or serving window, in call order. Each field
/// accumulates, so a window sums the spans of all the plans it runs.
#[derive(Default, Clone, Copy)]
struct Spans {
    parse: Duration,
    extract: Duration,
    dedup: Duration,
    fusion: Duration,
    plan: Duration,
    enumerate: Duration,
    workflow: Duration,
    demux: Duration,
    fixups: Duration,
    final_join: Duration,
    assemble: Duration,
    cleanup: Duration,
}

impl Spans {
    fn covered(&self) -> Duration {
        self.parse
            + self.extract
            + self.dedup
            + self.fusion
            + self.plan
            + self.enumerate
            + self.workflow
            + self.demux
            + self.fixups
            + self.final_join
            + self.assemble
            + self.cleanup
    }

    fn add(&mut self, o: &Spans) {
        self.parse += o.parse;
        self.extract += o.extract;
        self.dedup += o.dedup;
        self.fusion += o.fusion;
        self.plan += o.plan;
        self.enumerate += o.enumerate;
        self.workflow += o.workflow;
        self.demux += o.demux;
        self.fixups += o.fixups;
        self.final_join += o.final_join;
        self.assemble += o.assemble;
        self.cleanup += o.cleanup;
    }
}

/// Time `f` into `span`.
fn timed<T>(span: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *span += t.elapsed();
    out
}

/// Everything one traced pass or replay reports.
#[derive(Default)]
struct Totals {
    spans: Spans,
    /// Traced wall time of each query (window).
    wall: Vec<Duration>,
    coverage: Vec<f64>,
    parse_us: Vec<f64>,
    extract_us: Vec<f64>,
    candidates: usize,
    dry_runs: usize,
    qerrors: Vec<f64>,
    jobs: usize,
    cycles: usize,
    /// Job wall time of RAPIDAnalytics and of Hive-MQO plans.
    job_wall: [Duration; 2],
    map_busy_ns: u64,
    reduce_busy_ns: u64,
    input_bytes: u64,
    shuffle_bytes: u64,
    output_bytes: u64,
    segments_skipped: u64,
    task_attempts: u64,
    steals: u64,
}

impl Totals {
    /// Close one query (window) whose spans are `s`.
    fn close(&mut self, s: &Spans, wall: Duration) {
        self.spans.add(s);
        self.wall.push(wall);
        self.coverage.push(ratio(secs(s.covered()), secs(wall)));
    }

    /// Count a workflow's jobs; `engine` 0 is RAPIDAnalytics, 1 Hive-MQO.
    fn add_workflow(&mut self, wf: &WorkflowMetrics, engine: usize) {
        self.cycles += wf.cycles();
        self.job_wall[engine] += wf.total_wall();
        for j in &wf.jobs {
            self.jobs += 1;
            self.map_busy_ns += j.map_busy_max_ns;
            self.reduce_busy_ns += j.reduce_busy_max_ns;
            self.input_bytes += j.input_bytes;
            self.shuffle_bytes += j.shuffle_bytes;
            self.output_bytes += j.output_bytes;
            self.segments_skipped += j.segments_skipped;
            self.task_attempts += j.task_attempts();
            self.steals += j.steals;
        }
    }

    /// Write the per-layer metrics; `untraced` is the same work's wall
    /// time without tracing.
    fn record(&self, m: &mut Metrics, untraced: Duration) {
        let s = &self.spans;
        let wall: Duration = self.wall.iter().sum();
        set(m, "sparql.parse_us", median(&self.parse_us));
        set(m, "core.extract_us", median(&self.extract_us));
        set(m, "serve.dedup_ms", ms(s.dedup));
        set(m, "core.fusion_ms", ms(s.fusion));
        set(m, "core.plan_ms", ms(s.plan));
        set(m, "core.enumerate_ms", ms(s.enumerate));
        set(
            m,
            "core.plan_share",
            ratio(secs(s.plan + s.enumerate), secs(wall)),
        );
        set(m, "core.enumerate.candidates", self.candidates as f64);
        set(m, "core.enumerate.dry_runs", self.dry_runs as f64);
        set(m, "core.enumerate.qerror_p50", median(&self.qerrors));
        set(m, "core.demux_ms", ms(s.demux));
        set(m, "core.fixups_ms", ms(s.fixups));
        set(m, "core.final_join_ms", ms(s.final_join));
        set(m, "core.assemble_ms", ms(s.assemble));
        set(m, "core.cleanup_ms", ms(s.cleanup));
        set(m, "mapred.workflow_ms", ms(s.workflow));
        let job_wall = ms(self.job_wall[0] + self.job_wall[1]);
        let map_busy = self.map_busy_ns as f64 / 1e6;
        let reduce_busy = self.reduce_busy_ns as f64 / 1e6;
        set(m, "mapred.jobs", self.jobs as f64);
        set(m, "mapred.cycles", self.cycles as f64);
        set(m, "mapred.job_wall_ms", job_wall);
        set(m, "mapred.ra.job_wall_ms", ms(self.job_wall[0]));
        set(m, "mapred.mqo.job_wall_ms", ms(self.job_wall[1]));
        set(m, "mapred.map_busy_ms", map_busy);
        set(m, "mapred.reduce_busy_ms", reduce_busy);
        set(
            m,
            "mapred.unattributed_ms",
            job_wall - map_busy - reduce_busy,
        );
        set(m, "mapred.input_mb", self.input_bytes as f64 / 1e6);
        set(m, "mapred.shuffle_mb", self.shuffle_bytes as f64 / 1e6);
        set(m, "mapred.output_mb", self.output_bytes as f64 / 1e6);
        set(m, "mapred.segments_skipped", self.segments_skipped as f64);
        set(m, "mapred.task_attempts", self.task_attempts as f64);
        set(m, "mapred.steals", self.steals as f64);
        let min = self.coverage.iter().copied().fold(1.0, f64::min);
        set(m, "trace.coverage_min", min);
        set(m, "trace.coverage_p50", median(&self.coverage));
        set(m, "trace.overhead_ms", ms(wall) - ms(untraced));
        set(
            m,
            "trace.overhead_share",
            ratio(secs(wall) - secs(untraced), secs(untraced)),
        );
    }
}

/// `parse_query` then `extract`, each in its span.
fn traced_parse(text: &str, s: &mut Spans, tot: &mut Totals) -> Result<AnalyticalQuery, String> {
    let mut parse = Duration::ZERO;
    let q = timed(&mut parse, || parse_query(text)).map_err(|e| format!("parse error: {e}"))?;
    let mut extract_span = Duration::ZERO;
    let aq = timed(&mut extract_span, || extract(&q))
        .map_err(|e| format!("not an analytical query: {e}"))?;
    s.parse += parse;
    s.extract += extract_span;
    tot.parse_us.push(secs(parse) * 1e6);
    tot.extract_us.push(secs(extract_span) * 1e6);
    Ok(aq)
}

/// A plan's execution through each layer's public call, in place of
/// `QueryPlan::try_execute`: `try_run_workflow` over the block jobs, the
/// fixups, the final job as a one-job workflow, then `assemble`.
fn traced_execute(
    plan: &QueryPlan,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    mr: &Engine,
    s: &mut Spans,
) -> Result<(Relation, WorkflowMetrics), String> {
    let mut wf = timed(&mut s.workflow, || {
        mr.try_run_workflow(&plan.jobs)
            .map_err(|e| format!("execution failed: {e}"))
    })?;
    timed(&mut s.fixups, || {
        plan.fixups.iter().for_each(|f| f.apply(&mr.dfs))
    });
    if let Some(job) = &plan.final_job {
        let tail = timed(&mut s.final_join, || {
            mr.try_run_workflow(std::slice::from_ref(job))
                .map_err(|e| format!("final join failed: {e}"))
        })?;
        wf.jobs.extend(tail.jobs);
        wf.recovery.absorb(&tail.recovery);
    }
    let rel = timed(&mut s.assemble, || plan.assemble(&mr.dfs, aq, &cat.dict));
    Ok((rel, wf))
}

/// Drop a plan's datasets, as the untraced path does after each query.
fn traced_cleanup(plan: &QueryPlan, cat: &DataCatalog, s: &mut Spans) {
    timed(&mut s.cleanup, || {
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
    });
}

/// One query: `parse_query`, `extract`, `plan` (or `enumerate_best` when
/// cost-based), the traced execution and `cleanup`.
fn traced_query(
    engine: &dyn QueryEngine,
    family: Option<Family>,
    text: &str,
    cat: &DataCatalog,
    mr: &Engine,
    tot: &mut Totals,
) -> Result<(Relation, WorkflowMetrics), String> {
    let mut s = Spans::default();
    let start = Instant::now();
    let aq = traced_parse(text, &mut s, tot)?;
    let plan = match family {
        None => timed(&mut s.plan, || engine.plan(&aq, cat)),
        Some(f) => {
            let e = timed(&mut s.enumerate, || {
                enumerate_best(f, &aq, cat, &ClusterModel::nodes10())
            });
            e.map(|e| {
                tot.candidates += e.candidates.len();
                for c in &e.candidates {
                    if let Some(measured) = c.measured_s {
                        tot.dry_runs += 1;
                        if measured > 0.0 && c.estimated_s > 0.0 {
                            tot.qerrors
                                .push((c.estimated_s / measured).max(measured / c.estimated_s));
                        }
                    }
                }
                e.plan
            })
        }
    }
    .map_err(|e| format!("planning failed: {e}"))?;
    let out = traced_execute(&plan, &aq, cat, mr, &mut s);
    traced_cleanup(&plan, cat, &mut s);
    tot.close(&s, start.elapsed());
    out
}

/// A pass over the query list, each query traced and run untraced; the
/// two must agree on result and fingerprint. `flip` swaps which of the two
/// runs first, and is set on every other pass. Returns attempted, failed
/// and the first failures.
pub fn traced_pass(
    cat: &DataCatalog,
    mr: &Engine,
    cost_based: bool,
    flip: bool,
    m: &mut Metrics,
) -> (u64, u64, Vec<String>) {
    let engines = engines(cost_based);
    let families = [Family::Rapid, Family::Hive];
    let fixed = crate::queries::engines(false);
    let mut tot = Totals::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut fixed_plan = Duration::ZERO;
    let mut untraced = Duration::ZERO;
    for id in QUERY_IDS {
        let text = sparql(id);
        for (ei, e) in engines.iter().enumerate() {
            attempted += 1;
            let family = cost_based.then_some(families[ei]);
            // Alternate which of the two runs first, from query to query
            // and, through `flip`, from pass to pass, so that warm-up falls
            // on both sides of the overhead equally for every query.
            let timed_plain = || {
                let t = Instant::now();
                let r = run_query(e.as_ref(), &text, cat, mr);
                (r, t.elapsed())
            };
            let early = (attempted.is_multiple_of(2) != flip).then(timed_plain);
            let traced = traced_query(e.as_ref(), family, &text, cat, mr, &mut tot);
            let (plain, dt) = early.unwrap_or_else(timed_plain);
            untraced += dt;
            let verdict = match (traced, plain) {
                (Ok((rel, wf)), Ok((prel, pwf))) => {
                    tot.add_workflow(&wf, ei);
                    let same = Fingerprint::of(&rel, &wf) == Fingerprint::of(&prel, &pwf)
                        && rel.canonicalized(&cat.dict) == prel.canonicalized(&cat.dict);
                    same.then_some(())
                        .ok_or("traced result differs from the untraced one".to_string())
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            if let Err(why) = verdict {
                failed += 1;
                errors.push(format!("{id}/{}: {why}", e.name()));
            }
            if cost_based {
                // The fixed plan's planning time, for comparison with the
                // enumerator's; the plan is never executed.
                if let Some(aq) = parse_query(&text).ok().and_then(|q| extract(&q).ok()) {
                    let _ = timed(&mut fixed_plan, || {
                        std::hint::black_box(fixed[ei].plan(&aq, cat))
                    });
                }
            }
        }
    }
    tot.record(m, untraced);
    if cost_based {
        set(m, "core.plan_ms", ms(fixed_plan));
    }
    (attempted, failed, errors)
}

/// One replay of the trace through the server's batching path, rebuilt
/// from the public calls `rapida serve` makes inside `drain`: per request
/// `parse_query`, `extract` and signature dedup; per window
/// `fusion_groups`; per fused group `plan_fused_group` and its shared
/// `try_run_workflow`, then `demux_member_plan` and the traced execution
/// of each member; per solo query the fixed Hive-MQO plan. All of it runs
/// on the server's engine (pinned workers, one scan cache with the
/// default budget, the same cache keys). An untraced `Server` replay must
/// report the same window ledger and cache counters, and every response
/// must equal the solo result.
pub fn traced_replay(
    cat: &DataCatalog,
    windows: &[Vec<TrafficEvent>],
    checker: &Checker,
    m: &mut Metrics,
) -> (u64, u64, Vec<String>) {
    let config = ServeConfig::default();
    let cache = ScanCache::new(config.cache_budget_bytes as u64);
    let mr = Engine::pinned(cat.dfs.clone()).with_scan_cache(cache.clone());
    let hive = HiveConfig::default();
    let planner = HiveMqo::default();
    let mut tot = Totals::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    // (arrivals, unique, groups, fused members, shared jobs) per window.
    let mut ledger = Vec::new();
    for events in windows {
        attempted += events.len() as u64;
        let texts: Vec<String> = events.iter().map(sparql_of).collect();
        let mut s = Spans::default();
        let start = Instant::now();
        let mut uniq: Vec<(String, AnalyticalQuery, Vec<usize>)> = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let aq = match traced_parse(text, &mut s, &mut tot) {
                Ok(aq) => aq,
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                    continue;
                }
            };
            timed(&mut s.dedup, || {
                let sig = aq.signature();
                match uniq.iter_mut().find(|(u, _, _)| *u == sig) {
                    Some((_, _, idxs)) => idxs.push(i),
                    None => uniq.push((sig, aq, vec![i])),
                }
            });
        }
        let queries: Vec<AnalyticalQuery> = uniq.iter().map(|(_, q, _)| q.clone()).collect();
        let groups = timed(&mut s.fusion, || fusion_groups(&queries));
        let (mut fused_members, mut shared_jobs) = (0usize, 0usize);
        // The served result of each unique query.
        let mut served: Vec<Option<Relation>> = vec![None; uniq.len()];
        for group in &groups {
            let mut run_group = || -> Result<(), String> {
                if group.len() < 2 {
                    let (sig, aq, _) = &uniq[group[0]];
                    let plan = timed(&mut s.plan, || {
                        planner.plan(aq, cat).map(|mut p| {
                            p.attach_scan_cache_keys(&format!("solo|{hive:?}|{sig}"));
                            p
                        })
                    })
                    .map_err(|e| format!("planning: {e}"))?;
                    let out = traced_execute(&plan, aq, cat, &mr, &mut s);
                    traced_cleanup(&plan, cat, &mut s);
                    let (rel, wf) = out?;
                    tot.add_workflow(&wf, 1);
                    served[group[0]] = Some(rel);
                    return Ok(());
                }
                fused_members += group.len();
                let refs: Vec<&AnalyticalQuery> = group.iter().map(|&u| &queries[u]).collect();
                let group_sig = group
                    .iter()
                    .map(|&u| uniq[u].0.as_str())
                    .collect::<Vec<_>>()
                    .join("&");
                let fused = timed(&mut s.plan, || {
                    plan_fused_group(&refs, &hive, cat).map(|mut f| {
                        f.attach_scan_cache_keys(&format!("{hive:?}|{group_sig}"));
                        f
                    })
                })
                .map_err(|e| format!("fused planning: {e}"))?;
                shared_jobs += fused.jobs.len();
                let wf = timed(&mut s.workflow, || {
                    mr.try_run_workflow(&fused.jobs)
                        .map_err(|e| format!("shared jobs: {e}"))
                })?;
                tot.add_workflow(&wf, 1);
                for (member, &u) in group.iter().enumerate() {
                    let (_, aq, _) = &uniq[u];
                    let plan = timed(&mut s.demux, || {
                        demux_member_plan(
                            &fused,
                            member,
                            aq,
                            "Hive (MQO)",
                            &cat.dfs,
                            mr.split_bytes,
                        )
                    })
                    .map_err(|e| format!("demux: {e}"))?;
                    let out = traced_execute(&plan, aq, cat, &mr, &mut s);
                    traced_cleanup(&plan, cat, &mut s);
                    let (rel, wf) = out?;
                    tot.add_workflow(&wf, 1);
                    served[u] = Some(rel);
                }
                timed(&mut s.cleanup, || {
                    fused.intermediate_datasets().iter().for_each(|ds| {
                        cat.dfs.remove(ds);
                    })
                });
                Ok(())
            };
            if let Err(e) = run_group() {
                errors.push(e);
            }
        }
        tot.close(&s, start.elapsed());
        ledger.push((
            events.len(),
            uniq.len(),
            groups.len(),
            fused_members,
            shared_jobs,
        ));
        for ((_, _, idxs), rel) in uniq.iter().zip(&served) {
            let id = &events[idxs[0]].query_id;
            if !rel
                .as_ref()
                .is_some_and(|r| checker.matches(id, r) != Agreement::Differ)
            {
                failed += idxs.len() as u64;
                errors.push(format!("{id}: traced response differs from the solo run"));
            }
        }
    }

    let plain = serving::replay(cat, windows, checker, true);
    let plain_ledger: Vec<(usize, usize, usize, usize, usize)> = plain
        .reports
        .iter()
        .flat_map(|r| &r.ledger.windows)
        .map(|w| {
            (
                w.arrivals,
                w.unique,
                w.groups,
                w.fused_members,
                w.shared_jobs,
            )
        })
        .collect();
    if plain_ledger != ledger || plain.cache != cache.stats() {
        failed += 1;
        errors.push("traced replay differs from the server's ledger".into());
    }
    failed += plain.failed;
    errors.extend(plain.errors);
    let untraced: Duration = plain.window.iter().sum();
    tot.record(m, untraced);

    let traces: Vec<&WindowTrace> = plain
        .reports
        .iter()
        .flat_map(|r| &r.ledger.windows)
        .collect();
    let arrivals: usize = traces.iter().map(|w| w.arrivals).sum();
    let unique: usize = traces.iter().map(|w| w.unique).sum();
    let fused: usize = traces.iter().map(|w| w.fused_members).sum();
    let window_ms: Vec<f64> = plain.window.iter().map(|d| ms(*d)).collect();
    let c = &plain.cache;
    set(m, "cache.hits", c.hits as f64);
    set(m, "cache.misses", c.misses as f64);
    set(m, "cache.evictions", c.evictions as f64);
    set(
        m,
        "cache.hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    set(
        m,
        "serve.dedup_ratio",
        ratio(unique as f64, arrivals as f64),
    );
    set(m, "serve.fused_share", ratio(fused as f64, unique as f64));
    set(
        m,
        "serve.shared_jobs",
        traces.iter().map(|w| w.shared_jobs).sum::<usize>() as f64,
    );
    set(
        m,
        "serve.rejected",
        traces.iter().map(|w| w.rejected).sum::<usize>() as f64,
    );
    set(m, "serve.window_p50_ms", median(&window_ms));
    set(m, "serve.window_p90_ms", percentile(&window_ms, 0.9));
    errors.truncate(8);
    (attempted, failed, errors)
}
