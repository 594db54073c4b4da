//! Cost-based plan enumeration: a mini-Volcano optimizer over the engines'
//! physical plan families.
//!
//! The enumerator explores a deterministic candidate space per family —
//! star-grouping alternatives (naive vs composite/MQO shapes), α-join
//! placement and parallel-vs-sequential aggregation for the NTGA engines,
//! map-join vs shuffle-join thresholds and aggregation placement for the
//! Hive engines, plus memo-searched star-join orders ([`memo`]) — compiles
//! each alternative to an ordinary [`QueryPlan`] through the *fixed*
//! engines, and prices it in two phases:
//!
//! 1. **Estimate** ([`coster`]): synthesize [`JobMetrics`] for every job
//!    from per-predicate statistics and price them with
//!    [`ClusterModel::job_time`]. Pure function of (query, stats, model).
//! 2. **Dry-run**: the shortlist of cheapest estimates — always including
//!    the family's fixed incumbent plans — is executed on the deterministic
//!    pinned simulator and re-priced from *measured* metrics via
//!    [`ClusterModel::workflow_time`]. The measured-cheapest plan wins.
//!
//! Because every incumbent is in the dry-run shortlist, the chosen plan's
//! measured simulated cost is never worse than the fixed plan's — the
//! invariant `tests/prop_plan_choice.rs` pins. Candidate order, the memo,
//! and the simulator are all deterministic, so the choice is a pure
//! function of (query, statistics, cluster model).

pub mod coster;
pub mod memo;

use crate::aquery::{resolve_block_var, AnalyticalQuery, BlockVarBinding};
use crate::catalog::DataCatalog;
use crate::composite::CompositeOutcome;
use crate::engines::hive::{is_permutation, HiveConfig, HiveMqo, HiveNaive};
use crate::engines::rapid::{RapidAnalytics, RapidPlus};
use crate::plan::{PlanError, QueryEngine, QueryPlan};
use coster::CardCtx;
use memo::UnitGraph;
use rapida_mapred::{ClusterModel, Engine};
use rapida_rdf::TermId;
use rapida_sparql::analysis::StarDecomposition;
use rapida_sparql::ast::Var;

/// How many non-incumbent candidates advance from the estimate phase to the
/// measured dry-run.
const SHORTLIST: usize = 4;

/// The two physical plan families (matching the paper's system pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Relational VP plans: Hive (Naive) and Hive (MQO) shapes.
    Hive,
    /// NTGA triplegroup plans: RAPID+ and RAPIDAnalytics shapes.
    Rapid,
}

/// One explored alternative, reported for experiments and tests.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Stable candidate label (shape + knobs).
    pub name: String,
    /// Is this one of the family's fixed default plans?
    pub incumbent: bool,
    /// MR cycles of the compiled plan.
    pub cycles: usize,
    /// Phase-1 estimated cost, model seconds.
    pub estimated_s: f64,
    /// Phase-2 measured cost (dry-run on the pinned simulator); `None` when
    /// the candidate did not make the shortlist.
    pub measured_s: Option<f64>,
}

/// The enumerator's outcome: the winning plan plus the full exploration
/// record.
pub struct Enumerated {
    /// The chosen plan, freshly compiled (never executed).
    pub plan: QueryPlan,
    /// Label of the winning candidate.
    pub choice: String,
    /// The winner's phase-1 estimate, model seconds.
    pub estimated_s: f64,
    /// The winner's measured dry-run cost, model seconds.
    pub measured_s: f64,
    /// Every explored candidate, in exploration order.
    pub candidates: Vec<CandidateReport>,
}

/// A candidate's compilation recipe: a fixed-engine configuration.
#[derive(Debug, Clone)]
enum Spec {
    HiveNaive(HiveConfig),
    HiveMqo(HiveConfig),
    RapidPlus(RapidPlus),
    Rapida(RapidAnalytics),
}

#[derive(Debug, Clone)]
struct Candidate {
    name: String,
    incumbent: bool,
    spec: Spec,
}

impl Candidate {
    fn compile(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        match &self.spec {
            Spec::HiveNaive(cfg) => HiveNaive {
                config: cfg.clone(),
                cost_model: None,
            }
            .plan(aq, cat),
            Spec::HiveMqo(cfg) => HiveMqo {
                config: cfg.clone(),
                cost_model: None,
            }
            .plan(aq, cat),
            Spec::RapidPlus(e) => e.plan(aq, cat),
            Spec::Rapida(e) => e.plan(aq, cat),
        }
    }

    /// The candidate's cardinality context (depends on its plan shape and
    /// its effective join orders).
    fn ctx(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<CardCtx, PlanError> {
        match &self.spec {
            Spec::HiveNaive(cfg) => ctx_per_block(cat, aq, &cfg.join_orders),
            Spec::RapidPlus(e) => ctx_per_block(cat, aq, &e.join_orders),
            Spec::HiveMqo(cfg) => match composite_of(aq)? {
                Some(c) => {
                    let dec0 = aq.blocks[0].decomposition()?;
                    let unit = UnitGraph::from_dec(cat, &dec0);
                    ctx_composite(cat, aq, &c, unit, cfg.join_orders.first())
                }
                None => ctx_per_block(cat, aq, &cfg.join_orders),
            },
            Spec::Rapida(e) => match composite_of(aq)? {
                Some(c) => {
                    let unit = memo::unit_from_composite(cat, &c);
                    ctx_composite(cat, aq, &c, unit, e.join_orders.first())
                }
                None => ctx_per_block(cat, aq, &e.join_orders),
            },
        }
    }
}

fn composite_of(
    aq: &AnalyticalQuery,
) -> Result<Option<crate::composite::CompositePattern>, PlanError> {
    if aq.blocks.len() < 2 {
        return Ok(None);
    }
    match crate::composite::build_composite(&aq.blocks)? {
        CompositeOutcome::Composite(c) => Ok(Some(c)),
        CompositeOutcome::NotOverlapping(_) => Ok(None),
    }
}

/// Effective edge order of one unit: the configured permutation when valid,
/// the planner's greedy default otherwise.
fn effective_order(unit: &UnitGraph, cfg: Option<&Vec<usize>>) -> Vec<usize> {
    match cfg {
        Some(ord) if is_permutation(ord, unit.edges.len()) => ord.clone(),
        _ => unit.greedy_order(),
    }
}

/// NDV of a grouping variable within one unit graph. `remap` translates the
/// block-local star index into the unit's star index.
fn group_ndv(
    cat: &DataCatalog,
    dec: &StarDecomposition,
    unit: &UnitGraph,
    remap: &dyn Fn(usize) -> usize,
    v: &Var,
) -> f64 {
    match resolve_block_var(dec, v) {
        Ok(BlockVarBinding::Subject { star }) => unit
            .stars
            .get(remap(star))
            .map(|s| s.subjects)
            .unwrap_or(1.0),
        Ok(BlockVarBinding::ObjectOf { prop, .. }) => {
            let pid = cat.id_of(&prop.prop);
            cat.pstats
                .pred(TermId(pid))
                .map(|p| p.ndv_objects as f64)
                .unwrap_or(1.0)
        }
        Err(_) => 1.0,
    }
}

/// Context for per-block plan shapes (Hive Naive, RAPID+): one planning
/// unit per grouping block.
fn ctx_per_block(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    orders: &[Vec<usize>],
) -> Result<CardCtx, PlanError> {
    let mut ctx = CardCtx::default();
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let unit = UnitGraph::from_dec(cat, &dec);
        let order = effective_order(&unit, orders.get(b));
        let prefix = unit.prefix_rows(&order);
        let rows = prefix
            .last()
            .copied()
            .unwrap_or_else(|| unit.stars.first().map(|s| s.rows).unwrap_or(0.0));
        let identity = |s: usize| s;
        let groups = if block.group_by.is_empty() {
            1.0
        } else {
            block
                .group_by
                .iter()
                .map(|v| group_ndv(cat, &dec, &unit, &identity, v))
                .product::<f64>()
                .min(rows.max(1.0))
        };
        ctx.star_rows.push(unit.stars.iter().map(|s| s.rows).collect());
        ctx.join_rows.push(prefix);
        ctx.block_rows.push(rows);
        ctx.agg_rows.push(groups);
    }
    Ok(ctx)
}

/// Context for composite plan shapes (Hive MQO, RAPIDAnalytics): one shared
/// planning unit; every block reads the composite intermediate.
fn ctx_composite(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    c: &crate::composite::CompositePattern,
    unit: UnitGraph,
    order_cfg: Option<&Vec<usize>>,
) -> Result<CardCtx, PlanError> {
    let order = effective_order(&unit, order_cfg);
    let prefix = unit.prefix_rows(&order);
    let rows = prefix
        .last()
        .copied()
        .unwrap_or_else(|| unit.stars.first().map(|s| s.rows).unwrap_or(0.0));
    let mut ctx = CardCtx {
        star_rows: vec![unit.stars.iter().map(|s| s.rows).collect()],
        join_rows: vec![prefix],
        ..CardCtx::default()
    };
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let map = &c.star_map[b];
        let remap = |s: usize| map.get(s).copied().unwrap_or(s);
        let groups = if block.group_by.is_empty() {
            1.0
        } else {
            block
                .group_by
                .iter()
                .map(|v| group_ndv(cat, &dec, &unit, &remap, v))
                .product::<f64>()
                .min(rows.max(1.0))
        };
        ctx.block_rows.push(rows);
        ctx.agg_rows.push(groups);
    }
    Ok(ctx)
}

fn fmt_order(orders: &[Vec<usize>]) -> String {
    if orders.iter().all(|o| o.is_empty()) {
        "default".into()
    } else {
        let per: Vec<String> = orders
            .iter()
            .map(|o| {
                o.iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join("·")
            })
            .collect();
        per.join("/")
    }
}

/// Memo-searched edge orders for the per-block units. Empty entries mean
/// "keep the default"; `None` when no unit has a reorderable join tree.
fn memo_orders_per_block(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
) -> Result<Option<Vec<Vec<usize>>>, PlanError> {
    let mut orders = Vec::with_capacity(aq.blocks.len());
    let mut any = false;
    for block in &aq.blocks {
        let dec = block.decomposition()?;
        let unit = UnitGraph::from_dec(cat, &dec);
        match unit.best_order() {
            Some(ord) if ord != unit.greedy_order() => {
                orders.push(ord);
                any = true;
            }
            _ => orders.push(Vec::new()),
        }
    }
    Ok(if any { Some(orders) } else { None })
}

fn hive_candidates(
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<Vec<Candidate>, PlanError> {
    let multi = aq.blocks.len() >= 2;
    let mut cands = Vec::new();
    // Incumbents: the fixed default shapes, always dry-run.
    cands.push(Candidate {
        name: "hive-naive (fixed)".into(),
        incumbent: true,
        spec: Spec::HiveNaive(HiveConfig::default()),
    });
    if multi {
        cands.push(Candidate {
            name: "hive-mqo (fixed)".into(),
            incumbent: true,
            spec: Spec::HiveMqo(HiveConfig::default()),
        });
    }

    let naive_memo = memo_orders_per_block(cat, aq)?;
    let mqo_memo: Option<Vec<Vec<usize>>> = match composite_of(aq)? {
        Some(_) => {
            let dec0 = aq.blocks[0].decomposition()?;
            let unit = UnitGraph::from_dec(cat, &dec0);
            match unit.best_order() {
                Some(ord) if ord != unit.greedy_order() => Some(vec![ord]),
                _ => None,
            }
        }
        None => None,
    };

    let default = HiveConfig::default();
    for mqo in [false, true] {
        if mqo && !multi {
            continue;
        }
        let memo_orders = if mqo { &mqo_memo } else { &naive_memo };
        let mut ord_variants: Vec<Option<&Vec<Vec<usize>>>> = vec![None];
        if memo_orders.is_some() {
            ord_variants.push(memo_orders.as_ref());
        }
        for &thr in &[0usize, default.map_join_threshold, 1 << 20] {
            for &msa in &[true, false] {
                for &extvp in &[true, false] {
                    for &ord in &ord_variants {
                        if thr == default.map_join_threshold && msa && extvp && ord.is_none() {
                            continue; // that's the incumbent
                        }
                        let cfg = HiveConfig {
                            map_join_threshold: thr,
                            map_side_agg: msa,
                            use_extvp: extvp,
                            join_orders: ord.cloned().unwrap_or_default(),
                        };
                        let name = format!(
                            "hive-{} mj={thr} msa={} extvp={} ord={}",
                            if mqo { "mqo" } else { "naive" },
                            if msa { "on" } else { "off" },
                            if extvp { "on" } else { "off" },
                            fmt_order(&cfg.join_orders),
                        );
                        cands.push(Candidate {
                            name,
                            incumbent: false,
                            spec: if mqo {
                                Spec::HiveMqo(cfg)
                            } else {
                                Spec::HiveNaive(cfg)
                            },
                        });
                    }
                }
            }
        }
    }
    Ok(cands)
}

fn rapid_candidates(
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<Vec<Candidate>, PlanError> {
    let mut cands = Vec::new();
    cands.push(Candidate {
        name: "rapid-plus (fixed)".into(),
        incumbent: true,
        spec: Spec::RapidPlus(RapidPlus::default()),
    });
    cands.push(Candidate {
        name: "rapida (fixed)".into(),
        incumbent: true,
        spec: Spec::Rapida(RapidAnalytics::default()),
    });

    // Aggregation-placement and α-join ablations of the analytics shape.
    for (alpha, par, msc) in [
        (true, false, true),
        (false, true, true),
        (false, false, true),
        (true, true, false),
    ] {
        cands.push(Candidate {
            name: format!(
                "rapida alpha={} par={} msc={}",
                if alpha { "on" } else { "off" },
                if par { "on" } else { "off" },
                if msc { "on" } else { "off" }
            ),
            incumbent: false,
            spec: Spec::Rapida(RapidAnalytics {
                map_side_combine: msc,
                alpha_pruning: alpha,
                parallel_agg: par,
                ..Default::default()
            }),
        });
    }
    cands.push(Candidate {
        name: "rapid-plus msc=off".into(),
        incumbent: false,
        spec: Spec::RapidPlus(RapidPlus {
            map_side_combine: false,
            ..Default::default()
        }),
    });

    // ExtVP subject-gate ablations: the gates trade plan-time set loads for
    // map-side group drops, so the enumerator prices both sides.
    cands.push(Candidate {
        name: "rapid-plus extvp=off".into(),
        incumbent: false,
        spec: Spec::RapidPlus(RapidPlus {
            use_extvp: false,
            ..Default::default()
        }),
    });
    cands.push(Candidate {
        name: "rapida extvp=off".into(),
        incumbent: false,
        spec: Spec::Rapida(RapidAnalytics {
            use_extvp: false,
            ..Default::default()
        }),
    });

    // Memo-searched join orders.
    if let Some(orders) = memo_orders_per_block(cat, aq)? {
        cands.push(Candidate {
            name: format!("rapid-plus ord={}", fmt_order(&orders)),
            incumbent: false,
            spec: Spec::RapidPlus(RapidPlus {
                join_orders: orders,
                ..Default::default()
            }),
        });
    }
    if let Some(c) = composite_of(aq)? {
        let unit = memo::unit_from_composite(cat, &c);
        if let Some(ord) = unit.best_order() {
            if ord != unit.greedy_order() {
                let orders = vec![ord];
                cands.push(Candidate {
                    name: format!("rapida ord={}", fmt_order(&orders)),
                    incumbent: false,
                    spec: Spec::Rapida(RapidAnalytics {
                        join_orders: orders,
                        ..Default::default()
                    }),
                });
            }
        }
    }
    Ok(cands)
}

/// Enumerate, price, dry-run and choose the cheapest plan of `family` for
/// this query under `model`. See the module docs for the two-phase scheme
/// and the determinism / never-worse guarantees.
pub fn enumerate_best(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> Result<Enumerated, PlanError> {
    let cands = match family {
        Family::Hive => hive_candidates(aq, cat)?,
        Family::Rapid => rapid_candidates(aq, cat)?,
    };

    // Phase 1: compile + estimate every candidate. Incumbent compilation
    // failures are real errors; exotic knob combinations that fail to
    // compile are silently dropped.
    struct Scored {
        idx: usize,
        est: f64,
        plan: QueryPlan,
    }
    let mut scored: Vec<Scored> = Vec::with_capacity(cands.len());
    for (idx, cand) in cands.iter().enumerate() {
        let plan = match cand.compile(aq, cat) {
            Ok(p) => p,
            Err(e) if cand.incumbent => return Err(e),
            Err(_) => continue,
        };
        let ctx = cand.ctx(aq, cat)?;
        let est = coster::estimate_plan(model, cat, &plan, &ctx);
        scored.push(Scored { idx, est, plan });
    }
    if scored.is_empty() {
        return Err(PlanError::Unsupported(
            "plan enumeration produced no candidates".into(),
        ));
    }

    // Shortlist: the SHORTLIST cheapest estimates plus every incumbent.
    let mut by_est: Vec<usize> = (0..scored.len()).collect();
    by_est.sort_by(|&a, &b| {
        scored[a]
            .est
            .partial_cmp(&scored[b].est)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(scored[a].idx.cmp(&scored[b].idx))
    });
    let mut shortlist: Vec<usize> = by_est.into_iter().take(SHORTLIST).collect();
    for (i, s) in scored.iter().enumerate() {
        if cands[s.idx].incumbent && !shortlist.contains(&i) {
            shortlist.push(i);
        }
    }
    shortlist.sort_unstable(); // dry-run in exploration order

    // Phase 2: measured dry-runs on the deterministic pinned simulator.
    let mr = Engine::pinned(cat.dfs.clone());
    let mut measured: Vec<(usize, f64)> = Vec::with_capacity(shortlist.len());
    for &i in &shortlist {
        let plan = &scored[i].plan;
        let run = plan.try_execute(&mr, aq, &cat.dict);
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
        let (_rel, wf) = run?;
        measured.push((i, model.workflow_time(&wf)));
    }

    // Choose: minimum measured cost; ties prefer incumbents, then
    // exploration order.
    let &(win, win_t) = measured
        .iter()
        .min_by(|(a, ta), (b, tb)| {
            ta.partial_cmp(tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let ia = cands[scored[*a].idx].incumbent;
                    let ib = cands[scored[*b].idx].incumbent;
                    ib.cmp(&ia) // incumbent first
                })
                .then(scored[*a].idx.cmp(&scored[*b].idx))
        })
        .expect("shortlist is non-empty");

    let reports: Vec<CandidateReport> = scored
        .iter()
        .enumerate()
        .map(|(i, s)| CandidateReport {
            name: cands[s.idx].name.clone(),
            incumbent: cands[s.idx].incumbent,
            cycles: s.plan.cycles(),
            estimated_s: s.est,
            measured_s: measured.iter().find(|(j, _)| *j == i).map(|(_, t)| *t),
        })
        .collect();

    // Re-compile the winner fresh (its dry-run plan already executed once;
    // factories may hold caches) and stamp the cost-based engine name.
    let mut plan = cands[scored[win].idx].compile(aq, cat)?;
    plan.engine = match family {
        Family::Hive => "Hive (cost-based)",
        Family::Rapid => "RAPID (cost-based)",
    };
    Ok(Enumerated {
        plan,
        choice: cands[scored[win].idx].name.clone(),
        estimated_s: scored[win].est,
        measured_s: win_t,
        candidates: reports,
    })
}
