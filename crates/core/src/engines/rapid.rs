//! The NTGA-based engines: **RAPID+** (sequential per-pattern evaluation,
//! the paper's baseline \[25,33\]) and **RAPIDAnalytics** (this paper's
//! contribution: composite graph patterns with shared scans, α-join pruning,
//! and parallel Agg-Join evaluation).

use crate::aquery::{resolve_block_var, AnalyticalQuery, BlockVarBinding, GroupingBlock};
use crate::catalog::DataCatalog;
use crate::composite::{build_composite, CompositeOutcome, CompositePattern, EdgeKey};
use crate::filters::{compile_block_filters, StarFilter, ValuePred};
use crate::plan::{agg_op_of, finish_plan, next_plan_id, PlanError, QueryEngine, QueryPlan};
use crate::relops::IdPred;
use rapida_mapred::{ClusterModel, FnMapFactory, FnReduceFactory, Job, JobBuilder, KeyLocal};
use rapida_ntga::{
    AggJoinConfig, AggJoinMapper, AggJoinReducer, AggJoinSpec, AggSpec, AlphaCond,
    AlphaJoinReducer, AlphaTerm, AnnRoute, JoinKey, PropReq, Side, StarRoute, StarSpec,
    TgJoinMapConfig, TgJoinMapper, TgTransform, VarRef,
};
use rapida_sparql::analysis::{PropKey, Role, StarDecomposition};
use rapida_storage::{read_dataset_rows, ExtVpKind, ExtVpMeta};
use rapida_sparql::ast::{PatternTerm, TriplePattern, Var};
use std::sync::Arc;

const NUM_REDUCERS: usize = 8;

/// RAPID+ — sequential NTGA evaluation of each grouping block.
#[derive(Debug, Clone)]
pub struct RapidPlus {
    /// Map-side hash aggregation in Agg-Join (Algorithm 3 ablation knob).
    pub map_side_combine: bool,
    /// Cost-based mode: enumerate candidate plans across the RAPID family,
    /// price each with this cluster model, and return the cheapest. `None`
    /// (default) keeps the fixed plan above.
    pub cost_model: Option<ClusterModel>,
    /// Explicit star-join edge orders, one entry per planning unit (block
    /// index). Each entry must be a permutation of that block's edge
    /// indexes; missing or invalid entries fall back to the default greedy
    /// order. Set by the enumerator.
    pub join_orders: Vec<Vec<usize>>,
    /// Gate star scans on ExtVP-derived subject sets: a star entering a
    /// join by Subject keeps only triplegroups whose subject appears in
    /// the matching SO reduction. Sound because the α-join is a pure inner
    /// join — gated-out groups could never survive it — so output stays
    /// byte-identical either way.
    pub use_extvp: bool,
}

impl Default for RapidPlus {
    fn default() -> Self {
        RapidPlus {
            map_side_combine: true,
            cost_model: None,
            join_orders: Vec::new(),
            use_extvp: true,
        }
    }
}

/// RAPIDAnalytics — composite graph pattern with parallel Agg-Join.
#[derive(Debug, Clone)]
pub struct RapidAnalytics {
    /// Map-side hash aggregation (Algorithm 3 ablation knob).
    pub map_side_combine: bool,
    /// α-join pruning of invalid composite combinations (ablation: off
    /// materializes every combination; per-block α at aggregation time keeps
    /// results correct).
    pub alpha_pruning: bool,
    /// Parallel evaluation of independent aggregations in one cycle
    /// (Fig. 6(b)); off = one Agg-Join cycle per block (Fig. 6(a)).
    pub parallel_agg: bool,
    /// Cost-based mode: enumerate candidate plans across the RAPID family,
    /// price each with this cluster model, and return the cheapest. `None`
    /// (default) keeps the fixed plan above.
    pub cost_model: Option<ClusterModel>,
    /// Explicit star-join edge orders per planning unit (composite pattern =
    /// unit 0); invalid entries fall back to the default greedy order.
    pub join_orders: Vec<Vec<usize>>,
    /// Gate star scans on ExtVP-derived subject sets (see
    /// [`RapidPlus::use_extvp`]).
    pub use_extvp: bool,
}

impl Default for RapidAnalytics {
    fn default() -> Self {
        RapidAnalytics {
            map_side_combine: true,
            alpha_pruning: true,
            parallel_agg: true,
            cost_model: None,
            join_orders: Vec::new(),
            use_extvp: true,
        }
    }
}

impl QueryEngine for RapidPlus {
    fn name(&self) -> &'static str {
        "RAPID+ (Naive)"
    }

    fn plan(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        if let Some(model) = self.cost_model {
            return crate::enumerate::enumerate_best(
                crate::enumerate::Family::Rapid,
                aq,
                cat,
                &model,
            )
            .map(|e| e.plan);
        }
        let pid = next_plan_id("rp");
        let mut jobs = Vec::new();
        let mut block_datasets = Vec::new();
        for (b, block) in aq.blocks.iter().enumerate() {
            let dec = block.decomposition()?;
            let filters = compile_block_filters(block, &dec)?;
            let specs = block_star_specs(cat, &dec)?;
            let mut prefilters = star_prefilters(cat, &filters, dec.stars.len());
            if self.use_extvp {
                let primary: Vec<Vec<PropKey>> = dec
                    .stars
                    .iter()
                    .map(|s| s.triples.iter().filter_map(PropKey::of).collect())
                    .collect();
                compose_extvp_gates(cat, &mut prefilters, &primary, &block_subject_gates(&dec));
            }
            let edges = compile_edges(cat, &dec)?;
            let planner = TgJoinPlanner {
                cat,
                prefix: format!("{pid}_b{b}"),
                unit: b,
                edge_order: self.join_orders.get(b).cloned().unwrap_or_default(),
                specs,
                prefilters,
                edges,
                conds: Arc::new(Vec::new()),
            };
            let (mut join_jobs, joined) = planner.build_join_jobs()?;
            jobs.append(&mut join_jobs);

            // Agg-Join cycle for this block.
            let spec = block_agg_spec(cat, block, &dec, b as u8, None, AlphaCond::default())?;
            let out = format!("{pid}_b{b}_agg");
            jobs.push(agg_join_job(
                cat,
                &format!("RAPID+:agg-join b{b}"),
                &format!("agg b{b}"),
                vec![spec],
                joined,
                &planner,
                self.map_side_combine,
                &out,
            ));
            block_datasets.push(out);
        }
        finish_plan("RAPID+ (Naive)", aq, jobs, block_datasets, &cat.dfs, &pid)
    }
}

impl QueryEngine for RapidAnalytics {
    fn name(&self) -> &'static str {
        "RAPIDAnalytics"
    }

    fn plan(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        if let Some(model) = self.cost_model {
            return crate::enumerate::enumerate_best(
                crate::enumerate::Family::Rapid,
                aq,
                cat,
                &model,
            )
            .map(|e| e.plan);
        }
        let composite = match build_composite(&aq.blocks)? {
            CompositeOutcome::Composite(c) => c,
            CompositeOutcome::NotOverlapping(_) => {
                // Non-overlapping patterns: the composite rewrite does not
                // apply. When every block is a single star there is still a
                // sharing opportunity within one MR cycle (§2.2): scan the
                // union of covering partitions once, filter per block, and
                // aggregate all blocks in one generalized Agg-Join.
                if let Some(plan) = self.plan_shared_single_star(aq, cat)? {
                    return Ok(plan);
                }
                // Otherwise evaluate like RAPID+.
                let fallback = RapidPlus {
                    map_side_combine: self.map_side_combine,
                    cost_model: None,
                    join_orders: self.join_orders.clone(),
                    use_extvp: self.use_extvp,
                };
                let mut plan = fallback.plan(aq, cat)?;
                plan.engine = "RAPIDAnalytics";
                return Ok(plan);
            }
        };
        let pid = next_plan_id("ra");
        let decs: Vec<StarDecomposition> = aq
            .blocks
            .iter()
            .map(|b| b.decomposition())
            .collect::<Result<_, _>>()?;

        let specs = composite_star_specs(cat, &composite, &decs)?;
        let mut prefilters = composite_prefilters(cat, &composite);
        if self.use_extvp {
            let primary: Vec<Vec<PropKey>> = composite
                .stars
                .iter()
                .map(|s| s.primary.clone())
                .collect();
            compose_extvp_gates(
                cat,
                &mut prefilters,
                &primary,
                &composite_subject_gates(&composite),
            );
        }
        let edges = composite_edges(cat, &composite);
        // Join-time pruning: the disjunction of every block's positive α.
        let conds: Vec<AlphaCond> = if self.alpha_pruning {
            (0..aq.blocks.len())
                .map(|b| alpha_cond_of(cat, &composite, b))
                .collect()
        } else {
            Vec::new()
        };
        let planner = TgJoinPlanner {
            cat,
            prefix: pid.clone(),
            unit: 0,
            edge_order: self.join_orders.first().cloned().unwrap_or_default(),
            specs,
            prefilters,
            edges,
            conds: Arc::new(conds),
        };
        let (mut jobs, joined) = planner.build_join_jobs()?;

        // Agg-Join specs, one per block, over the composite layout.
        let mut agg_specs = Vec::with_capacity(aq.blocks.len());
        for (b, block) in aq.blocks.iter().enumerate() {
            let alpha = alpha_cond_of(cat, &composite, b);
            agg_specs.push(block_agg_spec(
                cat,
                block,
                &decs[b],
                b as u8,
                Some(&composite.star_map[b]),
                alpha,
            )?);
        }

        let mut block_datasets;
        if self.parallel_agg {
            // One generalized Agg-Join cycle (Fig. 6(b)).
            let out = format!("{pid}_aggs");
            jobs.push(agg_join_job(
                cat,
                "RAPIDAnalytics:parallel-agg-join",
                "agg-par",
                agg_specs,
                joined.clone(),
                &planner,
                self.map_side_combine,
                &out,
            ));
            block_datasets = vec![out; aq.blocks.len()];
        } else {
            // Sequential Agg-Joins (Fig. 6(a) ablation).
            block_datasets = Vec::with_capacity(aq.blocks.len());
            for (b, spec) in agg_specs.into_iter().enumerate() {
                let out = format!("{pid}_agg_b{b}");
                jobs.push(agg_join_job(
                    cat,
                    &format!("RAPIDAnalytics:agg-join b{b}"),
                    &format!("agg b{b}"),
                    vec![spec],
                    joined.clone(),
                    &planner,
                    self.map_side_combine,
                    &out,
                ));
                block_datasets.push(out);
            }
        }
        finish_plan("RAPIDAnalytics", aq, jobs, block_datasets, &cat.dfs, &pid)
    }
}

impl RapidAnalytics {
    /// The §2.2 shared-scan fallback: all blocks single-star and
    /// non-overlapping → one Agg-Join cycle over the union of covering
    /// partitions, each block's star filter applied to the shared scan.
    /// Returns `None` when any block has joins (RAPID+ handles those).
    fn plan_shared_single_star(
        &self,
        aq: &AnalyticalQuery,
        cat: &DataCatalog,
    ) -> Result<Option<QueryPlan>, PlanError> {
        let mut raw_filters = Vec::with_capacity(aq.blocks.len());
        let mut agg_specs = Vec::with_capacity(aq.blocks.len());
        let mut coverings: Vec<Vec<rapida_rdf::TermId>> = Vec::new();
        for (b, block) in aq.blocks.iter().enumerate() {
            let dec = block.decomposition()?;
            if dec.stars.len() != 1 {
                return Ok(None);
            }
            let filters = compile_block_filters(block, &dec)?;
            let mut specs = block_star_specs(cat, &dec)?;
            let mut spec = specs.remove(0);
            // Tag this block's star with the block index so the AnnTgs
            // produced by the shared scan route to the right Agg-Join spec.
            spec.star = b as u8;
            let prefilter = star_prefilters(cat, &filters, 1).remove(0);
            coverings.push(
                spec.primary_props()
                    .into_iter()
                    .map(rapida_rdf::TermId)
                    .collect(),
            );
            raw_filters.push((spec, prefilter));
            agg_specs.push(block_agg_spec(
                cat,
                block,
                &dec,
                b as u8,
                Some(&[b]),
                AlphaCond::default(),
            )?);
        }
        let pid = next_plan_id("ras");
        let inputs = cat.tg.datasets_covering_any(&coverings);
        let cfg = Arc::new(AggJoinConfig {
            specs: agg_specs,
            numeric: cat.numeric.clone(),
            raw_filters,
            map_side_combine: self.map_side_combine,
        });
        let out = format!("{pid}_aggs");
        let mut builder = JobBuilder::new("RAPIDAnalytics:shared-scan-agg-join");
        for i in inputs {
            builder = builder.input(i);
        }
        let job = builder
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || AggJoinMapper::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = cfg.clone();
                move || AggJoinReducer::new(c.clone())
            }))))
            .output(out.clone())
            .num_reducers(NUM_REDUCERS)
            .tag("agg-shared")
            .build();
        let block_datasets = vec![out; aq.blocks.len()];
        finish_plan(
            "RAPIDAnalytics",
            aq,
            vec![job],
            block_datasets,
            &cat.dfs,
            &pid,
        )
        .map(Some)
    }
}

/// Shared join-cycle planning over star specs + edges.
pub(crate) struct TgJoinPlanner<'a> {
    pub(crate) cat: &'a DataCatalog,
    pub(crate) prefix: String,
    /// Planning-unit index for cost tags (block index, 0 for composites).
    pub(crate) unit: usize,
    /// Explicit edge order (permutation of `0..edges.len()`); anything else
    /// falls back to the default greedy order.
    pub(crate) edge_order: Vec<usize>,
    pub(crate) specs: Vec<StarSpec>,
    pub(crate) prefilters: Vec<Option<TgTransform>>,
    pub(crate) edges: Vec<CompiledEdge>,
    pub(crate) conds: Arc<Vec<AlphaCond>>,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledEdge {
    l_star: usize,
    r_star: usize,
    l_key: JoinKey,
    r_key: JoinKey,
}

impl TgJoinPlanner<'_> {
    fn route(&self, star: usize, side: Side, key: JoinKey) -> StarRoute {
        StarRoute {
            spec: self.specs[star].clone(),
            side,
            key,
            prefilter: self.prefilters[star].clone(),
        }
    }

    fn covering(&self, stars: &[usize]) -> Vec<String> {
        let reqs: Vec<Vec<rapida_rdf::TermId>> = stars
            .iter()
            .map(|&s| {
                self.specs[s]
                    .primary_props()
                    .into_iter()
                    .map(rapida_rdf::TermId)
                    .collect()
            })
            .collect();
        self.cat.tg.datasets_covering_any(&reqs)
    }

    /// Build the join cycles. Returns `(jobs, joined dataset)`;
    /// `joined = None` for single-star patterns (the Agg-Join scans raw
    /// triplegroups directly).
    pub(crate) fn build_join_jobs(&self) -> Result<(Vec<Job>, Option<String>), PlanError> {
        if self.specs.len() == 1 {
            return Ok((Vec::new(), None));
        }
        let mut jobs = Vec::new();
        let mut joined_stars: Vec<usize> = Vec::new();
        let mut remaining: Vec<&CompiledEdge> =
            if crate::engines::hive::is_permutation(&self.edge_order, self.edges.len()) {
                self.edge_order.iter().map(|&i| &self.edges[i]).collect()
            } else {
                self.edges.iter().collect()
            };
        let mut prev: Option<String> = None;
        let mut cycle = 0usize;
        while !remaining.is_empty() {
            // Pick the next edge: for the first cycle any edge, afterwards
            // one connecting the joined set to a new star.
            let pos = if joined_stars.is_empty() {
                0
            } else {
                remaining
                    .iter()
                    .position(|e| {
                        joined_stars.contains(&e.l_star) != joined_stars.contains(&e.r_star)
                    })
                    .ok_or_else(|| {
                        PlanError::Unsupported(
                            "cyclic star-join graphs are outside the engine subset".into(),
                        )
                    })?
            };
            let edge = remaining.remove(pos);
            cycle += 1;
            let out = format!("{}_join{}", self.prefix, cycle);
            let job = if joined_stars.is_empty() {
                // Both sides raw: the shared scan over covering partitions.
                joined_stars.push(edge.l_star);
                joined_stars.push(edge.r_star);
                let inputs = self.covering(&[edge.l_star, edge.r_star]);
                let cfg = Arc::new(TgJoinMapConfig {
                    raw_inputs: (0..inputs.len()).collect(),
                    star_routes: vec![
                        self.route(edge.l_star, Side::Left, edge.l_key),
                        self.route(edge.r_star, Side::Right, edge.r_key),
                    ],
                    ann_routes: vec![],
                });
                join_job(
                    &format!("{}:tg-join{}", self.prefix, cycle),
                    &format!("join u{} k{}", self.unit, cycle - 1),
                    inputs,
                    cfg,
                    &self.conds,
                    &out,
                )
            } else {
                // One side is the intermediate, the other a raw star.
                let (new_star, new_key, old_key) =
                    if joined_stars.contains(&edge.l_star) {
                        (edge.r_star, edge.r_key, edge.l_key)
                    } else {
                        (edge.l_star, edge.l_key, edge.r_key)
                    };
                joined_stars.push(new_star);
                let mut inputs = vec![prev.clone().expect("intermediate exists")];
                inputs.extend(self.covering(&[new_star]));
                let cfg = Arc::new(TgJoinMapConfig {
                    raw_inputs: (1..inputs.len()).collect(),
                    star_routes: vec![self.route(new_star, Side::Right, new_key)],
                    ann_routes: vec![AnnRoute {
                        input: 0,
                        side: Side::Left,
                        key: old_key,
                    }],
                });
                join_job(
                    &format!("{}:tg-join{}", self.prefix, cycle),
                    &format!("join u{} k{}", self.unit, cycle - 1),
                    inputs,
                    cfg,
                    &self.conds,
                    &out,
                )
            };
            jobs.push(job);
            prev = Some(out);
        }
        if joined_stars.len() != self.specs.len() {
            return Err(PlanError::Unsupported(
                "disconnected star-join graph".into(),
            ));
        }
        Ok((jobs, prev))
    }
}

fn join_job(
    name: &str,
    tag: &str,
    inputs: Vec<String>,
    cfg: Arc<TgJoinMapConfig>,
    conds: &Arc<Vec<AlphaCond>>,
    out: &str,
) -> Job {
    let mut b = JobBuilder::new(name);
    for i in inputs {
        b = b.input(i);
    }
    let conds = conds.clone();
    b.mapper(Arc::new(FnMapFactory({
        let c = cfg.clone();
        move || TgJoinMapper::new(c.clone())
    })))
    .reducer(Arc::new(KeyLocal(FnReduceFactory(move || {
        AlphaJoinReducer::new(conds.clone())
    }))))
    .output(out)
    .num_reducers(NUM_REDUCERS)
    .tag(tag)
    .build()
}

pub(crate) fn agg_join_job(
    cat: &DataCatalog,
    name: &str,
    tag: &str,
    specs: Vec<AggJoinSpec>,
    joined: Option<String>,
    planner: &TgJoinPlanner<'_>,
    map_side_combine: bool,
    out: &str,
) -> Job {
    let (inputs, raw_filters) = match joined {
        Some(ds) => (vec![ds], Vec::new()),
        None => (
            planner.covering(&[0]),
            vec![(planner.specs[0].clone(), planner.prefilters[0].clone())],
        ),
    };
    let cfg = Arc::new(AggJoinConfig {
        specs,
        numeric: cat.numeric.clone(),
        raw_filters,
        map_side_combine,
    });
    let mut b = JobBuilder::new(name);
    for i in inputs {
        b = b.input(i);
    }
    b.mapper(Arc::new(FnMapFactory({
        let c = cfg.clone();
        move || AggJoinMapper::new(c.clone())
    })))
    .reducer(Arc::new(KeyLocal(FnReduceFactory({
        let c = cfg.clone();
        move || AggJoinReducer::new(c.clone())
    }))))
    .output(out)
    .num_reducers(NUM_REDUCERS)
    .tag(tag)
    .build()
}

/// Id-level property requirement of a triple pattern (object constraints for
/// both `rdf:type PT18` and plain constants like `pub_type "News"`).
fn prop_req_of(cat: &DataCatalog, tp: &TriplePattern) -> Result<PropReq, PlanError> {
    let prop = tp
        .p
        .as_term()
        .ok_or_else(|| PlanError::Unsupported("unbound property".into()))?;
    let pid = cat.id_of(prop);
    Ok(match &tp.o {
        PatternTerm::Term(t) => PropReq::with_object(pid, cat.id_of(t)),
        PatternTerm::Var(_) => PropReq::any(pid),
    })
}

/// Star specs for a single block (all properties primary — the original
/// graph pattern).
pub(crate) fn block_star_specs(
    cat: &DataCatalog,
    dec: &StarDecomposition,
) -> Result<Vec<StarSpec>, PlanError> {
    dec.stars
        .iter()
        .enumerate()
        .map(|(i, star)| {
            let primary = star
                .triples
                .iter()
                .map(|tp| prop_req_of(cat, tp))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(StarSpec {
                star: i as u8,
                primary,
                secondary: vec![],
            })
        })
        .collect()
}

/// Composite star specs: primary = intersection (with constant-object
/// constraints recovered from the blocks), secondary = the rest.
fn composite_star_specs(
    cat: &DataCatalog,
    c: &CompositePattern,
    decs: &[StarDecomposition],
) -> Result<Vec<StarSpec>, PlanError> {
    c.stars
        .iter()
        .enumerate()
        .map(|(cs, star)| {
            let req_of = |key: &PropKey| -> PropReq {
                let (pid, type_obj) = cat.resolve_prop(key);
                match type_obj {
                    Some(o) => PropReq::with_object(pid, o),
                    None => match c.const_object(decs, cs, key) {
                        Some(t) => PropReq::with_object(pid, cat.id_of(&t)),
                        None => PropReq::any(pid),
                    },
                }
            };
            Ok(StarSpec {
                star: cs as u8,
                primary: star.primary.iter().map(&req_of).collect(),
                secondary: star.secondary.iter().map(|s| req_of(&s.prop)).collect(),
            })
        })
        .collect()
}

/// Build per-star prefilter transforms from compiled value filters.
pub(crate) fn star_prefilters(
    cat: &DataCatalog,
    filters: &[StarFilter],
    n_stars: usize,
) -> Vec<Option<TgTransform>> {
    (0..n_stars)
        .map(|s| {
            let preds: Vec<(u64, IdPred)> = filters
                .iter()
                .filter(|f| f.star == s)
                .map(|f| {
                    let (pid, _) = cat.resolve_prop(&f.prop);
                    (pid, id_pred_of(cat, &f.pred))
                })
                .collect();
            make_prefilter(cat, preds)
        })
        .collect()
}

fn composite_prefilters(cat: &DataCatalog, c: &CompositePattern) -> Vec<Option<TgTransform>> {
    star_prefilters(cat, &c.filters, c.stars.len())
}

/// Join edges where a star enters the join by its subject against a
/// partner's `ObjectOf(p)` column: `(subject-side star, partner prop p)`.
fn block_subject_gates(dec: &StarDecomposition) -> Vec<(usize, PropKey)> {
    let mut gates = Vec::new();
    for j in &dec.joins {
        for (me, other) in [(&j.left, &j.right), (&j.right, &j.left)] {
            if me.role == Role::Subject && other.role == Role::Object {
                if let Some(p) = &other.prop {
                    gates.push((me.star, p.clone()));
                }
            }
        }
    }
    gates
}

fn composite_subject_gates(c: &CompositePattern) -> Vec<(usize, PropKey)> {
    let mut gates = Vec::new();
    for j in &c.joins {
        for (star, key, other) in [
            (j.left_star, &j.left, &j.right),
            (j.right_star, &j.right, &j.left),
        ] {
            if *key == EdgeKey::Subject {
                if let EdgeKey::ObjectOf(p) = other {
                    gates.push((star, p.clone()));
                }
            }
        }
    }
    gates
}

/// Compose ExtVP subject gates into per-star prefilters. A spec-matching
/// triplegroup of the subject-side star has its subject in `subjects(a)`
/// for every primary prop `a`, and survives the pure-inner α-join only if
/// that subject also lies in `objects(p)` — together exactly the subject
/// set of the `SO[a|p]` reduction. The smallest applicable reduction is
/// loaded once at plan time as a sorted id set and checked by binary
/// search ahead of the shuffle; stars without a materialized reduction
/// stay ungated. Groups the gate removes could never survive the join,
/// so output is byte-identical either way.
fn compose_extvp_gates(
    cat: &DataCatalog,
    prefilters: &mut [Option<TgTransform>],
    star_primary: &[Vec<PropKey>],
    gates: &[(usize, PropKey)],
) {
    for (star, partner) in gates {
        let partner_key = cat.vp_key(partner);
        let mut best: Option<&ExtVpMeta> = None;
        for a in &star_primary[*star] {
            if let Some(e) = cat.vp.reduction(cat.vp_key(a), ExtVpKind::SO, partner_key) {
                if best
                    .is_none_or(|b| (e.bytes, e.dataset.as_str()) < (b.bytes, b.dataset.as_str()))
                {
                    best = Some(e);
                }
            }
        }
        let Some(e) = best else { continue };
        let Some(ds) = cat.dfs.peek(&e.dataset) else {
            continue;
        };
        let mut subjects: Vec<u64> = read_dataset_rows(&ds).into_iter().map(|(s, _)| s).collect();
        subjects.dedup(); // reduction rows are sorted by (s, o)
        let subjects = Arc::new(subjects);
        let inner = prefilters[*star].take();
        prefilters[*star] = Some(Arc::new(move |tg: rapida_ntga::TripleGroup| {
            let tg = match &inner {
                Some(f) => f(tg)?,
                None => tg,
            };
            subjects.binary_search(&tg.subject).is_ok().then_some(tg)
        }));
    }
}

/// Compile a [`ValuePred`] to the id level.
pub(crate) fn id_pred_of(cat: &DataCatalog, pred: &ValuePred) -> IdPred {
    match pred {
        ValuePred::Num { op, rhs } => IdPred::Num { op: *op, rhs: *rhs },
        ValuePred::TermCmp { eq, rhs } => IdPred::IdEq {
            eq: *eq,
            rhs: cat.id_of(rhs),
        },
        ValuePred::Contains {
            pattern,
            case_insensitive,
        } => IdPred::Contains {
            pattern: pattern.clone(),
            case_insensitive: *case_insensitive,
        },
    }
}

fn make_prefilter(cat: &DataCatalog, preds: Vec<(u64, IdPred)>) -> Option<TgTransform> {
    if preds.is_empty() {
        return None;
    }
    let numeric = cat.numeric.clone();
    let lexical = cat.lexical.clone();
    Some(Arc::new(move |mut tg: rapida_ntga::TripleGroup| {
        tg.triples.retain(|(p, o)| {
            preds
                .iter()
                .filter(|(fp, _)| fp == p)
                .all(|(_, pred)| pred.eval(*o, &numeric, &lexical))
        });
        Some(tg)
    }))
}

fn edge_jk(cat: &DataCatalog, star: usize, key: &EdgeKey) -> JoinKey {
    match key {
        EdgeKey::Subject => JoinKey::Subject { star: star as u8 },
        EdgeKey::ObjectOf(p) => JoinKey::ObjectOf {
            star: star as u8,
            prop: cat.resolve_prop(p).0,
        },
    }
}

pub(crate) fn compile_edges(
    cat: &DataCatalog,
    dec: &StarDecomposition,
) -> Result<Vec<CompiledEdge>, PlanError> {
    dec.joins
        .iter()
        .map(|j| {
            let side_key = |side: &rapida_sparql::analysis::JoinSide| -> JoinKey {
                match side.role {
                    Role::Subject => JoinKey::Subject {
                        star: side.star as u8,
                    },
                    Role::Object => JoinKey::ObjectOf {
                        star: side.star as u8,
                        prop: side
                            .prop
                            .as_ref()
                            .map(|p| cat.resolve_prop(p).0)
                            .unwrap_or(crate::catalog::MISSING_ID),
                    },
                    Role::Property => {
                        unreachable!("property-role joins are rejected by decompose()")
                    }
                }
            };
            Ok(CompiledEdge {
                l_star: j.left.star,
                r_star: j.right.star,
                l_key: side_key(&j.left),
                r_key: side_key(&j.right),
            })
        })
        .collect()
}

fn composite_edges(cat: &DataCatalog, c: &CompositePattern) -> Vec<CompiledEdge> {
    c.joins
        .iter()
        .map(|j| CompiledEdge {
            l_star: j.left_star,
            r_star: j.right_star,
            l_key: edge_jk(cat, j.left_star, &j.left),
            r_key: edge_jk(cat, j.right_star, &j.right),
        })
        .collect()
}

fn alpha_cond_of(cat: &DataCatalog, c: &CompositePattern, block: usize) -> AlphaCond {
    AlphaCond {
        terms: c
            .alpha_positive(block)
            .iter()
            .map(|(star, prop)| AlphaTerm {
                star: *star as u8,
                prop: cat.resolve_prop(prop).0,
                required: true,
            })
            .collect(),
    }
}

/// Build the Agg-Join spec of a block: slots for every distinct pattern
/// variable, grouping/aggregate references by slot. `star_remap` maps block
/// star indexes onto composite star indexes (identity when `None`).
pub(crate) fn block_agg_spec(
    cat: &DataCatalog,
    block: &GroupingBlock,
    dec: &StarDecomposition,
    id: u8,
    star_remap: Option<&[usize]>,
    alpha: AlphaCond,
) -> Result<AggJoinSpec, PlanError> {
    // Distinct variables in first-occurrence order.
    let mut vars: Vec<Var> = Vec::new();
    for tp in &block.triples {
        for v in tp.vars() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    let remap = |s: usize| -> u8 {
        match star_remap {
            Some(m) => m[s] as u8,
            None => s as u8,
        }
    };
    let slots: Vec<VarRef> = vars
        .iter()
        .map(|v| {
            Ok(match resolve_block_var(dec, v)? {
                BlockVarBinding::Subject { star } => VarRef::Subject { star: remap(star) },
                BlockVarBinding::ObjectOf { star, prop } => VarRef::ObjectOf {
                    star: remap(star),
                    prop: cat.resolve_prop(&prop).0,
                },
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    let slot_of = |v: &Var| -> Result<usize, PlanError> {
        vars.iter().position(|x| x == v).ok_or_else(|| {
            PlanError::Extract(crate::aquery::ExtractError::UnknownBlockVar(v.clone()))
        })
    };
    let group_slots = block
        .group_by
        .iter()
        .map(&slot_of)
        .collect::<Result<Vec<_>, _>>()?;
    let aggs = block
        .aggregates
        .iter()
        .map(|a| {
            Ok(AggSpec {
                op: agg_op_of(a.func),
                arg: match &a.arg {
                    None => None,
                    Some(v) => Some(slot_of(v)?),
                },
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    Ok(AggJoinSpec {
        id,
        slots,
        group_slots,
        aggs,
        alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use rapida_rdf::Graph;
    use rapida_sparql::parse_query;

    fn catalog() -> DataCatalog {
        let mut g = Graph::new();
        let iri = |s: &str| rapida_rdf::Term::iri(format!("http://x/{s}"));
        for i in 0..10 {
            let p = iri(&format!("p{i}"));
            g.insert_terms(&p, &rapida_rdf::Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&p, &iri("pf"), &iri(&format!("f{}", i % 3)));
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("pr"), &p);
            g.insert_terms(&o, &iri("pc"), &rapida_rdf::Term::decimal(i as f64));
        }
        DataCatalog::load(&g)
    }

    fn block(q: &str) -> GroupingBlock {
        extract(&parse_query(q).unwrap()).unwrap().blocks.remove(0)
    }

    #[test]
    fn prop_req_captures_constant_objects() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?x) AS ?n) { ?s a ex:T1 ; ex:pf ?x . }",
        );
        let req_type = prop_req_of(&cat, &b.triples[0]).unwrap();
        assert!(req_type.object.is_some(), "type object constrained");
        let req_pf = prop_req_of(&cat, &b.triples[1]).unwrap();
        assert!(req_pf.object.is_none(), "variable object unconstrained");
    }

    #[test]
    fn block_star_specs_are_all_primary() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?p a ex:T1 ; ex:pf ?f . ?o ex:pr ?p ; ex:pc ?c . }",
        );
        let dec = b.decomposition().unwrap();
        let specs = block_star_specs(&cat, &dec).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.secondary.is_empty()));
        assert_eq!(specs[0].primary.len(), 2);
        assert_eq!(specs[1].primary.len(), 2);
    }

    #[test]
    fn block_agg_spec_enumerates_every_pattern_variable() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT ?f (COUNT(?c) AS ?n)
             { ?p a ex:T1 ; ex:pf ?f . ?o ex:pr ?p ; ex:pc ?c . } GROUP BY ?f",
        );
        let dec = b.decomposition().unwrap();
        let spec = block_agg_spec(&cat, &b, &dec, 0, None, AlphaCond::default()).unwrap();
        // Variables: ?p, ?f, ?o, ?c — all four become enumeration slots
        // (SPARQL solution-row semantics), even unreferenced ?o.
        assert_eq!(spec.slots.len(), 4);
        assert_eq!(spec.group_slots.len(), 1);
        assert_eq!(spec.aggs.len(), 1);
    }

    #[test]
    fn compiled_edges_capture_roles() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?p a ex:T1 . ?o ex:pr ?p ; ex:pc ?c . }",
        );
        let dec = b.decomposition().unwrap();
        let edges = compile_edges(&cat, &dec).unwrap();
        assert_eq!(edges.len(), 1);
        assert!(matches!(edges[0].l_key, JoinKey::Subject { star: 0 }));
        assert!(matches!(edges[0].r_key, JoinKey::ObjectOf { star: 1, .. }));
    }

    #[test]
    fn prefilter_drops_failing_triples_only() {
        let cat = catalog();
        let pc = cat.id_of(&rapida_rdf::Term::iri("http://x/pc"));
        let pred = IdPred::Num {
            op: rapida_sparql::ast::CmpOp::Ge,
            rhs: 5.0,
        };
        let f = make_prefilter(&cat, vec![(pc, pred)]).unwrap();
        let lo = cat.id_of(&rapida_rdf::Term::decimal(2.0));
        let hi = cat.id_of(&rapida_rdf::Term::decimal(7.0));
        let tg = rapida_ntga::TripleGroup::new(1, vec![(pc, lo), (pc, hi), (99, 5)]);
        let out = f(tg).unwrap();
        assert!(out.has_triple(pc, hi));
        assert!(!out.has_triple(pc, lo));
        assert!(out.has_prop(99), "unrelated properties untouched");
    }

    /// The ExtVP subject gate on a graph where only 4 of 40 `pa` subjects
    /// are referenced by `pr` objects (SO selectivity 0.1, under the 0.25
    /// threshold): the gated plan must produce identical result rows while
    /// emitting strictly fewer map-output records (groups dropped ahead of
    /// the shuffle).
    #[test]
    fn extvp_subject_gate_prunes_shuffle_but_not_output() {
        let mut g = Graph::new();
        let iri = |s: &str| rapida_rdf::Term::iri(format!("http://x/{s}"));
        for i in 0..40 {
            g.insert_terms(
                &iri(&format!("s{i}")),
                &iri("pa"),
                &iri(&format!("x{}", i % 7)),
            );
        }
        for i in 0..4 {
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("pr"), &iri(&format!("s{i}")));
            g.insert_terms(&o, &iri("pc"), &rapida_rdf::Term::decimal(i as f64));
        }
        let cat = DataCatalog::load(&g);
        let aq = extract(
            &parse_query(
                "PREFIX ex: <http://x/>
                 SELECT (COUNT(?c) AS ?n) { ?p ex:pa ?x . ?o ex:pr ?p ; ex:pc ?c . }",
            )
            .unwrap(),
        )
        .unwrap();
        let run = |use_extvp: bool| {
            let engine = RapidPlus {
                use_extvp,
                ..Default::default()
            };
            let plan = engine.plan(&aq, &cat).unwrap();
            let mr = rapida_mapred::Engine::pinned(cat.dfs.clone());
            let (rel, wf) = plan
                .try_execute(&mr, &aq, &cat.dict)
                .expect("plan executes");
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);
            let emitted: u64 = wf.jobs.iter().map(|j| j.map_output_records).sum();
            (rel.rows, emitted)
        };
        let (rows_gated, emitted_gated) = run(true);
        let (rows_full, emitted_full) = run(false);
        assert_eq!(rows_gated, rows_full, "gate changed the query result");
        assert!(
            emitted_gated < emitted_full,
            "gate never fired: {emitted_gated} map-output records vs {emitted_full}"
        );
    }

    #[test]
    fn shared_single_star_planner_declines_joined_blocks() {
        let cat = catalog();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?nA ?nB {
               { SELECT (COUNT(?c) AS ?nA) { ?o ex:pr ?p ; ex:pc ?c . ?p ex:pf ?f . } }
               { SELECT (COUNT(?f2) AS ?nB) { ?p2 ex:pf ?f2 . } }
             }",
        )
        .unwrap();
        let aq = extract(&q).unwrap();
        let ra = RapidAnalytics::default();
        let plan = ra
            .plan_shared_single_star(&aq, &cat)
            .expect("planning succeeds");
        assert!(plan.is_none(), "block 0 has a join — not single-star");
    }
}
