//! Physical MR operators: the map/reduce function pairs of §4.2
//! (Algorithms 1–3), implemented against the `rapida-mapred` task traits.
//!
//! * [`TgJoinMapper`] + [`AlphaJoinReducer`] — `TG_OptGrpFilter` pipelined
//!   into the map phase of `TG_AlphaJoin` (Algorithm 2, and `Job_i` of
//!   Algorithm 1).
//! * [`AggJoinMapper`] + [`AggJoinReducer`] — `TG_AgJ` with map-side hash
//!   aggregation (`multiAggMap`, Algorithm 3; `Job_k` of Algorithm 1).

use crate::hashagg::AggTable;
use crate::ops::{accumulate_view, opt_group_filter, opt_group_filter_into, AccumScratch};
use crate::spec::{
    any_alpha_partial_merged, AggJoinSpec, AlphaCond, JoinKey, NumericSnapshot, PartialAgg,
    StarSpec,
};
use crate::triplegroup::{AnnTgRef, TgRef, TripleGroup};
use rapida_mapred::codec::{read_varint, write_f64, write_varint};
use rapida_mapred::{InputSrc, MapOutput, MapTask, ReduceOutput, ReduceTask};
use std::sync::Arc;

/// Join side tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Left equivalence class.
    Left,
    /// Right equivalence class.
    Right,
}

impl Side {
    fn byte(self) -> u8 {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

/// A route from a star-pattern spec to a join side: every raw triplegroup
/// passing the spec's optional group filter is emitted on `side` keyed by
/// `key`. Multiple routes over the same scan realize NTGA's shared
/// execution of star patterns.
#[derive(Clone)]
pub struct StarRoute {
    /// The composite star spec (`TG_OptGrpFilter` parameters).
    pub spec: StarSpec,
    /// Which side of the join this star feeds.
    pub side: Side,
    /// The join key extractor.
    pub key: JoinKey,
    /// Optional per-star value-filter transform applied before the group
    /// filter (FILTER pushdown; may differ between stars).
    pub prefilter: Option<TgTransform>,
}

/// A route for intermediate annotated-triplegroup inputs (later join cycles
/// of 3+-star patterns), selected by job input index.
#[derive(Debug, Clone)]
pub struct AnnRoute {
    /// Job input (dataset) index this route applies to.
    pub input: usize,
    /// Join side.
    pub side: Side,
    /// Join key extractor.
    pub key: JoinKey,
}

/// A raw-triplegroup transform applied before star filtering: value-level
/// FILTER pushdown drops triples whose objects fail a predicate (returning
/// `None` drops the whole group). Built by the planner with dictionary
/// snapshots baked in.
pub type TgTransform = Arc<dyn Fn(TripleGroup) -> Option<TripleGroup> + Send + Sync>;

/// Configuration for [`TgJoinMapper`].
#[derive(Clone, Default)]
pub struct TgJoinMapConfig {
    /// Dataset indexes holding raw subject triplegroups; all
    /// [`Self::star_routes`] are applied to each of their records (shared
    /// scan).
    pub raw_inputs: Vec<usize>,
    /// Star routes for raw inputs.
    pub star_routes: Vec<StarRoute>,
    /// Routes for annotated intermediate inputs.
    pub ann_routes: Vec<AnnRoute>,
}

/// Map phase of `Job_i`: `TG_OptGrpFilter` + tagging for `TG_AlphaJoin`.
///
/// Records are parsed as [`TgRef`]/[`AnnTgRef`] views and each emit is
/// encoded directly into two per-task scratch buffers (cleared, never
/// reallocated).
pub struct TgJoinMapper {
    config: Arc<TgJoinMapConfig>,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
}

impl TgJoinMapper {
    /// Create from shared config.
    pub fn new(config: Arc<TgJoinMapConfig>) -> Self {
        TgJoinMapper {
            config,
            key_buf: Vec::new(),
            val_buf: Vec::new(),
        }
    }
}

impl MapTask for TgJoinMapper {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let TgJoinMapper {
            config,
            key_buf,
            val_buf,
        } = self;
        if config.raw_inputs.contains(&src.dataset) {
            let Some(tg) = TgRef::parse_framed(record) else {
                out.skip_corrupt();
                return;
            };
            // Prefilter transforms need an owned group; decode lazily, once,
            // only when some route actually has one.
            let mut owned: Option<TripleGroup> = None;
            for route in &config.star_routes {
                // Value layout: side byte + AnnTg::single(star, filtered)
                // = 1, star, tg.
                val_buf.clear();
                val_buf.push(route.side.byte());
                write_varint(val_buf, 1);
                write_varint(val_buf, u64::from(route.spec.star));
                let tg_start = val_buf.len();
                match &route.prefilter {
                    Some(f) => {
                        let base = owned.get_or_insert_with(|| tg.to_owned());
                        let Some(v) = f(base.clone()) else { continue };
                        let Some(filtered) = opt_group_filter(&v, &route.spec) else {
                            continue;
                        };
                        filtered.encode(val_buf);
                        // Key off the filtered group just encoded in place.
                        let Some(ftg) = TgRef::parse_framed(&val_buf[tg_start..]) else {
                            continue;
                        };
                        match route.key {
                            JoinKey::Subject { star } if star == route.spec.star => {
                                key_buf.clear();
                                write_varint(key_buf, ftg.subject());
                                out.emit(key_buf, val_buf);
                            }
                            JoinKey::ObjectOf { star, prop } if star == route.spec.star => {
                                for o in ftg.objects_of(prop) {
                                    key_buf.clear();
                                    write_varint(key_buf, o);
                                    out.emit(key_buf, val_buf);
                                }
                            }
                            // Key references a star this route doesn't
                            // produce: nothing to emit (extract() semantics).
                            _ => {}
                        }
                    }
                    None => {
                        if !opt_group_filter_into(&tg, &route.spec, val_buf) {
                            continue;
                        }
                        // Key straight off the source view: the filtered
                        // group's subject is `tg`'s, and its `prop` objects
                        // are exactly the kept `(prop, o)` pairs — no
                        // re-parse of the encoded bytes needed.
                        match route.key {
                            JoinKey::Subject { star } if star == route.spec.star => {
                                key_buf.clear();
                                write_varint(key_buf, tg.subject());
                                out.emit(key_buf, val_buf);
                            }
                            JoinKey::ObjectOf { star, prop } if star == route.spec.star => {
                                for (p, o) in tg.pairs() {
                                    if p == prop && route.spec.keeps(p, o) {
                                        key_buf.clear();
                                        write_varint(key_buf, o);
                                        out.emit(key_buf, val_buf);
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        } else {
            let Some(ann) = AnnTgRef::parse_framed(record) else {
                out.skip_corrupt();
                return;
            };
            for route in &config.ann_routes {
                if route.input != src.dataset {
                    continue;
                }
                val_buf.clear();
                val_buf.push(route.side.byte());
                ann.encode_into(val_buf);
                route.key.extract_ref(&ann, |k| {
                    key_buf.clear();
                    write_varint(key_buf, k);
                    out.emit(key_buf, val_buf);
                });
            }
        }
    }
}

/// Reduce phase of `Job_i`: `TG_AlphaJoin` (Algorithm 2) — joins the left
/// and right equivalence classes of each key, materializing only
/// combinations accepted by at least one α-condition.
///
/// Each value is parsed as an [`AnnTgRef`] view, α is evaluated over the
/// *logical* merge, and accepted products are written by interleaving raw
/// component spans into one reused scratch buffer.
pub struct AlphaJoinReducer {
    conds: Arc<Vec<AlphaCond>>,
    out_buf: Vec<u8>,
    left_idx: Vec<u32>,
    right_idx: Vec<u32>,
}

impl AlphaJoinReducer {
    /// This reducer is *key-local* (see
    /// `rapida_mapred::ReduceTaskFactory::key_local`): each key group's join
    /// product depends only on that group's values — the index lists and
    /// emit buffer are per-call scratch, cleared on entry — and `cleanup`
    /// emits nothing. Factories may wrap it in `rapida_mapred::KeyLocal` to
    /// let the engine shard its partitions across workers.
    pub const KEY_LOCAL: bool = true;

    /// Create from the shared α-condition list (empty = accept all).
    pub fn new(conds: Arc<Vec<AlphaCond>>) -> Self {
        AlphaJoinReducer {
            conds,
            out_buf: Vec::new(),
            left_idx: Vec::new(),
            right_idx: Vec::new(),
        }
    }
}

impl ReduceTask for AlphaJoinReducer {
    fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        // Split by side byte first, deferring the (cheap, but non-free)
        // view parse until a key is known to have both sides: one-sided
        // keys — the common case under selective star filters — cost two
        // index pushes and nothing else. The index lists and emit buffer
        // are long-lived scratch; views borrow from `values` per pair.
        let AlphaJoinReducer {
            conds,
            out_buf,
            left_idx,
            right_idx,
        } = self;
        left_idx.clear();
        right_idx.clear();
        for (i, v) in values.iter().enumerate() {
            match v.first() {
                Some(side) if *side == Side::Left.byte() => left_idx.push(i as u32),
                Some(_) => right_idx.push(i as u32),
                None => {}
            }
        }
        if left_idx.is_empty() || right_idx.is_empty() {
            return;
        }
        for &li in left_idx.iter() {
            let Some(l) = AnnTgRef::parse_framed(&values[li as usize][1..]) else {
                out.skip_corrupt();
                continue;
            };
            for &ri in right_idx.iter() {
                let Some(r) = AnnTgRef::parse_framed(&values[ri as usize][1..]) else {
                    out.skip_corrupt();
                    continue;
                };
                if any_alpha_partial_merged(conds, &l, &r) {
                    out_buf.clear();
                    l.merge_into(&r, out_buf);
                    out.write(out_buf);
                }
            }
        }
    }
}

/// Configuration for the Agg-Join map phase.
#[derive(Clone, Default)]
pub struct AggJoinConfig {
    /// All Agg-Join specs evaluated in this cycle (parallel evaluation of
    /// independent aggregations, §4.1 / Fig. 6(b)).
    pub specs: Vec<AggJoinSpec>,
    /// Numeric values by raw term id.
    pub numeric: NumericSnapshot,
    /// If non-empty, inputs are raw subject triplegroups: each entry is a
    /// single-star filter (with optional value-filter transform) whose
    /// `spec.star` tags the produced annotated triplegroup. Several entries
    /// realize a *shared scan* across structurally different single-star
    /// patterns (§2.2) — one cycle aggregates them all.
    pub raw_filters: Vec<(StarSpec, Option<TgTransform>)>,
    /// Map-side hash aggregation (`multiAggMap`). Disabling it emits one
    /// record per assignment — the ablation knob for Algorithm 3.
    pub map_side_combine: bool,
}

/// Map phase of `Job_k` (Algorithm 3): per-mapper hash aggregation keyed by
/// `id#grp`, flushed in `cleanup`.
///
/// The mapper consumes [`AnnTgRef`] views and combines into the flat
/// open-addressing [`AggTable`] keyed by `(spec id, group key)` term ids —
/// no per-group key or state boxing. `cleanup` flushes in sorted key order,
/// which keeps map-output bytes (and therefore the whole downstream
/// byte-identity chain) independent of hash iteration order.
pub struct AggJoinMapper {
    config: Arc<AggJoinConfig>,
    table: AggTable,
    scratch: AccumScratch,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    ann_buf: Vec<u8>,
}

/// The record processor, as a free function over the mapper's
/// destructured fields so the fold closure can mutate the table while the
/// spec list stays borrowed from the config.
#[allow(clippy::too_many_arguments)]
fn process_view(
    config: &AggJoinConfig,
    ann: &AnnTgRef<'_>,
    table: &mut AggTable,
    scratch: &mut AccumScratch,
    key_buf: &mut Vec<u8>,
    val_buf: &mut Vec<u8>,
    out: &mut MapOutput,
) {
    let combine = config.map_side_combine;
    for spec in &config.specs {
        if !spec.alpha.satisfied_full_ref(ann) {
            continue;
        }
        let nagg = spec.aggs.len();
        accumulate_view(ann, spec, &config.numeric, scratch, &mut |key, idx, value| {
            if combine {
                table.slots_mut(u64::from(spec.id), key, nagg)[idx].add(value);
            } else {
                key_buf.clear();
                write_varint(key_buf, u64::from(spec.id));
                write_varint(key_buf, key.len() as u64);
                for k in key {
                    write_varint(key_buf, *k);
                }
                val_buf.clear();
                let empty = PartialAgg::default();
                for i in 0..nagg {
                    if i == idx {
                        let mut p = PartialAgg::default();
                        p.add(value);
                        p.encode(val_buf);
                    } else {
                        empty.encode(val_buf);
                    }
                }
                out.emit(key_buf, val_buf);
            }
        });
    }
}

impl AggJoinMapper {
    /// Create from shared config.
    pub fn new(config: Arc<AggJoinConfig>) -> Self {
        AggJoinMapper {
            config,
            table: AggTable::default(),
            scratch: AccumScratch::default(),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            ann_buf: Vec::new(),
        }
    }
}

impl MapTask for AggJoinMapper {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let AggJoinMapper {
            config,
            table,
            scratch,
            key_buf,
            val_buf,
            ann_buf,
        } = self;
        if config.raw_filters.is_empty() {
            let Some(ann) = AnnTgRef::parse_framed(record) else {
                out.skip_corrupt();
                return;
            };
            process_view(config, &ann, table, scratch, key_buf, val_buf, out);
            return;
        }
        let Some(tg) = TgRef::parse_framed(record) else {
            out.skip_corrupt();
            return;
        };
        let mut owned: Option<TripleGroup> = None;
        for (filter, transform) in &config.raw_filters {
            // Single-star annotated layout: 1, star, filtered tg.
            ann_buf.clear();
            write_varint(ann_buf, 1);
            write_varint(ann_buf, u64::from(filter.star));
            match transform {
                Some(t) => {
                    let base = owned.get_or_insert_with(|| tg.to_owned());
                    let Some(v) = t(base.clone()) else { continue };
                    let Some(filtered) = opt_group_filter(&v, filter) else {
                        continue;
                    };
                    filtered.encode(ann_buf);
                }
                None => {
                    if !opt_group_filter_into(&tg, filter, ann_buf) {
                        continue;
                    }
                }
            }
            let Some(ann) = AnnTgRef::parse_framed(ann_buf) else {
                continue;
            };
            process_view(config, &ann, table, scratch, key_buf, val_buf, out);
        }
    }

    fn cleanup(&mut self, out: &mut MapOutput) {
        // Algorithm 3, Map.clean: emit the pre-aggregated entries.
        let AggJoinMapper {
            table,
            key_buf,
            val_buf,
            ..
        } = self;
        table.drain_sorted(|full_key, partials| {
            // full_key[0] is the table tag = the spec id; encode the
            // `id, nk, keys…` shuffle key the reducer decodes.
            let (tag, key) = full_key
                .split_first()
                .expect("AggTable keys always carry the tag");
            key_buf.clear();
            write_varint(key_buf, *tag);
            write_varint(key_buf, key.len() as u64);
            for k in key {
                write_varint(key_buf, *k);
            }
            val_buf.clear();
            for p in partials {
                p.encode(val_buf);
            }
            out.emit(key_buf, val_buf);
        });
    }
}

/// Reduce phase of `Job_k`: merges pre-aggregated triplegroups of each
/// `id#grp` key and emits one [`crate::spec::AggRec`] per group, encoded
/// directly into a reused scratch buffer.
pub struct AggJoinReducer {
    config: Arc<AggJoinConfig>,
    group_key: Vec<u64>,
    merged: Vec<PartialAgg>,
    buf: Vec<u8>,
}

impl AggJoinReducer {
    /// This reducer is *key-local* (see
    /// `rapida_mapred::ReduceTaskFactory::key_local`): the partial-aggregate
    /// merge and finalize for one `id#grp` key read nothing but that key
    /// group — `group_key` / `merged` / `buf` are per-call scratch — and
    /// `cleanup` emits nothing. Factories may wrap it in
    /// `rapida_mapred::KeyLocal` to let the engine shard its partitions.
    pub const KEY_LOCAL: bool = true;

    /// Create from shared config (for spec/op lookup by id).
    pub fn new(config: Arc<AggJoinConfig>) -> Self {
        AggJoinReducer {
            config,
            group_key: Vec::new(),
            merged: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl ReduceTask for AggJoinReducer {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let AggJoinReducer {
            config,
            group_key,
            merged,
            buf,
        } = self;
        let mut kb = key;
        let Some(id) = read_varint(&mut kb) else {
            out.skip_corrupt();
            return;
        };
        let Some(nk) = read_varint(&mut kb) else {
            out.skip_corrupt();
            return;
        };
        group_key.clear();
        for _ in 0..nk {
            match read_varint(&mut kb) {
                Some(k) => group_key.push(k),
                None => {
                    out.skip_corrupt();
                    return;
                }
            }
        }
        let Some(spec) = config.specs.iter().find(|s| u64::from(s.id) == id) else {
            return;
        };
        merged.clear();
        merged.resize(spec.aggs.len(), PartialAgg::default());
        for v in values {
            let mut vb = *v;
            for m in merged.iter_mut() {
                match PartialAgg::decode(&mut vb) {
                    Some(p) => m.merge(&p),
                    None => {
                        out.skip_corrupt();
                        break;
                    }
                }
            }
        }
        // Direct `AggRec::encode` layout, without the owned intermediate.
        buf.clear();
        write_varint(buf, u64::from(spec.id));
        write_varint(buf, group_key.len() as u64);
        for k in group_key.iter() {
            write_varint(buf, *k);
        }
        write_varint(buf, spec.aggs.len() as u64);
        for (p, a) in merged.iter().zip(spec.aggs.iter()) {
            match p.finalize(a.op) {
                Some(x) => {
                    buf.push(1);
                    write_f64(buf, x);
                }
                None => buf.push(0),
            }
        }
        out.write(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggOp, AggRec, AggSpec, AlphaTerm, PropReq, VarRef};
    use crate::triplegroup::AnnTg;
    use rapida_mapred::{
        shuffle_partition, DatasetWriter, Engine, FnMapFactory, FnReduceFactory, JobBuilder,
        KeyLocal, SimDfs,
    };

    const TY: u64 = 1;
    const PT18: u64 = 90;
    const PF: u64 = 2;
    const PR: u64 = 3;
    const PC: u64 = 4;

    fn tg_record(s: u64, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        TripleGroup::new(s, pairs.to_vec()).encode(&mut buf);
        buf
    }

    /// End-to-end MR run of filter + α-join for an AQ1-like 2-star composite:
    /// products (ty PT18, optional pf) ⋈ offers (pr, pc).
    fn run_composite_join(dfs: &SimDfs) -> Vec<AnnTg> {
        run_composite_join_into(dfs, "joined");
        dfs.get("joined")
            .unwrap()
            .iter_records()
            .map(|r| AnnTg::decode(r).unwrap())
            .collect()
    }

    fn run_composite_join_into(dfs: &SimDfs, out_name: &str) {
        // Products: 10 has pf, 11 lacks pf, 12 is wrong type.
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(10, &[(TY, PT18), (PF, 71)]));
        w.push(&tg_record(11, &[(TY, PT18)]));
        w.push(&tg_record(12, &[(TY, 91), (PF, 71)]));
        dfs.put("tg_products", w.finish());
        // Offers: o20 -> p10, o21 -> p11, o22 -> p12.
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(20, &[(PR, 10), (PC, 30)]));
        w.push(&tg_record(21, &[(PR, 11), (PC, 40)]));
        w.push(&tg_record(22, &[(PR, 12), (PC, 50)]));
        dfs.put("tg_offers", w.finish());

        let config = Arc::new(TgJoinMapConfig {
            raw_inputs: vec![0, 1],
            star_routes: vec![
                StarRoute {
                    spec: StarSpec {
                        star: 0,
                        primary: vec![PropReq::with_object(TY, PT18)],
                        secondary: vec![PropReq::any(PF)],
                    },
                    side: Side::Left,
                    key: JoinKey::Subject { star: 0 },
                    prefilter: None,
                },
                StarRoute {
                    spec: StarSpec {
                        star: 1,
                        primary: vec![PropReq::any(PR), PropReq::any(PC)],
                        secondary: vec![],
                    },
                    side: Side::Right,
                    key: JoinKey::ObjectOf { star: 1, prop: PR },
                    prefilter: None,
                },
            ],
            ann_routes: vec![],
        });
        let conds: Arc<Vec<AlphaCond>> = Arc::new(vec![]);
        let job = JobBuilder::new("mr1")
            .input("tg_products")
            .input("tg_offers")
            .mapper(Arc::new(FnMapFactory({
                let c = config.clone();
                move || TgJoinMapper::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = conds.clone();
                move || AlphaJoinReducer::new(c.clone())
            }))))
            .output(out_name)
            .num_reducers(2)
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
    }

    #[test]
    fn composite_join_produces_valid_pairs() {
        let dfs = SimDfs::new();
        let mut joined = run_composite_join(&dfs);
        joined.sort_by_key(|a| a.star(1).map(|g| g.subject));
        // p12 is the wrong type — only offers 20 and 21 join.
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].star(0).unwrap().subject, 10);
        assert!(joined[0].star(0).unwrap().has_prop(PF));
        assert_eq!(joined[1].star(0).unwrap().subject, 11);
        assert!(!joined[1].star(0).unwrap().has_prop(PF));
    }

    #[test]
    fn alpha_conditions_prune_at_join_time() {
        // Same data, but α requires pf present — p11's combination dies.
        let dfs = SimDfs::new();
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(10, &[(TY, PT18), (PF, 71)]));
        w.push(&tg_record(11, &[(TY, PT18)]));
        dfs.put("tg_products", w.finish());
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(20, &[(PR, 10), (PC, 30)]));
        w.push(&tg_record(21, &[(PR, 11), (PC, 40)]));
        dfs.put("tg_offers", w.finish());

        let config = Arc::new(TgJoinMapConfig {
            raw_inputs: vec![0, 1],
            star_routes: vec![
                StarRoute {
                    spec: StarSpec {
                        star: 0,
                        primary: vec![PropReq::with_object(TY, PT18)],
                        secondary: vec![PropReq::any(PF)],
                    },
                    side: Side::Left,
                    key: JoinKey::Subject { star: 0 },
                    prefilter: None,
                },
                StarRoute {
                    spec: StarSpec {
                        star: 1,
                        primary: vec![PropReq::any(PR), PropReq::any(PC)],
                        secondary: vec![],
                    },
                    side: Side::Right,
                    key: JoinKey::ObjectOf { star: 1, prop: PR },
                    prefilter: None,
                },
            ],
            ann_routes: vec![],
        });
        let conds = Arc::new(vec![AlphaCond {
            terms: vec![AlphaTerm {
                star: 0,
                prop: PF,
                required: true,
            }],
        }]);
        let job = JobBuilder::new("mr1")
            .input("tg_products")
            .input("tg_offers")
            .mapper(Arc::new(FnMapFactory({
                let c = config.clone();
                move || TgJoinMapper::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = conds.clone();
                move || AlphaJoinReducer::new(c.clone())
            }))))
            .output("joined")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let joined: Vec<AnnTg> = dfs
            .get("joined")
            .unwrap()
            .iter_records()
            .map(|r| AnnTg::decode(r).unwrap())
            .collect();
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].star(0).unwrap().subject, 10);
    }

    /// MR Agg-Join over the joined composite: SUM(price) per feature in
    /// parallel with COUNT(price) over ALL.
    #[test]
    fn agg_join_mr_parallel_specs() {
        let dfs = SimDfs::new();
        let joined = run_composite_join(&dfs);
        assert_eq!(joined.len(), 2);

        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        numeric[40] = Some(40.0);
        let config = Arc::new(AggJoinConfig {
            specs: vec![
                AggJoinSpec {
                    id: 0,
                    slots: vec![
                        VarRef::ObjectOf { star: 0, prop: PF },
                        VarRef::ObjectOf { star: 1, prop: PC },
                    ],
                    group_slots: vec![0],
                    aggs: vec![AggSpec {
                        op: AggOp::Sum,
                        arg: Some(1),
                    }],
                    alpha: AlphaCond {
                        terms: vec![AlphaTerm {
                            star: 0,
                            prop: PF,
                            required: true,
                        }],
                    },
                },
                AggJoinSpec {
                    id: 1,
                    slots: vec![VarRef::ObjectOf { star: 1, prop: PC }],
                    group_slots: vec![],
                    aggs: vec![AggSpec {
                        op: AggOp::Count,
                        arg: Some(0),
                    }],
                    alpha: AlphaCond::default(),
                },
            ],
            numeric: Arc::new(numeric),
            raw_filters: vec![],
            map_side_combine: true,
        });
        let job = JobBuilder::new("agj")
            .input("joined")
            .mapper(Arc::new(FnMapFactory({
                let c = config.clone();
                move || AggJoinMapper::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = config.clone();
                move || AggJoinReducer::new(c.clone())
            }))))
            .output("aggs")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let mut recs: Vec<AggRec> = dfs
            .get("aggs")
            .unwrap()
            .iter_records()
            .map(|r| AggRec::decode(r).unwrap())
            .collect();
        recs.sort_by_key(|r| (r.id, r.key.clone()));
        assert_eq!(recs.len(), 2);
        // Spec 0: feature 71 -> sum 30 (only p10 has pf).
        assert_eq!(recs[0].id, 0);
        assert_eq!(recs[0].key, vec![71]);
        assert_eq!(recs[0].values, vec![Some(30.0)]);
        // Spec 1: ALL -> count 2.
        assert_eq!(recs[1].id, 1);
        assert!(recs[1].key.is_empty());
        assert_eq!(recs[1].values, vec![Some(2.0)]);
    }

    /// The map-side combine ablation: results identical, shuffle smaller.
    #[test]
    fn map_side_combine_shrinks_shuffle() {
        let dfs = SimDfs::new();
        // Many triplegroups, one group key -> heavy combining opportunity.
        let mut w = DatasetWriter::new(128);
        for i in 0..200 {
            w.push(&tg_record(i, &[(PC, 30)]));
        }
        dfs.put("tgs", w.finish());
        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        let numeric = Arc::new(numeric);

        let mk_config = |combine: bool| {
            Arc::new(AggJoinConfig {
                specs: vec![AggJoinSpec {
                    id: 0,
                    slots: vec![VarRef::ObjectOf { star: 0, prop: PC }],
                    group_slots: vec![],
                    aggs: vec![AggSpec {
                        op: AggOp::Sum,
                        arg: Some(0),
                    }],
                    alpha: AlphaCond::default(),
                }],
                numeric: numeric.clone(),
                raw_filters: vec![(
                    StarSpec {
                        star: 0,
                        primary: vec![PropReq::any(PC)],
                        secondary: vec![],
                    },
                    None,
                )],
                map_side_combine: combine,
            })
        };
        let run = |combine: bool, out: &str| {
            let config = mk_config(combine);
            let job = JobBuilder::new("agj")
                .input("tgs")
                .mapper(Arc::new(FnMapFactory({
                    let c = config.clone();
                    move || AggJoinMapper::new(c.clone())
                })))
                .reducer(Arc::new(KeyLocal(FnReduceFactory({
                    let c = config.clone();
                    move || AggJoinReducer::new(c.clone())
                }))))
                .output(out)
                .build();
            Engine::pinned(dfs.clone()).run_job(&job)
        };
        let with = run(true, "out_with");
        let without = run(false, "out_without");
        let recs = |name: &str| -> Vec<AggRec> {
            dfs.get(name)
                .unwrap()
                .iter_records()
                .map(|r| AggRec::decode(r).unwrap())
                .collect()
        };
        assert_eq!(recs("out_with"), recs("out_without"));
        assert_eq!(recs("out_with")[0].values, vec![Some(6000.0)]);
        assert!(
            with.shuffle_records < without.shuffle_records,
            "hash aggregation must shrink the shuffle ({} vs {})",
            with.shuffle_records,
            without.shuffle_records
        );
    }

    fn raw_records(dfs: &SimDfs, name: &str) -> Vec<Vec<u8>> {
        dfs.get(name)
            .unwrap()
            .iter_records()
            .map(|r| r.to_vec())
            .collect()
    }

    /// Expected job output, in the engine's commit order: reduce
    /// partitions in index order, keys ascending within each partition.
    fn in_commit_order(mut recs: Vec<(Vec<u8>, Vec<u8>)>, reducers: usize) -> Vec<Vec<u8>> {
        recs.sort_by(|(ka, _), (kb, _)| {
            (shuffle_partition(ka, reducers), ka).cmp(&(shuffle_partition(kb, reducers), kb))
        });
        recs.into_iter().map(|(_, rec)| rec).collect()
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut b = Vec::new();
        write_varint(&mut b, v);
        b
    }

    /// Filter + α-join output bytes, hand-derived from the fixture: p10
    /// keeps `ty` and its optional `pf`, p11 keeps `ty` alone, p12 fails
    /// the type filter; each surviving product pairs with the one offer
    /// pointing at it, joined on the product subject.
    #[test]
    fn join_output_bytes_match_hand_computed() {
        let dfs = SimDfs::new();
        run_composite_join_into(&dfs, "joined");
        let pair = |p: TripleGroup, o: TripleGroup| AnnTg {
            groups: vec![(0, p), (1, o)],
        };
        let expected = in_commit_order(
            vec![
                (
                    varint(10),
                    pair(
                        TripleGroup::new(10, vec![(TY, PT18), (PF, 71)]),
                        TripleGroup::new(20, vec![(PR, 10), (PC, 30)]),
                    )
                    .encoded(),
                ),
                (
                    varint(11),
                    pair(
                        TripleGroup::new(11, vec![(TY, PT18)]),
                        TripleGroup::new(21, vec![(PR, 11), (PC, 40)]),
                    )
                    .encoded(),
                ),
            ],
            2,
        );
        assert_eq!(raw_records(&dfs, "joined"), expected);
    }

    /// Agg-Join output bytes, hand-derived from the fixture: subject `i`
    /// has `pf = 60 + i % 3` and `pc = 30` for even `i`, `40` for odd.
    /// Group 60 holds nine 30s and eight 40s, group 61 eight 30s and nine
    /// 40s, group 62 eight of each. Combining on or off, and through the
    /// raw-filter (shared single-star scan) map path, the bytes are the
    /// same.
    #[test]
    fn agg_join_output_bytes_match_hand_computed() {
        let dfs = SimDfs::new();
        let mut w = DatasetWriter::new(128);
        for i in 0..50 {
            w.push(&tg_record(i, &[(PF, 60 + i % 3), (PC, 30 + (i % 2) * 10)]));
        }
        dfs.put("tgs", w.finish());
        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        numeric[40] = Some(40.0);
        let numeric = Arc::new(numeric);

        let mk_config = |combine: bool| {
            Arc::new(AggJoinConfig {
                specs: vec![AggJoinSpec {
                    id: 0,
                    slots: vec![
                        VarRef::ObjectOf { star: 0, prop: PF },
                        VarRef::ObjectOf { star: 0, prop: PC },
                    ],
                    group_slots: vec![0],
                    aggs: vec![
                        AggSpec {
                            op: AggOp::Avg,
                            arg: Some(1),
                        },
                        AggSpec {
                            op: AggOp::Count,
                            arg: None,
                        },
                    ],
                    alpha: AlphaCond::default(),
                }],
                numeric: numeric.clone(),
                raw_filters: vec![(
                    StarSpec {
                        star: 0,
                        primary: vec![PropReq::any(PF), PropReq::any(PC)],
                        secondary: vec![],
                    },
                    None,
                )],
                map_side_combine: combine,
            })
        };
        let run = |combine: bool, out: &str| {
            let config = mk_config(combine);
            let job = JobBuilder::new("agj")
                .input("tgs")
                .mapper(Arc::new(FnMapFactory({
                    let c = config.clone();
                    move || AggJoinMapper::new(c.clone())
                })))
                .reducer(Arc::new(KeyLocal(FnReduceFactory({
                    let c = config.clone();
                    move || AggJoinReducer::new(c.clone())
                }))))
                .output(out)
                .num_reducers(2)
                .build();
            Engine::pinned(dfs.clone()).run_job(&job);
        };
        let rec = |grp: u64, avg: f64, count: f64| {
            let key = [varint(0), varint(1), varint(grp)].concat();
            let mut bytes = Vec::new();
            AggRec {
                id: 0,
                key: vec![grp],
                values: vec![Some(avg), Some(count)],
            }
            .encode(&mut bytes);
            (key, bytes)
        };
        let expected = in_commit_order(
            vec![
                rec(60, (9.0 * 30.0 + 8.0 * 40.0) / 17.0, 17.0),
                rec(61, (8.0 * 30.0 + 9.0 * 40.0) / 17.0, 17.0),
                rec(62, 35.0, 16.0),
            ],
            2,
        );
        for (combine, out) in [(true, "agg_c"), (false, "agg_n")] {
            run(combine, out);
            assert_eq!(raw_records(&dfs, out), expected, "combine={combine}");
        }
    }
}
