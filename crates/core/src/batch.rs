//! Batched multi-query optimization over ad-hoc query sets.
//!
//! The library's MQO machinery ([`crate::composite`], Hive (MQO)) rewrites
//! the blocks of *one* analytical query into a shared composite pattern.
//! The serving front end needs the same sharing across the queries of an
//! arrival batch: this module greedily partitions a batch into fusion
//! groups of mutually overlapping queries ([`fusion_groups`]), compiles
//! each group's blocks through the Hive MQO seam as one workflow
//! ([`plan_fused_group`]), and demultiplexes the per-block outputs back
//! into ordinary per-query plans ([`demux_member_plan`]) whose finishing
//! joins run against restamped copies of the shared block datasets.
//!
//! Soundness leans entirely on [`build_composite`]: a candidate joins a
//! group only when the composite builder accepts the union of the group's
//! blocks (same star structure, Table 2 α-conditions), which is exactly
//! the precondition under which the MQO rewriting is output-preserving.

use crate::aquery::AnalyticalQuery;
use crate::catalog::DataCatalog;
use crate::composite::{build_composite, CompositeOutcome};
use crate::engines::hive::{mqo_block_jobs, HiveConfig};
use crate::plan::{finish_plan, next_plan_id, PlanError, QueryPlan};
use rapida_mapred::{DatasetWriter, Job, SimDfs};
use rapida_ntga::AggRec;

/// Hard cap on combined blocks in one fusion group. Block ids are stamped
/// into [`AggRec::id`] as `u8`, and composite construction is quadratic in
/// stars — well before either limit bites, a wider batch stops paying.
pub const MAX_FUSED_BLOCKS: usize = 24;

/// Partition batch queries into fusion groups, greedily: each query joins
/// the first existing group whose accumulated blocks still form a valid
/// composite with it, else starts its own group. Singleton groups mean
/// "plan solo". Returned groups preserve input order (group by first
/// member, members ascending), so the grouping is deterministic.
pub fn fusion_groups(queries: &[AnalyticalQuery]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_blocks: Vec<Vec<crate::aquery::GroupingBlock>> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut placed = false;
        for (g, blocks) in group_blocks.iter_mut().enumerate() {
            if blocks.len() + q.blocks.len() > MAX_FUSED_BLOCKS {
                continue;
            }
            let mut candidate = blocks.clone();
            candidate.extend(q.blocks.iter().cloned());
            if matches!(
                build_composite(&candidate),
                Ok(CompositeOutcome::Composite(_))
            ) {
                *blocks = candidate;
                groups[g].push(qi);
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push(vec![qi]);
            group_blocks.push(q.blocks.clone());
        }
    }
    groups
}

/// The shared half of a fused group's execution: the MQO jobs over the
/// combined blocks, plus the bookkeeping to hand each member its slices.
pub struct FusedPlan {
    /// The shared jobs (composite materialization + per-block extraction
    /// and aggregation), to run once per group on the MR engine.
    pub jobs: Vec<Job>,
    /// Output dataset per *combined* block index; records are stamped with
    /// the combined index in [`AggRec::id`].
    pub block_datasets: Vec<String>,
    /// `member_offsets[m]` = first combined block index of member `m`.
    pub member_offsets: Vec<usize>,
    /// The compilation's plan id (intermediate dataset namespace).
    pub plan_id: String,
}

impl FusedPlan {
    /// Attach scan-cache keys to the shared jobs, by the same contract as
    /// [`QueryPlan::attach_scan_cache_keys`]: `group_sig` must fold in the
    /// engine configuration and every member query's canonical signature.
    pub fn attach_scan_cache_keys(&mut self, group_sig: &str) {
        for (slot, job) in self.jobs.iter_mut().enumerate() {
            let name = job.name.replace(&self.plan_id, "«P»");
            let output = job.output.replace(&self.plan_id, "«P»");
            let inputs: Vec<String> = job
                .inputs
                .iter()
                .map(|i| match rapida_storage::scan_class(i) {
                    Some(class) => format!("{i}#{class}"),
                    None => i.replace(&self.plan_id, "«P»"),
                })
                .collect();
            job.cache_key = Some(format!(
                "fused|{group_sig}|#{slot}|{name}->{output}<-[{}]",
                inputs.join(",")
            ));
        }
    }

    /// Every dataset the shared jobs write (for post-batch cleanup).
    pub fn intermediate_datasets(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.output.clone()).collect()
    }
}

/// Compile the shared jobs for one fusion group (≥ 2 members whose
/// combined blocks [`fusion_groups`] already validated). The combined
/// query's projection is irrelevant to block planning and left empty —
/// member projections live in their own finishing plans.
pub fn plan_fused_group(
    members: &[&AnalyticalQuery],
    config: &HiveConfig,
    cat: &DataCatalog,
) -> Result<FusedPlan, PlanError> {
    assert!(members.len() >= 2, "fused groups have at least two members");
    let mut blocks = Vec::new();
    let mut member_offsets = Vec::with_capacity(members.len());
    for q in members {
        member_offsets.push(blocks.len());
        blocks.extend(q.blocks.iter().cloned());
    }
    let combined = AnalyticalQuery {
        blocks,
        projection: Vec::new(),
    };
    let composite = match build_composite(&combined.blocks)? {
        CompositeOutcome::Composite(c) => c,
        CompositeOutcome::NotOverlapping(why) => {
            return Err(PlanError::Unsupported(format!(
                "fusion group lost overlap at planning time: {why}"
            )))
        }
    };
    let pid = next_plan_id("fb");
    let (jobs, block_datasets) = mqo_block_jobs(config, &combined, &composite, cat, pid.clone())?;
    Ok(FusedPlan {
        jobs,
        block_datasets,
        member_offsets,
        plan_id: pid,
    })
}

/// After the shared jobs have run, build one member's ordinary
/// [`QueryPlan`]: restamp its slice of the shared block datasets (filter
/// on the combined block id, rewrite to the member-local id) into private
/// datasets, then finish the plan — empty-ALL fixups, the final join, and
/// output decoding all run exactly as they would for a solo compilation.
pub fn demux_member_plan(
    fused: &FusedPlan,
    member: usize,
    aq: &AnalyticalQuery,
    engine: &'static str,
    dfs: &SimDfs,
    split_bytes: usize,
) -> Result<QueryPlan, PlanError> {
    let qpid = next_plan_id("dm");
    let offset = fused.member_offsets[member];
    let mut datasets = Vec::with_capacity(aq.blocks.len());
    for local in 0..aq.blocks.len() {
        let combined = offset + local;
        let dest = format!("{qpid}_b{local}");
        restamp(
            dfs,
            &fused.block_datasets[combined],
            combined as u8,
            local as u8,
            &dest,
            split_bytes,
        );
        datasets.push(dest);
    }
    finish_plan(engine, aq, Vec::new(), datasets, dfs, &qpid)
}

/// Copy the records of one combined block into a private dataset with the
/// member-local block id. Driver-side, like [`crate::plan::AllGroupFixup`]:
/// the demux moves final aggregates (small by construction), not scans.
fn restamp(dfs: &SimDfs, src: &str, from_id: u8, to_id: u8, dest: &str, split_bytes: usize) {
    let ds = dfs.peek(src).unwrap_or_default();
    let mut w = DatasetWriter::new(split_bytes);
    let mut buf = Vec::new();
    for rec in ds.iter_records() {
        let Some(mut r) = AggRec::decode(rec) else {
            continue;
        };
        if r.id != from_id {
            continue;
        }
        r.id = to_id;
        buf.clear();
        r.encode(&mut buf);
        w.push(&buf);
    }
    dfs.put(dest, w.finish());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use rapida_datagen::{generate_bsbm, query, BsbmConfig};
    use rapida_mapred::Engine;
    use rapida_sparql::parse_query;

    fn aq_of(id: &str) -> AnalyticalQuery {
        extract(&parse_query(&query(id).sparql).expect("parse")).expect("extract")
    }

    #[test]
    fn identical_queries_fuse() {
        let qs = vec![aq_of("MG1"), aq_of("MG1")];
        let groups = fusion_groups(&qs);
        assert_eq!(groups, vec![vec![0, 1]]);
    }

    #[test]
    fn disjoint_queries_stay_solo() {
        // MG1 (product stars) and G5 share no star structure.
        let qs = vec![aq_of("MG1"), aq_of("G5")];
        let groups = fusion_groups(&qs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0]);
        assert_eq!(groups[1], vec![1]);
    }

    #[test]
    fn grouping_is_deterministic_and_order_preserving() {
        let qs = vec![aq_of("MG1"), aq_of("G5"), aq_of("MG1"), aq_of("MG1")];
        let a = fusion_groups(&qs);
        let b = fusion_groups(&qs);
        assert_eq!(a, b);
        for g in &a {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fused_member_matches_solo_run() {
        use crate::engines::hive::HiveMqo;
        use crate::plan::QueryEngine;

        let g = generate_bsbm(&BsbmConfig::tiny());
        let cat = DataCatalog::load(&g);
        let mr = Engine::pinned(cat.dfs.clone());

        let members = vec![aq_of("MG1"), aq_of("MG2")];
        let groups = fusion_groups(&members);
        if groups.len() != 1 {
            // The two templates happen not to fuse under this catalog's
            // composite rules — nothing to check here; the serve property
            // suite covers the solo path.
            return;
        }

        let cfg = HiveConfig::default();
        let refs: Vec<&AnalyticalQuery> = members.iter().collect();
        let fused = plan_fused_group(&refs, &cfg, &cat).expect("fused plan");
        mr.try_run_workflow(&fused.jobs)
            .expect("workflow completes");

        let solo_engine = HiveMqo::default();
        for (m, aq) in members.iter().enumerate() {
            let plan =
                demux_member_plan(&fused, m, aq, "Hive (MQO)", &cat.dfs, mr.split_bytes)
                    .expect("member plan");
            let (rel, _) = plan.try_execute(&mr, aq, &g.dict).expect("plan executes");

            let solo = solo_engine.plan(aq, &cat).expect("solo plan");
            let (srel, _) = solo.try_execute(&mr, aq, &g.dict).expect("plan executes");
            assert_eq!(
                rel.canonicalized(&g.dict),
                srel.canonicalized(&g.dict),
                "member {m} diverged from its solo run"
            );
        }
    }
}
