//! Full-catalog agreement: every query of the paper's workload (G1–G9,
//! MG1–MG4, MG6–MG18) must produce identical result multisets across the
//! four engines and the reference evaluator, on tiny instances of all three
//! datasets.

use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{extract, DataCatalog, QueryEngine};
use rapida_datagen::{
    catalog, generate_bsbm, generate_chem, generate_pubmed, BsbmConfig, ChemConfig, PubmedConfig,
    Workload,
};
use rapida_mapred::Engine;
use rapida_rdf::Graph;
use rapida_sparql::{evaluate, parse_query};

fn graph_for(w: Workload) -> Graph {
    match w {
        Workload::Bsbm => generate_bsbm(&BsbmConfig::tiny()),
        Workload::Chem => generate_chem(&ChemConfig::tiny()),
        Workload::Pubmed => generate_pubmed(&PubmedConfig::tiny()),
    }
}

fn run_workload(w: Workload) {
    let g = graph_for(w);
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    let mut checked = 0;
    for q in catalog().into_iter().filter(|q| q.workload == w) {
        let query = parse_query(&q.sparql).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let expected = evaluate(&query, &g).canonicalized(&g.dict);
        let aq = extract(&query).unwrap_or_else(|e| panic!("{} extract: {e}", q.id));
        for e in &engines {
            let plan = e
                .plan(&aq, &cat)
                .unwrap_or_else(|err| panic!("{}: {} failed to plan: {err}", q.id, e.name()));
            let (rel, _wf) = plan
                .try_execute(&mr, &aq, &cat.dict)
                .expect("plan executes");
            let got = rel.canonicalized(&g.dict);
            assert_eq!(
                got,
                expected,
                "{}: {} disagrees with reference ({} vs {} rows)",
                q.id,
                e.name(),
                got.len(),
                expected.len()
            );
        }
        assert!(
            !expected.is_empty(),
            "{}: reference result is empty — the generator must exercise the query",
            q.id
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn bsbm_catalog_agrees() {
    run_workload(Workload::Bsbm);
}

#[test]
fn chem_catalog_agrees() {
    run_workload(Workload::Chem);
}

#[test]
fn pubmed_catalog_agrees() {
    run_workload(Workload::Pubmed);
}

/// The overlap detector must find composability on every MG query (the
/// catalog was designed from overlapping groupings, Fig. 7).
#[test]
fn all_mg_queries_compose() {
    for q in catalog().into_iter().filter(|q| q.id.starts_with("MG")) {
        let query = parse_query(&q.sparql).unwrap();
        let aq = extract(&query).unwrap();
        match rapida_core::build_composite(&aq.blocks).unwrap() {
            rapida_core::CompositeOutcome::Composite(c) => {
                assert_eq!(
                    c.stars.len(),
                    q.shapes[0].len(),
                    "{}: composite star count matches Fig. 7",
                    q.id
                );
            }
            rapida_core::CompositeOutcome::NotOverlapping(why) => {
                panic!("{} should overlap but did not: {why}", q.id)
            }
        }
    }
}

/// Fig. 7 star/triple-pattern structure matches the parsed patterns.
#[test]
fn fig7_shapes_match_parsed_patterns() {
    for q in catalog() {
        let query = parse_query(&q.sparql).unwrap();
        let aq = extract(&query).unwrap();
        assert_eq!(aq.blocks.len(), q.shapes.len(), "{}: block count", q.id);
        for (b, (block, shape)) in aq.blocks.iter().zip(q.shapes).enumerate() {
            let dec = block.decomposition().unwrap();
            let mut counts: Vec<usize> = dec.stars.iter().map(|s| s.triples.len()).collect();
            let mut expected: Vec<usize> = shape.to_vec();
            counts.sort_unstable();
            expected.sort_unstable();
            assert_eq!(
                counts, expected,
                "{} block {b}: star sizes differ from Fig. 7",
                q.id
            );
        }
    }
}
