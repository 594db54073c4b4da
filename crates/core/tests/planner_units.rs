//! Plan-structure unit tests: map-join thresholds, multi-key final joins,
//! out-of-scope constructs, and error reporting.

use rapida_core::engines::{HiveConfig, HiveNaive, RapidAnalytics};
use rapida_core::{extract, DataCatalog, PlanError, QueryEngine};
use rapida_mapred::Engine;
use rapida_rdf::{vocab, Graph, Term};
use rapida_sparql::{evaluate, parse_query};

fn iri(s: &str) -> Term {
    Term::iri(format!("http://x/{s}"))
}

fn shop_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..40 {
        let p = iri(&format!("p{i}"));
        g.insert_terms(&p, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
        g.insert_terms(&p, &iri("label"), &Term::literal(format!("p {i}")));
        let o = iri(&format!("o{i}"));
        g.insert_terms(&o, &iri("product"), &p);
        g.insert_terms(&o, &iri("price"), &Term::decimal(i as f64));
        g.insert_terms(&o, &iri("region"), &iri(&format!("r{}", i % 4)));
        g.insert_terms(&o, &iri("channel"), &iri(&format!("ch{}", i % 2)));
    }
    g
}

const G1_SHAPE: &str = "PREFIX ex: <http://x/>
    SELECT (COUNT(?pr) AS ?n) {
      ?p a ex:T1 ; ex:label ?l .
      ?o ex:product ?p ; ex:price ?pr .
    }";

/// The map-join threshold decides which cycles go map-only; correctness is
/// unaffected either way.
#[test]
fn map_join_threshold_controls_cycle_kinds() {
    let g = shop_graph();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let query = parse_query(G1_SHAPE).unwrap();
    let aq = extract(&query).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);

    let run = |threshold: usize| {
        let engine = HiveNaive {
            config: HiveConfig {
                map_join_threshold: threshold,
                ..Default::default()
            },
            cost_model: None,
        };
        let plan = engine.plan(&aq, &cat).unwrap();
        let map_only = plan.map_only_cycles();
        let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert_eq!(rel.canonicalized(&g.dict), expected, "threshold={threshold}");
        map_only
    };
    let none = run(0);
    let all = run(usize::MAX);
    assert_eq!(none, 0, "threshold 0 forbids map-joins");
    assert!(all >= 3, "huge threshold turns the joins map-only, got {all}");
}

/// A two-column shared grouping key joins correctly through the final
/// map-only join.
#[test]
fn final_join_on_two_shared_keys() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?r ?ch ?nA ?nB {
          { SELECT ?r ?ch (COUNT(?p1) AS ?nA)
            { ?o1 ex:region ?r ; ex:channel ?ch ; ex:price ?p1 . } GROUP BY ?r ?ch }
          { SELECT ?ch ?r (SUM(?p2) AS ?nB)
            { ?o2 ex:region ?r ; ex:channel ?ch ; ex:price ?p2 . } GROUP BY ?ch ?r }
        }";
    let query = parse_query(q).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);
    assert!(!expected.is_empty());
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let (rel, _) = plan
        .try_execute(&mr, &aq, &cat.dict)
        .expect("plan executes");
    assert_eq!(rel.canonicalized(&g.dict), expected);
}

/// Unbound-property patterns are the paper's declared out-of-scope case —
/// the error must say so.
#[test]
fn unbound_property_is_rejected_with_scope_error() {
    let q = "SELECT (COUNT(?o) AS ?n) { ?s ?p ?o . }";
    let query = parse_query(q).unwrap();
    let err = extract(&query).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("unbound-property") || msg.contains("out of scope"),
        "error must cite the paper's scope: {msg}"
    );
}

/// PlanError displays are informative.
#[test]
fn plan_error_display() {
    let e = PlanError::Unsupported("variable-to-variable FILTER comparisons".into());
    assert!(format!("{e}").contains("unsupported"));
}

/// Engines reject disjunctive filters with a clear message, and the
/// reference evaluator still handles them (scope split).
#[test]
fn disjunctive_filter_rejected_by_engines_only() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT (COUNT(?pr) AS ?n) {
          ?o ex:price ?pr . FILTER(?pr < 3 || ?pr > 35)
        }";
    let query = parse_query(q).unwrap();
    // Reference handles it.
    let rel = evaluate(&query, &g);
    assert_eq!(rel.rows[0][0], rapida_sparql::Cell::Num(7.0));
    // The engine subset rejects it at planning time.
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let Err(err) = RapidAnalytics::default().plan(&aq, &cat) else {
        panic!("disjunctive filter must be rejected");
    };
    assert!(format!("{err}").contains("disjunctive"));
}

/// Querying a property absent from the data yields clean empty results on
/// grouped blocks.
#[test]
fn absent_property_scans_empty() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?x (COUNT(?x) AS ?n) { ?s ex:nonexistent ?x . } GROUP BY ?x";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    for engine in [
        Box::new(HiveNaive::default()) as Box<dyn QueryEngine>,
        Box::new(RapidAnalytics::default()),
    ] {
        let plan = engine.plan(&aq, &cat).unwrap();
        let (rel, _) = plan
            .try_execute(&mr, &aq, &cat.dict)
            .expect("plan executes");
        assert!(rel.is_empty(), "{}", engine.name());
    }
}
