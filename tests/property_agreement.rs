//! Property-based engine agreement: random small graphs, four query
//! templates covering the analytical shapes (overlapping multi-grouping,
//! shared keys, filters, non-overlapping fallback) — every engine must
//! agree with the reference evaluator on the result multiset.

use rapida_testkit::prelude::*;
use rapida::prelude::*;
use rapida::rdf::vocab;

fn iri(s: String) -> Term {
    Term::iri(format!("http://x/{s}"))
}

/// A random two-class graph: X subjects (typed, with multi-valued `pa`/`pb`)
/// and L subjects (linking to X, with numeric `pc` and optional `pd`).
#[derive(Debug, Clone)]
struct RandomGraph {
    xs: Vec<(u8, Vec<u8>, Vec<u8>)>, // (type, pa values, pb values)
    ls: Vec<(u8, u8, Option<u8>)>,   // (x target, pc value, pd value)
}

impl RandomGraph {
    fn build(&self) -> Graph {
        let mut g = Graph::new();
        let n_x = self.xs.len().max(1) as u8;
        for (i, (ty, pas, pbs)) in self.xs.iter().enumerate() {
            let s = iri(format!("x{i}"));
            g.insert_terms(
                &s,
                &Term::iri(vocab::RDF_TYPE),
                &iri(format!("T{}", ty % 2)),
            );
            for a in pas {
                g.insert_terms(&s, &iri("pa".into()), &iri(format!("a{}", a % 4)));
            }
            for b in pbs {
                g.insert_terms(&s, &iri("pb".into()), &iri(format!("b{}", b % 3)));
            }
        }
        for (i, (x, pc, pd)) in self.ls.iter().enumerate() {
            let s = iri(format!("l{i}"));
            g.insert_terms(&s, &iri("lx".into()), &iri(format!("x{}", x % n_x)));
            g.insert_terms(&s, &iri("pc".into()), &Term::integer(i64::from(*pc % 20)));
            if let Some(d) = pd {
                g.insert_terms(&s, &iri("pd".into()), &iri(format!("d{}", d % 3)));
            }
        }
        g
    }
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    let x = (
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..3),
        prop::collection::vec(any::<u8>(), 0..3),
    );
    let l = (any::<u8>(), any::<u8>(), prop::option::of(any::<u8>()));
    (
        prop::collection::vec(x, 1..8),
        prop::collection::vec(l, 0..12),
    )
        .prop_map(|(xs, ls)| RandomGraph { xs, ls })
}

const P: &str = "PREFIX ex: <http://x/>\n";

fn templates() -> Vec<(&'static str, String)> {
    vec![
        (
            "overlapping, pa secondary to block 2",
            format!(
                "{P}SELECT ?a ?n1 ?s1 ?n2 {{
                   {{ SELECT ?a (COUNT(?c) AS ?n1) (SUM(?c) AS ?s1)
                      {{ ?x a ex:T0 ; ex:pa ?a . ?l ex:lx ?x ; ex:pc ?c . }} GROUP BY ?a }}
                   {{ SELECT (COUNT(?c2) AS ?n2)
                      {{ ?x2 a ex:T0 . ?l2 ex:lx ?x2 ; ex:pc ?c2 . }} }}
                 }}"
            ),
        ),
        (
            "shared group key, pb secondary",
            format!(
                "{P}SELECT ?a ?nb ?na {{
                   {{ SELECT ?a (COUNT(?c) AS ?nb)
                      {{ ?x a ex:T1 ; ex:pa ?a ; ex:pb ?b . ?l ex:lx ?x ; ex:pc ?c . }}
                      GROUP BY ?a }}
                   {{ SELECT ?a (COUNT(?c2) AS ?na)
                      {{ ?x2 a ex:T1 ; ex:pa ?a . ?l2 ex:lx ?x2 ; ex:pc ?c2 . }}
                      GROUP BY ?a }}
                 }}"
            ),
        ),
        (
            "filtered single block",
            format!(
                "{P}SELECT ?a (COUNT(?c) AS ?n) (MAX(?c) AS ?hi) {{
                   ?x ex:pa ?a . ?l ex:lx ?x ; ex:pc ?c . FILTER(?c >= 5)
                 }} GROUP BY ?a"
            ),
        ),
        (
            "non-overlapping fallback",
            format!(
                "{P}SELECT ?n1 ?n2 {{
                   {{ SELECT (COUNT(?b) AS ?n1) {{ ?x ex:pa ?a ; ex:pb ?b . }} }}
                   {{ SELECT (COUNT(?d) AS ?n2) {{ ?l ex:pc ?c ; ex:pd ?d . }} }}
                 }}"
            ),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn engines_agree_on_random_graphs(rg in random_graph(), template_idx in 0usize..4) {
        let g = rg.build();
        let (label, sparql) = &templates()[template_idx];
        let query = parse_query(sparql).unwrap();
        let expected = evaluate(&query, &g).canonicalized(&g.dict);
        let aq = extract(&query).unwrap();
        let cat = DataCatalog::load(&g);
        let mr = MrEngine::pinned(cat.dfs.clone());
        let engines: Vec<Box<dyn QueryEngine>> = vec![
            Box::new(HiveNaive::default()),
            Box::new(HiveMqo::default()),
            Box::new(RapidPlus::default()),
            Box::new(RapidAnalytics::default()),
        ];
        for e in &engines {
            let plan = e.plan(&aq, &cat).unwrap();
            let (rel, _wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
            prop_assert_eq!(
                rel.canonicalized(&g.dict),
                expected.clone(),
                "{} disagrees on template '{}'",
                e.name(),
                label
            );
        }
    }

    /// Ablated RAPIDAnalytics variants stay correct (they only change cost).
    #[test]
    fn ablated_variants_agree(rg in random_graph()) {
        let g = rg.build();
        let (_, sparql) = &templates()[0];
        let query = parse_query(sparql).unwrap();
        let expected = evaluate(&query, &g).canonicalized(&g.dict);
        let aq = extract(&query).unwrap();
        let cat = DataCatalog::load(&g);
        let mr = MrEngine::pinned(cat.dfs.clone());
        let variants: Vec<RapidAnalytics> = vec![
            RapidAnalytics { map_side_combine: false, ..Default::default() },
            RapidAnalytics { alpha_pruning: false, ..Default::default() },
            RapidAnalytics { parallel_agg: false, ..Default::default() },
        ];
        for v in &variants {
            let plan = v.plan(&aq, &cat).unwrap();
            let (rel, _wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
            prop_assert_eq!(rel.canonicalized(&g.dict), expected.clone());
        }
    }
}
