//! Plan-choice properties: on random graphs and all analytical query
//! templates, the cost-based enumerator's chosen plan (a) is never worse
//! than the family's fixed plans under the *measured* simulated cost, and
//! (b) produces a byte-identical canonical Relation — the fixed plan is the
//! correctness oracle.

use rapida::core::{enumerate_best, Family};
use rapida::prelude::*;
use rapida::rdf::vocab;
use rapida_testkit::prelude::*;

fn iri(s: String) -> Term {
    Term::iri(format!("http://x/{s}"))
}

/// Same two-class random graph family as `property_agreement.rs`: typed X
/// subjects with multi-valued `pa`/`pb`, and L subjects linking to X with a
/// numeric `pc`.
#[derive(Debug, Clone)]
struct RandomGraph {
    xs: Vec<(u8, Vec<u8>, Vec<u8>)>,
    ls: Vec<(u8, u8, Option<u8>)>,
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
            "overlapping multi-block",
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
            "shared group key",
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

/// Measured simulated cost of a fixed engine's plan, plus its canonical
/// result — the oracle the chosen plan is compared against.
fn run_fixed(
    engine: &dyn QueryEngine,
    aq: &rapida::core::AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> (f64, Vec<String>) {
    let mr = MrEngine::pinned(cat.dfs.clone());
    let plan = engine.plan(aq, cat).unwrap();
    let (rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let cost = model.workflow_time(&wf);
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    (cost, rel.canonicalized(&cat.dict))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// The never-worse invariant: for every family, the enumerator-chosen
    /// plan's measured cost on the pinned simulator is at most the measured
    /// cost of each of that family's fixed plans, and its output Relation is
    /// byte-identical to the fixed plan's.
    #[test]
    fn chosen_plan_never_worse_and_byte_identical(
        rg in random_graph(),
        template_idx in 0usize..4,
    ) {
        let g = rg.build();
        let (label, sparql) = &templates()[template_idx];
        let query = parse_query(sparql).unwrap();
        let aq = extract(&query).unwrap();
        let cat = DataCatalog::load(&g);
        let model = ClusterModel::nodes10();

        let fixed: Vec<(Family, Vec<Box<dyn QueryEngine>>)> = vec![
            (
                Family::Hive,
                vec![Box::new(HiveNaive::default()), Box::new(HiveMqo::default())],
            ),
            (
                Family::Rapid,
                vec![Box::new(RapidPlus::default()), Box::new(RapidAnalytics::default())],
            ),
        ];
        for (family, engines) in fixed {
            let e = enumerate_best(family, &aq, &cat, &model).unwrap();
            prop_assert!(e.measured_s.is_finite());

            let mr = MrEngine::pinned(cat.dfs.clone());
            let (chosen_rel, chosen_wf) = e
                .plan
                .try_execute(&mr, &aq, &cat.dict)
                .expect("plan executes");
            let chosen_cost = model.workflow_time(&chosen_wf);
            let chosen_canon = chosen_rel.canonicalized(&cat.dict);
            e.plan.cleanup(&cat.dfs);
            cat.dfs.remove(&e.plan.output_dataset);

            // The freshly recompiled winner re-measures at its dry-run cost.
            prop_assert!(
                (chosen_cost - e.measured_s).abs() <= 1e-6 * e.measured_s.max(1.0),
                "template '{}' {:?}: fresh run {:.4}s != dry-run {:.4}s",
                label, family, chosen_cost, e.measured_s
            );

            for engine in &engines {
                let (fixed_cost, oracle) = run_fixed(engine.as_ref(), &aq, &cat, &model);
                prop_assert!(
                    chosen_cost <= fixed_cost + 1e-9,
                    "template '{}': chosen '{}' at {:.4}s worse than fixed {} at {:.4}s",
                    label, e.choice, chosen_cost, engine.name(), fixed_cost
                );
                prop_assert_eq!(
                    chosen_canon.clone(),
                    oracle,
                    "template '{}': chosen '{}' output differs from fixed {}",
                    label, e.choice, engine.name()
                );
            }
        }
    }

    /// Determinism under the estimator: re-enumerating the same inputs picks
    /// the same candidate with the same estimate.
    #[test]
    fn enumeration_is_stable_on_random_graphs(rg in random_graph()) {
        let g = rg.build();
        let (_, sparql) = &templates()[0];
        let query = parse_query(sparql).unwrap();
        let aq = extract(&query).unwrap();
        let cat = DataCatalog::load(&g);
        let model = ClusterModel::nodes10();
        for family in [Family::Hive, Family::Rapid] {
            let a = enumerate_best(family, &aq, &cat, &model).unwrap();
            let b = enumerate_best(family, &aq, &cat, &model).unwrap();
            prop_assert_eq!(&a.choice, &b.choice);
            prop_assert_eq!(a.estimated_s, b.estimated_s);
            prop_assert_eq!(a.measured_s, b.measured_s);
            prop_assert_eq!(a.plan.dump(), b.plan.dump());
        }
    }
}
