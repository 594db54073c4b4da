//! Per-tenant identity of the batched serving path (ISSUE 10 property
//! suite): whatever sharing the front end performs — window batching,
//! signature dedup, MQO fusion, scan-cache reuse — every client must
//! receive exactly the rows a solo run of its own query would produce.
//!
//! Three pins:
//!
//! 1. **Random batches × catalog templates** — random multisets of Fig. 8
//!    traffic templates at random arrival times; every completed request's
//!    relation must canonicalize identically to the solo Hive (MQO) run.
//! 2. **Chaos isolation** — the same identity under injected mid-batch
//!    faults: a request either completes with the solo-identical relation
//!    or is rejected whole; a fault in one tenant's jobs never leaks
//!    partial or foreign rows into another tenant's result.
//! 3. **Replay determinism** — two fresh servers draining identical
//!    traffic (with a cache budget small enough to force LRU evictions)
//!    produce equal ledgers *and* canonically equal per-request results.

use rapida_core::engines::HiveMqo;
use rapida_core::{extract, DataCatalog, QueryEngine};
use rapida_datagen::{generate_bsbm, generate_traffic, query, BsbmConfig, TrafficConfig};
use rapida_mapred::Engine;
use rapida_rdf::Graph;
use rapida_serve::{RequestStatus, ServeConfig, ServeReport, Server};
use rapida_sparql::parse_query;
use rapida_testkit::rng::StdRng;
use std::collections::BTreeMap;

/// The templates the serving traffic mix draws from (a Fig. 8 subset that
/// spans single- and multi-grouping queries plus fusable cross-template
/// pairs like MG1+G1 / MG2+G2).
const TEMPLATES: [&str; 6] = ["MG1", "MG2", "MG3", "MG4", "G1", "G2"];

fn tiny() -> Graph {
    generate_bsbm(&BsbmConfig::tiny())
}

/// Canonical solo-run reference for every template, computed once per
/// catalog with the same planner the server uses.
fn references(g: &Graph) -> BTreeMap<String, Vec<String>> {
    let cat = DataCatalog::load(g);
    let mr = Engine::pinned(cat.dfs.clone());
    let planner = HiveMqo::default();
    let mut refs = BTreeMap::new();
    for id in TEMPLATES {
        let aq = extract(&parse_query(&query(id).sparql).unwrap()).unwrap();
        let plan = planner.plan(&aq, &cat).unwrap();
        let (rel, _) = plan
            .try_execute(&mr, &aq, &cat.dict)
            .expect("plan executes");
        plan.cleanup(&cat.dfs);
        refs.insert(id.to_string(), rel.canonicalized(&cat.dict));
    }
    refs
}

/// Assert every completed outcome in `report` matches its solo reference.
/// Returns (completed, rejected) counts.
fn assert_identity(
    g: &Graph,
    refs: &BTreeMap<String, Vec<String>>,
    report: &ServeReport,
    label: &str,
) -> (usize, usize) {
    let mut completed = 0;
    let mut rejected = 0;
    for o in &report.outcomes {
        match &o.status {
            RequestStatus::Completed { relation } => {
                completed += 1;
                let expect = &refs[&o.query_id];
                assert_eq!(
                    &relation.canonicalized(&g.dict),
                    expect,
                    "{label}: client {} seq {} ({}) diverged from its solo run",
                    o.client,
                    o.seq,
                    o.query_id
                );
            }
            RequestStatus::Rejected { reason } => {
                rejected += 1;
                assert!(
                    !reason.is_empty(),
                    "{label}: rejection must carry a typed reason"
                );
            }
        }
    }
    (completed, rejected)
}

#[test]
fn random_batches_match_solo_runs() {
    let g = tiny();
    let refs = references(&g);
    let rounds: usize = std::env::var("RAPIDA_SERVE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut rng = StdRng::seed_from_u64(0x5e11_13a7_c4e5_0001);
    for round in 0..rounds {
        let server = Server::new(&g, ServeConfig::default());
        let n: usize = rng.gen_range(3..9usize);
        let mut submitted = 0usize;
        for client in 0..3usize {
            let session = server.session(client);
            for _ in 0..n {
                let id = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize];
                let at_ms = rng.gen_range(0..300u64);
                session.submit_catalog(at_ms, id);
                submitted += 1;
            }
        }
        let report = server.drain();
        let (completed, rejected) =
            assert_identity(&g, &refs, &report, &format!("round {round}"));
        assert_eq!(completed, submitted, "round {round}: {rejected} rejected");
    }
}

#[test]
fn chaos_mid_batch_faults_do_not_leak_between_tenants() {
    let g = tiny();
    let refs = references(&g);
    let seeds: u64 = std::env::var("RAPIDA_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let events = generate_traffic(&TrafficConfig::bsbm_mix(99, 4, 250));
    let mut total_completed = 0usize;
    for seed in 0..seeds {
        let server = Server::new(
            &g,
            ServeConfig {
                fault_seed: Some(seed),
                ..ServeConfig::default()
            },
        );
        server.enqueue_traffic(&events);
        let report = server.drain();
        let (completed, _) =
            assert_identity(&g, &refs, &report, &format!("chaos seed {seed}"));
        total_completed += completed;
    }
    assert!(
        total_completed > 0,
        "the chaos sweep rejected every request across {seeds} seeds"
    );
}

#[test]
fn replayed_traffic_is_deterministic_down_to_the_eviction_ledger() {
    let g = tiny();
    let events = generate_traffic(&TrafficConfig::bsbm_mix(7, 5, 250));
    let run = || {
        let server = Server::new(
            &g,
            ServeConfig {
                // Small enough to force LRU evictions mid-replay.
                cache_budget_bytes: 4 << 10,
                ..ServeConfig::default()
            },
        );
        server.enqueue_traffic(&events);
        server.drain()
    };
    let a = run();
    let b = run();
    assert!(
        a.ledger.cache.evictions > 0,
        "budget did not force evictions: {:?}",
        a.ledger.cache
    );
    assert_eq!(a.ledger, b.ledger, "replayed metrics ledgers diverged");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        match (&x.status, &y.status) {
            (
                RequestStatus::Completed { relation: rx },
                RequestStatus::Completed { relation: ry },
            ) => assert_eq!(rx.canonicalized(&g.dict), ry.canonicalized(&g.dict)),
            (RequestStatus::Rejected { reason: rx }, RequestStatus::Rejected { reason: ry }) => {
                assert_eq!(rx, ry)
            }
            _ => panic!(
                "replay flipped completion status for client {} seq {}",
                x.client, x.seq
            ),
        }
    }
}
