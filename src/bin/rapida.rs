//! `rapida` — command-line front end: run or explain SPARQL analytical
//! queries over N-Triples data (or a built-in synthetic dataset) with any of
//! the four engines.
//!
//! ```text
//! rapida run     --engine ra --data data.nt --query query.rq
//! rapida run     --engine all --dataset bsbm --id MG3
//! rapida explain --engine hive --dataset chem --id MG6
//! rapida serve   --dataset bsbm --clients 10 --duration-ms 400
//! rapida catalog                      # list the built-in query catalog
//! ```

use rapida::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  rapida run     [--engine hive|mqo|rapid|ra|all] (--data FILE.nt --query FILE.rq | --dataset bsbm|chem|pubmed [--id QID])
  rapida explain [--engine hive|mqo|rapid|ra|all] (--data FILE.nt --query FILE.rq | --dataset bsbm|chem|pubmed [--id QID])
  rapida serve   [--dataset bsbm|chem|pubmed] [--mode batched|serial] [--clients N] [--duration-ms MS] [--window-ms MS] [--seed N]
  rapida catalog"
    );
    ExitCode::from(2)
}

struct Args {
    cmd: String,
    engine: String,
    data: Option<String>,
    query: Option<String>,
    dataset: Option<String>,
    id: Option<String>,
    mode: String,
    clients: usize,
    duration_ms: u64,
    window_ms: u64,
    seed: u64,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next()?;
    let mut a = Args {
        cmd,
        engine: "ra".to_string(),
        data: None,
        query: None,
        dataset: None,
        id: None,
        mode: "batched".to_string(),
        clients: 10,
        duration_ms: 400,
        window_ms: 100,
        seed: 42,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next()?;
        match flag.as_str() {
            "--engine" => a.engine = value,
            "--data" => a.data = Some(value),
            "--query" => a.query = Some(value),
            "--dataset" => a.dataset = Some(value),
            "--id" => a.id = Some(value),
            "--mode" => a.mode = value,
            "--clients" => a.clients = value.parse().ok()?,
            "--duration-ms" => a.duration_ms = value.parse().ok()?,
            "--window-ms" => a.window_ms = value.parse().ok()?,
            "--seed" => a.seed = value.parse().ok()?,
            _ => return None,
        }
    }
    Some(a)
}

fn engines_for(name: &str) -> Option<Vec<Box<dyn QueryEngine>>> {
    Some(match name {
        "hive" => vec![Box::new(HiveNaive::default())],
        "mqo" => vec![Box::new(HiveMqo::default())],
        "rapid" => vec![Box::new(RapidPlus::default())],
        "ra" => vec![Box::new(RapidAnalytics::default())],
        "all" => vec![
            Box::new(HiveNaive::default()),
            Box::new(HiveMqo::default()),
            Box::new(RapidPlus::default()),
            Box::new(RapidAnalytics::default()),
        ],
        _ => return None,
    })
}

fn load_inputs(a: &Args) -> Result<(Graph, String), String> {
    match (&a.data, &a.dataset) {
        (Some(data), None) => {
            let text = std::fs::read_to_string(data)
                .map_err(|e| format!("cannot read {data}: {e}"))?;
            let triples =
                rapida::rdf::parse_ntriples(&text).map_err(|e| format!("{data}: {e}"))?;
            let mut g = Graph::new();
            g.insert_term_triples(&triples);
            let qfile = a
                .query
                .as_ref()
                .ok_or("--data requires --query")?;
            let sparql = std::fs::read_to_string(qfile)
                .map_err(|e| format!("cannot read {qfile}: {e}"))?;
            Ok((g, sparql))
        }
        (None, Some(ds)) => {
            let g = match ds.as_str() {
                "bsbm" => rapida::datagen::generate_bsbm(&rapida::datagen::BsbmConfig::small()),
                "chem" => rapida::datagen::generate_chem(&rapida::datagen::ChemConfig::default()),
                "pubmed" => {
                    rapida::datagen::generate_pubmed(&rapida::datagen::PubmedConfig::default())
                }
                other => return Err(format!("unknown dataset '{other}'")),
            };
            let id = a.id.clone().unwrap_or_else(|| "MG1".to_string());
            let q = rapida::datagen::catalog()
                .into_iter()
                .find(|q| q.id == id)
                .ok_or_else(|| format!("unknown catalog query '{id}'"))?;
            Ok((g, q.sparql))
        }
        _ => Err("provide either --data FILE.nt --query FILE.rq or --dataset NAME".to_string()),
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match args.cmd.as_str() {
        "catalog" => {
            println!("{:<6} {:<8} {:<4} groupings", "id", "dataset", "sel");
            for q in rapida::datagen::catalog() {
                let workload = format!("{:?}", q.workload).to_lowercase();
                println!(
                    "{:<6} {workload:<8} {:<4} {}",
                    q.id,
                    q.selectivity.unwrap_or("-"),
                    q.groups.join(" vs ")
                );
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            use rapida::serve::{ServeConfig, ServeMode, Server};
            let mode = match args.mode.as_str() {
                "batched" => ServeMode::Batched,
                "serial" => ServeMode::Serial,
                _ => return usage(),
            };
            let ds = args.dataset.clone().unwrap_or_else(|| "bsbm".to_string());
            let graph = match ds.as_str() {
                "bsbm" => rapida::datagen::generate_bsbm(&rapida::datagen::BsbmConfig::small()),
                "chem" => rapida::datagen::generate_chem(&rapida::datagen::ChemConfig::default()),
                "pubmed" => {
                    rapida::datagen::generate_pubmed(&rapida::datagen::PubmedConfig::default())
                }
                other => {
                    eprintln!("error: unknown dataset '{other}'");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("loaded {} triples", graph.len());
            let config = ServeConfig {
                mode,
                window_ms: args.window_ms,
                ..ServeConfig::default()
            };
            let server = Server::new(&graph, config);
            let traffic = rapida::datagen::TrafficConfig::bsbm_mix(
                args.seed,
                args.clients,
                args.duration_ms,
            );
            let events = rapida::datagen::generate_traffic(&traffic);
            eprintln!(
                "{} requests from {} clients over {} ms of arrivals",
                events.len(),
                args.clients,
                args.duration_ms
            );
            server.enqueue_traffic(&events);
            let report = server.drain();
            for w in &report.ledger.windows {
                println!(
                    "window {:>3}: {:>3} arrivals, {:>2} unique, {:>2} groups \
                     ({} fused members, {} shared jobs), cache {}h/{}m/{}e",
                    w.window,
                    w.arrivals,
                    w.unique,
                    w.groups,
                    w.fused_members,
                    w.shared_jobs,
                    w.cache.hits,
                    w.cache.misses,
                    w.cache.evictions,
                );
            }
            println!("{}", report.summary());
            ExitCode::SUCCESS
        }
        cmd @ ("run" | "explain") => {
            let Some(engines) = engines_for(&args.engine) else {
                return usage();
            };
            let (graph, sparql) = match load_inputs(&args) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("loaded {} triples", graph.len());
            let cat = DataCatalog::load(&graph);
            let mr = MrEngine::new(cat.dfs.clone());
            let parsed = match parse_query(&sparql) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("parse error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let aq = match rapida::core::extract(&parsed) {
                Ok(aq) => aq,
                Err(e) => {
                    eprintln!("not an analytical query: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for engine in &engines {
                let plan = match engine.plan(&aq, &cat) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{}: planning failed: {e}", engine.name());
                        return ExitCode::FAILURE;
                    }
                };
                if cmd == "explain" {
                    print!("{}", plan.explain());
                    continue;
                }
                let (rel, wf) = match plan.try_execute(&mr, &aq, &cat.dict) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("{}: execution failed: {e}", engine.name());
                        return ExitCode::FAILURE;
                    }
                };
                eprintln!(
                    "{}: {} rows, {} cycles, {:.2} MB shuffled",
                    engine.name(),
                    rel.len(),
                    wf.cycles(),
                    wf.total_shuffle_bytes() as f64 / 1e6
                );
                if engines.len() == 1 {
                    print!("{}", rel.pretty(&cat.dict));
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
