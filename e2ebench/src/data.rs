//! Workload definitions, the load generator (BSBM data written as
//! N-Triples) and the timed set-up path: file -> `parse_ntriples` ->
//! `Graph` -> `DataCatalog::load`, the path `rapida run --data` takes.

use rapida_core::DataCatalog;
use rapida_datagen::{generate_bsbm, BsbmConfig};
use rapida_rdf::{parse_ntriples, Graph};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a workload's timed phase drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop passes over the query list with fixed plans.
    Analytic,
    /// The same passes with the cost-based enumerator on both engines.
    Plan,
    /// Batched serving of a generated traffic trace, one window at a time.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// What the timed phase drives.
    pub kind: Kind,
    /// BSBM generator shape; the seed comes from `--seed`.
    pub bsbm: BsbmConfig,
}

/// All workloads. Why each exists is written down in `README.md`.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "analytic-1m",
            kind: Kind::Analytic,
            // 10x `BsbmConfig::large()`: ~1.03M triples, ~122 MB of N-Triples.
            bsbm: BsbmConfig {
                products: 80_000,
                vendors: 1_200,
                features: 800,
                ..BsbmConfig::large()
            },
        },
        Workload {
            name: "plan-100k",
            kind: Kind::Plan,
            bsbm: BsbmConfig::large(),
        },
        Workload {
            name: "serve-100k",
            kind: Kind::Serve,
            // The scale of `plan-100k`, where the 8 MiB scan cache holds the
            // working set. At 2.5x this scale it does not, and per-window
            // latency splits into all-hit (~25 ms) and missing (130-300 ms)
            // windows whose mix, and so the median, flips with the seed.
            bsbm: BsbmConfig::large(),
        },
    ]
}

/// The generated input file.
pub struct Input {
    /// Where the N-Triples text is.
    pub path: PathBuf,
    /// Triples generated.
    pub triples: usize,
    /// Size of the N-Triples text.
    pub bytes: u64,
    /// Wall seconds `generate_bsbm` took (load-generator work, not set-up).
    pub generate_s: f64,
}

/// Generate the workload's graph from `seed` and write it to `dir` as
/// N-Triples, one triple at a time so the text is never held whole.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Input, String> {
    let t = Instant::now();
    let graph = generate_bsbm(&BsbmConfig { seed, ..w.bsbm });
    let generate_s = t.elapsed().as_secs_f64();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}.nt", w.name));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::with_capacity(1 << 20, file);
    for t in &graph.triples {
        writeln!(out, "{}", t.decode(&graph.dict))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    drop(out);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    Ok(Input {
        path,
        triples: graph.len(),
        bytes,
        generate_s,
    })
}

/// Wall seconds of each `rdf` step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub read_s: f64,
    pub parse_s: f64,
    pub graph_build_s: f64,
}

/// Read, parse and load `input` exactly as `rapida run --data` does. The
/// graph is returned with the catalog because the CLI keeps it alive.
pub fn load(input: &Input) -> Result<(Graph, DataCatalog), String> {
    let graph = read_graph(input, &mut SetupSpans::default())?;
    let cat = DataCatalog::load(&graph);
    Ok((graph, cat))
}

/// The `rdf` half of set-up: read the file, parse it, build the graph.
pub fn read_graph(input: &Input, spans: &mut SetupSpans) -> Result<Graph, String> {
    let t = Instant::now();
    let text = std::fs::read_to_string(&input.path)
        .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
    spans.read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let triples = parse_ntriples(&text).map_err(|e| e.to_string())?;
    spans.parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut graph = Graph::new();
    graph.insert_term_triples(&triples);
    spans.graph_build_s = t.elapsed().as_secs_f64();
    if graph.len() != input.triples {
        return Err(format!(
            "parsed {} triples, generated {}",
            graph.len(),
            input.triples
        ));
    }
    Ok(graph)
}
