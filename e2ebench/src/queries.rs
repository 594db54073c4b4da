//! The query workloads (`analytic-1m`, `plan-100k`): closed-loop passes
//! over MG1-MG4, G1 and G2 with RAPIDAnalytics and Hive-MQO, one query at
//! a time from one thread.

use crate::report::{median, ms, percentile, ratio, Metrics};
use rapida_core::engines::{HiveMqo, RapidAnalytics};
use rapida_core::{extract, DataCatalog, QueryEngine};
use rapida_mapred::{ClusterModel, Engine, WorkflowMetrics};
use rapida_sparql::{parse_query, Relation};
use std::time::{Duration, Instant};

/// The query list of one pass.
pub const QUERY_IDS: [&str; 6] = ["MG1", "MG2", "MG3", "MG4", "G1", "G2"];

/// Queries a run makes at least, so that ten samples lie beyond p90.
const MIN_SAMPLES: u64 = 100;

/// The two engines, in pass order. `cost_based` switches on the plan
/// enumerator (`cost_model: Some(nodes10)`) on both.
pub fn engines(cost_based: bool) -> Vec<Box<dyn QueryEngine>> {
    let model = cost_based.then(ClusterModel::nodes10);
    vec![
        Box::new(RapidAnalytics {
            cost_model: model,
            ..RapidAnalytics::default()
        }),
        Box::new(HiveMqo {
            cost_model: model,
            ..HiveMqo::default()
        }),
    ]
}

/// The catalog SPARQL of a query id.
pub fn sparql(id: &str) -> String {
    rapida_datagen::query(id).sparql
}

/// One query end to end, the way `rapida run` does it: parse, extract,
/// plan, execute (which assembles the result), then drop the plan's
/// datasets so the DFS does not grow across passes.
pub fn run_query(
    engine: &dyn QueryEngine,
    text: &str,
    cat: &DataCatalog,
    mr: &Engine,
) -> Result<(Relation, WorkflowMetrics), String> {
    let q = parse_query(text).map_err(|e| format!("parse error: {e}"))?;
    let aq = extract(&q).map_err(|e| format!("not an analytical query: {e}"))?;
    let plan = engine
        .plan(&aq, cat)
        .map_err(|e| format!("planning failed: {e}"))?;
    let out = plan
        .try_execute(mr, &aq, &cat.dict)
        .map_err(|e| format!("execution failed: {e}"));
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    out
}

/// How two canonical results (`Relation::canonicalized`) of one query
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Identical rows.
    Equal,
    /// Identical except for numeric cells that differ by f64 summation
    /// order only. Two plans that add the same doubles in another order
    /// can round apart at the sixth decimal `canonicalized` prints: at 1M
    /// triples MG1's total sum reads 140037546.180000 on RAPIDAnalytics
    /// and 140037546.179999 on Hive-MQO.
    FloatNoise,
    /// Anything else: a failure.
    Differ,
}

/// Do two numeric cells (`n:<value>`) differ by rounding noise only?
fn float_noise(a: &str, b: &str) -> bool {
    let num = |s: &str| s.strip_prefix("n:").and_then(|v| v.parse::<f64>().ok());
    match (num(a), num(b)) {
        // A relative 1e-12 of the magnitude (far above the rounding error
        // of summing ~1e5 doubles, far below a changed input value), and
        // at least the printed precision (1e-6) plus one rounding step.
        (Some(x), Some(y)) => (x - y).abs() <= (1e-12 * x.abs().max(y.abs())).max(1.5e-6),
        _ => false,
    }
}

/// Compare two canonical results row by row and cell by cell.
pub fn agreement(a: &[String], b: &[String]) -> Agreement {
    if a == b {
        return Agreement::Equal;
    }
    let same_row = |ra: &String, rb: &String| {
        let (ca, cb): (Vec<&str>, Vec<&str>) = (ra.split('|').collect(), rb.split('|').collect());
        ca.len() == cb.len()
            && ca.iter().zip(&cb).all(|(x, y)| {
                x == y
                    || matches!((x.split_once('='), y.split_once('=')),
                        (Some((vx, x)), Some((vy, y))) if vx == vy && float_noise(x, y))
            })
    };
    if a.len() == b.len() && a.iter().zip(b).all(|(ra, rb)| same_row(ra, rb)) {
        Agreement::FloatNoise
    } else {
        Agreement::Differ
    }
}

/// The deterministic outcome of one query: equal on every pass of a run
/// and on every run of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub rows: usize,
    pub cycles: usize,
    pub jobs: usize,
    pub model_s: f64,
    pub input_bytes: u64,
    pub shuffle_bytes: u64,
    pub output_bytes: u64,
}

impl Fingerprint {
    pub fn of(rel: &Relation, wf: &WorkflowMetrics) -> Self {
        Fingerprint {
            rows: rel.len(),
            cycles: wf.cycles(),
            jobs: wf.jobs.len(),
            model_s: ClusterModel::nodes10().workflow_time(wf),
            input_bytes: wf.total_input_bytes(),
            shuffle_bytes: wf.total_shuffle_bytes(),
            output_bytes: wf.total_output_bytes(),
        }
    }
}

/// What a run measured: the metrics it prints, the deterministic counts
/// of its report line, and its correctness tally.
pub struct Outcome {
    pub metrics: Metrics,
    pub deterministic: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    pub passes: usize,
    /// Timed set-ups behind `setup_s` (filled in by the caller).
    pub setup_reps: usize,
    pub errors: Vec<String>,
}

/// Canonical results of every (query, engine) pair with the fixed plans,
/// computed before the timed phase: the oracle the cost-based plans of
/// `plan-100k` are held to.
pub fn fixed_reference(cat: &DataCatalog, mr: &Engine) -> Result<Vec<Vec<String>>, String> {
    let fixed = engines(false);
    let mut refs = Vec::new();
    for id in QUERY_IDS {
        let text = sparql(id);
        for e in &fixed {
            let (rel, _) = run_query(e.as_ref(), &text, cat, mr)
                .map_err(|err| format!("{id}/{}: {err}", e.name()))?;
            refs.push(rel.canonicalized(&cat.dict));
        }
    }
    Ok(refs)
}

/// Run whole passes until `seconds` of wall time have gone by and at
/// least `MIN_SAMPLES` queries were made. Every pass checks RAPIDAnalytics
/// against Hive-MQO, each result against `reference` when given, and
/// every fingerprint against the first pass's.
pub fn timed_passes(
    cat: &DataCatalog,
    mr: &Engine,
    cost_based: bool,
    reference: Option<&[Vec<String>]>,
    seconds: f64,
) -> Outcome {
    let engines = engines(cost_based);
    let texts: Vec<String> = QUERY_IDS.iter().map(|id| sparql(id)).collect();
    let mut lat_ms = Vec::new();
    let mut pass_qps = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut first: Vec<Option<Fingerprint>> = Vec::new();
    // Comparisons of the first pass that agreed only within float noise.
    let mut noise = 0u64;
    let mut passes = 0usize;
    let start = Instant::now();
    while attempted < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        let pass_start = lat_ms.len();
        let mut busy = Duration::ZERO;
        let mut slot = 0usize;
        for (qi, id) in QUERY_IDS.iter().enumerate() {
            let mut canon: Vec<Option<Vec<String>>> = Vec::new();
            for e in &engines {
                attempted += 1;
                let t = Instant::now();
                let out = run_query(e.as_ref(), &texts[qi], cat, mr);
                let dt = t.elapsed();
                busy += dt;
                let mut fail = |why: String| {
                    failed += 1;
                    if errors.len() < 8 {
                        errors.push(format!("pass {passes} {id}/{}: {why}", e.name()));
                    }
                };
                match out {
                    Ok((rel, wf)) => {
                        lat_ms.push(ms(dt));
                        let fp = Fingerprint::of(&rel, &wf);
                        let c = rel.canonicalized(&cat.dict);
                        if passes == 0 {
                            first.push(Some(fp));
                        } else if first[slot].as_ref() != Some(&fp) {
                            fail(format!("nondeterministic: {fp:?} vs {:?}", first[slot]));
                        }
                        if let Some(r) = reference {
                            match agreement(&r[slot], &c) {
                                Agreement::Equal => {}
                                Agreement::FloatNoise => noise += u64::from(passes == 0),
                                Agreement::Differ => {
                                    fail("result differs from the fixed plan's".into())
                                }
                            }
                        }
                        canon.push(Some(c));
                    }
                    Err(err) => {
                        if passes == 0 {
                            first.push(None);
                        }
                        fail(err);
                        canon.push(None);
                    }
                }
                slot += 1;
            }
            if let [Some(a), Some(b)] = canon.as_slice() {
                match agreement(a, b) {
                    Agreement::Equal => {}
                    Agreement::FloatNoise => noise += u64::from(passes == 0),
                    Agreement::Differ => {
                        failed += 1;
                        if errors.len() < 8 {
                            errors.push(format!(
                                "pass {passes} {id}: RAPIDAnalytics and Hive-MQO differ"
                            ));
                        }
                    }
                }
            }
        }
        let done = (lat_ms.len() - pass_start) as f64;
        pass_qps.push(ratio(done, busy.as_secs_f64()));
        eprintln!(
            "pass {passes}: {:.0?} ms",
            lat_ms[pass_start..]
                .iter()
                .map(|v| v.round())
                .collect::<Vec<_>>()
        );
        passes += 1;
    }

    let mut metrics = Metrics::default();
    metrics.set("qps", median(&pass_qps), "1/s");
    metrics.set("query_p50_ms", median(&lat_ms), "ms");
    metrics.set("query_p90_ms", percentile(&lat_ms, 0.9), "ms");

    let mut det = Metrics::default();
    let fps: Vec<&Fingerprint> = first.iter().flatten().collect();
    det.set("model_s", fps.iter().map(|f| f.model_s).sum(), "sim_s");
    det.set("cycles", fps.iter().map(|f| f.cycles as f64).sum(), "count");
    det.set("jobs", fps.iter().map(|f| f.jobs as f64).sum(), "count");
    det.set("rows", fps.iter().map(|f| f.rows as f64).sum(), "count");
    det.set("float_noise", noise as f64, "count");
    det.set(
        "input_bytes",
        fps.iter().map(|f| f.input_bytes as f64).sum(),
        "B",
    );
    det.set(
        "shuffle_bytes",
        fps.iter().map(|f| f.shuffle_bytes as f64).sum(),
        "B",
    );
    det.set(
        "output_bytes",
        fps.iter().map(|f| f.output_bytes as f64).sum(),
        "B",
    );
    Outcome {
        metrics,
        deterministic: det,
        attempted,
        failed,
        samples: lat_ms.len(),
        passes,
        setup_reps: 0,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(r: &[&str]) -> Vec<String> {
        r.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn summation_order_noise_is_told_apart_from_a_wrong_result() {
        let ra = rows(&["f=t:<F1>|sum=n:140037546.180000", "f=t:<F2>|sum=n:2"]);
        let mqo = rows(&["f=t:<F1>|sum=n:140037546.179999", "f=t:<F2>|sum=n:2"]);
        assert_eq!(agreement(&ra, &ra), Agreement::Equal);
        assert_eq!(agreement(&ra, &mqo), Agreement::FloatNoise);
        let off = rows(&["f=t:<F1>|sum=n:140037546.190000", "f=t:<F2>|sum=n:2"]);
        assert_eq!(agreement(&ra, &off), Agreement::Differ);
        let renamed = rows(&["g=t:<F1>|sum=n:140037546.179999", "f=t:<F2>|sum=n:2"]);
        assert_eq!(agreement(&ra, &renamed), Agreement::Differ);
        assert_eq!(agreement(&ra, &ra[..1]), Agreement::Differ);
        let small = rows(&["x=n:12.345679"]);
        assert_eq!(
            agreement(&small, &rows(&["x=n:12.345678"])),
            Agreement::FloatNoise
        );
        assert_eq!(
            agreement(&small, &rows(&["x=n:12.345681"])),
            Agreement::Differ
        );
        assert_eq!(
            agreement(&small, &rows(&["x=t:<12.345678>"])),
            Agreement::Differ
        );
    }
}
