//! The `serve-100k` workload: a generated traffic trace replayed through
//! `Server` one batching window at a time, as fast as the host allows.
//! Each window is enqueued and drained before the next one is sent, so
//! this is a closed loop at window granularity.

use crate::queries::{agreement, run_query, Agreement, QUERY_IDS};
use crate::report::{median, ms, percentile, ratio, Metrics};
use rapida_core::engines::HiveMqo;
use rapida_core::DataCatalog;
use rapida_datagen::{generate_traffic, TrafficConfig, TrafficEvent};
use rapida_mapred::{Engine, ScanCacheStats};
use rapida_serve::{RequestStatus, ServeConfig, ServeReport, Server};
use rapida_sparql::Relation;
use std::time::{Duration, Instant};

/// Clients in the traffic trace.
pub const CLIENTS: usize = 30;
/// Span of arrivals in the trace, ms.
pub const DURATION_MS: u64 = 10_000;

/// The trace for `seed`, cut into batching windows in arrival order.
pub fn windows(seed: u64) -> Vec<Vec<TrafficEvent>> {
    let window_ms = ServeConfig::default().window_ms.max(1);
    let mut out: Vec<Vec<TrafficEvent>> = Vec::new();
    let mut current = u64::MAX;
    for ev in generate_traffic(&TrafficConfig::bsbm_mix(seed, CLIENTS, DURATION_MS)) {
        let w = ev.at_ms / window_ms;
        if w != current {
            out.push(Vec::new());
            current = w;
        }
        out.last_mut().expect("a window was just pushed").push(ev);
    }
    out
}

/// Canonical solo results per query id with the fixed Hive-MQO plan: the
/// oracle every served response is held to.
pub fn solo_reference(
    cat: &DataCatalog,
    mr: &Engine,
) -> Result<Vec<(String, Vec<String>)>, String> {
    let engine = HiveMqo::default();
    QUERY_IDS
        .iter()
        .map(|id| {
            let (rel, _) = run_query(&engine, &crate::queries::sparql(id), cat, mr)
                .map_err(|e| format!("{id}: {e}"))?;
            Ok((id.to_string(), rel.canonicalized(&cat.dict)))
        })
        .collect()
}

/// Checks served responses against the solo results. Members of one query
/// id in one window share a run, so an identical relation is checked once.
pub struct Checker<'a> {
    pub cat: &'a DataCatalog,
    pub reference: &'a [(String, Vec<String>)],
}

impl Checker<'_> {
    /// How `rel` compares with the solo result of `query_id`.
    pub fn matches(&self, query_id: &str, rel: &Relation) -> Agreement {
        self.reference
            .iter()
            .find(|(id, _)| id == query_id)
            .map_or(Agreement::Differ, |(_, want)| {
                agreement(want, &rel.canonicalized(&self.cat.dict))
            })
    }

    /// Checks one drained window: failed responses, distinct responses
    /// that matched only within float noise, and the first failure.
    pub fn check(&self, report: &ServeReport) -> (u64, u64, Option<String>) {
        let mut failed = 0u64;
        let mut noise = 0u64;
        let mut first = None;
        let mut verified: Vec<(&str, &Relation)> = Vec::new();
        for o in &report.outcomes {
            let why = match &o.status {
                RequestStatus::Rejected { reason } => Some(format!("rejected: {reason}")),
                RequestStatus::Completed { relation } => {
                    let seen = verified
                        .iter()
                        .any(|(id, r)| *id == o.query_id && *r == relation);
                    if seen {
                        None
                    } else {
                        match self.matches(&o.query_id, relation) {
                            Agreement::Differ => Some("result differs from the solo run".into()),
                            agreed => {
                                noise += u64::from(agreed == Agreement::FloatNoise);
                                verified.push((&o.query_id, relation));
                                None
                            }
                        }
                    }
                }
            };
            if let Some(why) = why {
                failed += 1;
                first.get_or_insert(format!("{}#{}: {why}", o.query_id, o.client));
            }
        }
        (failed, noise, first)
    }
}

/// What one replay of the trace measured.
pub struct Replay {
    /// Wall time of each window (enqueue plus drain).
    pub window: Vec<Duration>,
    /// Arrivals per window.
    pub arrivals: Vec<usize>,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Responses that matched the solo result only within float noise.
    pub float_noise: u64,
    /// Simulated cluster seconds the server charged, over the replay.
    pub model_s: f64,
    /// The server's scan-cache counters after the last window.
    pub cache: ScanCacheStats,
    /// Each window's drained report, kept only when asked for.
    pub reports: Vec<ServeReport>,
}

/// Replay every window through a fresh server (cold scan cache).
pub fn replay(
    cat: &DataCatalog,
    windows: &[Vec<TrafficEvent>],
    checker: &Checker,
    keep_reports: bool,
) -> Replay {
    let config = ServeConfig::default();
    let window_ms = config.window_ms.max(1);
    let server = Server::over(cat.clone(), config);
    let mut r = Replay {
        window: Vec::with_capacity(windows.len()),
        arrivals: Vec::with_capacity(windows.len()),
        failed: 0,
        errors: Vec::new(),
        float_noise: 0,
        model_s: 0.0,
        cache: ScanCacheStats::default(),
        reports: Vec::new(),
    };
    for events in windows {
        let t = Instant::now();
        server.enqueue_traffic(events);
        let report = server.drain();
        r.window.push(t.elapsed());
        r.arrivals.push(events.len());
        // Each drain's simulated clock starts when its window closes.
        let close_ms = ((events[0].at_ms / window_ms) + 1) * window_ms;
        r.model_s += (report.ledger.makespan_ms - close_ms as f64).max(0.0) / 1e3;
        let (failed, noise, why) = checker.check(&report);
        r.failed += failed;
        r.float_noise += noise;
        if let Some(why) = why {
            if r.errors.len() < 8 {
                r.errors.push(why);
            }
        }
        if keep_reports {
            r.reports.push(report);
        }
    }
    r.cache = server.cache_stats();
    r
}

/// Replay whole traces until `seconds` of wall time have gone by (at least
/// one). The model seconds, cache counters and float-noise matches of
/// every replay must be equal.
pub fn timed_replays(
    cat: &DataCatalog,
    windows: &[Vec<TrafficEvent>],
    checker: &Checker,
    seconds: f64,
) -> crate::queries::Outcome {
    let mut req_ms = Vec::new();
    let mut replay_qps = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut first: Option<(f64, ScanCacheStats, u64)> = None;
    let mut passes = 0usize;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let r = replay(cat, windows, checker, false);
        let busy: Duration = r.window.iter().sum();
        let arrivals: usize = r.arrivals.iter().sum();
        let done = (arrivals as u64).saturating_sub(r.failed);
        replay_qps.push(ratio(done as f64, busy.as_secs_f64()));
        eprintln!("replay {passes}: {arrivals} requests in {busy:.2?}");
        for (dt, n) in r.window.iter().zip(&r.arrivals) {
            attempted += *n as u64;
            // Every request of a window is sent at its start and answered
            // when the drain returns.
            req_ms.extend(std::iter::repeat_n(ms(*dt), *n));
        }
        failed += r.failed;
        errors.extend(r.errors);
        let det = (r.model_s, r.cache, r.float_noise);
        match &first {
            None => first = Some(det),
            Some(f) if *f != det => {
                failed += 1;
                errors.push(format!("nondeterministic replay: {f:?} vs {det:?}"));
            }
            Some(_) => {}
        }
        passes += 1;
    }
    errors.truncate(8);
    let mut metrics = Metrics::default();
    metrics.set("qps", median(&replay_qps), "1/s");
    metrics.set("query_p50_ms", median(&req_ms), "ms");
    metrics.set("query_p90_ms", percentile(&req_ms, 0.9), "ms");
    let mut det = Metrics::default();
    let (model_s, cache, noise) = first.unwrap_or_default();
    det.set("model_s", model_s, "sim_s");
    det.set("cache_hits", cache.hits as f64, "count");
    det.set("cache_misses", cache.misses as f64, "count");
    det.set("cache_evictions", cache.evictions as f64, "count");
    det.set("float_noise", noise as f64, "count");
    det.set(
        "requests",
        windows.iter().map(|w| w.len() as f64).sum(),
        "count",
    );
    det.set("windows", windows.len() as f64, "count");
    crate::queries::Outcome {
        metrics,
        deterministic: det,
        attempted,
        failed,
        samples: req_ms.len(),
        passes,
        setup_reps: 0,
        errors,
    }
}
