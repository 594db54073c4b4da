//! Wall-clock end-to-end benchmark of RAPIDA.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload analytic-1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one load-generating thread, driving the program only
//! through its public library calls. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it makes a separate traced run and
//! reports the per-layer metrics. The last line of standard output is the
//! result object; the line before it is a report with provenance and the
//! deterministic counts. Workloads, metrics and the layer map are in
//! `README.md`.

mod data;
mod queries;
mod report;
mod serving;
mod trace;

use data::{Kind, Workload};
use queries::Outcome;
use rapida_mapred::Engine;
use report::{median, num, object, quote, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per end-to-end run: at least `SETUP_REPS`, and more until
/// `SETUP_SECONDS` of set-up have gone by, so that the 100K workloads'
/// sub-second set-up is sampled about ten times. `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;
/// Workers of the serving engine and of the enumerator's dry runs: both
/// are pinned by the program regardless of the host.
const PINNED_WORKERS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    data::workloads()
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where generated inputs are written: inside the build directory, which
/// the repository ignores.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("e2ebench/target"));
    target.join("e2ebench-data")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                data::workloads().iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let jiffies = report::cpu_jiffies();
    let dir = work_dir();
    let input = match data::generate(&w, args.seed, &dir) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{}: seed {}, {} triples, {:.1} MB of N-Triples, generated in {:.2} s",
        w.name,
        args.seed,
        input.triples,
        input.bytes as f64 / 1e6,
        input.generate_s
    );
    let result = if args.trace {
        traced(&w, &args, &input)
    } else {
        end_to_end(&w, &args, &input)
    };
    let _ = std::fs::remove_file(&input.path);
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &run.errors {
        eprintln!("failure: {e}");
    }

    // Share of host CPU time stolen by other guests during the run: a
    // run that reads slow beside a high share met a busy host.
    let steal_share = match (jiffies, report::cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) => {
            report::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let provenance = object(&[
        ("workload", quote(w.name)),
        ("seed", num(args.seed as f64)),
        ("trace", quote(if args.trace { "1" } else { "0" })),
        ("nproc", num(nproc as f64)),
        ("triples", num(input.triples as f64)),
        ("ntriples_bytes", num(input.bytes as f64)),
        ("engine_workers", num(nproc as f64)),
        ("serve_workers", num(PINNED_WORKERS as f64)),
        ("enumerator_workers", num(PINNED_WORKERS as f64)),
        ("setup_reps", num(run.setup_reps as f64)),
        ("samples", num(run.samples as f64)),
        ("passes", num(run.passes as f64)),
        ("run_peak_rss_mb", num(report::peak_rss_mb())),
        ("host_steal_share", num(steal_share)),
    ]);
    println!(
        "{}",
        object(&[
            ("report", provenance),
            ("deterministic", run.deterministic.to_json()),
        ])
    );
    println!(
        "{}",
        object(&[
            ("correct", (run.failed == 0).to_string()),
            ("attempted", num(run.attempted.max(1) as f64)),
            ("failed", num(run.failed as f64)),
            ("metrics", run.metrics.to_json()),
        ])
    );
    ExitCode::SUCCESS
}

/// The end-to-end run: the timed set-ups, the untimed oracle
/// results, then the timed phase.
fn end_to_end(w: &Workload, args: &Args, input: &data::Input) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(ready.take()); // free the previous catalog before building the next
        let t = Instant::now();
        let (graph, cat) = data::load(input)?;
        let server = (w.kind == Kind::Serve)
            .then(|| rapida_serve::Server::over(cat.clone(), rapida_serve::ServeConfig::default()));
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((graph, cat, server));
    }
    let (_graph, cat, _server) = ready.expect("at least one set-up ran");
    // Peak memory of ingest. The peak of the whole run is reported beside
    // it but is not an end-to-end metric: on plan-100k it moves by a fifth
    // between runs with the allocator arenas of the dry-run workers.
    let setup_peak_rss_mb = report::peak_rss_mb();
    eprintln!("set-up: {setup_s:.3?} s, peak rss {setup_peak_rss_mb:.1} MB");

    let mr = Engine::new(cat.dfs.clone());
    let out = match w.kind {
        Kind::Analytic => queries::timed_passes(&cat, &mr, false, None, args.seconds),
        Kind::Plan => {
            let reference = queries::fixed_reference(&cat, &mr)?;
            queries::timed_passes(&cat, &mr, true, Some(&reference), args.seconds)
        }
        Kind::Serve => {
            let reference = serving::solo_reference(&cat, &mr)?;
            let checker = serving::Checker {
                cat: &cat,
                reference: &reference,
            };
            serving::timed_replays(&cat, &serving::windows(args.seed), &checker, args.seconds)
        }
    };
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s), "s");
    for (name, value, unit) in &out.metrics.0 {
        metrics.set(name, *value, unit);
    }
    metrics.set(
        "model_s",
        out.deterministic.get("model_s").unwrap_or(0.0),
        "sim_s",
    );
    metrics.set("setup_peak_rss_mb", setup_peak_rss_mb, "MB");
    Ok(Outcome {
        metrics,
        setup_reps: setup_s.len(),
        ..out
    })
}

/// The traced run: one traced set-up, then traced passes (or replays),
/// each checked against an untraced one, until `--seconds` have gone by.
/// Each timing is the median over passes; counts repeat on every pass.
fn traced(w: &Workload, args: &Args, input: &data::Input) -> Result<Outcome, String> {
    let mut setup = trace::blank();
    let (_graph, cat) = trace::traced_setup(input, &mut setup)?;
    let mr = Engine::new(cat.dfs.clone());
    let reference = match w.kind {
        Kind::Serve => serving::solo_reference(&cat, &mr)?,
        _ => Vec::new(),
    };
    let checker = serving::Checker {
        cat: &cat,
        reference: &reference,
    };
    let windows = match w.kind {
        Kind::Serve => serving::windows(args.seed),
        _ => Vec::new(),
    };
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let mut passes: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut m = setup.clone();
        let flip = passes.len() % 2 == 1;
        let (a, f, e) = match w.kind {
            Kind::Analytic => trace::traced_pass(&cat, &mr, false, flip, &mut m),
            Kind::Plan => trace::traced_pass(&cat, &mr, true, flip, &mut m),
            Kind::Serve => trace::traced_replay(&cat, &windows, &checker, &mut m),
        };
        attempted += a;
        failed += f;
        errors.extend(e);
        passes.push(m);
    }
    errors.truncate(8);
    let mut metrics = Metrics::default();
    let mut deterministic = Metrics::default();
    for (name, _, unit) in &setup.0 {
        let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name)).collect();
        metrics.set(name, median(&values), unit);
        // Steals depend on thread scheduling; every other count repeats.
        if *unit == "count" && name != "mapred.steals" {
            if values.iter().any(|v| *v != values[0]) {
                failed += 1;
                errors.push(format!("{name} differs between traced passes"));
            }
            deterministic.set(name, values[0], unit);
        }
    }
    Ok(Outcome {
        metrics,
        setup_reps: 1,
        deterministic,
        attempted,
        failed,
        samples: attempted as usize,
        passes: passes.len(),
        errors,
    })
}
