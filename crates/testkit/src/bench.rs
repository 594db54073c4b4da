//! A micro-benchmark harness with a criterion-compatible surface.
//!
//! Each benchmark warms up for `warm_up_time`, then takes `sample_size`
//! timed samples (auto-batching very fast bodies so a sample is long enough
//! to measure), and reports median / min / mean. On [`BenchmarkGroup::finish`]
//! the group's results are written as JSON to `BENCH_<group>.json` so runs
//! can be diffed and regression-checked without any plotting machinery.
//!
//! Environment knobs:
//!
//! * `RAPIDA_BENCH_SMOKE=1` — one sample, one iteration, no warmup: a
//!   compile-and-run smoke pass for CI (used by `scripts/verify.sh`).
//! * `RAPIDA_BENCH_DIR` — directory for the JSON reports (default: the
//!   current working directory).

use std::time::{Duration, Instant};

/// Is the harness in smoke mode (single iteration, no warmup)?
pub fn smoke_mode() -> bool {
    std::env::var("RAPIDA_BENCH_SMOKE").map_or(false, |v| v == "1" || v == "true")
}

/// The top-level harness handle, passed to every bench function.
#[derive(Default)]
pub struct Criterion {
    groups_run: usize,
    benches_run: usize,
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
            results: Vec::new(),
        }
    }

    /// Print the run summary. Called by `criterion_main!` after all groups.
    pub fn final_report(&self) {
        println!(
            "\nbench harness: {} benchmark(s) in {} group(s){}",
            self.benches_run,
            self.groups_run,
            if smoke_mode() { " [smoke mode]" } else { "" }
        );
    }
}

/// A benchmark identifier: `function/parameter`, like criterion's.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combine a function name and a parameter into one id.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

#[derive(Debug, Clone)]
struct BenchResult {
    id: String,
    samples_ns: Vec<f64>,
    median_ns: f64,
    min_ns: f64,
    mean_ns: f64,
    iters_per_sample: u64,
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    results: Vec<BenchResult>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warmup duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total target measurement duration, split across samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = self.make_bencher();
        f(&mut bencher);
        self.record(id, bencher);
        self
    }

    /// Run one benchmark with a borrowed input (criterion's shape).
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = self.make_bencher();
        f(&mut bencher, input);
        self.record(id, bencher);
        self
    }

    fn make_bencher(&self) -> Bencher {
        let smoke = smoke_mode();
        Bencher {
            sample_size: if smoke { 1 } else { self.sample_size },
            warm_up_time: if smoke { Duration::ZERO } else { self.warm_up_time },
            measurement_time: self.measurement_time,
            smoke,
            samples_ns: Vec::new(),
            iters_per_sample: 1,
        }
    }

    fn record(&mut self, id: BenchmarkId, bencher: Bencher) {
        let mut samples = bencher.samples_ns;
        if samples.is_empty() {
            // The bench closure never called iter(); record a zero so the
            // report shows the hole instead of silently dropping the id.
            samples.push(0.0);
        }
        self.record_samples(id, samples, bencher.iters_per_sample);
    }

    fn record_samples(&mut self, id: BenchmarkId, mut samples: Vec<f64>, iters_per_sample: u64) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "{:<40} median {:>12}  min {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.name, id.id),
            fmt_ns(median),
            fmt_ns(min),
            samples.len(),
            iters_per_sample,
        );
        self.results.push(BenchResult {
            id: id.id,
            samples_ns: samples,
            median_ns: median,
            min_ns: min,
            mean_ns: mean,
            iters_per_sample,
        });
        self.criterion.benches_run += 1;
    }

    /// Finish the group: write `BENCH_<group>.json`.
    pub fn finish(self) {
        let dir = std::env::var("RAPIDA_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let sanitized: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
            .collect();
        let path = format!("{dir}/BENCH_{sanitized}.json");
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&format!("  \"group\": {},\n", json_str(&self.name)));
        json.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
        json.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            json.push_str("    {");
            json.push_str(&format!("\"id\": {}, ", json_str(&r.id)));
            json.push_str(&format!("\"median_ns\": {}, ", json_num(r.median_ns)));
            json.push_str(&format!("\"min_ns\": {}, ", json_num(r.min_ns)));
            json.push_str(&format!("\"mean_ns\": {}, ", json_num(r.mean_ns)));
            json.push_str(&format!("\"iters_per_sample\": {}, ", r.iters_per_sample));
            json.push_str(&format!(
                "\"samples_ns\": [{}]",
                r.samples_ns
                    .iter()
                    .map(|s| json_num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            json.push_str(if i + 1 == self.results.len() { "}\n" } else { "},\n" });
        }
        json.push_str("  ]\n}\n");
        let _ = std::fs::create_dir_all(&dir);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        }
        self.criterion.groups_run += 1;
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The per-benchmark timing driver handed to bench closures.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    smoke: bool,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Time `f`: warm up, pick a batch size targeting
    /// `measurement_time / sample_size` per sample, then record samples of
    /// mean per-iteration nanoseconds.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples_ns = vec![start.elapsed().as_nanos() as f64];
            self.iters_per_sample = 1;
            return;
        }

        // Warmup, measuring per-call cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_call_ns =
            (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        let target_sample_ns =
            self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let batch = (target_sample_ns / per_call_ns).clamp(1.0, 1e7) as u64;
        self.iters_per_sample = batch;

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.samples_ns = samples;
    }

    /// Time `f` with a caller-measured clock — criterion's `iter_custom`
    /// shape. `f` receives an iteration count and returns the total
    /// [`Duration`] those iterations took by whatever clock the caller
    /// trusts (e.g. a busy-time makespan rather than wall time, on machines
    /// where wall-clock parallel speedup is meaningless). Samples record
    /// mean per-iteration nanoseconds, exactly like [`Self::iter`].
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        if self.smoke {
            self.samples_ns = vec![f(1).as_nanos() as f64];
            self.iters_per_sample = 1;
            return;
        }

        // Warmup, measuring per-call cost by wall clock to pick a batch
        // that fills the per-sample time budget.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            std::hint::black_box(f(1));
            warm_iters += 1;
        }
        let per_call_ns =
            (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        let target_sample_ns =
            self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let batch = (target_sample_ns / per_call_ns).clamp(1.0, 1e7) as u64;
        self.iters_per_sample = batch;

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let total = f(batch);
            samples.push(total.as_nanos() as f64 / batch as f64);
        }
        self.samples_ns = samples;
    }
}

/// Bundle bench functions into a group runner — criterion's macro shape.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Entry point for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $( $group(&mut c); )+
            c.final_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("testgroup_smoketest");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(g.results.len(), 1);
        assert!(!g.results[0].samples_ns.is_empty());
        assert!(g.results[0].min_ns <= g.results[0].median_ns);
        // Don't write a JSON file from unit tests: drop without finish().
    }

    #[test]
    fn iter_custom_uses_the_callers_clock() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("testgroup_custom");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        g.bench_function("fixed", |b| {
            // Report exactly 1 µs per iteration regardless of wall time.
            b.iter_custom(|iters| Duration::from_micros(iters))
        });
        assert_eq!(g.results.len(), 1);
        for &s in &g.results[0].samples_ns {
            assert!((s - 1000.0).abs() < 1.0, "sample {s} should be ~1000 ns");
        }
        // Don't write a JSON file from unit tests: drop without finish().
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
