//! Shuffle data-path microbench: the arena-backed sorted-run merge engine
//! over a 1M-record pure-shuffle workload.
//!
//! The job runs single-threaded end to end — dataset scan, map emit,
//! partition, sort/merge, grouped reduction, output block build — so the
//! timing isolates the data path, not parallelism. Results land in
//! `BENCH_mapred.json` (group `mapred`); `scripts/bench_report.sh mapred`
//! checks the median against the committed baseline's samples.

use rapida_mapred::{
    DatasetWriter, Engine, FnMapFactory, FnReduceFactory, InputSrc, Job, JobBuilder, MapOutput,
    MapTask, ReduceOutput, ReduceTask, SimDfs,
};
use rapida_testkit::bench::{smoke_mode, Criterion};
use rapida_testkit::rng::StdRng;
use rapida_testkit::{criterion_group, criterion_main};
use std::sync::Arc;
use std::time::Duration;

const KEY_LEN: usize = 16;
const VAL_LEN: usize = 8;

/// Records are pre-framed `key ++ value`; the mapper re-emits the two
/// halves — a pure shuffle workload with zero map-side compute.
struct SplitMap;
impl MapTask for SplitMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(&record[..KEY_LEN], &record[KEY_LEN..]);
    }
}

/// Sums little-endian u64 values per key and writes `key ++ sum`.
struct SumReduce;
impl ReduceTask for SumReduce {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u64 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 8];
                b.copy_from_slice(v);
                u64::from_le_bytes(b)
            })
            .sum();
        let mut rec = Vec::with_capacity(KEY_LEN + 8);
        rec.extend_from_slice(key);
        rec.extend_from_slice(&total.to_le_bytes());
        out.write(&rec);
    }
}

/// A seeded dataset of `n` records over a 64Ki key space (≈16 values per
/// key at 1M records), written at the engine's default split size.
fn dataset(n: usize) -> rapida_mapred::Dataset {
    let mut rng = StdRng::seed_from_u64(0x50FF1E);
    let mut w = DatasetWriter::new(256 * 1024);
    let mut rec = [0u8; KEY_LEN + VAL_LEN];
    for _ in 0..n {
        let key = rng.gen_range(0u64..65_536);
        rec[..KEY_LEN].copy_from_slice(format!("key-{key:012}").as_bytes());
        rec[KEY_LEN..].copy_from_slice(&rng.gen_range(0u64..1000).to_le_bytes());
        w.push(&rec);
    }
    w.finish()
}

fn job(reducers: usize) -> Job {
    JobBuilder::new("shuffle-bench")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| SplitMap)))
        .reducer(Arc::new(FnReduceFactory(|| SumReduce)))
        .output("out")
        .num_reducers(reducers)
        .build()
}

fn bench(c: &mut Criterion) {
    let (n, tag) = if smoke_mode() {
        (50_000, "50k")
    } else {
        (1_000_000, "1M")
    };
    let reducers = 4;
    let ds = dataset(n);

    let mut group = c.benchmark_group("mapred");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8));

    group.bench_function(format!("shuffle_arena_merge/{tag}"), |b| {
        b.iter(|| {
            let dfs = SimDfs::new();
            dfs.put("in", ds.clone()); // blocks are refcounted: cheap
            let engine = Engine::with_workers(dfs.clone(), 1);
            let m = engine.run_job(&job(reducers));
            std::hint::black_box(m.output_records)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
