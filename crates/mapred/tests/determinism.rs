//! Execution determinism: rerunning the same job sequence over the same
//! input must reproduce every measured metric bit-for-bit (everything except
//! wall-clock), regardless of the worker thread count. The cost model's
//! simulated cluster times are derived from these counters, so any
//! scheduling-dependent wobble here would make every paper figure flaky.
//!
//! Also pins the shuffle partitioner contract: FNV-1a over the key bytes,
//! a pure function of (key, reducer count) that spreads distinct keys over
//! every reducer.

use rapida_mapred::engine::shuffle_partition;
use rapida_mapred::{
    DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory, InputSrc, JobBuilder,
    JobMetrics, MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs, WorkflowMetrics,
};
use rapida_testkit::rng::StdRng;
use std::sync::Arc;

/// Emits (word, 1) for every input record.
struct TokenMap;
impl MapTask for TokenMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(record, &1u32.to_le_bytes());
    }
}

/// Map-only pass that drops records shorter than 2 bytes.
struct FilterMap;
impl MapTask for FilterMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        if record.len() >= 2 {
            out.write(record);
        }
    }
}

/// Sums u32 values; writes `key \0 sum` as output or re-emits as combiner.
struct Sum {
    to_output: bool,
}
impl ReduceTask for Sum {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u32 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 4];
                b.copy_from_slice(v);
                u32::from_le_bytes(b)
            })
            .sum();
        if self.to_output {
            let mut rec = key.to_vec();
            rec.push(0);
            rec.extend_from_slice(&total.to_le_bytes());
            out.write(&rec);
        } else {
            out.emit(key, &total.to_le_bytes());
        }
    }
}

/// A seeded input dataset: ~400 words over a skewed alphabet.
fn seeded_input(dfs: &SimDfs, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = DatasetWriter::new(64);
    for _ in 0..400 {
        let len = rng.gen_range(1usize..=4);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..6)) as char)
            .collect();
        w.push(word.as_bytes());
    }
    dfs.put("in", w.finish());
}

/// The three-cycle workflow under test: map-only filter, combined word
/// count, then a re-aggregation over the counts.
fn workflow() -> Vec<rapida_mapred::Job> {
    vec![
        JobBuilder::new("filter")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| FilterMap)))
            .output("filtered")
            .build(),
        JobBuilder::new("wc")
            .input("filtered")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(5)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(3)
            .build(),
    ]
}

/// Every JobMetrics field except `wall`, for exact comparison.
fn signature(m: &JobMetrics) -> (String, bool, usize, usize, [u64; 8]) {
    (
        m.name.clone(),
        m.map_only,
        m.map_tasks,
        m.reduce_tasks,
        [
            m.input_bytes,
            m.input_records,
            m.map_output_records,
            m.map_output_bytes,
            m.shuffle_records,
            m.shuffle_bytes,
            m.output_records,
            m.output_bytes,
        ],
    )
}

fn run_with_workers(seed: u64, workers: usize) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    run_with_faults(seed, workers, None)
}

fn run_with_faults(
    seed: u64,
    workers: usize,
    faults: Option<FaultPlan>,
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    seeded_input(&dfs, seed);
    let mut engine = Engine::with_workers(dfs.clone(), workers);
    engine.faults = faults;
    let wf = engine
        .try_run_workflow(&workflow())
        .expect("workflow completes");
    let out: Vec<Vec<u8>> = dfs
        .get("out")
        .expect("workflow output")
        .iter_records()
        .map(|r| r.to_vec())
        .collect();
    (wf, out)
}

#[test]
fn rerun_reproduces_workflow_metrics_exactly() {
    let (a, out_a) = run_with_workers(7, 4);
    let (b, out_b) = run_with_workers(7, 4);
    assert_eq!(a.jobs.len(), b.jobs.len());
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(signature(ja), signature(jb), "job {} drifted across reruns", ja.name);
    }
    assert_eq!(out_a, out_b, "output records drifted across reruns");
    // Sanity: the workflow actually exercised all three cycle kinds.
    assert_eq!(a.cycles(), 3);
    assert_eq!(a.map_only_cycles(), 1);
    assert_eq!(a.full_cycles(), 2);
    assert!(a.total_shuffle_bytes() > 0);
}

#[test]
fn metrics_do_not_depend_on_worker_count() {
    let (one, out_one) = run_with_workers(11, 1);
    for workers in [2, 3, 8] {
        let (many, out_many) = run_with_workers(11, workers);
        for (ja, jb) in one.jobs.iter().zip(&many.jobs) {
            assert_eq!(
                signature(ja),
                signature(jb),
                "job {} differs between workers=1 and workers={workers}",
                ja.name
            );
        }
        assert_eq!(out_one, out_many, "output differs at workers={workers}");
    }
}

#[test]
fn outputs_bit_identical_across_workers_with_and_without_faults() {
    // The workers ∈ {1, 2, 8} grid, fault-free and under two fault plans:
    // every combination must reproduce the golden run's committed metrics
    // AND the exact output bytes (block layout included).
    let (golden_wf, golden_out) = run_with_workers(23, 1);
    let plans: [Option<FaultPlan>; 3] = [
        None,
        Some(FaultPlan::chaotic(0xDECAF)),
        Some(FaultPlan {
            lost_node: Some(1),
            ..FaultPlan::failures_only(99, 0.4)
        }),
    ];
    for plan in &plans {
        for workers in [1usize, 2, 8] {
            let (wf, out) = run_with_faults(23, workers, plan.clone());
            for (ja, jb) in golden_wf.jobs.iter().zip(&wf.jobs) {
                assert_eq!(
                    signature(ja),
                    signature(jb),
                    "job {} drifted at workers={workers}, faults={:?}",
                    ja.name,
                    plan.as_ref().map(|p| p.seed)
                );
            }
            assert_eq!(
                golden_out,
                out,
                "output bytes drifted at workers={workers}, faults={:?}",
                plan.as_ref().map(|p| p.seed)
            );
            // Faulted runs must actually have injected something.
            if plan.is_some() {
                assert!(
                    wf.total_retried_attempts() + wf.total_speculative_attempts() > 0,
                    "fault plan injected nothing"
                );
            } else {
                assert_eq!(wf.total_retried_attempts(), 0);
            }
        }
    }
}

#[test]
fn partitioner_covers_all_reducers_on_1k_distinct_keys() {
    let keys: Vec<Vec<u8>> = (0..1500u32)
        .map(|i| format!("key-{i:05}").into_bytes())
        .collect();
    for r in [2usize, 3, 5, 8, 16] {
        let mut hits = vec![0usize; r];
        for k in &keys {
            let p = shuffle_partition(k, r);
            assert!(p < r, "partition {p} out of range for R={r}");
            hits[p] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "empty reduce partition at R={r}: {hits:?}"
        );
    }
}

#[test]
fn partitioner_is_a_pure_function_of_key_and_reducer_count() {
    // Pinned values: the FNV-1a routing is part of the on-disk layout every
    // shuffle-byte baseline depends on. If these change, the shuffle changed.
    assert_eq!(shuffle_partition(b"", 7), shuffle_partition(b"", 7));
    assert_eq!(shuffle_partition(b"subject", 4), 3);
    assert_eq!(shuffle_partition(b"predicate", 4), 2);
    assert_eq!(shuffle_partition(b"object", 4), 2);
    // Degenerate R never panics and always routes to 0.
    assert_eq!(shuffle_partition(b"anything", 0), 0);
    assert_eq!(shuffle_partition(b"anything", 1), 0);
}
