//! Chaos suite for the MapReduce simulator itself: sweep fault seeds ×
//! worker counts over a three-cycle workflow and require (a) bit-identical
//! recovery and (b) an honest attempt ledger with correspondingly higher
//! simulated cost.
//!
//! Sweep width is tunable via `RAPIDA_CHAOS_SEEDS` (see
//! `rapida_testkit::chaos`); `scripts/verify.sh` runs this file as its
//! chaos smoke pass.

use rapida_mapred::{
    ClusterModel, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory, InputSrc,
    JobBuilder, KeyLocal, MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs, WorkflowMetrics,
};
use rapida_testkit::chaos;
use rapida_testkit::chaos::{ChaosConfig, Scenario};
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

/// Shuffle-heavy mapper: emits one pair per byte of the record (so every
/// map task produces several sorted runs with heavy key overlap) plus a
/// per-record length marker — exercises the loser-tree run merge with
/// many equal keys spread across every task.
struct FanoutMap;
impl MapTask for FanoutMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        for &b in record {
            out.emit(&[b], &1u32.to_le_bytes());
        }
        out.emit(&[b'L', record.len() as u8], &1u32.to_le_bytes());
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

/// The three-cycle workflow: map-only filter → combined word count →
/// re-aggregation (same shape as the determinism suite's).
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

/// Run the workflow under a scenario; returns full workflow metrics plus
/// the output dataset's exact block bytes.
fn run(scenario: &Scenario, plan_of: impl Fn(u64) -> FaultPlan) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut w = DatasetWriter::new(64);
    for _ in 0..400 {
        let len = rng.gen_range(1usize..=4);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..6)) as char)
            .collect();
        w.push(word.as_bytes());
    }
    dfs.put("in", w.finish());
    let mut engine = Engine::with_workers(dfs.clone(), scenario.workers);
    engine.faults = scenario.fault_seed.map(plan_of);
    let wf = engine
        .try_run_workflow(&workflow())
        .expect("workflow completes");
    let blocks: Vec<Vec<u8>> = dfs
        .get("out")
        .expect("workflow output")
        .blocks
        .iter()
        .map(|b| b.as_ref().to_vec())
        .collect();
    (wf, blocks)
}

/// The committed (data-flow) portion of the metrics: everything the cost
/// of a *fault-free* run depends on. Attempt counters are deliberately
/// excluded — they are supposed to differ across scenarios.
fn committed_signature(wf: &WorkflowMetrics) -> Vec<(String, bool, usize, usize, [u64; 8])> {
    wf.jobs
        .iter()
        .map(|m| {
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
        })
        .collect()
}

chaos! {
    /// Output blocks and committed metrics are identical across the whole
    /// seed × worker grid under the aggressive chaotic preset.
    fn workflow_survives_chaotic_faults(scenario) {
        let (wf, blocks) = run(scenario, FaultPlan::chaotic);
        (committed_signature(&wf), blocks)
    }

    /// Same, under pure failures at a high rate (no stragglers).
    fn workflow_survives_pure_failures(scenario) {
        let (wf, blocks) = run(scenario, |seed| FaultPlan::failures_only(seed, 0.5));
        (committed_signature(&wf), blocks)
    }

    /// Same, losing a whole node on top of background failures, with
    /// speculation disabled.
    fn workflow_survives_node_loss_without_speculation(scenario) {
        let (wf, blocks) = run(scenario, |seed| FaultPlan {
            lost_node: Some((seed % 8) as usize),
            speculation: false,
            straggler_p: 0.2,
            straggler_slowdown: 5.0,
            ..FaultPlan::failures_only(seed, 0.3)
        });
        (committed_signature(&wf), blocks)
    }

    /// Shard-parallel reduce merge under reduce-side chaos: a key-local
    /// reducer over a partition big enough to shard, with reduce attempts
    /// failing at a high rate — so doomed attempts (serial full-partition
    /// merges) and committed shard merges interleave on the pool. Recovery
    /// must be byte-identical to the fault-free golden at every worker
    /// count and seed.
    fn sharded_reduce_survives_mid_merge_faults(scenario) {
        let (wf, blocks) = run_sharded(scenario, |seed| FaultPlan {
            map_fail_p: 0.05,
            reduce_fail_p: 0.7,
            straggler_p: 0.3,
            straggler_slowdown: 5.0,
            speculation: true,
            ..FaultPlan::new(seed)
        });
        (committed_signature(&wf), blocks)
    }

    /// Read-path corruption only: DFS block reads and shuffle spill runs
    /// flip bits at a high rate, but with checksums on (the default) every
    /// corruption is detected and quarantined — the committed output must
    /// be bit-identical to the fault-free golden, with zero silent
    /// corruptions, at every seed and worker count.
    fn workflow_survives_read_corruption(scenario) {
        let (wf, blocks) = run(scenario, FaultPlan::corrupting);
        assert_eq!(
            wf.total_silent_corruptions(), 0,
            "[{}] corruption slipped past the checksum gate", scenario.label()
        );
        (committed_signature(&wf), blocks)
    }

    /// Sorted-run merge under map-side chaos only: a shuffle-heavy job
    /// (several emitted pairs per record, runs overlapping on every key)
    /// where map attempts fail or straggle but reduce tasks never do.
    /// Killed map attempts re-emit into fresh arenas; the committed runs —
    /// and therefore the merged reduce input — must be bit-identical to the
    /// fault-free golden.
    fn run_merge_survives_map_failures_and_stragglers(scenario) {
        let (wf, blocks) = run_fanout(scenario, |seed| FaultPlan {
            map_fail_p: 0.6,
            reduce_fail_p: 0.0,
            straggler_p: 0.4,
            straggler_slowdown: 6.0,
            speculation: true,
            ..FaultPlan::new(seed)
        });
        (committed_signature(&wf), blocks)
    }
}

/// Like [`run`], but over the shuffle-heavy [`FanoutMap`] workflow: a
/// combined fan-out count followed by a regrouping cycle, 7 then 2
/// reducers so partitions see many runs each.
fn run_fanout(
    scenario: &Scenario,
    plan_of: impl Fn(u64) -> FaultPlan,
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let mut w = DatasetWriter::new(48);
    for _ in 0..300 {
        let len = rng.gen_range(1usize..=5);
        let word: Vec<u8> = (0..len).map(|_| b'a' + rng.gen_range(0u8..4)).collect();
        w.push(&word);
    }
    dfs.put("in", w.finish());
    let jobs = vec![
        JobBuilder::new("fanout")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| FanoutMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(7)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(2)
            .build(),
    ];
    let mut engine = Engine::with_workers(dfs.clone(), scenario.workers);
    engine.faults = scenario.fault_seed.map(plan_of);
    let wf = engine.try_run_workflow(&jobs).expect("workflow completes");
    let blocks: Vec<Vec<u8>> = dfs
        .get("out")
        .expect("workflow output")
        .blocks
        .iter()
        .map(|b| b.as_ref().to_vec())
        .collect();
    (wf, blocks)
}

/// Bigram counter: emits a 2-byte key per adjacent byte pair — a wider key
/// space than [`FanoutMap`], so [`rapida_mapred::plan_shards`] has real cut
/// points to work with.
struct BigramMap;
impl MapTask for BigramMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        for w in record.windows(2) {
            out.emit(w, &1u32.to_le_bytes());
        }
    }
}

/// Like [`run`], but a single-cycle bigram count sized past the engine's
/// shard floor (≥ 4096 records per partition), with the reducer declared
/// key-local so committed merges genuinely shard.
fn run_sharded(
    scenario: &Scenario,
    plan_of: impl Fn(u64) -> FaultPlan,
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0xB16);
    let mut w = DatasetWriter::new(2048);
    for _ in 0..2500 {
        let len = rng.gen_range(4usize..=9);
        let word: Vec<u8> = (0..len).map(|_| b'a' + rng.gen_range(0u8..12)).collect();
        w.push(&word);
    }
    dfs.put("in", w.finish());
    let jobs = vec![JobBuilder::new("bigrams")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| BigramMap)))
        .reducer(Arc::new(KeyLocal(FnReduceFactory(|| Sum { to_output: true }))))
        .output("out")
        .num_reducers(2)
        .build()];
    let mut engine = Engine::with_workers(dfs.clone(), scenario.workers);
    engine.faults = scenario.fault_seed.map(plan_of);
    let wf = engine.try_run_workflow(&jobs).expect("workflow completes");
    let blocks: Vec<Vec<u8>> = dfs
        .get("out")
        .expect("workflow output")
        .blocks
        .iter()
        .map(|b| b.as_ref().to_vec())
        .collect();
    (wf, blocks)
}

/// Under reduce-side chaos the entire attempt ledger — including wasted
/// output bytes, which are *measured during execution* — must be identical
/// at every worker count, because doomed and superseded attempts always run
/// the serial full-partition merge regardless of how committed merges shard.
#[test]
fn sharded_reduce_ledger_is_worker_count_independent() {
    let cfg = ChaosConfig::from_env();
    let plan_of = |seed: u64| FaultPlan {
        reduce_fail_p: 0.7,
        straggler_p: 0.3,
        straggler_slowdown: 5.0,
        speculation: true,
        ..FaultPlan::new(seed)
    };
    for seed in &cfg.seeds {
        let ledgers: Vec<Vec<(u64, u64, u64, u64, u64, String)>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&workers| {
                let s = Scenario {
                    fault_seed: Some(*seed),
                    workers,
                };
                let (wf, _) = run_sharded(&s, plan_of);
                wf.jobs
                    .iter()
                    .map(|j| {
                        (
                            j.task_attempts(),
                            j.failed_attempts,
                            j.wasted_input_records,
                            j.wasted_output_bytes,
                            j.speculative_attempts,
                            format!("{:.6}", j.backoff_s),
                        )
                    })
                    .collect()
            })
            .collect();
        for l in &ledgers[1..] {
            assert_eq!(
                l, &ledgers[0],
                "seed {seed:#x}: fault ledger drifted with worker count"
            );
        }
        let extra: u64 = {
            let s = Scenario {
                fault_seed: Some(*seed),
                workers: 8,
            };
            let (wf, _) = run_sharded(&s, plan_of);
            assert_eq!(
                wf.jobs.iter().map(|j| j.extra_attempts()).sum::<u64>(),
                wf.total_retried_attempts() + wf.total_speculative_attempts(),
                "seed {seed:#x}: attempt ledger must balance"
            );
            wf.total_retried_attempts() + wf.total_speculative_attempts()
        };
        assert!(extra > 0, "seed {seed:#x}: reduce chaos injected nothing");
    }
}

/// The integrity ledger — corrupt blocks/spills detected, bytes re-read
/// from replicas, malformed records skipped — must be identical at every
/// worker count: block corruption is decided during the serial split
/// gather, spill corruption in a serial verify-on-commit pass, and record
/// skips only on committed attempts. The sweep as a whole must actually
/// detect something, and nothing may slip through silently.
#[test]
fn corruption_ledger_is_worker_count_independent_and_detects() {
    let cfg = ChaosConfig::from_env();
    for seed in &cfg.seeds {
        let ledgers: Vec<Vec<(u64, u64, u64, u64)>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&workers| {
                let s = Scenario {
                    fault_seed: Some(*seed),
                    workers,
                };
                let (wf, _) = run(&s, FaultPlan::corrupting);
                assert_eq!(
                    wf.total_silent_corruptions(),
                    0,
                    "seed {seed:#x}/{workers}w: silent corruption under checksums"
                );
                wf.jobs
                    .iter()
                    .map(|j| {
                        (
                            j.corrupt_blocks_detected,
                            j.corrupt_spills_detected,
                            j.integrity_reread_bytes,
                            j.corrupt_records_skipped,
                        )
                    })
                    .collect()
            })
            .collect();
        for l in &ledgers[1..] {
            assert_eq!(
                l, &ledgers[0],
                "seed {seed:#x}: integrity ledger drifted with worker count"
            );
        }
        let detected: u64 = ledgers[0]
            .iter()
            .map(|(blocks, spills, _, _)| blocks + spills)
            .sum();
        assert!(detected > 0, "seed {seed:#x}: corrupting plan injected nothing");
    }
}

/// Faulted runs must report the chaos they absorbed — retries and/or
/// speculative attempts — and the cost model must charge for it.
#[test]
fn faulted_runs_ledger_attempts_and_cost_more() {
    let model = ClusterModel::nodes10();
    let cfg = ChaosConfig::from_env();
    let clean = Scenario {
        fault_seed: None,
        workers: 4,
    };
    let (clean_wf, _) = run(&clean, FaultPlan::chaotic);
    assert_eq!(clean_wf.total_retried_attempts(), 0);
    assert_eq!(clean_wf.total_speculative_attempts(), 0);
    assert_eq!(
        clean_wf.total_task_attempts(),
        clean_wf
            .jobs
            .iter()
            .map(|j| (j.map_tasks + j.reduce_tasks) as u64)
            .sum::<u64>()
    );
    let clean_cost = model.workflow_time(&clean_wf);

    for seed in &cfg.seeds {
        let s = Scenario {
            fault_seed: Some(*seed),
            workers: 4,
        };
        let (wf, _) = run(&s, FaultPlan::chaotic);
        let extra: u64 = wf.jobs.iter().map(|j| j.extra_attempts()).sum();
        assert!(
            wf.total_retried_attempts() + wf.total_speculative_attempts() > 0,
            "seed {seed:#x}: chaotic plan injected nothing"
        );
        assert_eq!(
            extra,
            wf.total_retried_attempts() + wf.total_speculative_attempts(),
            "attempt ledger must balance"
        );
        assert!(
            model.workflow_time(&wf) > clean_cost,
            "seed {seed:#x}: faulted cost not above fault-free cost"
        );
    }
}

/// The chaos sweep macro re-exported path works (`rapida_testkit::chaos`
/// as both module and macro) — compile-time check via an explicit call.
#[test]
fn sweep_callable_directly() {
    chaos::sweep(
        "direct",
        &ChaosConfig::with_seed_count(1),
        |s| {
            let (wf, blocks) = run(s, FaultPlan::chaotic);
            (committed_signature(&wf), blocks)
        },
    );
}
