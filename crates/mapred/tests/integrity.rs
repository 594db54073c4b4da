//! End-to-end data-integrity tests: read-path corruption of DFS blocks and
//! shuffle spill runs must be *detected* (checksums on, the default) and
//! quarantined with byte-identical committed output — and the detection
//! must be load-bearing: the same corruption with checksums disabled
//! reaches the committed output and diverges. A silent-corruption run that
//! still produced golden bytes would mean the fault injection is a no-op;
//! a checksummed run that diverges would mean quarantine is broken.

use rapida_mapred::{
    ClusterModel, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory, InputSrc,
    JobBuilder, MapOutput, MapTask, ReduceOutput, ReduceTask, ResiliencePolicy, SimDfs,
    WorkflowMetrics,
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

/// Two-cycle word count (combined count, then regroup) over a multi-block
/// input — enough block reads and spill runs for the corrupting preset to
/// fire many times per run.
fn workflow() -> Vec<rapida_mapred::Job> {
    vec![
        JobBuilder::new("wc")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(4)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(2)
            .build(),
    ]
}

fn run(
    faults: Option<FaultPlan>,
    policy: ResiliencePolicy,
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0x1DEA);
    let mut w = DatasetWriter::new(64);
    for _ in 0..500 {
        let len = rng.gen_range(2usize..=5);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..6)) as char)
            .collect();
        w.push(word.as_bytes());
    }
    dfs.put("in", w.finish());
    let mut engine = Engine::with_workers(dfs.clone(), 4).with_resilience(policy);
    engine.faults = faults;
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

const SEEDS: [u64; 3] = [1, 0xC0FFEE, 0xDEAD_BEEF];

/// Checksums on (default): every injected corruption is detected, the
/// corrupt copy is quarantined (block → replica re-read, spill → clean
/// arena kept), and the committed output is byte-identical to the
/// fault-free golden. The detections and re-read bytes must be ledgered,
/// and the cost model must charge for the extra replica I/O.
#[test]
fn checksums_detect_quarantine_and_preserve_bytes() {
    let model = ClusterModel::nodes10();
    let (golden_wf, golden) = run(None, ResiliencePolicy::default());
    assert_eq!(golden_wf.total_corrupt_blocks_detected(), 0);
    assert_eq!(golden_wf.total_silent_corruptions(), 0);
    let golden_cost = model.workflow_time(&golden_wf);

    for seed in SEEDS {
        let (wf, blocks) = run(Some(FaultPlan::corrupting(seed)), ResiliencePolicy::default());
        assert_eq!(
            blocks, golden,
            "seed {seed:#x}: corruption leaked into committed output despite checksums"
        );
        let detected =
            wf.total_corrupt_blocks_detected() + wf.total_corrupt_spills_detected();
        assert!(detected > 0, "seed {seed:#x}: corrupting plan injected nothing");
        assert_eq!(
            wf.total_silent_corruptions(),
            0,
            "seed {seed:#x}: corruption slipped past the checksum gate"
        );
        assert!(
            wf.total_integrity_reread_bytes() > 0,
            "seed {seed:#x}: detections without replica re-read bytes"
        );
        assert!(
            model.workflow_time(&wf) > golden_cost,
            "seed {seed:#x}: {detected} detections but no simulated re-read cost"
        );
    }
}

/// Detection is load-bearing: the *same* corruption seeds with checksums
/// disabled reach the committed output — the run diverges from the golden
/// bytes and the silent-corruption ledger is non-zero. If this test ever
/// passes with identical bytes, the fault injection itself is broken and
/// the checksummed identity above proves nothing.
#[test]
fn corruption_without_checksums_diverges() {
    let (_, golden) = run(None, ResiliencePolicy::default());
    let unchecked = ResiliencePolicy {
        checksums: false,
        ..ResiliencePolicy::default()
    };
    for seed in SEEDS {
        let (wf, blocks) = run(Some(FaultPlan::corrupting(seed)), unchecked.clone());
        assert!(
            wf.total_silent_corruptions() > 0,
            "seed {seed:#x}: no corruption applied with checksums off"
        );
        assert_eq!(
            wf.total_corrupt_blocks_detected() + wf.total_corrupt_spills_detected(),
            0,
            "seed {seed:#x}: detections ledgered while checksums were off"
        );
        assert_ne!(
            blocks, golden,
            "seed {seed:#x}: silent corruption left the output byte-identical"
        );
    }
}

/// The corruption ledger itself is deterministic: two runs with the same
/// seed produce identical detection counters *and* identical bytes.
#[test]
fn integrity_ledger_is_deterministic() {
    let sig = |wf: &WorkflowMetrics| {
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
            .collect::<Vec<_>>()
    };
    let (wf_a, blocks_a) = run(Some(FaultPlan::corrupting(7)), ResiliencePolicy::default());
    let (wf_b, blocks_b) = run(Some(FaultPlan::corrupting(7)), ResiliencePolicy::default());
    assert_eq!(sig(&wf_a), sig(&wf_b));
    assert_eq!(blocks_a, blocks_b);
}
