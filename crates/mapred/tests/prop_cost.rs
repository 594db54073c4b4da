//! Property tests for the cluster cost model: monotonicity in every input
//! dimension — including the fault dimensions — and sane composition over
//! workflows.

use rapida_mapred::job::{InputSrc, MapOutput, MapTask, ReduceOutput, ReduceTask};
use rapida_mapred::{
    ClusterModel, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory, JobBuilder,
    JobMetrics, SimDfs, WorkflowMetrics,
};
use rapida_testkit::prelude::*;
use rapida_testkit::rng::StdRng;
use std::sync::Arc;

fn arb_job() -> impl Strategy<Value = JobMetrics> {
    (
        any::<bool>(),
        1usize..200,
        1usize..40,
        0u64..(1 << 30),
        0u64..(1 << 24),
        0u64..(1 << 28),
        0u64..(1 << 26),
    )
        .prop_map(
            |(map_only, map_tasks, reduce_tasks, input_bytes, records, shuffle, out)| JobMetrics {
                name: "j".into(),
                map_only,
                map_tasks,
                reduce_tasks,
                input_bytes,
                input_records: records,
                map_output_records: records,
                map_output_bytes: shuffle,
                shuffle_records: records,
                shuffle_bytes: shuffle,
                output_records: records / 2,
                output_bytes: out,
                ..Default::default()
            },
        )
}

proptest! {
    /// Times are positive, at least the startup cost, and finite.
    #[test]
    fn job_time_is_sane(job in arb_job()) {
        let m = ClusterModel::nodes10();
        let t = m.job_time(&job);
        prop_assert!(t.is_finite());
        prop_assert!(t >= m.job_startup_s);
        prop_assert!(t < 1e9, "bounded for bounded inputs");
    }

    /// More input bytes never makes a job cheaper.
    #[test]
    fn monotone_in_input_bytes(job in arb_job(), extra in 0u64..(1 << 30)) {
        let m = ClusterModel::nodes10();
        let mut bigger = job.clone();
        bigger.input_bytes += extra;
        prop_assert!(m.job_time(&bigger) >= m.job_time(&job) - 1e-9);
    }

    /// More shuffle bytes never makes a shuffling job cheaper.
    #[test]
    fn monotone_in_shuffle_bytes(job in arb_job(), extra in 0u64..(1 << 30)) {
        let m = ClusterModel::nodes10();
        let mut bigger = job.clone();
        bigger.shuffle_bytes += extra;
        prop_assert!(m.job_time(&bigger) >= m.job_time(&job) - 1e-9);
    }

    /// Workflow time is the sum of job times (sequential stages).
    #[test]
    fn workflow_time_is_sum(jobs in proptest::collection::vec(arb_job(), 0..6)) {
        let m = ClusterModel::nodes60();
        let wf = WorkflowMetrics { jobs: jobs.clone(), ..Default::default() };
        let total = m.workflow_time(&wf);
        let sum: f64 = jobs.iter().map(|j| m.job_time(j)).sum();
        prop_assert!((total - sum).abs() < 1e-9);
    }

    /// A bigger cluster is never slower (for equal metrics).
    #[test]
    fn bigger_cluster_not_slower(job in arb_job()) {
        let t10 = ClusterModel::nodes10().job_time(&job);
        let t60 = ClusterModel::nodes60().job_time(&job);
        prop_assert!(t60 <= t10 + 1e-9);
    }

    /// Scaling the data scales the variable part of the cost and leaves the
    /// fixed part alone.
    #[test]
    fn data_scale_monotone(job in arb_job(), scale in 1.0f64..100.0) {
        let base = ClusterModel::nodes10();
        let mut scaled = base;
        scaled.data_scale = scale;
        prop_assert!(scaled.job_time(&job) >= base.job_time(&job) - 1e-9);
    }

    /// Piling fault counters onto a job never makes it cheaper: every
    /// overhead term is non-negative, so faults can only add cost.
    #[test]
    fn monotone_in_fault_counters(
        job in arb_job(),
        failed in 0u64..20,
        wasted_rec in 0u64..(1 << 20),
        wasted_bytes in 0u64..(1 << 26),
        backoff in 0.0f64..600.0,
        stragglers in 0u64..20,
    ) {
        let m = ClusterModel::nodes10();
        let mut faulty = job.clone();
        faulty.map_attempts = job.map_tasks as u64 + failed;
        faulty.reduce_attempts = job.reduce_tasks as u64;
        faulty.failed_attempts = failed;
        faulty.wasted_input_records += wasted_rec;
        faulty.wasted_output_bytes += wasted_bytes;
        faulty.backoff_s += backoff;
        faulty.straggler_tasks += stragglers;
        prop_assert!(m.job_time(&faulty) >= m.job_time(&job) - 1e-9);
        prop_assert!(m.fault_overhead(&faulty) >= m.fault_overhead(&job) - 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Executed fault ladder: run a real workflow under increasing injected
// failure rates and check simulated seconds never decrease.
// ---------------------------------------------------------------------------

struct WcMap;
impl MapTask for WcMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(record, &[1]);
    }
}

struct WcReduce;
impl ReduceTask for WcReduce {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let mut rec = key.to_vec();
        rec.push(b'=');
        rec.extend_from_slice(values.len().to_string().as_bytes());
        out.write(&rec);
    }
}

/// Run the fixed wordcount workload under `plan`, returning its simulated
/// cluster seconds.
fn ladder_cost(plan: Option<FaultPlan>) -> f64 {
    let dfs = SimDfs::new();
    let mut w = DatasetWriter::new(16);
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for _ in 0..400 {
        w.push(format!("w{}", rng.below(40)).as_bytes());
    }
    dfs.put("in", w.finish());
    let job = JobBuilder::new("ladder-wc")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| WcMap)))
        .reducer(Arc::new(FnReduceFactory(|| WcReduce)))
        .output("out")
        .num_reducers(4)
        .build();
    let mut engine = Engine::pinned(dfs);
    engine.faults = plan;
    let wf = engine.try_run_workflow(&[job]).expect("workflow completes");
    ClusterModel::nodes10().workflow_time(&wf)
}

/// Simulated seconds are monotonically non-decreasing in the injected
/// failure rate: with a fixed seed the set of failing attempts at a lower
/// rate is a subset of the set at a higher rate (threshold comparison
/// against the same per-attempt hashes), and each failed attempt only adds
/// non-negative overhead.
#[test]
fn simulated_seconds_monotone_in_injected_fault_rate() {
    for seed in [1u64, 9, 77] {
        let mut prev = ladder_cost(None);
        for p in [0.0, 0.15, 0.3, 0.45, 0.6, 0.75] {
            let cost = ladder_cost(Some(FaultPlan::failures_only(seed, p)));
            assert!(
                cost >= prev - 1e-9,
                "seed {seed}: cost at p={p} ({cost}) below previous ({prev})"
            );
            prev = cost;
        }
    }
}
