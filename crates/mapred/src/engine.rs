//! The MapReduce execution engine: work-stealing parallel map over splits,
//! arena-backed map-side sorted runs, a loser-tree run-merge shuffle,
//! shard-parallel streaming reduce — a faithful in-process model of the
//! Hadoop execution cycle, with real serialization at every boundary.
//!
//! Data path (see DESIGN.md "Zero-copy shuffle data path"): map tasks emit
//! into one contiguous [`KvBuffer`] arena per task; the arena's offset table
//! is sorted once map-side by `(key, emit order)` (also feeding the combiner
//! a streaming grouped pass) and spilled into compact per-`(task,
//! partition)` sorted arenas; the reduce side merges those pre-sorted runs
//! with a loser tree — each run read sequentially, front to back — and
//! streams key groups straight into the reducer. No materialized `Vec` of
//! pairs, no reduce-side re-sort, no per-record heap allocation.
//!
//! Parallel structure (see DESIGN.md §2e): both phases run through the
//! work-stealing [`pool`]. Map tasks are pool tasks; a reduce partition is
//! *flattened* into pool units — one per doomed/superseded fault attempt
//! (run serially over the partition's merged prefix, so the waste ledger is
//! worker-count-independent) plus the committed merge, which is cut into
//! key-range shards ([`crate::merge::plan_shards`]) whenever the reducer
//! declares itself key-local. Shard outputs concatenate in range order into
//! the exact byte stream of the serial merge.

use crate::bytes::Bytes;
use crate::cache::ScanCache;
use crate::codec::{BlockBuilder, KvBuffer, RecordIter};
use crate::dfs::{Dataset, SimDfs};
use crate::fault::{FaultPlan, Outcome, TaskKind};
use crate::integrity;
use crate::job::{InputSrc, Job, MapOutput, ReduceOutput};
use crate::merge::{merge_key_groups, plan_shards, Run};
use crate::metrics::{JobMetrics, RecoveryLedger, WorkflowMetrics};
use crate::pool;
use crate::resilience::{ResiliencePolicy, WorkflowError};
use std::time::Instant;

/// The reducer a key is routed to: FNV-1a ([`integrity::fnv1a`], the same
/// hash the block/spill checksums use) modulo the reducer count.
///
/// This is *the* shuffle contract — it depends only on the key bytes and the
/// partition count, never on worker threads or split layout, which is what
/// makes reruns of a workflow bit-for-bit reproducible.
#[inline]
pub fn shuffle_partition(key: &[u8], num_partitions: usize) -> usize {
    (integrity::fnv1a(key) % num_partitions.max(1) as u64) as usize
}

/// Execution engine bound to a [`SimDfs`].
#[derive(Clone)]
pub struct Engine {
    /// The simulated DFS jobs read from and write to.
    pub dfs: SimDfs,
    /// Worker thread count for map and reduce phases.
    pub workers: usize,
    /// Target output split size in bytes.
    pub split_bytes: usize,
    /// Optional fault-injection plan; `None` runs the cluster perfectly.
    pub faults: Option<FaultPlan>,
    /// Resilience policy: checksums, checkpointing, retry budgets,
    /// deadlines. Defaults keep every protection on.
    pub resilience: ResiliencePolicy,
    /// Optional cross-query scan cache. When set, jobs carrying a
    /// [`Job::cache_key`] are served from the cache on hit (the job body
    /// never runs) and inserted on miss. `None` (the default) leaves the
    /// execution path untouched.
    pub scan_cache: Option<ScanCache>,
    /// Optional persistent worker pool shared across workflows. When set,
    /// map and reduce phases run on its long-lived threads instead of
    /// spawning a fresh scoped pool per phase; its worker count overrides
    /// [`Engine::workers`] for scheduling (not for metrics semantics —
    /// results stay index-ordered either way).
    pub task_pool: Option<pool::PersistentPool>,
}

/// Per-job fault accounting, accumulated across worker threads.
#[derive(Default)]
struct FaultStats {
    map_attempts: u64,
    reduce_attempts: u64,
    failed: u64,
    speculative: u64,
    stragglers: u64,
    node_loss: u64,
    wasted_input_records: u64,
    wasted_output_bytes: u64,
    backoff_s: f64,
    corrupt_spills_detected: u64,
    integrity_reread_bytes: u64,
    silent_corruptions: u64,
}

impl FaultStats {
    fn merge(&mut self, o: FaultStats) {
        self.map_attempts += o.map_attempts;
        self.reduce_attempts += o.reduce_attempts;
        self.failed += o.failed;
        self.speculative += o.speculative;
        self.stragglers += o.stragglers;
        self.node_loss += o.node_loss;
        self.wasted_input_records += o.wasted_input_records;
        self.wasted_output_bytes += o.wasted_output_bytes;
        self.backoff_s += o.backoff_s;
        self.corrupt_spills_detected += o.corrupt_spills_detected;
        self.integrity_reread_bytes += o.integrity_reread_bytes;
        self.silent_corruptions += o.silent_corruptions;
    }
}

/// Bytes an attempt produced (emitted kvs + written records) — what gets
/// thrown away when the attempt is killed or superseded. Arena payload
/// lengths carry no framing, so these are the same sums of key + value +
/// record lengths the counters have always used.
fn map_output_size(out: &MapOutput) -> u64 {
    out.kvs.payload_bytes() + out.records.payload_bytes()
}

fn reduce_output_size(out: &ReduceOutput) -> u64 {
    out.kvs.payload_bytes() + out.records.payload_bytes()
}

/// How many key-range shards to cut one committed reduce merge into: about
/// two pool units per worker spread across the non-empty partitions, capped
/// so no shard shrinks below a useful grain. Only key-local reducers may be
/// sharded at all; everything else merges serially on one unit. The choice
/// never affects output bytes or the simulated cost — only how evenly the
/// pool can balance the merge.
fn shard_count(workers: usize, key_local: bool, partitions: usize, part_records: usize) -> usize {
    const MIN_SHARD_RECORDS: usize = 2048;
    if !key_local || workers <= 1 || part_records < 2 * MIN_SHARD_RECORDS {
        return 1;
    }
    (workers * 2)
        .div_ceil(partitions.max(1))
        .min(part_records / MIN_SHARD_RECORDS)
        .min(workers * 4)
        .max(1)
}

/// One flattened reduce-phase pool unit (see module docs).
enum UnitKind {
    /// A fault-doomed attempt: run the serial merge up to `limit` pairs,
    /// count the waste, keep nothing.
    Doomed { limit: usize },
    /// A straggler attempt superseded by its speculative duplicate: full
    /// serial merge, output discarded as waste.
    WastedFull,
    /// A committed merge over (a key-range shard of) the partition.
    Committed,
}

impl Engine {
    /// Create an engine with sensible defaults (all cores, 256 KiB splits —
    /// scaled down with the datasets, as HDFS's 128 MB is to 175M triples).
    pub fn new(dfs: SimDfs) -> Self {
        Engine {
            dfs,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            split_bytes: 256 * 1024,
            faults: None,
            resilience: ResiliencePolicy::default(),
            scan_cache: None,
            task_pool: None,
        }
    }

    /// Create an engine with an explicitly pinned worker count — what tests
    /// use so metrics never depend on the host machine's parallelism.
    pub fn with_workers(dfs: SimDfs, workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            ..Engine::new(dfs)
        }
    }

    /// The test-pinned engine: [`rapida_testkit::PINNED_WORKERS`] workers,
    /// so metrics never depend on the host machine's parallelism and every
    /// test suite inherits worker-count changes from one place. (The
    /// constant lives in `testkit` — this crate already depends on it for
    /// the fault plan's RNG, so the helper resides here rather than there.)
    pub fn pinned(dfs: SimDfs) -> Self {
        Engine::with_workers(dfs, rapida_testkit::PINNED_WORKERS)
    }

    /// Attach a fault-injection plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a resilience policy (builder style).
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Attach a cross-query scan cache (builder style).
    pub fn with_scan_cache(mut self, cache: ScanCache) -> Self {
        self.scan_cache = Some(cache);
        self
    }

    /// Attach a persistent shared worker pool (builder style).
    pub fn with_task_pool(mut self, p: pool::PersistentPool) -> Self {
        self.task_pool = Some(p);
        self
    }

    /// Run one phase's tasks: on the shared persistent pool when attached,
    /// otherwise on a fresh scoped work-stealing pool.
    fn pool_run<T, R, F>(&self, workers: usize, tasks: Vec<T>, f: F) -> (Vec<R>, pool::PoolStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        match &self.task_pool {
            Some(p) => p.run(tasks, f),
            None => pool::run_tasks(workers, tasks, f),
        }
    }

    /// Run a sequence of jobs with workflow-level recovery, accumulating
    /// workflow metrics.
    ///
    /// Every committed job's output dataset is a durable checkpoint. When a
    /// job attempt is lost — a fault-plan abort ([`FaultPlan::abort_job`] /
    /// `job_abort_p`) or a simulated deadline kill
    /// ([`crate::resilience::JobDeadline`]) — the workflow restarts: with
    /// [`ResiliencePolicy::checkpointing`] on, it first re-verifies the
    /// checksums of every checkpoint before the lost job and resumes from
    /// the first job whose checkpoint is missing or unverifiable (normally
    /// the lost job itself); with checkpointing off it replays the whole
    /// DAG from job 0. Either way the recomputation is tallied in a
    /// deterministic [`RecoveryLedger`] and the final output bytes are
    /// identical to an undisturbed run.
    ///
    /// Each recovery consumes one unit of the workflow retry budget
    /// ([`ResiliencePolicy::workflow_attempts`]) and one deterministic
    /// backoff delay; an exhausted budget degrades gracefully to a typed
    /// [`WorkflowError`] carrying the partial metrics instead of panicking.
    pub fn try_run_workflow(&self, jobs: &[Job]) -> Result<WorkflowMetrics, WorkflowError> {
        let pol = &self.resilience;
        let budget = pol.workflow_attempts.max(1);
        let mut recovery = RecoveryLedger::default();
        let mut committed: Vec<Option<JobMetrics>> = (0..jobs.len()).map(|_| None).collect();
        let mut ran_before = vec![false; jobs.len()];
        let mut deadline_limit: Vec<f64> = match &pol.deadline {
            Some(dl) => vec![dl.limit_s; jobs.len()],
            None => vec![f64::INFINITY; jobs.len()],
        };
        // Recovery rounds consumed so far — the workflow retry budget.
        let mut spent = 0usize;
        // Where the last loss happened; checkpoint resume target.
        let mut resume_at = 0usize;
        let mut first_round = true;

        let assemble = |committed: &[Option<JobMetrics>], recovery: &RecoveryLedger| {
            let mut wf = WorkflowMetrics::default();
            wf.jobs = committed.iter().flatten().cloned().collect();
            wf.recovery = recovery.clone();
            wf
        };

        loop {
            // Resume point: re-verify checkpoints up to the loss and resume
            // from the first one that fails verification (graceful
            // degradation — a damaged checkpoint chain replays more jobs,
            // never produces wrong bytes).
            let from = if pol.checkpointing && !first_round {
                let mut ok = 0usize;
                for job in jobs.iter().take(resume_at) {
                    match self.dfs.verify(&job.output) {
                        Some(bytes) => {
                            ok += 1;
                            recovery.checkpoint_jobs_skipped += 1;
                            recovery.checkpoint_bytes_read += bytes;
                        }
                        None => break,
                    }
                }
                ok
            } else {
                0
            };
            first_round = false;

            let mut restart: Option<usize> = None;
            for (i, job) in jobs.iter().enumerate().skip(from) {
                let m = self.run_job_cached(job);
                if ran_before[i] {
                    recovery.jobs_replayed += 1;
                    recovery.recomputed_bytes += m.input_bytes + m.output_bytes;
                }
                ran_before[i] = true;

                // Deadline gate: the job ran, but its simulated cluster time
                // blew the per-job limit — kill it, escalate the limit for
                // the retry (deadlines model capacity guesses, not
                // correctness), and charge the workflow budget.
                let deadline_blown = pol
                    .deadline
                    .as_ref()
                    .is_some_and(|dl| dl.model.job_time(&m) > deadline_limit[i]);
                // Abort gate: the fault plan killed this job attempt
                // (node-loss at workflow granularity).
                let aborted = !deadline_blown
                    && self.faults.as_ref().is_some_and(|plan| {
                        plan.decide_job_abort(&job.name, i, spent, spent + 1 >= budget)
                    });
                if deadline_blown || aborted {
                    if deadline_blown {
                        recovery.timeout_kills += 1;
                        recovery.deadline_escalations += 1;
                        let esc = pol.deadline.as_ref().map_or(1.0, |dl| dl.escalation);
                        deadline_limit[i] *= esc.max(1.0);
                    } else {
                        recovery.aborted_job_attempts += 1;
                    }
                    recovery.wasted_bytes += m.input_bytes + m.output_bytes;
                    recovery.wasted_task_attempts += m.task_attempts();
                    spent += 1;
                    if spent >= budget {
                        let partial = assemble(&committed, &recovery);
                        return Err(if deadline_blown {
                            WorkflowError::DeadlineExhausted {
                                job: job.name.clone(),
                                job_index: i,
                                limit_s: deadline_limit[i],
                                partial,
                            }
                        } else {
                            WorkflowError::RetryBudgetExhausted {
                                job: job.name.clone(),
                                job_index: i,
                                attempts: spent,
                                partial,
                            }
                        });
                    }
                    recovery.recovery_backoff_s += pol.backoff.delay_s(spent - 1);
                    restart = Some(i);
                    break;
                }
                committed[i] = Some(m);
            }
            match restart {
                Some(i) => {
                    recovery.workflow_restarts += 1;
                    resume_at = i;
                }
                None => break,
            }
        }
        Ok(assemble(&committed, &recovery))
    }

    /// Run one job through the scan cache when both the engine carries a
    /// cache and the job carries a key; otherwise run it directly.
    ///
    /// On a hit the job body never executes: the cached [`Dataset`] is
    /// republished under the job's output name (checksummed by the DFS
    /// like any write, so checkpoint verification still works) and the
    /// committed metrics are an empty map-only record with
    /// `scan_cache_hits = 1` — the cost model charges it roughly a job
    /// startup, nothing more. On a miss the job runs normally, its output
    /// is offered to the cache, and the evictions that admission caused
    /// are charged to this job's metrics.
    fn run_job_cached(&self, job: &Job) -> JobMetrics {
        let (Some(cache), Some(key)) = (&self.scan_cache, &job.cache_key) else {
            return self.run_job(job);
        };
        if let Some(ds) = cache.get(key) {
            self.dfs.put(&job.output, ds);
            return JobMetrics {
                name: job.name.clone(),
                map_only: true,
                scan_cache_hits: 1,
                ..Default::default()
            };
        }
        let mut m = self.run_job(job);
        if let Some(out) = self.dfs.peek(&job.output) {
            m.scan_cache_evictions = cache.insert(key, out);
        }
        m.scan_cache_misses = 1;
        m
    }

    /// Run one job to completion, returning its metrics.
    pub fn run_job(&self, job: &Job) -> JobMetrics {
        let start = Instant::now();
        let mut metrics = JobMetrics {
            name: job.name.clone(),
            map_only: job.is_map_only(),
            ..Default::default()
        };

        // Gather input splits: (dataset index, block, known record count).
        // The integrity read path ([`SimDfs::fetch`]) verifies each block's
        // checksum against the fault plan's injected read corruption and
        // re-reads from replicas; with checksums disabled a corrupted copy
        // flows through silently — the detection being load-bearing is what
        // the divergence tests demonstrate.
        let mut splits: Vec<(usize, Bytes, Option<usize>)> = Vec::new();
        for (di, name) in job.inputs.iter().enumerate() {
            if let Some((ds, integ)) =
                self.dfs
                    .fetch(name, self.faults.as_ref(), self.resilience.checksums)
            {
                metrics.corrupt_blocks_detected += integ.corrupt_blocks;
                metrics.integrity_reread_bytes += integ.reread_bytes;
                metrics.silent_corruptions += integ.silent;
                metrics.input_bytes += ds.total_bytes() as u64;
                metrics.input_records += ds.records as u64;
                let Dataset {
                    blocks,
                    block_records,
                    ..
                } = ds;
                let counts_known = block_records.len() == blocks.len();
                for (bi, b) in blocks.into_iter().enumerate() {
                    let n = if counts_known {
                        Some(block_records[bi])
                    } else {
                        None
                    };
                    splits.push((di, b, n));
                }
            }
        }
        metrics.map_tasks = splits.len();

        let num_partitions = job.num_reducers.max(1);
        // Per-map-task results, merged after the parallel section.
        // `parts[p]` is the task's compact, key-sorted spill arena for
        // reduce partition `p` — one pre-sorted run per (task, partition),
        // ready for the reduce-side loser-tree merge to read sequentially.
        struct MapResult {
            parts: Vec<KvBuffer>,
            /// FNV-1a checksum of each spill in `parts`, recorded at spill
            /// time — the reference the verify-on-commit gate compares
            /// against. Empty when no spill integrity is needed.
            spill_sums: Vec<u64>,
            records: crate::codec::RecBuffer,
            raw_kv_records: u64,
            raw_kv_bytes: u64,
            segments_skipped: u64,
            input_bytes_pruned: u64,
            corrupt_records: u64,
        }

        // Record spill checksums only when the plan can corrupt spills and
        // the policy verifies them — the bytes to compare against.
        let spill_guard = self.resilience.checksums
            && self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.spill_corrupt_p > 0.0);

        let workers = self.workers.max(1);
        // With fewer splits than workers, idle workers lend themselves to
        // the per-task sort: the offset-table sort runs chunked across
        // `sort_threads` scoped threads, bit-identical to the serial sort
        // (the comparison key is a total order).
        let sort_threads = if splits.is_empty() {
            1
        } else {
            (workers / splits.len()).max(1)
        };

        // Map phase through the work-stealing pool: one task per split.
        // Results come back in task index order — the canonical order
        // downstream block layout and equal-key value order depend on —
        // regardless of worker count, steal interleaving, or faults.
        let (map_outs, map_pool) =
            self.pool_run(workers, splits, |idx, (di, block, block_recs)| {
                let mut local = FaultStats::default();
                let mut out = self.run_map_task(job, idx, di, &block, block_recs, &mut local);

                let raw_kv_records = out.kvs.len() as u64;
                let raw_kv_bytes = out.kvs.payload_bytes();
                let mut corrupt_records = out.corrupt_records;

                let mut kvs = std::mem::take(&mut out.kvs);
                let mut parts: Vec<KvBuffer> = Vec::new();
                if !job.is_map_only() {
                    // Map-side sort: one offset-table sort per task,
                    // by (key, emit order). The payload arena never
                    // moves.
                    kvs.sort_unstable_with(sort_threads);
                    // Map-side combiner: stream the sorted run's key
                    // groups through the combiner and sort its output
                    // the same way — Hadoop's combiner contract.
                    if let Some(comb) = &job.combiner {
                        if !kvs.is_empty() {
                            let mut ctask = comb.create();
                            let mut cout = ReduceOutput::default();
                            merge_key_groups(&[Run::sorted(&kvs)], None, |key, values| {
                                ctask.reduce(key, values, &mut cout);
                            });
                            ctask.cleanup(&mut cout);
                            corrupt_records += cout.corrupt_records;
                            kvs = cout.kvs;
                            kvs.sort_unstable_with(sort_threads);
                        }
                    }
                    // Spill: copy each partition's pairs — scanning in
                    // sorted order, so every spill stays key-sorted
                    // with equal keys in emit order — into a compact
                    // per-partition arena. The reduce-side merge then
                    // reads each run front to back, sequentially. An
                    // exact-size counting pass first, so the spill
                    // arenas never reallocate.
                    let mut pidx: Vec<u32> = Vec::with_capacity(kvs.len());
                    let mut counts = vec![(0usize, 0u64); num_partitions];
                    for i in 0..kvs.len() {
                        let p = shuffle_partition(kvs.key(i), num_partitions);
                        pidx.push(p as u32);
                        counts[p].0 += 1;
                        counts[p].1 += kvs.pair_bytes(i);
                    }
                    parts = counts
                        .iter()
                        .map(|&(n, bytes)| KvBuffer::with_capacity(n, bytes as usize))
                        .collect();
                    for i in 0..kvs.len() {
                        parts[pidx[i] as usize].push(kvs.key(i), kvs.value(i));
                    }
                }
                let spill_sums = if spill_guard {
                    parts.iter().map(integrity::kv_checksum).collect()
                } else {
                    Vec::new()
                };
                (
                    MapResult {
                        parts,
                        spill_sums,
                        records: std::mem::take(&mut out.records),
                        raw_kv_records,
                        raw_kv_bytes,
                        // Committed attempt only: doomed/superseded attempts
                        // build their own MapOutput whose skip counters are
                        // discarded with the rest of their work.
                        segments_skipped: out.segments_skipped,
                        input_bytes_pruned: out.input_bytes_pruned,
                        corrupt_records,
                    },
                    local,
                )
            });
        let mut stats = FaultStats::default();
        let mut map_results: Vec<MapResult> = Vec::with_capacity(map_outs.len());
        for (r, local) in map_outs {
            stats.merge(local);
            map_results.push(r);
        }
        metrics.map_busy_max_ns = map_pool.makespan_ns();
        metrics.map_busy_total_ns = map_pool.total_busy_ns();
        metrics.steals = map_pool.steals;
        for r in &map_results {
            metrics.map_output_records += r.raw_kv_records;
            metrics.map_output_bytes += r.raw_kv_bytes;
            metrics.segments_skipped += r.segments_skipped;
            metrics.input_bytes_pruned += r.input_bytes_pruned;
            metrics.corrupt_records_skipped += r.corrupt_records;
        }

        // Verify-on-commit gate for shuffle spills. Spill corruption is a
        // pure function of (seed, job, task, partition), decided here in the
        // serial section — the ledger never depends on worker count. With
        // checksums on, the corrupted copy is checked against the sum
        // recorded at spill time, quarantined, and the clean spill re-read
        // (in the simulator: simply kept) — so a corrupt run never reaches
        // a reducer. With checksums off, the flip lands in place and flows
        // downstream silently.
        if let Some(plan) = self.faults.as_ref().filter(|p| p.spill_corrupt_p > 0.0) {
            for (t, r) in map_results.iter_mut().enumerate() {
                for p in 0..r.parts.len() {
                    if r.parts[p].is_empty() {
                        continue;
                    }
                    let Some(h) = plan.corrupt_spill(&job.name, t, p) else {
                        continue;
                    };
                    if self.resilience.checksums {
                        let mut bad = r.parts[p].clone();
                        if integrity::corrupt_kv(&mut bad, h) {
                            if integrity::kv_checksum(&bad) != r.spill_sums[p] {
                                stats.corrupt_spills_detected += 1;
                                stats.integrity_reread_bytes += r.parts[p].payload_bytes();
                            } else {
                                // A flip the checksum missed (FNV-1a makes
                                // this unconstructable, but account honestly
                                // rather than assume).
                                stats.silent_corruptions += 1;
                                r.parts[p] = bad;
                            }
                        }
                    } else if integrity::corrupt_kv(&mut r.parts[p], h) {
                        stats.silent_corruptions += 1;
                    }
                }
            }
        }

        let output_ds = if job.is_map_only() {
            // Map-only: one output block per non-empty map task.
            let mut blocks = Vec::new();
            let mut block_records = Vec::new();
            let mut records = 0usize;
            for r in &map_results {
                if r.records.is_empty() {
                    continue;
                }
                let mut bb = BlockBuilder::new();
                for rec in r.records.iter() {
                    bb.push(rec);
                }
                records += bb.records();
                block_records.push(bb.records());
                blocks.push(Bytes::from(bb.finish()));
            }
            Dataset {
                blocks,
                records,
                block_records,
            }
        } else {
            // Shuffle: hand each partition its ordered list of pre-sorted
            // runs, accounting shuffle volume off the offset tables in the
            // same pass — nothing is concatenated or re-sorted.
            let mut part_runs: Vec<Vec<Run<'_>>> =
                (0..num_partitions).map(|_| Vec::new()).collect();
            let mut part_records: Vec<usize> = vec![0; num_partitions];
            for r in &map_results {
                for (p, spill) in r.parts.iter().enumerate() {
                    if spill.is_empty() {
                        continue;
                    }
                    metrics.shuffle_records += spill.len() as u64;
                    metrics.shuffle_bytes += spill.payload_bytes();
                    part_records[p] += spill.len();
                    part_runs[p].push(Run::sorted(spill));
                }
            }
            metrics.reduce_tasks = part_runs.iter().filter(|rs| !rs.is_empty()).count();

            // Reduce phase: flatten every partition into pool units. Fault
            // decisions are a *pure* function of (job, partition, retry), so
            // the attempt script — and with it the whole waste/backoff
            // ledger except measured wasted output bytes — is computed here,
            // serially, before any unit runs. Doomed and superseded attempts
            // always merge the full partition on one unit (their kill points
            // are defined against the serial merge); only the committed
            // merge is cut into key-range shards, and only when the reducer
            // declares itself key-local.
            let reducer = job.reducer.as_ref().expect("checked map_only");
            let key_local = reducer.key_local();
            let nonempty = metrics.reduce_tasks;
            let mut units: Vec<(usize, Vec<Run<'_>>, UnitKind)> = Vec::new();
            let mut committed_units = 0usize;
            for (p_idx, (runs, total)) in part_runs
                .iter()
                .zip(part_records)
                .enumerate()
                .filter(|(_, (runs, _))| !runs.is_empty())
            {
                if let Some(plan) = &self.faults {
                    let mut retries = 0usize;
                    loop {
                        let outcome =
                            plan.decide(&job.name, TaskKind::Reduce, p_idx, retries);
                        stats.reduce_attempts += 1;
                        match outcome {
                            Outcome::Fail {
                                fraction,
                                node_loss,
                            } => {
                                // The attempt dies `limit` pairs into its
                                // merged input; merge_key_groups' limit
                                // stops mid-group exactly where the old
                                // materialized slice did. No cleanup runs.
                                let limit =
                                    ((fraction * total as f64) as usize).min(total);
                                stats.failed += 1;
                                if node_loss {
                                    stats.node_loss += 1;
                                }
                                stats.wasted_input_records += limit as u64;
                                stats.backoff_s += plan.backoff_s(retries);
                                units.push((p_idx, runs.clone(), UnitKind::Doomed { limit }));
                                retries += 1;
                            }
                            Outcome::Straggle { .. } => {
                                stats.stragglers += 1;
                                if plan.speculation {
                                    // The speculative duplicate commits;
                                    // the slow original's full output is
                                    // discarded.
                                    stats.reduce_attempts += 1;
                                    stats.speculative += 1;
                                    stats.wasted_input_records += total as u64;
                                    units.push((p_idx, runs.clone(), UnitKind::WastedFull));
                                }
                                break;
                            }
                            Outcome::Success => break,
                        }
                    }
                } else {
                    stats.reduce_attempts += 1;
                }
                let shards = shard_count(workers, key_local, nonempty, total);
                if shards <= 1 {
                    units.push((p_idx, runs.clone(), UnitKind::Committed));
                    committed_units += 1;
                } else {
                    for shard in plan_shards(runs, shards) {
                        units.push((p_idx, shard, UnitKind::Committed));
                        committed_units += 1;
                    }
                }
            }
            metrics.merge_shards = committed_units;

            // Execute the units through the pool. Every unit's work is a
            // pure function of its (partition, runs, kind) — results carry
            // (partition, committed records, measured waste) and arrive in
            // unit order, which is partition order with committed shards in
            // key-range order, so concatenation below reproduces the serial
            // merge byte for byte at any worker count.
            let (unit_results, reduce_pool) =
                self.pool_run(workers, units, |_u, (p_idx, runs, kind)| {
                    let mut task = reducer.create();
                    let mut out = ReduceOutput::default();
                    match kind {
                        UnitKind::Doomed { limit } => {
                            merge_key_groups(&runs, Some(limit), |key, values| {
                                task.reduce(key, values, &mut out);
                            });
                            (p_idx, None, reduce_output_size(&out), 0)
                        }
                        UnitKind::WastedFull => {
                            merge_key_groups(&runs, None, |key, values| {
                                task.reduce(key, values, &mut out);
                            });
                            task.cleanup(&mut out);
                            (p_idx, None, reduce_output_size(&out), 0)
                        }
                        UnitKind::Committed => {
                            merge_key_groups(&runs, None, |key, values| {
                                task.reduce(key, values, &mut out);
                            });
                            task.cleanup(&mut out);
                            (
                                p_idx,
                                Some(std::mem::take(&mut out.records)),
                                0,
                                out.corrupt_records,
                            )
                        }
                    }
                });
            metrics.reduce_busy_max_ns = reduce_pool.makespan_ns();
            metrics.reduce_busy_total_ns = reduce_pool.total_busy_ns();
            metrics.steals += reduce_pool.steals;

            // Stitch committed shard outputs back into one record stream
            // per partition (unit order is already canonical — see above),
            // and fold measured waste into the ledger.
            let mut per_part: Vec<(usize, crate::codec::RecBuffer)> = Vec::new();
            for (p_idx, out, waste, corrupt) in unit_results {
                stats.wasted_output_bytes += waste;
                metrics.corrupt_records_skipped += corrupt;
                if let Some(recs) = out {
                    match per_part.last_mut() {
                        Some((last, acc)) if *last == p_idx => acc.append(&recs),
                        _ => per_part.push((p_idx, recs)),
                    }
                }
            }
            let mut blocks = Vec::new();
            let mut block_records = Vec::new();
            let mut records = 0usize;
            for (_, recs) in per_part {
                if recs.is_empty() {
                    continue;
                }
                let mut bb = BlockBuilder::new();
                for rec in recs.iter() {
                    bb.push(rec);
                }
                records += bb.records();
                block_records.push(bb.records());
                blocks.push(Bytes::from(bb.finish()));
            }
            Dataset {
                blocks,
                records,
                block_records,
            }
        };

        if metrics.map_only {
            metrics.shuffle_records = 0;
            metrics.shuffle_bytes = 0;
        }
        metrics.output_records = output_ds.records as u64;
        metrics.output_bytes = output_ds.total_bytes() as u64;
        self.dfs.put(&job.output, output_ds);

        metrics.map_attempts = stats.map_attempts;
        metrics.reduce_attempts = stats.reduce_attempts;
        metrics.failed_attempts = stats.failed;
        metrics.speculative_attempts = stats.speculative;
        metrics.straggler_tasks = stats.stragglers;
        metrics.lost_node_tasks = stats.node_loss;
        metrics.wasted_input_records = stats.wasted_input_records;
        metrics.wasted_output_bytes = stats.wasted_output_bytes;
        metrics.backoff_s = stats.backoff_s;
        // Block-level integrity counters were recorded at split gather; the
        // spill-level counters accumulated in stats join them here.
        metrics.corrupt_spills_detected = stats.corrupt_spills_detected;
        metrics.integrity_reread_bytes += stats.integrity_reread_bytes;
        metrics.silent_corruptions += stats.silent_corruptions;

        metrics.wall = start.elapsed();
        metrics
    }

    /// Run one map task to a committed result, injecting the fault plan's
    /// outcomes attempt by attempt. The committed [`MapOutput`] is always
    /// the output of one clean full pass over the split — killed attempts
    /// only accumulate wasted-work counters — so the data flowing into the
    /// shuffle is identical to a fault-free run.
    fn run_map_task(
        &self,
        job: &Job,
        task_idx: usize,
        di: usize,
        block: &Bytes,
        block_recs: Option<usize>,
        stats: &mut FaultStats,
    ) -> MapOutput {
        let full = |out: &mut MapOutput| {
            let mut task = job.mapper.create();
            let mut n = 0u64;
            for rec in RecordIter::new(block) {
                task.map(InputSrc { dataset: di }, rec, out);
                n += 1;
            }
            task.cleanup(out);
            n
        };
        let Some(plan) = &self.faults else {
            stats.map_attempts += 1;
            let mut out = MapOutput::default();
            full(&mut out);
            return out;
        };

        let mut retries = 0usize;
        loop {
            let outcome = plan.decide(&job.name, TaskKind::Map, task_idx, retries);
            stats.map_attempts += 1;
            match outcome {
                Outcome::Fail {
                    fraction,
                    node_loss,
                } => {
                    // Genuinely run the doomed attempt over a prefix of the
                    // split (the kill point), then discard its work. No
                    // cleanup: the attempt died mid-task. The split's record
                    // count is tracked by the dataset writer; only
                    // hand-assembled datasets without counts pay a decode
                    // pass here.
                    let total =
                        block_recs.unwrap_or_else(|| RecordIter::new(block).count());
                    let limit = ((fraction * total as f64) as usize).min(total);
                    let mut task = job.mapper.create();
                    let mut wasted = MapOutput::default();
                    for rec in RecordIter::new(block).take(limit) {
                        task.map(InputSrc { dataset: di }, rec, &mut wasted);
                    }
                    stats.failed += 1;
                    if node_loss {
                        stats.node_loss += 1;
                    }
                    stats.wasted_input_records += limit as u64;
                    stats.wasted_output_bytes += map_output_size(&wasted);
                    stats.backoff_s += plan.backoff_s(retries);
                    retries += 1;
                }
                Outcome::Straggle { .. } => {
                    let mut out = MapOutput::default();
                    let read = full(&mut out);
                    stats.stragglers += 1;
                    if plan.speculation {
                        // The speculative duplicate finishes first and
                        // commits; the slow original's work is discarded.
                        stats.map_attempts += 1;
                        stats.speculative += 1;
                        stats.wasted_input_records += read;
                        stats.wasted_output_bytes += map_output_size(&out);
                        let mut dup = MapOutput::default();
                        full(&mut dup);
                        return dup;
                    }
                    return out;
                }
                Outcome::Success => {
                    let mut out = MapOutput::default();
                    full(&mut out);
                    return out;
                }
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DatasetWriter;
    use crate::job::*;
    use std::sync::Arc;

    /// Classic word count over single-word records.
    struct WcMap;
    impl MapTask for WcMap {
        fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
            out.emit(record, &[1]);
        }
    }

    struct WcReduce {
        as_output: bool,
    }
    impl ReduceTask for WcReduce {
        fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let total: u64 = values.iter().map(|v| v[0] as u64).sum();
            if self.as_output {
                let mut rec = key.to_vec();
                rec.push(b'=');
                rec.extend_from_slice(total.to_string().as_bytes());
                out.write(&rec);
            } else {
                // Combiner path: cap each count byte at 255 (test data is
                // small).
                out.emit(key, &[total as u8]);
            }
        }
    }

    fn word_dataset(words: &[&str]) -> Dataset {
        let mut w = DatasetWriter::new(8);
        for word in words {
            w.push(word.as_bytes());
        }
        w.finish()
    }

    fn run_wordcount(with_combiner: bool) -> (Vec<String>, JobMetrics) {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&wordcount_job(with_combiner));
        let out = dfs.get("out").unwrap();
        let mut lines: Vec<String> = out
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        lines.sort();
        (lines, m)
    }

    #[test]
    fn wordcount_correct() {
        let (lines, m) = run_wordcount(false);
        assert_eq!(lines, vec!["a=5", "b=3", "c=4"]);
        assert!(m.map_tasks > 1, "multiple splits expected");
        assert_eq!(m.input_records, 12);
        assert_eq!(m.shuffle_records, 12);
        assert_eq!(m.output_records, 3);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let (lines, m) = run_wordcount(true);
        assert_eq!(lines, vec!["a=5", "b=3", "c=4"]);
        assert!(
            m.shuffle_records < m.map_output_records,
            "combiner must shrink the shuffle: {} vs {}",
            m.shuffle_records,
            m.map_output_records
        );
    }

    /// Identity map-only job.
    struct IdMap;
    impl MapTask for IdMap {
        fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
            out.write(record);
        }
    }

    #[test]
    fn map_only_job_passes_records_through() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["x", "y", "z"]));
        let job = JobBuilder::new("identity")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        assert!(m.map_only);
        assert_eq!(m.shuffle_bytes, 0);
        assert_eq!(m.output_records, 3);
        assert_eq!(dfs.get("out").unwrap().records, 3);
    }

    /// Mapper that tags records by input source — exercises multi-input jobs.
    struct TagMap;
    impl MapTask for TagMap {
        fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
            let mut rec = vec![b'0' + src.dataset as u8, b':'];
            rec.extend_from_slice(record);
            out.write(&rec);
        }
    }

    #[test]
    fn multi_input_sources_are_tagged() {
        let dfs = SimDfs::new();
        dfs.put("left", word_dataset(&["l"]));
        dfs.put("right", word_dataset(&["r"]));
        let job = JobBuilder::new("tag")
            .input("left")
            .input("right")
            .mapper(Arc::new(FnMapFactory(|| TagMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        engine.run_job(&job);
        let mut recs: Vec<String> = dfs
            .get("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        recs.sort();
        assert_eq!(recs, vec!["0:l", "1:r"]);
    }

    /// Map task with per-task state + cleanup — the Algorithm 3 pattern.
    struct CountingMap {
        seen: u64,
    }
    impl MapTask for CountingMap {
        fn map(&mut self, _src: InputSrc, _record: &[u8], _out: &mut MapOutput) {
            self.seen += 1;
        }
        fn cleanup(&mut self, out: &mut MapOutput) {
            out.emit(b"count", &self.seen.to_le_bytes());
        }
    }

    struct SumReduce;
    impl ReduceTask for SumReduce {
        fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let total: u64 = values
                .iter()
                .map(|v| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(v);
                    u64::from_le_bytes(b)
                })
                .sum();
            out.write(total.to_string().as_bytes());
        }
    }

    #[test]
    fn cleanup_hook_supports_per_task_aggregation() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["a"; 20]));
        let job = JobBuilder::new("count")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| CountingMap { seen: 0 })))
            .reducer(Arc::new(FnReduceFactory(|| SumReduce)))
            .output("out")
            .num_reducers(1)
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        let recs: Vec<String> = dfs
            .get("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        assert_eq!(recs, vec!["20"]);
        // One emit per map task, not per record.
        assert_eq!(m.shuffle_records as usize, m.map_tasks);
    }

    #[test]
    fn workflow_chains_jobs() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["a", "b", "a"]));
        let j1 = JobBuilder::new("j1")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("mid")
            .build();
        let j2 = JobBuilder::new("j2")
            .input("mid")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(Arc::new(FnReduceFactory(|| WcReduce { as_output: true })))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let wf = engine
            .try_run_workflow(&[j1, j2])
            .expect("workflow completes");
        assert_eq!(wf.cycles(), 2);
        assert_eq!(wf.full_cycles(), 1);
        assert_eq!(wf.map_only_cycles(), 1);
        assert_eq!(dfs.get("out").unwrap().records, 2);
    }

    #[test]
    fn keyed_job_is_served_from_the_scan_cache() {
        let cache = ScanCache::new(1 << 20);
        let run = |dfs: &SimDfs| {
            dfs.put("in", word_dataset(&["a", "b", "a"]));
            let job = JobBuilder::new("scan")
                .input("in")
                .mapper(Arc::new(FnMapFactory(|| IdMap)))
                .output("out")
                .cache_key("k:scan")
                .build();
            let engine = Engine::pinned(dfs.clone()).with_scan_cache(cache.clone());
            let wf = engine.try_run_workflow(&[job]).expect("workflow completes");
            (wf, dfs.get("out").unwrap())
        };
        let dfs1 = SimDfs::new();
        let (wf1, out1) = run(&dfs1);
        assert_eq!(wf1.total_scan_cache_misses(), 1);
        assert_eq!(wf1.total_scan_cache_hits(), 0);

        // Second workflow, fresh DFS namespace: the keyed job never runs.
        let dfs2 = SimDfs::new();
        let (wf2, out2) = run(&dfs2);
        assert_eq!(wf2.total_scan_cache_hits(), 1);
        assert_eq!(wf2.jobs[0].input_records, 0, "hit skips the job body");
        let bytes = |d: &Dataset| {
            d.blocks.iter().map(|b| b.as_ref().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(bytes(&out1), bytes(&out2), "hit republishes identical bytes");
        // Unkeyed jobs never touch the cache.
        let stats_before = cache.stats();
        let dfs3 = SimDfs::new();
        dfs3.put("in", word_dataset(&["a"]));
        let plain = JobBuilder::new("plain")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        Engine::pinned(dfs3.clone())
            .with_scan_cache(cache.clone())
            .try_run_workflow(&[plain])
            .expect("workflow completes");
        assert_eq!(cache.stats(), stats_before);
    }

    #[test]
    fn persistent_pool_engine_matches_scoped_pool_engine() {
        let run = |pool: Option<pool::PersistentPool>| {
            let dfs = SimDfs::new();
            dfs.put("in", wc_input());
            let mut engine = Engine::pinned(dfs.clone());
            engine.task_pool = pool;
            let m = engine.run_job(&wordcount_job(true));
            let bytes: Vec<Vec<u8>> = dfs
                .get("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.as_ref().to_vec())
                .collect();
            (bytes, m.shuffle_records, m.output_bytes)
        };
        let scoped = run(None);
        let pool = pool::PersistentPool::new(4);
        let persistent = run(Some(pool.clone()));
        assert_eq!(scoped, persistent, "same bytes and data-flow metrics");
        // The pool survives across engines/workflows.
        let again = run(Some(pool));
        assert_eq!(scoped, again);
    }

    fn wordcount_job(with_combiner: bool) -> Job {
        let mut builder = JobBuilder::new("wordcount")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(Arc::new(FnReduceFactory(|| WcReduce { as_output: true })))
            .output("out")
            .num_reducers(3);
        if with_combiner {
            builder =
                builder.combiner(Arc::new(FnReduceFactory(|| WcReduce { as_output: false })));
        }
        builder.build()
    }

    fn wc_input() -> Dataset {
        word_dataset(&["a", "b", "a", "c", "a", "b", "a", "b", "c", "c", "c", "a"])
    }

    #[test]
    fn fault_free_run_counts_one_attempt_per_task() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(m.map_attempts, m.map_tasks as u64);
        assert_eq!(m.reduce_attempts, m.reduce_tasks as u64);
        assert_eq!(m.extra_attempts(), 0);
        assert_eq!(m.failed_attempts, 0);
        assert_eq!(m.wasted_input_records, 0);
        assert_eq!(m.backoff_s, 0.0);
    }

    #[test]
    fn chaotic_run_recovers_to_identical_output() {
        let run = |faults: Option<FaultPlan>| {
            let dfs = SimDfs::new();
            dfs.put("in", wc_input());
            let mut engine = Engine::pinned(dfs.clone());
            engine.faults = faults;
            let m = engine.run_job(&wordcount_job(true));
            let bytes: Vec<Vec<u8>> = dfs
                .get("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.as_ref().to_vec())
                .collect();
            (bytes, m)
        };
        let (golden, clean) = run(None);
        let (chaotic, m) = run(Some(FaultPlan::chaotic(1)));
        assert_eq!(golden, chaotic, "recovered run must be bit-identical");
        // Committed data-flow metrics match the fault-free run exactly.
        assert_eq!(m.shuffle_records, clean.shuffle_records);
        assert_eq!(m.shuffle_bytes, clean.shuffle_bytes);
        assert_eq!(m.output_bytes, clean.output_bytes);
        // ... while the attempt ledger shows the chaos.
        assert!(m.extra_attempts() > 0, "chaotic plan must cost attempts");
    }

    #[test]
    fn injected_failures_are_ledgered() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone())
            .with_faults(FaultPlan::failures_only(5, 0.9));
        let m = engine.run_job(&wordcount_job(false));
        assert!(m.failed_attempts > 0);
        assert_eq!(
            m.task_attempts(),
            (m.map_tasks + m.reduce_tasks) as u64 + m.failed_attempts,
        );
        assert!(m.backoff_s > 0.0);
        assert!(m.wasted_output_bytes > 0 || m.wasted_input_records > 0);
    }

    #[test]
    fn node_loss_retries_every_task_on_the_node() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            nodes: 2,
            lost_node: Some(0),
            ..FaultPlan::new(0)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan.clone());
        let m = engine.run_job(&wordcount_job(false));
        let on_lost_node = (0..m.map_tasks).filter(|t| plan.node_of(*t) == 0).count()
            + (0..3).filter(|p| plan.node_of(*p) == 0).count().min(m.reduce_tasks);
        assert!(m.lost_node_tasks > 0);
        assert!(m.lost_node_tasks as usize <= on_lost_node);
        let out: Vec<String> = dfs
            .get("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["a=5", "b=3", "c=4"]);
    }

    #[test]
    fn stragglers_without_speculation_are_counted_not_duplicated() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            straggler_p: 1.0,
            straggler_slowdown: 4.0,
            speculation: false,
            ..FaultPlan::new(2)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan);
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(
            m.straggler_tasks,
            (m.map_tasks + m.reduce_tasks) as u64,
            "every task straggles at p=1"
        );
        assert_eq!(m.speculative_attempts, 0);
        assert_eq!(m.extra_attempts(), 0);
    }

    #[test]
    fn speculation_duplicates_stragglers() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            straggler_p: 1.0,
            straggler_slowdown: 4.0,
            ..FaultPlan::new(2)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan);
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(m.speculative_attempts, (m.map_tasks + m.reduce_tasks) as u64);
        assert_eq!(m.extra_attempts(), m.speculative_attempts);
        assert!(m.wasted_input_records > 0, "superseded attempts are waste");
    }

    /// A larger keyed dataset so committed reduce merges clear the
    /// MIN_SHARD_RECORDS floor and genuinely shard.
    fn big_keyed_dataset(n: usize) -> Dataset {
        let mut w = DatasetWriter::new(64 * 1024);
        let mut x = 0x9e37_79b9_u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let rec = format!("k{:05}", (x.wrapping_add(i as u64)) % 512);
            w.push(rec.as_bytes());
        }
        w.finish()
    }

    struct CountReduce;
    impl ReduceTask for CountReduce {
        fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let mut rec = key.to_vec();
            rec.push(b'=');
            rec.extend_from_slice(values.len().to_string().as_bytes());
            out.write(&rec);
        }
    }

    fn big_count_job(key_local: bool) -> Job {
        let reducer: Arc<dyn ReduceTaskFactory> = if key_local {
            Arc::new(KeyLocal(FnReduceFactory(|| CountReduce)))
        } else {
            Arc::new(FnReduceFactory(|| CountReduce))
        };
        JobBuilder::new("bigcount")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(reducer)
            .output("out")
            .num_reducers(2)
            .build()
    }

    fn run_big_count(workers: usize, key_local: bool) -> (Vec<Vec<u8>>, JobMetrics) {
        let dfs = SimDfs::new();
        dfs.put("in", big_keyed_dataset(12_000));
        let engine = Engine::with_workers(dfs.clone(), workers);
        let m = engine.run_job(&big_count_job(key_local));
        let bytes: Vec<Vec<u8>> = dfs
            .get("out")
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.as_ref().to_vec())
            .collect();
        (bytes, m)
    }

    #[test]
    fn sharded_key_local_reduce_is_byte_identical_to_serial() {
        let (golden, m1) = run_big_count(1, true);
        assert_eq!(
            m1.merge_shards, m1.reduce_tasks,
            "one worker must not shard"
        );
        for workers in [2, 4, 8] {
            let (sharded, m) = run_big_count(workers, true);
            assert_eq!(
                golden, sharded,
                "sharded merge must reproduce the serial bytes at {workers} workers"
            );
            assert!(
                m.merge_shards > m.reduce_tasks,
                "key-local reduce over 12k records should shard at {workers} workers \
                 (got {} shards for {} tasks)",
                m.merge_shards,
                m.reduce_tasks
            );
            assert_eq!(m.output_bytes, m1.output_bytes);
            assert_eq!(m.reduce_attempts, m1.reduce_attempts);
        }
    }

    #[test]
    fn non_key_local_reduce_never_shards() {
        let (golden, _) = run_big_count(1, false);
        let (out, m) = run_big_count(8, false);
        assert_eq!(golden, out);
        assert_eq!(
            m.merge_shards, m.reduce_tasks,
            "a reducer that did not opt in must merge serially per partition"
        );
    }

    #[test]
    fn busy_metrics_are_populated() {
        let (_, m) = run_big_count(4, true);
        assert!(m.map_busy_max_ns > 0, "map busy makespan must be measured");
        assert!(m.reduce_busy_max_ns > 0, "reduce busy makespan must be measured");
        assert!(m.map_busy_total_ns >= m.map_busy_max_ns);
        assert!(m.reduce_busy_total_ns >= m.reduce_busy_max_ns);
        assert_eq!(m.busy_makespan_ns(), m.map_busy_max_ns + m.reduce_busy_max_ns);
    }

    #[test]
    fn sharded_reduce_survives_chaos_with_identical_bytes_and_ledger() {
        let run = |workers: usize, faults: Option<FaultPlan>| {
            let dfs = SimDfs::new();
            dfs.put("in", big_keyed_dataset(12_000));
            let mut engine = Engine::with_workers(dfs.clone(), workers);
            engine.faults = faults;
            let m = engine.run_job(&big_count_job(true));
            let bytes: Vec<Vec<u8>> = dfs
                .get("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.as_ref().to_vec())
                .collect();
            (bytes, m)
        };
        let (golden, _) = run(1, None);
        let (chaos1, m1) = run(1, Some(FaultPlan::chaotic(7)));
        let (chaos8, m8) = run(8, Some(FaultPlan::chaotic(7)));
        assert_eq!(golden, chaos1);
        assert_eq!(golden, chaos8);
        // The whole fault ledger — including wasted output bytes measured
        // during execution — is worker-count-independent because doomed and
        // superseded attempts always run the serial full-partition merge.
        assert_eq!(m1.reduce_attempts, m8.reduce_attempts);
        assert_eq!(m1.failed_attempts, m8.failed_attempts);
        assert_eq!(m1.wasted_input_records, m8.wasted_input_records);
        assert_eq!(m1.wasted_output_bytes, m8.wasted_output_bytes);
        assert_eq!(m1.backoff_s, m8.backoff_s);
    }

    #[test]
    fn missing_input_dataset_is_empty() {
        let dfs = SimDfs::new();
        let job = JobBuilder::new("empty")
            .input("nope")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        assert_eq!(m.input_records, 0);
        assert_eq!(m.output_records, 0);
        assert!(dfs.contains("out"));
    }
}
