#!/usr/bin/env bash
# Benchmark report runner. Usage:
#
#   scripts/bench_report.sh [mapred|query|scale|plan|extvp|recover|serve|all]
#
# Runs the requested bench group(s) with real measurement settings and
# validates the resulting BENCH_<group>.json in the repo root (override the
# destination with RAPIDA_BENCH_DIR). Default: all groups.
#
# Recorded baselines and their floors (checked below; wall-clock and
# busy-time floors are skipped in smoke mode, deterministic ones are not):
#
#   BENCH_mapred.json — arena run-merge shuffle over a 1M-record workload
#     (shuffle_arena_merge/*). Regression check: each new median must stay
#     within the committed file's samples p90 x 1.1.
#   BENCH_query.json  — Fig. 8 MG1-MG4 on RAPIDAnalytics through the
#     zero-copy view operators (views/*). Same committed-baseline check.
#   BENCH_scale.json  — 1M-record shuffle at 1/2/4/8 workers, measured as
#     busy-time makespan (busiest worker's CPU time per phase, so the floor
#     holds even on a 1-core container); every worker count must be
#     present, and 4 workers must be >= 2x faster than 1 worker.
#   BENCH_plan.json   — cost-based enumerator vs fixed plans on MG1-MG4
#     (deterministic simulated model seconds). Floors: per family the chosen
#     plan is never worse than either fixed plan, and at least one MG query
#     has a chosen plan >= 1.1x faster than the fixed Hive-MQO baseline.
#   BENCH_extvp.json  — ExtVP semi-join reductions vs full VP scans on
#     MG1-MG4 + MG6 per engine family (deterministic simulated model
#     seconds). Floors: ExtVP never worse on any (query, family) pair, and
#     at least one MG pair >= 1.2x faster than the full-scan baseline.
#   BENCH_recover.json — checkpoint-resume vs full-restart recovery after
#     a late-job loss on MG1/HiveNaive (deterministic recomputed bytes,
#     1 ns/byte). Floor, checked even in smoke mode: full restart must
#     recompute >= 2x the bytes checkpoint resume does.
#   BENCH_serve.json  — batched-MQO serving + scan cache vs one-query-at-a-
#     time at 10/100/1000 simulated clients (deterministic simulated QPS).
#     Floors, checked even in smoke mode: batched beats serial at every
#     scale, and by >= 1.5x at 100 clients.
#
# The committed-baseline check reads the baseline with `git show HEAD:<file>`,
# so a run that overwrites the working-tree copy still compares against the
# recorded one.
#
# Every selected group is checked even when an earlier one fails: the
# per-group summary at the end names each PASS/FAIL/MISSING group, and the
# script exits non-zero if any group failed or its report is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

GROUP="${1:-all}"
case "$GROUP" in
    mapred|query|scale|plan|extvp|recover|serve|all) ;;
    *)
        echo "usage: $0 [mapred|query|scale|plan|extvp|recover|serve|all]" >&2
        exit 2
        ;;
esac

# Cargo runs bench binaries with cwd = the *package* directory, so a relative
# RAPIDA_BENCH_DIR would land under crates/bench/ — force it absolute.
DEST="${RAPIDA_BENCH_DIR:-$(pwd)}"
case "$DEST" in /*) ;; *) DEST="$(pwd)/$DEST" ;; esac
mkdir -p "$DEST"
export RAPIDA_BENCH_DIR="$DEST"

run_mapred() {
    echo "==> shuffle data-path bench (writes BENCH_mapred.json)"
    cargo bench --offline -p rapida-bench --bench shuffle

    echo "==> operator microbenches"
    cargo bench --offline -p rapida-bench --bench operators

    echo "==> Fig. 8 engine-comparison benches"
    cargo bench --offline -p rapida-bench --bench fig8a_bsbm
    cargo bench --offline -p rapida-bench --bench fig8b_bsbm
    cargo bench --offline -p rapida-bench --bench fig8c_chem
}

run_query() {
    echo "==> Fig. 8 view-operator query bench (writes BENCH_query.json)"
    cargo bench --offline -p rapida-bench --bench query
}

run_scale() {
    echo "==> worker-count scaling bench (writes BENCH_scale.json)"
    cargo bench --offline -p rapida-bench --bench scale
}

run_plan() {
    echo "==> enumerator vs fixed-plan bench (writes BENCH_plan.json)"
    cargo bench --offline -p rapida-bench --bench plan
}

run_extvp() {
    echo "==> ExtVP vs full-scan bench (writes BENCH_extvp.json)"
    cargo bench --offline -p rapida-bench --bench extvp
}

run_recover() {
    echo "==> checkpoint vs restart recovery bench (writes BENCH_recover.json)"
    cargo bench --offline -p rapida-bench --bench recover
}

run_serve() {
    echo "==> batched-MQO serving vs serial baseline bench (writes BENCH_serve.json)"
    cargo bench --offline -p rapida-bench --bench serve
}

# Per-group verdicts: every selected group runs its checks even when an
# earlier group failed, so one regression cannot hide another. The final
# summary names each group PASS / FAIL / MISSING.
SUMMARY=()
ANY_FAILED=0
check_group() {
    local grp="$1" file="$2" fn="$3"
    if [ ! -f "$DEST/$file" ]; then
        echo "==> $file not found in $DEST — skipping its checks" >&2
        SUMMARY+=("$grp: MISSING ($file)")
        ANY_FAILED=1
        return 0
    fi
    if "$fn"; then
        SUMMARY+=("$grp: PASS")
    else
        SUMMARY+=("$grp: FAIL")
        ANY_FAILED=1
    fi
}

# The new report must hold some PREFIX id. Outside smoke mode it must also
# hold the same PREFIX ids as the committed report, each with a median no
# higher than the committed samples' p90 (nearest rank) x 1.1.
check_against_committed() {
    local file="$1" prefix="$2"
    python3 - "$DEST/$file" <(git show "HEAD:$file" 2>/dev/null) "$prefix" <<'EOF'
import json, math, sys

path, committed_path, prefix = sys.argv[1:]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
new = {b["id"]: b for b in report["benchmarks"] if b["id"].startswith(prefix)}
if not new:
    sys.exit(f"FAIL: {path} has no {prefix}* benchmarks")
if report.get("smoke"):
    for bid, b in sorted(new.items()):
        print(f"  {bid}: median {b['median_ns'] / 1e6:.2f} ms")
    print("  smoke mode: committed-baseline check skipped")
    sys.exit(0)
try:
    with open(committed_path) as f:
        committed = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: committed baseline HEAD:{path.rsplit('/', 1)[-1]} unreadable: {e}")
base = {b["id"]: b for b in committed["benchmarks"] if b["id"].startswith(prefix)}
failed = []
for bid in sorted(set(new) | set(base)):
    if bid not in new or bid not in base:
        failed.append(f"{bid} is in only one of the new and committed reports")
        continue
    samples = sorted(base[bid]["samples_ns"])
    p90 = samples[math.ceil(0.9 * len(samples)) - 1]
    median = new[bid]["median_ns"]
    limit = p90 * 1.1
    print(
        f"  {bid}: median {median / 1e6:.2f} ms"
        f"  (committed p90 {p90 / 1e6:.2f} ms, limit {limit / 1e6:.2f} ms)"
    )
    if median > limit:
        failed.append(f"{bid} median {median / 1e6:.2f} ms exceeds {limit / 1e6:.2f} ms")
if failed:
    sys.exit("FAIL: " + "; ".join(failed))
EOF
}

check_mapred() {
    echo "==> checking BENCH_mapred.json"
    check_against_committed BENCH_mapred.json shuffle_arena_merge/
}

check_query() {
    echo "==> checking BENCH_query.json"
    check_against_committed BENCH_query.json views/
}

check_scale() {
    echo "==> checking BENCH_scale.json"
    python3 - "$DEST/BENCH_scale.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
by_workers = {}
for b in report["benchmarks"]:
    # ids look like shuffle_1m/w4 (shuffle_50k/w4 in smoke mode)
    tag, _, w = b["id"].partition("/w")
    if w.isdigit():
        by_workers[int(w)] = b
for w in (1, 2, 4, 8):
    if w not in by_workers:
        sys.exit(f"FAIL: {path} lacks the {w}-worker point")
base = by_workers[1]
for w in sorted(by_workers):
    b = by_workers[w]
    speedup = base["median_ns"] / b["median_ns"]
    print(f"  w{w}: busy makespan {b['median_ns'] / 1e6:.1f} ms  ({speedup:.2f}x vs w1)")
ratio = base["median_ns"] / by_workers[4]["median_ns"]
if not report.get("smoke") and ratio < 2.0:
    sys.exit(f"FAIL: 4-worker speedup {ratio:.2f}x is below the 2x floor")
EOF
}

check_plan() {
    echo "==> checking BENCH_plan.json"
    python3 - "$DEST/BENCH_plan.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
queries = sorted({i.split("/", 1)[1] for i in by_id if "/" in i})
if not queries:
    sys.exit(f"FAIL: {path} has no <label>/<query> benchmarks")
families = {
    "chosen_hive": ["fixed_hive_naive", "fixed_hive_mqo"],
    "chosen_rapid": ["fixed_rapid_plus", "fixed_rapida"],
}
best_vs_mqo = 0.0
for q in queries:
    for chosen, fixes in families.items():
        c = by_id.get(f"{chosen}/{q}")
        if c is None:
            sys.exit(f"FAIL: {path} lacks {chosen}/{q}")
        for fx in fixes:
            f_ns = by_id.get(f"{fx}/{q}")
            if f_ns is None:
                sys.exit(f"FAIL: {path} lacks {fx}/{q}")
            if not report.get("smoke") and c > f_ns * 1.001:
                sys.exit(
                    f"FAIL: {chosen}/{q} ({c / 1e9:.1f}s) worse than {fx}/{q} ({f_ns / 1e9:.1f}s)"
                )
    mqo = by_id[f"fixed_hive_mqo/{q}"]
    for chosen in families:
        best_vs_mqo = max(best_vs_mqo, mqo / by_id[f"{chosen}/{q}"])
    print(
        f"  {q}: chosen hive {by_id[f'chosen_hive/{q}'] / 1e9:.1f}s"
        f" (fixed mqo {mqo / 1e9:.1f}s)"
        f"  chosen rapid {by_id[f'chosen_rapid/{q}'] / 1e9:.1f}s"
    )
print(f"  best chosen-vs-fixed-HiveMQO speedup: {best_vs_mqo:.2f}x")
if not report.get("smoke") and best_vs_mqo < 1.1:
    sys.exit(f"FAIL: no chosen plan beats fixed Hive-MQO by 1.1x (best {best_vs_mqo:.2f}x)")
EOF
}

check_extvp() {
    echo "==> checking BENCH_extvp.json"
    python3 - "$DEST/BENCH_extvp.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
best_mg = 0.0
pairs = 0
for bid in sorted(by_id):
    if not bid.startswith("extvp/"):
        continue
    pair = bid.split("/", 1)[1]  # e.g. MG2_hive
    full = by_id.get(f"fullscan/{pair}")
    if full is None:
        sys.exit(f"FAIL: {path} has {bid} but no fullscan/{pair}")
    pairs += 1
    ratio = full / by_id[bid]
    print(
        f"  {pair}: fullscan {full / 1e9:.1f}s  extvp {by_id[bid] / 1e9:.1f}s"
        f"  speedup {ratio:.2f}x"
    )
    if not report.get("smoke") and ratio < 0.999:
        sys.exit(f"FAIL: extvp/{pair} is worse than the full-scan baseline ({ratio:.2f}x)")
    if pair.startswith("MG"):
        best_mg = max(best_mg, ratio)
if pairs == 0:
    sys.exit(f"FAIL: {path} has no extvp/* benchmarks")
print(f"  best MG speedup: {best_mg:.2f}x")
if not report.get("smoke") and best_mg < 1.2:
    sys.exit(f"FAIL: no MG pair beats the full-scan baseline by 1.2x (best {best_mg:.2f}x)")
EOF
}

check_recover() {
    echo "==> checking BENCH_recover.json"
    python3 - "$DEST/BENCH_recover.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
restart = by_id.get("recomputed/restart_MG1")
ckpt = by_id.get("recomputed/checkpoint_MG1")
if restart is None or ckpt is None:
    sys.exit(f"FAIL: {path} lacks recomputed/restart_MG1 + recomputed/checkpoint_MG1")
if ckpt <= 0:
    sys.exit(f"FAIL: checkpoint resume recomputed nothing — the kill never fired")
ratio = restart / ckpt
print(f"  full restart recomputes:     {restart:.0f} B")
print(f"  checkpoint resume recomputes: {ckpt:.0f} B")
print(f"  recomputation margin: {ratio:.2f}x")
# Recomputed bytes are deterministic, so the floor holds in smoke mode too.
if ratio < 2.0:
    sys.exit(f"FAIL: restart/checkpoint recomputation margin {ratio:.2f}x is below the 2x floor")
o_restart = by_id.get("overhead/restart_MG1")
o_ckpt = by_id.get("overhead/checkpoint_MG1")
if o_restart is not None and o_ckpt is not None:
    print(
        f"  model recovery overhead: restart {o_restart / 1e9:.1f}s,"
        f" checkpoint {o_ckpt / 1e9:.1f}s"
    )
    if not report.get("smoke") and o_restart <= o_ckpt:
        sys.exit("FAIL: the cost model charges checkpoint resume at least as much as restart")
EOF
}

check_serve() {
    echo "==> checking BENCH_serve.json"
    python3 - "$DEST/BENCH_serve.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: {path} missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
# Simulated quantities are deterministic, so (like the recovery margin)
# every serve floor is enforced even in smoke mode.
for clients in (10, 100, 1000):
    for mode in ("batched", "serial"):
        if f"qpq/{mode}_c{clients}" not in by_id:
            sys.exit(f"FAIL: {path} lacks qpq/{mode}_c{clients}")
    b = by_id[f"qpq/batched_c{clients}"]
    s = by_id[f"qpq/serial_c{clients}"]
    if b <= 0 or s <= 0:
        sys.exit(f"FAIL: non-positive qpq median at c{clients}")
    ratio = s / b
    hit = by_id.get(f"cache_hit/batched_c{clients}", 0.0) / 1e9
    print(
        f"  c{clients}: batched {1e9 / b:.2f} q/s  serial {1e9 / s:.2f} q/s"
        f"  speedup {ratio:.2f}x  cache hits {100 * hit:.0f}%"
    )
    if ratio <= 1.0:
        sys.exit(f"FAIL: batched serving loses to serial at c{clients} ({ratio:.2f}x)")
    if hit <= 0.0:
        sys.exit(f"FAIL: the scan cache never hit at c{clients}")
ratio100 = by_id["qpq/serial_c100"] / by_id["qpq/batched_c100"]
print(f"  floor: batched/serial at 100 clients = {ratio100:.2f}x (>= 1.5x required)")
if ratio100 < 1.5:
    sys.exit(
        f"FAIL: batched/serial throughput {ratio100:.2f}x at 100 clients is below the 1.5x floor"
    )
EOF
}

if [ "$GROUP" = "mapred" ] || [ "$GROUP" = "all" ]; then
    run_mapred
fi
if [ "$GROUP" = "query" ] || [ "$GROUP" = "all" ]; then
    run_query
fi
if [ "$GROUP" = "scale" ] || [ "$GROUP" = "all" ]; then
    run_scale
fi
if [ "$GROUP" = "plan" ] || [ "$GROUP" = "all" ]; then
    run_plan
fi
if [ "$GROUP" = "extvp" ] || [ "$GROUP" = "all" ]; then
    run_extvp
fi
if [ "$GROUP" = "recover" ] || [ "$GROUP" = "all" ]; then
    run_recover
fi
if [ "$GROUP" = "serve" ] || [ "$GROUP" = "all" ]; then
    run_serve
fi
if [ "$GROUP" = "mapred" ] || [ "$GROUP" = "all" ]; then
    check_group mapred BENCH_mapred.json check_mapred
fi
if [ "$GROUP" = "query" ] || [ "$GROUP" = "all" ]; then
    check_group query BENCH_query.json check_query
fi
if [ "$GROUP" = "scale" ] || [ "$GROUP" = "all" ]; then
    check_group scale BENCH_scale.json check_scale
fi
if [ "$GROUP" = "plan" ] || [ "$GROUP" = "all" ]; then
    check_group plan BENCH_plan.json check_plan
fi
if [ "$GROUP" = "extvp" ] || [ "$GROUP" = "all" ]; then
    check_group extvp BENCH_extvp.json check_extvp
fi
if [ "$GROUP" = "recover" ] || [ "$GROUP" = "all" ]; then
    check_group recover BENCH_recover.json check_recover
fi
if [ "$GROUP" = "serve" ] || [ "$GROUP" = "all" ]; then
    check_group serve BENCH_serve.json check_serve
fi

echo "==> per-group summary:"
for line in "${SUMMARY[@]}"; do
    echo "    $line"
done
if [ "$ANY_FAILED" -ne 0 ]; then
    echo "==> bench report FAILED" >&2
    exit 1
fi
echo "==> bench report OK ($DEST)"
