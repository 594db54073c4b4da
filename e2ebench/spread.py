#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 e2ebench/spread.py --workload plan-100k --seeds 1-10 [--seconds 18] [--trace 0]

Run from the repository root after `cargo build --release --manifest-path
e2ebench/Cargo.toml`. For every metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median, which is the spread BENCHMARK.json's bounds are held to. With
`--repeat` each seed runs twice and the deterministic counts of the two
runs must be equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", "e2ebench/target")
    return os.path.join(target, "release", "rapida-e2ebench")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [binary(), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="18")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--repeat", action="store_true")
    a = ap.parse_args()

    values = {}
    ok = True
    for seed in seeds_of(a.seeds):
        report, result = run(a.workload, seed, a.seconds, a.trace)
        if not result["correct"] or result["failed"]:
            ok = False
        if a.repeat:
            again, _ = run(a.workload, seed, a.seconds, a.trace)
            if again["deterministic"] != report["deterministic"]:
                ok = False
                print(f"seed {seed}: deterministic counts differ between runs", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} median {med:14.6g}  iqr/median {share:.4f}  n={len(vs)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
