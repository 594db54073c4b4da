#!/usr/bin/env bash
# Tier-1 verification: everything must pass with no network access.
#
#   build (release)  ->  full workspace test suite  ->  chaos smoke  ->  bench smoke
#
# The bench smoke runs every bench target with one timed iteration per
# benchmark (RAPIDA_BENCH_SMOKE=1), which proves the harnesses execute
# end-to-end without paying for a real measurement run. JSON reports land
# in target/bench-smoke/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

echo "==> chaos smoke (4 fault seeds x worker counts, incl. corruption sweeps)"
RAPIDA_CHAOS_SEEDS=4 cargo test -q --offline -p rapida-mapred --test chaos

echo "==> integrity smoke (checksum quarantine + checksums-off divergence)"
cargo test -q --offline -p rapida-mapred --test integrity --test recover

echo "==> scale smoke (worker-count determinism matrix)"
cargo test -q --offline --test scale_identity

echo "==> plan-enumerator smoke (golden snapshots + NTGA rediscovery)"
cargo test -q --offline -p rapida-core --test plan_snapshots

echo "==> ExtVP byte-identity smoke (reductions vs full scans)"
cargo test -q --offline --test extvp_identity

echo "==> serving smoke (batched-MQO identity + replay ledger, small traffic)"
RAPIDA_SERVE_ROUNDS=2 RAPIDA_CHAOS_SEEDS=2 cargo test -q --offline --test serve_identity

echo "==> serving CLI smoke (2 clients, 2 batching windows, both modes)"
./target/release/rapida serve --clients 2 --duration-ms 150 --window-ms 100 --seed 7 > /dev/null
./target/release/rapida serve --mode serial --clients 2 --duration-ms 150 --window-ms 100 --seed 7 > /dev/null

echo "==> bench smoke (1 iteration per benchmark)"
# Absolute path: bench binaries run with cwd = crates/bench, where a
# relative RAPIDA_BENCH_DIR would silently land.
RAPIDA_BENCH_SMOKE=1 RAPIDA_BENCH_DIR="$(pwd)/target/bench-smoke" \
    cargo bench --offline -p rapida-bench

echo "==> bench report smoke (scripts/bench_report.sh all: every BENCH_*.json"
echo "    present and well-formed, deterministic floors enforced)"
RAPIDA_BENCH_SMOKE=1 RAPIDA_BENCH_DIR="$(pwd)/target/bench-smoke" \
    scripts/bench_report.sh all

echo "==> verify OK"
