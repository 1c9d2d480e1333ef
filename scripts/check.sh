#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the full test suite, and the
# conformance oracle. Run from anywhere; works on the repo this script
# lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> pool tests (vendored rayon shim)"
cargo test -q -p rayon

echo "==> parapage conform --quick"
cargo run -q -p parapage-cli --release -- conform --quick

echo "==> parapage conform --concurrent --quick (ShardedCache<LruCache> schedule exploration + sabotage self-check)"
cargo run -q -p parapage-cli --release -- conform --concurrent --quick

echo "==> parapage experiments --quick (the E1-E16 tables and their claim verdicts)"
cargo run -q -p parapage-cli --release -- experiments --quick

echo "==> parapage chaos --quick (crash-recovery + WAL corruption matrices)"
cargo run -q -p parapage-cli --release -- chaos --quick

echo "==> parapage chaos (full-size crash-recovery + WAL corruption matrices)"
cargo run -q -p parapage-cli --release -- chaos

echo "==> ops regression floors (release microbench pins)"
cargo test -q -p parapage-bench --release --test ops_regression

echo "==> servebench tests (smoke-size workloads, replica digest checks)"
cargo test -q --offline --manifest-path crates/bench/src/bin/servebench/Cargo.toml

echo "==> servebench --seed 42 (pinned reply chains, all six workloads)"
cargo run --offline --release -q --manifest-path crates/bench/src/bin/servebench/Cargo.toml -- \
  --seed 42 --seconds 1 --trace 0

echo "==> parapage bench --quick (smoke + determinism + ops-floor gate)"
cargo run -q -p parapage-cli --release -- bench --quick --out /tmp/parapage-bench-smoke.json

echo "==> parapage chaos --quick --net (network chaos matrix)"
cargo run -q -p parapage-cli --release -- chaos --quick --net

echo "==> parapage drive (serve smoke: in-process server, clean shutdown)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --expect-clean

echo "==> parapage drive --shards 32 (wide-router serve smoke: shard_of's full-hash branch)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --shards 32 --expect-clean

echo "==> parapage drive --fault (recovery smoke: severed connections absorbed)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --fault cut-send --expect-clean

echo "==> parapage drive --policy ucp (UCP serve smoke: repartition + checkpoint on the serve path)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --policy ucp --expect-clean

echo "==> parapage drive --policy ucp --fault (UCP recovery smoke)"
cargo run -q -p parapage-cli --release -- drive --requests 50000 --tenants 3 \
  --batches 2 --policy ucp --fault cut-send --expect-clean

echo "All checks passed."
