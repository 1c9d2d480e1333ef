#!/usr/bin/env bash
# Perf-trajectory benchmark: builds the release CLI and runs the fixed
# `parapage bench` recipe, writing the JSON report to --out (default
# BENCH_5.json at the repo root; `parapage bench` refuses an --out that
# names the --baseline file).
#
# Usage: scripts/bench.sh [--quick] [--threads N] [--seed N] [--out FILE]
#                         [--baseline BENCH_n.json] [--profile]
# (flags pass through to `parapage bench`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p parapage-cli
exec cargo run --release -q -p parapage-cli -- bench "$@"
