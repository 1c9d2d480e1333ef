#!/usr/bin/env bash
# Paired servebench runs: a parent revision against the working tree.
#
# Usage: scripts/pair.sh PARENT_REV [--workload W] [--pairs N] [--seconds S]
#
# Builds servebench twice: at PARENT_REV, from a `git archive` checkout
# under target/pair/<commit>/, and from the working tree, into
# target/pair/change. Then it runs N pairs (default 10), the parent first
# in odd pairs and the change first in even ones, with `--seed 42
# --trace 0`, S seconds per workload (default 2) and, with --workload,
# that workload only (default: all six). Both sides build with
# `--offline`.
#
# For every end-to-end metric it prints the value of each pair, each
# side's median and quartiles, and how many pairs the change won: was
# strictly better in the direction BENCHMARK.json gives the metric. A run
# whose reply chains do not match servebench's pins stops the script
# (exit 1).
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/pair.sh PARENT_REV [--workload W] [--pairs N] [--seconds S]"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev=$1
shift
workload=()
pairs=10
seconds=$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workload=(--workload "${2:?$usage}"); shift 2 ;;
        --pairs) pairs=${2:?$usage}; shift 2 ;;
        --seconds) seconds=${2:?$usage}; shift 2 ;;
        *) echo "pair.sh: unknown argument \`$1\`" >&2; echo "$usage" >&2; exit 2 ;;
    esac
done

sha=$(git rev-parse --verify "$rev^{commit}")
manifest=crates/bench/src/bin/servebench/Cargo.toml
parent=target/pair/$sha
if [ ! -f "$parent/src/$manifest" ]; then
    rm -rf "$parent/src"
    mkdir -p "$parent/src"
    git archive "$sha" | tar -x -C "$parent/src"
fi
echo "building servebench at $sha and from the working tree" >&2
CARGO_TARGET_DIR=$PWD/$parent/target \
    cargo build --offline --release -q --manifest-path "$parent/src/$manifest"
CARGO_TARGET_DIR=$PWD/target/pair/change \
    cargo build --offline --release -q --manifest-path "$manifest"

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# Runs one side once and appends "pair side metric value" lines to $log.
run() {
    local bin=$1 side=$2 pair=$3 line
    line=$("$bin" --seed 42 --seconds "$seconds" --trace 0 "${workload[@]}" | tail -n 1) || true
    case $line in
        *'"correct": true'*) ;;
        *) echo "pair.sh: $side run $pair is not correct: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$line" |
        grep -o '"[A-Za-z0-9_./-]*": {"value": [^,}]*' |
        sed -E "s/^\"([^\"]*)\": \\{\"value\": (.*)\$/$pair $side \\1 \\2/" >>"$log"
}

for ((i = 1; i <= pairs; i++)); do
    echo "pair $i of $pairs" >&2
    if ((i % 2)); then
        run "$parent/target/release/servebench" parent "$i"
        run target/pair/change/release/servebench change "$i"
    else
        run target/pair/change/release/servebench change "$i"
        run "$parent/target/release/servebench" parent "$i"
    fi
done

# The direction of each metric, from BENCHMARK.json's entries.
better=$(grep -o '"name": "[A-Za-z0-9_.]*", "unit": "[^"]*", "better": "[a-z]*"' BENCHMARK.json |
    sed -E 's/^"name": "([^"]*)".*"better": "([a-z]*)"$/\1 \2/')

printf '%s\n' "$better" | awk -v pairs="$pairs" '
    FNR == NR { better[$1] = $2; next }
    $4 == "null" { next }
    {
        key = $3; name = key; sub(/.*\//, "", name)
        if (!(name in better)) next
        if (!(key in seen)) { seen[key] = 1; keys[++nkeys] = key; dir[key] = better[name] }
        val[key, $2, $1] = $4
    }
    # The q-quantile (0.25, 0.5, 0.75) of one side, interpolated.
    function quantile(key, side, q,    n, i, j, t, v, h) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((key, side, i) in val) v[++n] = val[key, side, i] + 0
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        if (n == 0) return 0
        h = 1 + (n - 1) * q; i = int(h)
        return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
    }
    END {
        for (k = 1; k <= nkeys; k++) {
            key = keys[k]; won = 0; n = 0
            printf "%s (%s is better)\n", key, dir[key]
            printf "  %-6s %14s %14s\n", "pair", "parent", "change"
            for (i = 1; i <= pairs; i++) {
                if (!((key, "parent", i) in val) || !((key, "change", i) in val)) continue
                p = val[key, "parent", i] + 0; c = val[key, "change", i] + 0; n++
                if ((dir[key] == "lower" && c < p) || (dir[key] == "higher" && c > p)) won++
                printf "  %-6d %14.6g %14.6g\n", i, p, c
            }
            q1 = quantile(key, "parent", 0.25); q3 = quantile(key, "parent", 0.75)
            mp = quantile(key, "parent", 0.5); mc = quantile(key, "change", 0.5)
            gap = mc > mp ? mc - mp : mp - mc
            printf "  %-6s %14.6g %14.6g\n", "q1", q1, quantile(key, "change", 0.25)
            printf "  %-6s %14.6g %14.6g   change won %d of %d%s\n", "median", mp, mc, won, n, gap <= q3 - q1 ? ", unresolved" : ""
            printf "  %-6s %14.6g %14.6g\n\n", "q3", q3, quantile(key, "change", 0.75)
        }
    }
' - "$log"
