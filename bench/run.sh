#!/usr/bin/env bash
# The repository's one benchmark command.
#
#   bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Builds `pfbench` and `pathfinder-serve` in release from source, then runs
# one workload (or, without --workload, all five one after another, each in
# its own process).  Every run prints one `workload metric value unit` line
# per metric and a JSON object on its last line; the objects are collected
# in bench/out/results.json.  Exits non-zero if any reply was wrong.
# See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(paths_warm joins_warm theta_warm cold_oneshot serve_mixed)
workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed | --seconds | --trace) args+=("$1" "$2"); shift 2 ;;
        --quick) args+=("$1"); shift ;;
        *) echo "usage: bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]" >&2; exit 2 ;;
    esac
done

# The engine's defaults are what is measured: no knob leaks in from the shell.
unset PF_THREADS PF_FUSION PF_MORSEL PF_OPTIMIZE PF_INDEXES PF_VERIFY PF_KERNELS

target="${CARGO_TARGET_DIR:-bench/pfbench/target}"
cargo build --release --offline --manifest-path bench/pfbench/Cargo.toml \
    -p pfbench -p pf-serve --bin pfbench --bin pathfinder-serve >&2
pfbench="$target/release/pfbench"
mkdir -p bench/out

# pipefail: a run's status is pfbench's, not tee's.
if [ -n "$workload" ]; then
    "$pfbench" --workload "$workload" "${args[@]}" | tee "bench/out/result-$workload.txt"
    exit
fi

status=0
results=""
for w in "${WORKLOADS[@]}"; do
    "$pfbench" --workload "$w" "${args[@]}" | tee "bench/out/result-$w.txt" || status=1
    results+="${results:+, }\"$w\": $(tail -n 1 "bench/out/result-$w.txt")"
done
echo "{$results}" > bench/out/results.json
exit "$status"
