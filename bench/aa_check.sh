#!/usr/bin/env bash
# A/A check: the same code measured as two sets of runs must agree.
#
#   bench/aa_check.sh [RUNS_PER_SET (default 5)] [extra bench/run.sh arguments]
#
# Runs the whole benchmark RUNS_PER_SET times for set A, then again for set
# B, every run with another seed.  Prints, per workload and end-to-end
# metric, both sets' medians and quartiles, how much worse B's median is
# than A's, the spread of all runs (interquartile range over median), and
# the metric's bound from BENCHMARK.json; beside `norm_lat_p50` it prints the
# raw `e2e.round_ms_p50` the pairing replaces.
# Exits non-zero if the two medians of any metric differ, either way, by
# more than its bound: the code is the same, so better is as wrong as worse.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
shift || true
out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"
seed=20050831
for set in A B; do
    for i in $(seq 1 "$runs"); do
        seed=$((seed + 1))
        bench/run.sh --seed "$seed" "$@" > /dev/null
        for f in bench/out/result-*.txt; do
            w="${f#bench/out/result-}"
            cp "$f" "$out/$set-$i-${w%.txt}.txt"
        done
    done
done

python3 - "$out" <<'PY'
import glob, json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
shown = list(bounds) + ["e2e.round_ms_p50"]
values = {}
for path in sorted(glob.glob(f"{out}/*.txt")):
    run_set = path.split("/")[-1][0]
    for line in open(path):
        f = line.split()
        if len(f) >= 4 and f[1] in shown:
            values.setdefault((f[0], f[1]), {}).setdefault(run_set, []).append(float(f[2]))
failed = False
print(f"{'workload':13} {'metric':17} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'B worse by':>10} {'spread':>7} {'bound':>6}")
for workload in [w["name"] for w in bench["workloads"]]:
    for metric in shown:
        a, b = values[(workload, metric)]["A"], values[(workload, metric)]["B"]
        def summary(v):
            q = statistics.quantiles(v, n=4)
            return statistics.median(v), f"{statistics.median(v):.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        (ma, sa), (mb, sb) = summary(a), summary(b)
        worse = (mb - ma) / ma if lower.get(metric, True) else (ma - mb) / ma
        bound = bounds.get(metric)
        verdict = ""
        if bound is not None and abs(worse) > bound:
            verdict, failed = "  FAIL", True
        shown_bound = "" if bound is None else f"{100 * bound:.0f}%"
        q = statistics.quantiles(a + b, n=4)
        spread = (q[2] - q[0]) / statistics.median(a + b)
        print(f"{workload:13} {metric:17} {sa:>34} {sb:>34} {100 * worse:>+9.2f}% {100 * spread:>6.2f}% {shown_bound:>6}{verdict}")
sys.exit(1 if failed else 0)
PY
