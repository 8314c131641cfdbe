#!/usr/bin/env bash
# Repeatability check for kelp_benchmark.
#
# Runs every workload named in BENCHMARK.json RUNS times (seeds 1..RUNS,
# default 10) for run_seconds each, in two passes. For every (workload,
# end-to-end metric) pair it prints each pass's median and quartile spread
# (q3 - q1 over the median) and how far the second median moved from the
# first, against the metric's bound. It exits 1 when a spread other than
# setup_s's exceeds its bound, or when the second median is worse than the
# first by more than the bound; a spread above a third of its bound is
# marked "noisy". Raw results go to target/kelp_benchmark/repeat/.
#
# Usage: crates/bench/src/bin/kelp_benchmark/repeat.sh [RUNS]
set -euo pipefail

root="$(cd "$(dirname "$0")/../../../../.." && pwd)"
cd "$root"
runs="${1:-10}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path crates/bench/src/bin/kelp_benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/kelp_benchmark"
out="target/kelp_benchmark/repeat"
mkdir -p "$out"

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

for pass in 1 2; do
  : > "$out/pass$pass.jsonl"
  for workload in $workloads; do
    for seed in $(seq 1 "$runs"); do
      line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
      printf '{"workload": "%s", "seed": %s, "result": %s}\n' \
        "$workload" "$seed" "$line" >> "$out/pass$pass.jsonl"
    done
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
passes = []
for n in (1, 2):
    runs = [json.loads(line) for line in open(f"{out}/pass{n}.jsonl")]
    passes.append(runs)

def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if r["workload"] == workload]

def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)

failed = False
print(f"{'workload':<13} {'metric':<17} {'median 1':>13} {'median 2':>13} {'worse':>7} "
      f"{'spread 1':>8} {'spread 2':>8} {'bound':>6}  verdict")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = (values(p, w["name"], name) for p in passes)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        spreads = [] if name == "setup_s" else [sa, sb]
        bad = worse > bound or any(s > bound for s in spreads)
        verdict = "FAIL" if bad else ("noisy" if any(s > bound / 3 for s in spreads) else "ok")
        failed |= bad
        print(f"{w['name']:<13} {name:<17} {ma:>13.6g} {mb:>13.6g} {worse:>+7.2%} "
              f"{sa:>8.2%} {sb:>8.2%} {bound:>6.0%}  {verdict}")
sys.exit(1 if failed else 0)
EOF
