#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== kelp_benchmark self-tests =="
# The live benchmark is a package of its own, so the workspace run above
# never compiles it. It links `RunMeta` and `SolveStats`; this catches a
# simulator API change that would break it.
cargo test -q --offline --locked --manifest-path crates/bench/src/bin/kelp_benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== kelp-lint --deny --baseline lint-baseline.json =="
# Static analysis (crates/lint): token-level determinism / panic-safety /
# hygiene rules plus the v2 AST passes (KL-R panic reachability over the
# workspace call graph, KL-F float determinism, KL-S serde schema drift
# against results/*.json), and the v3 dataflow pass (KL-T nondeterminism
# taint). Accepted pre-existing findings are pinned in
# lint-baseline.json (regenerate with --write-baseline); any NEW finding
# not covered by a justified inline allow fails the gate. Under --deny a
# STALE pin (an entry matching nothing) is also a hard failure, not a
# note — the fix is `cargo run -p kelp-lint -- --baseline
# lint-baseline.json --prune-stale`, which rewrites the file with only
# the pins that still bite.
#
# The scan is also held to a wall-clock budget (lint-budget.json): the
# interprocedural fixed point must stay effectively linear in workspace
# size, and a complexity regression should fail loudly here rather than
# slowly rot CI.
lint_budget_ms="$(sed -n 's/.*"scan_budget_ms": *\([0-9][0-9]*\).*/\1/p' lint-budget.json)"
cargo build --release -q -p kelp-lint  # compile outside the timed window
lint_start_ns="$(date +%s%N)"
cargo run --release -q -p kelp-lint -- --deny --baseline lint-baseline.json
lint_wall_ms="$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))"
echo "kelp-lint workspace scan: ${lint_wall_ms} ms (budget ${lint_budget_ms} ms)"
if (( lint_wall_ms > lint_budget_ms )); then
  echo "tier-1 FAIL: kelp-lint scan exceeded its wall-clock budget" >&2
  exit 1
fi

if [[ "${KELP_QUICK:-}" == "1" ]]; then
  echo "== clippy skipped (KELP_QUICK=1) =="
else
  echo "== cargo clippy --workspace --all-targets -D warnings =="
  cargo clippy --workspace --all-targets -- -D warnings
fi

echo "== solver identity tests =="
# The hot-path determinism contract: scratch reuse and memoization must be
# bit-identical to fresh solves (tests/solver_hot.rs). Always runs, even
# though the workspace test run above covers it, so a partial invocation
# of this script section still gates the contract.
cargo test -q --release --test solver_hot

echo "== fault-matrix smoke (KELP_QUICK=1) =="
# Any escaped panic, error record, or hardened band violation exits nonzero.
# Results go to a throwaway dir so the smoke never clobbers the checked-in
# default-config artifacts under results/.
smoke_results="$(mktemp -d)"
trap 'rm -rf "$smoke_results"' EXIT
KELP_QUICK=1 KELP_RESULTS_DIR="$smoke_results" \
  cargo run --release -q -p kelp-bench --bin ext_fault_matrix -- \
  --quick --strict --no-cache >/dev/null

echo "== solver hot-path smoke (KELP_QUICK=1) =="
# Exits nonzero when the optimized timeline run records zero memo hits —
# i.e. the steady-state memoization silently stopped working.
KELP_QUICK=1 KELP_RESULTS_DIR="$smoke_results" \
  cargo run --release -q -p kelp-bench --bin ext_solver_hot -- \
  --quick >/dev/null

echo "== fleet batch smoke (KELP_QUICK=1) =="
# Exits nonzero when the batched runs record zero solved or zero converged
# lanes — i.e. the batched SoA path silently fell back to scalar stepping
# or the batch solver stopped converging.
KELP_QUICK=1 KELP_RESULTS_DIR="$smoke_results" \
  cargo run --release -q -p kelp-bench --bin ext_fleet_batch -- \
  --quick >/dev/null

echo "== fleet fault smoke (KELP_QUICK=1) =="
# Exits nonzero when a fleet fault-matrix cell injects nothing or the
# self-healing placer fails its acceptance quorum (>= 11 of 12 band cells
# vs the static placer under identical machine-lifecycle fault schedules).
KELP_QUICK=1 KELP_RESULTS_DIR="$smoke_results" \
  cargo run --release -q -p kelp-bench --bin ext_fleet_faults -- \
  --quick >/dev/null

echo "== perf gate (perf-baseline.json) =="
# Compares the checked-in benchmark artifacts (results/bench_*.json) against
# the per-host wall-clock baselines in perf-baseline.json. Denies on a host
# whose fingerprint has a recorded baseline, advisory elsewhere. Runs
# WITHOUT KELP_RESULTS_DIR so it judges the committed artifacts, not the
# smoke-run scratch output.
cargo run --release -q -p kelp-bench --bin perf_gate

echo "tier-1 OK"
