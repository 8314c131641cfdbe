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

echo "== kelp_benchmark pins =="
# One short benchmark run per workload whose output checks nothing else in
# tier-1 makes: the seed-0 work counters pinned in expected.json
# (solver_cold, fleet_steady), the fleet fault matrix against
# results/bench_fleet_faults.json, and every round equal to the warm-up
# round. A failed check exits 1 (pipefail keeps it through `tail`). The
# sweeps' checks repeat the regenerate-and-diff step below.
for workload in solver_cold fleet_steady fleet_faults; do
  cargo run --release -q --offline --locked \
    --manifest-path crates/bench/src/bin/kelp_benchmark/Cargo.toml -- \
    --workload "$workload" --seed 0 --seconds 0.01 | tail -n 1
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -D warnings =="
# The one static gate. The workspace lints (root Cargo.toml) forbid unsafe
# code and deny `#[allow]`, an unreasoned `#[expect]` and `dbg!`;
# clippy.toml bans hash collections, the wall clock, environment reads and
# the host CPU count; each library crate root warns on panics and stdout.
# A deliberate exception is a reasoned `#[expect]`, and a stale one fails
# here as an unfulfilled expectation.
cargo clippy --workspace --all-targets -- -D warnings

echo "== solver identity tests =="
# The hot-path determinism contract: scratch reuse and memoization must be
# bit-identical to fresh solves, and cold host steps must reproduce their
# pinned report digests (tests/solver_hot.rs); the max-min headroom exit
# must match progressive filling bit for bit (tests/proptests.rs); and the
# report a machine lends out must equal the copies the in-place and
# batched paths make of it (tests/report_owner.rs). Runs optimized, as the
# benchmark times it, even though the workspace test run above covers
# them, so a partial invocation of this script section still gates the
# contract.
cargo test -q --release --test solver_hot --test proptests --test report_owner

echo "== regenerate results/ and diff =="
# Every file under results/ is a pure function of the code. Regenerate all
# of them into a temp dir (run cache included, so nothing is served from
# results/cache/) and diff against the committed tree: a stale
# golden, a renamed or dropped field, or a committed file that no generator
# writes fails here. Each file has one writer: `repro_all` writes every
# file computed from experiment runs, and the three macro-benchmarks write
# the `bench_*` files. `set -e` keeps each generator's own exit check: error
# records, KP-H's fault bands (--strict), the fleet placer's quorum, batch
# lanes solved and converged, and the solver memo's hits and evaluation
# ratio (--strict).
regen_dir="$(mktemp -d)"
trap 'rm -rf "$regen_dir"' EXIT
regen() {
  KELP_RESULTS_DIR="$regen_dir" cargo run --release -q -p kelp-bench --bin "$@" >/dev/null
}
regen repro_all -- --jobs 2 --strict
regen ext_fleet_batch
regen ext_fleet_faults
regen ext_solver_hot -- --strict
diff -r --exclude=cache "$regen_dir" results

echo "tier-1 OK"
