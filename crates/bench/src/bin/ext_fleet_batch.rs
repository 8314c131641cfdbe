//! Macro-benchmark for fleet-scale batched stepping (ISSUE 6): a 1000-host
//! population advanced tick-by-tick through the batched SoA path
//! ([`kelp_workloads::FleetSim::step_batched_into`]).
//!
//! Prints and writes `results/bench_fleet_batch.json` with the host-step
//! count and the batch path's work accounting. Exits nonzero when the run
//! records zero solved or zero converged lanes (the batch path silently
//! fell back to scalar or the solver diverged). That batched stepping
//! equals the scalar loop is tested in `tests/fleet_batch.rs`.
//!
//! `--quick` shrinks the fleet for smoke testing; `--ticks N` (at least 1)
//! and `--churn P` (a probability in [0, 1]) override the run's length and
//! churn. An unknown flag or a bad value exits 2 and writes nothing.

use kelp_bench::cli::parse_flag_in;
use kelp_bench::exit_on_usage_error;
use kelp_workloads::{FleetSim, FleetSimConfig};
use serde::Serialize;

/// The benchmark artifact: the run's size and its batch work counters.
#[derive(Debug, Clone, Serialize)]
struct FleetBatchReport {
    machines: usize,
    ticks: usize,
    host_steps: u64,
    adaptive_skips: u64,
    memo_hits: u64,
    lanes_solved: u64,
    lanes_converged: u64,
}

fn main() {
    let args = kelp_bench::checked_args(&["--quick"], &["--ticks", "--churn"]);
    let quick = args.iter().any(|a| a == "--quick");

    // Full scale runs long enough that the cold solves (tick 0 solves every
    // machine, and early churn keeps producing never-seen phase combos)
    // amortize and the counters reflect steady-state fleet stepping.
    let (machines, default_ticks) = if quick { (64, 8) } else { (1000, 512) };
    // A malformed or out-of-range value is a usage error (exit 2), never
    // the default.
    let ticks: usize =
        exit_on_usage_error(parse_flag_in(&args, "--ticks", 1..)).unwrap_or(default_ticks);
    let mut config = FleetSimConfig {
        machines,
        ..FleetSimConfig::default()
    };
    if let Some(churn) = exit_on_usage_error(parse_flag_in(&args, "--churn", 0.0..=1.0)) {
        config.churn_probability = churn;
    }

    let mut sim = FleetSim::new(config);
    let mut host_steps = 0u64;
    let mut reports = Vec::new();
    for _ in 0..ticks {
        sim.churn();
        sim.step_batched_into(1, &mut reports);
        host_steps += reports.len() as u64;
    }
    let stats = sim.batch_stats();
    println!(
        "{machines} machines x {ticks} ticks: {host_steps} steps  {} skips  {} memo  {} lanes ({} conv)",
        stats.adaptive_skips, stats.memo_hits, stats.lanes_solved, stats.lanes_converged,
    );

    let report = FleetBatchReport {
        machines,
        ticks,
        host_steps,
        adaptive_skips: stats.adaptive_skips,
        memo_hits: stats.memo_hits,
        lanes_solved: stats.lanes_solved,
        lanes_converged: stats.lanes_converged,
    };
    kelp_bench::save_json(kelp_bench::results_dir(), "bench_fleet_batch", &report);

    if report.lanes_solved == 0 || report.lanes_converged == 0 {
        eprintln!(
            "FAIL: batched run solved {} lanes ({} converged) — \
             the batch path fell back to scalar or the solver diverged",
            report.lanes_solved, report.lanes_converged
        );
        std::process::exit(1);
    }
}
