//! Macro-benchmark for fleet-scale batched stepping (ISSUE 6): a 1000-host
//! population advanced tick-by-tick through the scalar baseline (one
//! [`kelp_host::HostMachine::solve`] per machine per tick) and through the
//! batched SoA path ([`kelp_workloads::FleetSim::step_batched`]) at several
//! `--jobs` values, which the fleet ignores (it steps on one thread).
//!
//! Prints a per-mode comparison and writes `results/bench_fleet_batch.json`
//! with aggregate host-steps/sec for every mode plus the batch path's work
//! accounting. Exits nonzero when the batched runs record zero solved or
//! zero converged lanes (the batch path silently fell back to scalar or the
//! solver diverged) or, with `--strict`, when the best batched mode is
//! below 1.5x the scalar baseline's host-steps/sec. (The bar was 5x before
//! the clean-machine replay fast path landed in `HostMachine::step_into`;
//! the scalar loop now shares that shortcut, which compresses the ratio.)
//!
//! `--quick` (or `KELP_QUICK=1`) shrinks the fleet for smoke testing; the
//! strict speedup bar only applies at full scale.

use kelp::report::write_json;
use kelp_workloads::{FleetSim, FleetSimConfig};
use serde::Serialize;
use std::time::Instant;

/// One (step path, `jobs`) measurement.
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    mode: String,
    jobs: usize,
    wall_s: f64,
    host_steps: u64,
    steps_per_sec: f64,
}

/// The full benchmark artifact.
#[derive(Debug, Clone, Serialize)]
struct FleetBatchReport {
    machines: usize,
    ticks: usize,
    host_cpus: usize,
    modes: Vec<ModeResult>,
    adaptive_skips: u64,
    memo_hits: u64,
    lanes_solved: u64,
    lanes_converged: u64,
    best_jobs: usize,
    speedup_steps_per_sec: f64,
}

fn mode_result(mode: &str, jobs: usize, host_steps: u64, wall_s: f64) -> ModeResult {
    ModeResult {
        mode: mode.to_string(),
        jobs,
        wall_s,
        host_steps,
        steps_per_sec: if wall_s > 0.0 {
            host_steps as f64 / wall_s
        } else {
            0.0
        },
    }
}

/// Advances a fresh fleet `ticks` ticks through the scalar loop.
fn run_serial(config: FleetSimConfig, ticks: usize) -> ModeResult {
    let mut sim = FleetSim::new(config);
    let mut host_steps = 0u64;
    let start = Instant::now();
    for _ in 0..ticks {
        sim.churn();
        host_steps += sim.step_serial().len() as u64;
    }
    mode_result("scalar", 1, host_steps, start.elapsed().as_secs_f64())
}

/// Advances a fresh fleet `ticks` ticks through the batched path, returning
/// the measurement plus the batch work counters.
fn run_batched(
    config: FleetSimConfig,
    ticks: usize,
    jobs: usize,
) -> (ModeResult, kelp_host::HostBatchStats) {
    let mut sim = FleetSim::new(config);
    let mut host_steps = 0u64;
    let mut reports = Vec::new();
    let start = Instant::now();
    for _ in 0..ticks {
        sim.churn();
        sim.step_batched_into(jobs, &mut reports);
        host_steps += reports.len() as u64;
    }
    let r = mode_result("batched", jobs, host_steps, start.elapsed().as_secs_f64());
    (r, sim.batch_stats())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // kelp-lint: allow(KL-T01): KELP_QUICK/--quick is the documented smoke-scale knob; it sizes the fleet, and scale-dependent stats are the measurement itself.
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("KELP_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let strict = args.iter().any(|a| a == "--strict");

    // Full scale runs long enough that the cold solves (tick 0 solves every
    // machine, and early churn keeps producing never-seen phase combos,
    // identically on both paths) amortize and the measurement reflects
    // steady-state fleet stepping.
    let (machines, default_ticks) = if quick { (64, 8) } else { (1000, 512) };
    let arg_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let ticks: usize = arg_of("--ticks")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_ticks);
    let mut config = FleetSimConfig {
        machines,
        ..FleetSimConfig::default()
    };
    if let Some(churn) = arg_of("--churn").and_then(|v| v.parse().ok()) {
        config.churn_probability = churn;
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let serial = run_serial(config, ticks);
    println!(
        "{:<8} jobs={} {:>8} steps  {:>7.3}s  {:>10.0} steps/s",
        serial.mode, serial.jobs, serial.host_steps, serial.wall_s, serial.steps_per_sec
    );

    let mut modes = vec![serial.clone()];
    let mut adaptive_skips = 0u64;
    let mut memo_hits = 0u64;
    let mut lanes_solved = 0u64;
    let mut lanes_converged = 0u64;
    for jobs in [1usize, 2, 4, 8] {
        let (r, stats) = run_batched(config, ticks, jobs);
        println!(
            "{:<8} jobs={} {:>8} steps  {:>7.3}s  {:>10.0} steps/s  {} skips  {} memo  {} lanes ({} conv)",
            r.mode,
            r.jobs,
            r.host_steps,
            r.wall_s,
            r.steps_per_sec,
            stats.adaptive_skips,
            stats.memo_hits,
            stats.lanes_solved,
            stats.lanes_converged,
        );
        adaptive_skips = adaptive_skips.saturating_add(stats.adaptive_skips);
        memo_hits = memo_hits.saturating_add(stats.memo_hits);
        lanes_solved = lanes_solved.saturating_add(stats.lanes_solved);
        lanes_converged = lanes_converged.saturating_add(stats.lanes_converged);
        modes.push(r);
    }

    let best = modes
        .iter()
        .filter(|m| m.mode == "batched")
        .max_by(|a, b| a.steps_per_sec.total_cmp(&b.steps_per_sec))
        .cloned()
        .unwrap_or_else(|| mode_result("batched", 0, 0, 0.0));
    let speedup = if serial.steps_per_sec > 0.0 {
        best.steps_per_sec / serial.steps_per_sec
    } else {
        0.0
    };
    println!(
        "\nbest batched (jobs={}): {:.2}x scalar host-steps/sec ({:.0} -> {:.0})",
        best.jobs, speedup, serial.steps_per_sec, best.steps_per_sec
    );

    let report = FleetBatchReport {
        machines,
        ticks,
        host_cpus,
        modes,
        adaptive_skips,
        memo_hits,
        lanes_solved,
        lanes_converged,
        best_jobs: best.jobs,
        speedup_steps_per_sec: speedup,
    };
    let _ = write_json(kelp_bench::results_dir(), "bench_fleet_batch", &report);

    if lanes_solved == 0 || lanes_converged == 0 {
        eprintln!(
            "FAIL: batched runs solved {lanes_solved} lanes ({lanes_converged} converged) — \
             the batch path fell back to scalar or the solver diverged"
        );
        std::process::exit(1);
    }
    if strict && speedup < 1.5 {
        eprintln!("FAIL: best batched mode is {speedup:.2}x scalar host-steps/sec, need >= 1.5x");
        std::process::exit(3);
    }
}
