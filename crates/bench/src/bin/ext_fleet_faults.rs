//! Macro-benchmark for the fleet fault matrix (ISSUE 7): every
//! machine-lifecycle fault class at two intensities against the
//! self-healing placer and the static baseline, on identically seeded
//! fleets stepped through the batched SoA path.
//!
//! Prints the per-cell matrix (fraction-in-distress, fleet SLO attainment,
//! degraded ticks, displaced jobs, mean time-to-recover) and writes
//! `results/bench_fleet_faults.json`. Exits nonzero when a cell's fault
//! schedule came up empty or the self-healing placer fails its acceptance
//! quorum (holding at least 11 of the 12 band cells — see
//! `kelp::experiments::fleet_faults`).
//!
//! `--quick` shrinks the fleet for smoke testing; `--machines N` and
//! `--ticks N` (each at least 1) override its size. An unknown flag or a
//! bad value exits 2 and writes nothing.

use kelp::experiments::fleet_faults::{run_fleet_faults, FleetFaultsConfig, FleetFaultsResult};
use kelp_bench::cli::{parse_flag_in, parse_jobs};
use kelp_bench::exit_on_usage_error;
use serde::Serialize;

/// The benchmark artifact: the matrix plus its band verdicts.
#[derive(Debug, Clone, Serialize)]
struct FleetFaultsReport {
    bands_held: usize,
    bands_total: usize,
    holds: bool,
    #[serde(flatten)]
    matrix: FleetFaultsResult,
}

fn main() {
    let args = kelp_bench::checked_args(&["--quick"], &["--machines", "--ticks", "--jobs"]);
    let quick = args.iter().any(|a| a == "--quick");

    let mut config = if quick {
        FleetFaultsConfig::quick()
    } else {
        FleetFaultsConfig {
            machines: 96,
            ticks: 192,
            jobs: 4,
            ..FleetFaultsConfig::default()
        }
    };
    // A malformed or out-of-range value is a usage error (exit 2), never
    // the default.
    if let Some(m) = exit_on_usage_error(parse_flag_in(&args, "--machines", 1..)) {
        config.machines = m;
    }
    if let Some(t) = exit_on_usage_error(parse_flag_in(&args, "--ticks", 1..)) {
        config.ticks = t;
    }
    if args.iter().any(|a| a == "--jobs") {
        config.jobs = exit_on_usage_error(parse_jobs(&args));
    }

    let matrix = run_fleet_faults(&config);

    println!("{}", matrix.table().render());
    println!(
        "bands held: {}/{}  ({} machines, {} ticks, jobs={})",
        matrix.bands_held(),
        matrix.bands_total(),
        config.machines,
        config.ticks,
        config.jobs,
    );

    let report = FleetFaultsReport {
        bands_held: matrix.bands_held(),
        bands_total: matrix.bands_total(),
        holds: matrix.holds(),
        matrix,
    };
    kelp_bench::save_json(kelp_bench::results_dir(), "bench_fleet_faults", &report);

    if !report.matrix.injected_faults() {
        eprintln!("FAIL: a cell's fault schedule injected nothing — the matrix measured air");
        std::process::exit(1);
    }
    if !report.holds {
        eprintln!(
            "FAIL: self-healing placer held {}/{} band cells, need >= 11",
            report.bands_held, report.bands_total
        );
        std::process::exit(2);
    }
}
