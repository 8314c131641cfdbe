//! Macro-benchmark for the solver hot path: the fig03 timeline and fig13
//! overall workloads, run cold (`SolverTuning::baseline()`, every tick a
//! full fixed-point solve from the zero-load guess — the pre-optimization
//! solver's cost model) and optimized (memoization + warm starts, the
//! default), through the same experiment driver.
//!
//! Always runs at `ExperimentConfig::quick()`: the memo-off runs dominate,
//! and quick scale still walks the solver's fallback ladder
//! (non-converged solves, rescues, safe states). Prints a per-workload
//! comparison and writes `results/bench_solver_hot.json` with the solve
//! counters of both modes. Exits nonzero when the optimized timeline run
//! records zero memo hits (the steady-state memo is broken) or, with
//! `--strict`, when the optimized path does not need >= 3x fewer
//! evaluations overall.

use kelp::driver::ExperimentConfig;
use kelp::experiments::{overall, timeline};
use kelp::runner::RunSpec;
use kelp_mem::solver::{SolveStats, SolverTuning};
use serde::Serialize;

/// One (workload, tuning mode) measurement.
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    workload: String,
    mode: String,
    runs: usize,
    sim_steps: u64,
    stats: SolveStats,
}

/// The full benchmark artifact.
#[derive(Debug, Clone, Serialize)]
struct SolverHotReport {
    modes: Vec<ModeResult>,
    evaluation_ratio: f64,
    timeline_memo_hits: u64,
}

/// Runs every spec of one workload under `tuning`, accumulating solve cost.
fn run_workload(workload: &str, mode: &str, specs: &[RunSpec], tuning: SolverTuning) -> ModeResult {
    let mut stats = SolveStats::default();
    let mut sim_steps = 0u64;
    for spec in specs {
        match spec.build() {
            Ok(builder) => {
                let result = builder.solver_tuning(tuning).run();
                stats.absorb(&result.solve);
                sim_steps +=
                    (spec.config.warmup + spec.config.duration).div_duration(spec.config.dt);
            }
            Err(e) => {
                eprintln!("spec in {workload} failed to build: {}", e.message);
                std::process::exit(1);
            }
        }
    }
    ModeResult {
        workload: workload.to_string(),
        mode: mode.to_string(),
        runs: specs.len(),
        sim_steps,
        stats,
    }
}

fn main() {
    let config = ExperimentConfig::quick();
    let args = kelp_bench::checked_args(&["--strict"], &[]);
    let strict = args.iter().any(|a| a == "--strict");

    let workloads: Vec<(&str, Vec<RunSpec>)> = vec![
        ("timeline", timeline::specs(&config)),
        ("overall", overall::specs(&config)),
    ];

    let mut modes = Vec::new();
    for (name, specs) in &workloads {
        for (mode, tuning) in [
            ("baseline", SolverTuning::baseline()),
            ("optimized", SolverTuning::default()),
        ] {
            let r = run_workload(name, mode, specs, tuning);
            println!(
                "{name:<8} {mode:<9} {} runs  {:>8} steps  {} evals  {} memo  {} warm",
                r.runs, r.sim_steps, r.stats.evaluations, r.stats.memo_hits, r.stats.warm_hits,
            );
            modes.push(r);
        }
    }

    let evaluations = |mode: &str| -> f64 {
        modes
            .iter()
            .filter(|m| m.mode == mode)
            .map(|m| m.stats.evaluations as f64)
            .sum()
    };
    let base_evals = evaluations("baseline");
    let opt_evals = evaluations("optimized");
    let evaluation_ratio = if opt_evals > 0.0 {
        base_evals / opt_evals
    } else {
        0.0
    };
    let timeline_memo_hits: u64 = modes
        .iter()
        .filter(|m| m.workload == "timeline" && m.mode == "optimized")
        .map(|m| m.stats.memo_hits)
        .sum();

    println!(
        "\noverall: {evaluation_ratio:.2}x fewer evaluations ({base_evals:.0} -> {opt_evals:.0})"
    );

    let report = SolverHotReport {
        modes,
        evaluation_ratio,
        timeline_memo_hits,
    };
    kelp_bench::save_json(kelp_bench::results_dir(), "bench_solver_hot", &report);

    if timeline_memo_hits == 0 {
        eprintln!("FAIL: optimized timeline run recorded zero memo hits");
        std::process::exit(1);
    }
    if strict && evaluation_ratio < 3.0 {
        eprintln!(
            "FAIL: optimized path needs only {evaluation_ratio:.2}x fewer evaluations, need >= 3x"
        );
        std::process::exit(3);
    }
}
