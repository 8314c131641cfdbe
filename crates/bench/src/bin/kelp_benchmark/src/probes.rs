//! Per-layer probes. Each times the public calls of one layer in isolation,
//! on fixed inputs made from the seed, so a change to one layer shows in its
//! own metric. A traced run of any workload runs all of them; README.md maps
//! each metric to the end-to-end metric and workload it should move.

use crate::sim::fleet_config;
use crate::stats::{median, percentile, Stopwatch};
use crate::sweep::{grid, seeded};
use crate::{Metric, JOBS};
use kelp::driver::{ExecScratch, ExperimentConfig};
use kelp::experiments::faults::Intensity;
use kelp::experiments::fleet_faults::FleetFaultsConfig;
use kelp::experiments::{overall, sensitivity, timeline};
use kelp::runner::{RunSpec, Runner};
use kelp_host::{CpuAllocation, HostMachine, MachineReport, Priority, TaskSpec, ThreadProfile};
use kelp_mem::solver::{SolveStats, SolverTuning};
use kelp_mem::{DomainId, MachineSpec, SncMode};
use kelp_simcore::fault::FaultKind;
use kelp_workloads::{BatchKind, FleetSim, ResilientFleet};
use std::hint::black_box;
use std::path::Path;

/// The per-layer metrics the probes report: (name, unit).
pub const METRICS: [(&str, &str); 26] = [
    ("runner.spec_hash_us", "us"),
    ("runner.cache_scan_ms", "ms"),
    ("runner.cache_hit_ms_p50", "ms"),
    ("runner.cache_hit_traced_ms", "ms"),
    ("runner.dispatch_overhead_ms", "ms"),
    ("runner.jobs2_speedup", "ratio"),
    ("serde_json.parse_mb_per_s", "MB/s"),
    ("serde_json.parse_traced_mb_per_s", "MB/s"),
    ("serde_json.render_mb_per_s", "MB/s"),
    ("driver.tick_ns", "ns"),
    ("driver.spec_ms_p50", "ms"),
    ("driver.cold_tick_ns", "ns"),
    ("host.replay_ns", "ns"),
    ("host.memo_probe_ns", "ns"),
    ("host.memo_hit_ratio", "ratio"),
    ("mem.cold_solve_ns", "ns"),
    ("mem.evals_per_solve", "count"),
    ("mem.iterations_per_solve", "count"),
    ("host_batch.step_us_p50", "us"),
    ("host_batch.skip_ratio", "ratio"),
    ("host_batch.lanes_solved", "count"),
    ("fleet.tick_us_p99", "us"),
    ("workloads.churn_us_p50", "us"),
    ("resilient.tick_us_p50_jobs1", "us"),
    ("resilient.parallel_overhead_us", "us"),
    ("resilient.tick_us_p99", "us"),
];

type Values = Vec<(&'static str, f64)>;

/// Runs every probe and returns the metrics in [`METRICS`] order.
pub fn run(scratch: &Path, seed: u64) -> Result<Vec<Metric>, String> {
    let mut values = Values::new();
    cache_and_json(scratch, seed, &mut values)?;
    engine_and_driver(seed, &mut values);
    host_and_mem(&mut values)?;
    fleet(seed, &mut values);
    resilient(seed, &mut values);
    METRICS
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| Metric::new(name, value, unit))
                .ok_or_else(|| format!("probe metric {name} was not measured"))
        })
        .collect()
}

/// `core::runner` keys and cache, and the `serde_json` shim that stores
/// cache entries, at the default config. One probe cache holds eight
/// ordinary sensitivity runs; another holds the serial RNN1 timeline run,
/// whose phase trace makes it one of the two largest entries a sweep writes.
fn cache_and_json(scratch: &Path, seed: u64, out: &mut Values) -> Result<(), String> {
    let config = ExperimentConfig::default();

    let specs: Vec<RunSpec> = grid(&config, seed).into_iter().flatten().collect();
    let reps = 20;
    let clock = Stopwatch::start();
    for _ in 0..reps {
        for spec in &specs {
            black_box(spec.hash());
        }
    }
    out.push((
        "runner.spec_hash_us",
        clock.secs() * 1e6 / (reps * specs.len()) as f64,
    ));

    let plain = seeded(
        sensitivity::specs(&[BatchKind::LlcAggressor], &config),
        seed,
    );
    let plain_dir = scratch.join("probe-plain");
    fill(&plain_dir, &plain, false)?;
    let traced: Vec<RunSpec> = seeded(timeline::specs(&config), seed)
        .into_iter()
        .take(1)
        .collect();
    let traced_dir = scratch.join("probe-traced");
    fill(&traced_dir, &traced, true)?;

    let scans: Vec<f64> = (0..5)
        .map(|_| {
            let runner = Runner::serial().with_cache(&plain_dir);
            let clock = Stopwatch::start();
            black_box(runner.run_batch(&[]));
            clock.secs() * 1e3
        })
        .collect();
    out.push(("runner.cache_scan_ms", median(&scans)));

    let runner = Runner::serial().with_cache(&plain_dir);
    runner.run_batch(&[]);
    let mut hits = Vec::new();
    for _ in 0..5 {
        for spec in &plain {
            let clock = Stopwatch::start();
            black_box(runner.run_one(spec));
            hits.push(clock.secs() * 1e3);
        }
    }
    out.push(("runner.cache_hit_ms_p50", median(&hits)));
    let runner = Runner::serial().with_cache(&traced_dir);
    runner.run_batch(&[]);
    let clock = Stopwatch::start();
    black_box(runner.run_batch(&traced));
    out.push(("runner.cache_hit_traced_ms", clock.secs() * 1e3));

    let plain_texts = read_entries(&plain_dir)?;
    let traced_texts = read_entries(&traced_dir)?;
    let parse = |text: &str| serde_json::from_str::<serde::Value>(text).map_err(|e| e.to_string());
    let megabytes = |texts: &[String]| texts.iter().map(String::len).sum::<usize>() as f64 / 1e6;

    let reps = 50;
    let clock = Stopwatch::start();
    for _ in 0..reps {
        for text in &plain_texts {
            black_box(parse(text)?);
        }
    }
    out.push((
        "serde_json.parse_mb_per_s",
        megabytes(&plain_texts) * reps as f64 / clock.secs(),
    ));

    let clock = Stopwatch::start();
    let mut values = Vec::new();
    for text in &traced_texts {
        values.push(black_box(parse(text)?));
    }
    out.push((
        "serde_json.parse_traced_mb_per_s",
        megabytes(&traced_texts) / clock.secs(),
    ));

    for text in &plain_texts {
        values.push(parse(text)?);
    }
    let reps = 3;
    let mut bytes = 0;
    let clock = Stopwatch::start();
    for _ in 0..reps {
        for value in &values {
            bytes += black_box(serde_json::to_string(value).map_err(|e| e.to_string())?).len();
        }
    }
    out.push((
        "serde_json.render_mb_per_s",
        bytes as f64 / 1e6 / clock.secs(),
    ));
    Ok(())
}

/// Fills a fresh cache directory with `specs`' records.
fn fill(dir: &Path, specs: &[RunSpec], traced: bool) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let records = Runner::new(JOBS).with_cache(dir).run_batch(specs);
    match records
        .iter()
        .find(|r| r.is_error() || r.trace.is_some() != traced)
    {
        Some(r) => Err(format!("unexpected probe cache record: {:?}", r.error)),
        None => Ok(()),
    }
}

/// The text of every entry in a cache directory.
fn read_entries(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut texts = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        texts.push(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(texts)
}

/// `core::runner` dispatch against direct `core::driver` execution, on the
/// 52 Figure 13 runs at the quick config, three alternating passes each;
/// and a cold (memo and warm starts off) run of the quick Figure 3 specs
/// for the solver's per-tick cost.
fn engine_and_driver(seed: u64, out: &mut Values) {
    let quick = ExperimentConfig::quick();
    let specs = seeded(overall::specs(&quick), seed);

    let mut scratch = ExecScratch::new();
    let mut spec_ms = Vec::new();
    let mut direct_ms = Vec::new();
    let mut serial_ms = Vec::new();
    let mut records = Vec::new();
    let timed_batch = |runner: &Runner| {
        let clock = Stopwatch::start();
        black_box(runner.run_batch(&specs));
        clock.secs() * 1e3
    };
    for _ in 0..3 {
        records.clear();
        let mut total = 0.0;
        for spec in &specs {
            let clock = Stopwatch::start();
            records.push(spec.execute_with(&mut scratch));
            let ms = clock.secs() * 1e3;
            spec_ms.push(ms);
            total += ms;
        }
        direct_ms.push(total);
        serial_ms.push(timed_batch(&Runner::serial()));
    }
    let sim_steps: u64 = records.iter().map(|r| r.meta.sim_steps).sum();
    let mut stats = SolveStats::default();
    for record in &records {
        stats.absorb(&record.meta.solve);
    }
    let (direct, serial) = (median(&direct_ms), median(&serial_ms));
    out.push(("driver.spec_ms_p50", median(&spec_ms)));
    out.push(("driver.tick_ns", direct * 1e6 / sim_steps as f64));
    out.push((
        "host.memo_hit_ratio",
        stats.memo_hits as f64 / stats.solves as f64,
    ));
    out.push(("runner.dispatch_overhead_ms", serial - direct));
    let parallel = Runner::new(JOBS);
    timed_batch(&parallel); // spawns the pool
    out.push(("runner.jobs2_speedup", serial / timed_batch(&parallel)));

    let mut stats = SolveStats::default();
    let clock = Stopwatch::start();
    for spec in seeded(timeline::specs(&quick), seed) {
        if let Ok(builder) = spec.build() {
            let result = builder
                .solver_tuning(SolverTuning::baseline())
                .run_with(&mut scratch);
            stats.absorb(&result.solve);
        }
    }
    let solves = stats.solves as f64;
    out.push(("driver.cold_tick_ns", clock.secs() * 1e9 / solves));
    out.push(("mem.evals_per_solve", stats.evaluations as f64 / solves));
    out.push(("mem.iterations_per_solve", stats.iterations as f64 / solves));
}

/// `host::machine` step paths and the `mem` solver beneath them, on one
/// host shaped like a fleet machine: an ML task and a batch task.
fn host_and_mem(out: &mut Values) -> Result<(), String> {
    let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
    let ml = machine.add_task(
        TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(2e9), 4),
        vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
    );
    machine.add_task(
        TaskSpec::new("batch", Priority::Low, ThreadProfile::streaming(1e9), 8),
        vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
    );
    let mut report = MachineReport::empty();
    machine.step_into(&mut report);
    let input = machine
        .memo_snapshot()
        .into_iter()
        .next()
        .map(|(input, _)| input)
        .ok_or("a solved machine has no memo entry")?;

    let reps = 20_000;
    let clock = Stopwatch::start();
    for _ in 0..reps {
        black_box(machine.mem().solve(&input));
    }
    out.push(("mem.cold_solve_ns", clock.secs() * 1e9 / reps as f64));

    // A clean machine replays its last report.
    let reps = 200_000;
    let clock = Stopwatch::start();
    for _ in 0..reps {
        machine.step_into(&mut report);
    }
    black_box(&report);
    out.push(("host.replay_ns", clock.secs() * 1e9 / reps as f64));

    // Alternating between two memoized phases: every step lowers the
    // configuration and finds it in the memo.
    machine.set_intensity(ml, 0.5);
    machine.step_into(&mut report);
    let reps = 100_000;
    let clock = Stopwatch::start();
    for i in 0..reps {
        machine.set_intensity(ml, if i % 2 == 0 { 1.0 } else { 0.5 });
        machine.step_into(&mut report);
    }
    black_box(&report);
    out.push(("host.memo_probe_ns", clock.secs() * 1e9 / reps as f64));
    Ok(())
}

/// `workloads::fleet` churn and the `host::batch` stepper under it: 2048
/// ticks of a fresh `fleet_steady` fleet.
fn fleet(seed: u64, out: &mut Values) {
    let mut sim = FleetSim::new(fleet_config(seed));
    let mut reports = Vec::new();
    let (mut churn, mut step, mut tick) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2048 {
        let clock = Stopwatch::start();
        sim.churn();
        let churned = clock.secs();
        sim.step_batched_into(JOBS, &mut reports);
        let total = clock.secs();
        churn.push(churned * 1e6);
        step.push((total - churned) * 1e6);
        tick.push(total * 1e6);
    }
    let stats = sim.batch_stats();
    out.push(("workloads.churn_us_p50", median(&churn)));
    out.push(("host_batch.step_us_p50", median(&step)));
    out.push(("fleet.tick_us_p99", percentile(&tick, 99.0)));
    out.push((
        "host_batch.skip_ratio",
        stats.adaptive_skips as f64 / stats.machines_stepped as f64,
    ));
    out.push(("host_batch.lanes_solved", stats.lanes_solved as f64));
}

/// `workloads::resilient` ticks at one and two workers: the six self-healing
/// cells of the `fleet_faults` matrix, 1152 ticks per worker count.
fn resilient(seed: u64, out: &mut Values) {
    let base = FleetFaultsConfig::default();
    let config = FleetFaultsConfig {
        machines: 96,
        ticks: 192,
        seed: base.seed ^ seed,
        ..base
    };
    let ticks_us = |jobs: usize| {
        let mut us = Vec::new();
        for kind in FaultKind::machine_level() {
            for intensity in Intensity::all() {
                let mut fleet = ResilientFleet::new(config.cell(kind, intensity, true));
                for _ in 0..config.ticks {
                    let clock = Stopwatch::start();
                    black_box(fleet.tick_batched(jobs));
                    us.push(clock.secs() * 1e6);
                }
            }
        }
        us
    };
    let serial = ticks_us(1);
    let parallel = ticks_us(JOBS);
    out.push(("resilient.tick_us_p50_jobs1", median(&serial)));
    out.push((
        "resilient.parallel_overhead_us",
        median(&parallel) - median(&serial),
    ));
    out.push(("resilient.tick_us_p99", percentile(&parallel, 99.0)));
}
