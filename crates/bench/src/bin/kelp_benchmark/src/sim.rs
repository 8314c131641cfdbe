//! `solver_cold`, `fleet_steady` and `fleet_faults`: the simulator driven
//! directly, below the run engine.

use crate::{Bench, Checks, Round, Tracer, JOBS};
use kelp::driver::{ExecScratch, ExperimentBuilder, ExperimentConfig, ExperimentResult};
use kelp::experiments::faults::Intensity;
use kelp::experiments::fleet_faults::{FleetFaultCell, FleetFaultsConfig};
use kelp::experiments::timeline;
use kelp::runner::{fnv1a64, RunError, RunSpec};
use kelp_host::MachineReport;
use kelp_mem::solver::{SolveStats, SolverTuning};
use kelp_simcore::fault::FaultKind;
use kelp_workloads::{FleetSim, FleetSimConfig, ResilientFleet};
use serde::{Serialize, Value};
use std::path::Path;

/// Results pinned at seed 0, keyed by workload.
const EXPECTED: &str = include_str!("../expected.json");

/// The seed-0 pin of `workload` from `expected.json`.
fn expected(workload: &str) -> Result<Value, String> {
    match serde_json::from_str::<Value>(EXPECTED) {
        Ok(Value::Map(entries)) => entries
            .into_iter()
            .find_map(|(k, v)| (k == workload).then_some(v))
            .ok_or_else(|| format!("expected.json has no `{workload}` entry")),
        Ok(_) => Err("expected.json is not an object".into()),
        Err(e) => Err(format!("expected.json does not parse: {e}")),
    }
}

/// Checks a round's pin against `expected.json` (seed 0 only).
fn check_pin(workload: &str, seed: u64, pin: &Value, checks: &mut Checks) -> Result<(), String> {
    if seed == 0 {
        let want = expected(workload)?;
        checks.require(*pin == want, || {
            format!(
                "{workload} seed-0 results differ from expected.json: got {}",
                serde_json::to_string(pin).unwrap_or_default()
            )
        });
    }
    Ok(())
}

fn count(name: &str, n: u64) -> (String, Value) {
    (name.to_string(), Value::UInt(n))
}

/// The four Figure 3 timeline specs, run serially with memoization and warm
/// starts off: every simulated tick is a full fixed-point solve.
pub struct SolverCold {
    seed: u64,
    specs: Vec<RunSpec>,
    scratch: ExecScratch,
    /// Simulated ticks per round (one solve each).
    ticks: u64,
}

impl SolverCold {
    pub fn new(seed: u64) -> Self {
        let specs = crate::sweep::seeded(timeline::specs(&ExperimentConfig::default()), seed);
        let ticks = specs
            .iter()
            .map(|s| (s.config.warmup + s.config.duration).div_duration(s.config.dt))
            .sum();
        SolverCold {
            seed,
            specs,
            scratch: ExecScratch::new(),
            ticks,
        }
    }
}

impl Bench for SolverCold {
    type State = Vec<Result<ExperimentBuilder, RunError>>;
    type Output = Vec<Result<ExperimentResult, RunError>>;

    /// Materializes the specs into experiments with the solver's
    /// memoization and warm starts off.
    fn set_up(&mut self) -> Self::State {
        self.specs
            .iter()
            .map(|spec| Ok(spec.build()?.solver_tuning(SolverTuning::baseline())))
            .collect()
    }

    fn run_round(&mut self, builders: &mut Self::State, tracer: &mut Tracer) -> Self::Output {
        std::mem::take(builders)
            .into_iter()
            .map(|builder| {
                let builder = builder?;
                Ok(tracer.span("driver.run_with", |_| builder.run_with(&mut self.scratch)))
            })
            .collect()
    }

    fn finish_round(
        &mut self,
        _: Self::State,
        output: Self::Output,
        checks: &mut Checks,
    ) -> Result<Round, String> {
        let mut stats = SolveStats::default();
        let mut ml = Vec::new();
        let mut cpu = Vec::new();
        let mut failed = 0;
        for result in &output {
            match result {
                Ok(r) => {
                    stats.absorb(&r.solve);
                    ml.push(Value::Float(r.ml_performance.throughput));
                    let per_workload = r.cpu_performance.iter().map(|(_, p)| p.throughput);
                    cpu.push(Value::Seq(per_workload.map(Value::Float).collect()));
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("kelp_benchmark: a timeline spec did not build: {e}");
                }
            }
        }
        checks.require(stats.memo_hits == 0, || {
            format!("{} memo hits with memoization off", stats.memo_hits)
        });
        checks.require(stats.solves == self.ticks, || {
            format!("{} solves for {} ticks", stats.solves, self.ticks)
        });
        let pin = Value::Map(vec![
            count("solves", stats.solves),
            count("iterations", stats.iterations),
            count("evaluations", stats.evaluations),
            ("ml_throughput".into(), Value::Seq(ml)),
            ("cpu_throughput".into(), Value::Seq(cpu)),
        ]);
        check_pin("solver_cold", self.seed, &pin, checks)?;
        Ok(Round {
            ops: output.len() as u64,
            failed_ops: failed,
            host_steps: stats.solves,
            output: serde_json::to_string(&pin).map_err(|e| e.to_string())?,
        })
    }
}

/// Fleet size of `fleet_steady`: below the batched path's sharding
/// threshold, so `jobs = 2` steps on one thread.
const FLEET_MACHINES: usize = 1000;
/// Ticks per `fleet_steady` round.
const FLEET_TICKS: usize = 8192;

/// The seeded `fleet_steady` fleet shape.
pub fn fleet_config(seed: u64) -> FleetSimConfig {
    let base = FleetSimConfig::default();
    FleetSimConfig {
        machines: FLEET_MACHINES,
        seed: base.seed ^ seed,
        ..base
    }
}

/// A fresh 1000-host [`FleetSim`] per round under the default churn, each
/// tick one `churn` plus one batched step.
pub struct FleetSteady {
    seed: u64,
}

impl FleetSteady {
    pub fn new(seed: u64) -> Self {
        FleetSteady { seed }
    }
}

impl Bench for FleetSteady {
    type State = (FleetSim, Vec<MachineReport>);
    type Output = ();

    fn set_up(&mut self) -> Self::State {
        (FleetSim::new(fleet_config(self.seed)), Vec::new())
    }

    fn run_round(&mut self, (sim, reports): &mut Self::State, tracer: &mut Tracer) {
        for _ in 0..FLEET_TICKS {
            tracer.span("fleet.churn", |_| sim.churn());
            tracer.span("fleet.step_batched_into", |_| {
                sim.step_batched_into(JOBS, reports)
            });
        }
    }

    fn finish_round(
        &mut self,
        (sim, reports): Self::State,
        (): (),
        checks: &mut Checks,
    ) -> Result<Round, String> {
        checks.require(sim.step_serial() == reports, || {
            "the last batched tick differs from the serial step".to_string()
        });
        let s = sim.batch_stats();
        let steps = (FLEET_TICKS * FLEET_MACHINES) as u64;
        checks.require(
            s.machines_stepped == steps
                && s.down_steps + s.adaptive_skips + s.memo_hits + s.lanes_solved == steps
                && s.lanes_converged <= s.lanes_solved
                && s.lane_fallbacks <= s.lanes_solved,
            || format!("batch stats do not add up to {steps} steps: {s:?}"),
        );
        let pin = Value::Map(vec![
            count("machines_stepped", s.machines_stepped),
            count("adaptive_skips", s.adaptive_skips),
            count("memo_hits", s.memo_hits),
            count("lanes_solved", s.lanes_solved),
            count("lanes_converged", s.lanes_converged),
            count("down_steps", s.down_steps),
            count("lane_fallbacks", s.lane_fallbacks),
        ]);
        check_pin("fleet_steady", self.seed, &pin, checks)?;
        let digest = fnv1a64(format!("{reports:?}").as_bytes());
        Ok(Round {
            ops: FLEET_TICKS as u64,
            failed_ops: 0,
            host_steps: steps,
            output: format!(
                "{} last-tick reports {digest:016x}",
                serde_json::to_string(&pin).map_err(|e| e.to_string())?
            ),
        })
    }
}

/// One matrix cell's fleets: fault class, intensity, then the self-healing
/// and the static fleet under the same fault schedule.
type CellFleets = (FaultKind, Intensity, ResilientFleet, ResilientFleet);

/// The `ext_fleet_faults` matrix: every machine-level fault class at both
/// intensities, self-healing against static placement, 96 hosts × 192 ticks
/// each, driven through `ResilientFleet` directly.
pub struct FleetFaults {
    config: FleetFaultsConfig,
    /// `matrix.cells` of `results/bench_fleet_faults.json`, at seed 0.
    golden: Option<Value>,
}

impl FleetFaults {
    pub fn new(root: &Path, seed: u64) -> Result<Self, String> {
        let base = FleetFaultsConfig::default();
        let config = FleetFaultsConfig {
            machines: 96,
            ticks: 192,
            jobs: JOBS,
            seed: base.seed ^ seed,
            ..base
        };
        let golden = if seed == 0 {
            let path = root.join("results/bench_fleet_faults.json");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Some(golden_cells(&text).ok_or("results/bench_fleet_faults.json has no matrix.cells")?)
        } else {
            None
        };
        Ok(FleetFaults { config, golden })
    }

    /// Builds both fleets of every matrix cell.
    fn fleets(&self) -> Vec<CellFleets> {
        let mut fleets = Vec::new();
        for kind in FaultKind::machine_level() {
            for intensity in Intensity::all() {
                let fleet =
                    |healing| ResilientFleet::new(self.config.cell(kind, intensity, healing));
                fleets.push((kind, intensity, fleet(true), fleet(false)));
            }
        }
        fleets
    }

    /// Ticks every fleet through its run with `jobs` workers.
    fn matrix(
        &self,
        fleets: Vec<CellFleets>,
        jobs: usize,
        tracer: &mut Tracer,
    ) -> Vec<FleetFaultCell> {
        let mut cells = Vec::new();
        for (kind, intensity, mut healed, mut fixed) in fleets {
            for fleet in [&mut healed, &mut fixed] {
                for _ in 0..self.config.ticks {
                    tracer.span("resilient.tick_batched", |_| fleet.tick_batched(jobs));
                }
            }
            cells.push(FleetFaultCell {
                fault: kind.name().to_string(),
                intensity,
                healed: healed.metrics(),
                fixed: fixed.metrics(),
            });
        }
        cells
    }
}

/// `matrix.cells` of a `bench_fleet_faults.json` document.
fn golden_cells(text: &str) -> Option<Value> {
    let field = |v: Value, key: &str| match v {
        Value::Map(entries) => entries
            .into_iter()
            .find_map(|(k, v)| (k == key).then_some(v)),
        _ => None,
    };
    let doc = serde_json::from_str::<Value>(text).ok()?;
    field(field(doc, "matrix")?, "cells")
}

impl Bench for FleetFaults {
    type State = Vec<CellFleets>;
    type Output = Vec<FleetFaultCell>;

    fn set_up(&mut self) -> Self::State {
        self.fleets()
    }

    fn run_round(&mut self, fleets: &mut Self::State, tracer: &mut Tracer) -> Vec<FleetFaultCell> {
        self.matrix(std::mem::take(fleets), self.config.jobs, tracer)
    }

    fn finish_round(
        &mut self,
        _: Self::State,
        cells: Self::Output,
        checks: &mut Checks,
    ) -> Result<Round, String> {
        if let Some(golden) = &self.golden {
            checks.require(cells.to_value() == *golden, || {
                "fleet fault cells differ from results/bench_fleet_faults.json".to_string()
            });
        }
        let output = serde_json::to_string(&cells).map_err(|e| e.to_string())?;
        let ticks = cells.len() as u64 * 2 * self.config.ticks;
        Ok(Round {
            ops: ticks,
            failed_ops: 0,
            host_steps: ticks * self.config.machines as u64,
            output,
        })
    }

    /// The matrix does not depend on the worker count: one untimed round at
    /// `jobs = 1` must match.
    fn check_run(&mut self, warm_up: &Round, checks: &mut Checks) -> Result<(), String> {
        let serial = serde_json::to_string(&self.matrix(self.fleets(), 1, &mut Tracer::off()))
            .map_err(|e| e.to_string())?;
        checks.require(warm_up.output == serial, || {
            "the fleet fault matrix differs between jobs 1 and jobs 2".to_string()
        });
        Ok(())
    }
}
