//! The fault matrix: every fault class at two intensities against Kelp
//! as shipped (KP) and the hardened controller (KP-H).
//!
//! The paper's runtime assumes its uncore counters, its actuation channels,
//! and the machine itself are reliable. This harness measures what happens
//! when they are not: counters drop out or freeze, measurements spike,
//! actuations silently no-op, channels lose bandwidth (DIMM thermal
//! throttling), and the colocated load churns in bursts. Each cell reports
//! ML and CPU performance relative to the same policy's fault-free run plus
//! the actuator-reversal rate, and the hardened controller is held to two
//! acceptance bands:
//!
//! * **protection** — ML slowdown stays within [`ML_SLOWDOWN_BAND`]× of the
//!   fault-free run under every fault class;
//! * **stability** — actuators never oscillate: at most
//!   [`MAX_REVERSALS_PER_10`] direction reversals per ten sampling periods.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_simcore::fault::{FaultEvent, FaultKind, FaultPlan};
use kelp_simcore::time::SimDuration;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// Protection band: the hardened controller must keep ML slowdown within
/// this factor of its own fault-free run under every fault class.
pub const ML_SLOWDOWN_BAND: f64 = 1.15;

/// Stability band: at most this many actuator direction reversals per ten
/// sampling periods.
pub const MAX_REVERSALS_PER_10: f64 = 2.0;

/// Fault intensity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Intensity {
    /// Short windows, mild magnitudes.
    Low,
    /// Long windows, severe magnitudes.
    High,
}

impl Intensity {
    /// Both levels, sweep order.
    pub fn all() -> [Intensity; 2] {
        [Intensity::Low, Intensity::High]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Intensity::Low => "low",
            Intensity::High => "high",
        }
    }

    /// Fraction of the run covered by *each* of the two fault windows.
    fn window_fraction(self) -> f64 {
        match self {
            Intensity::Low => 0.08,
            Intensity::High => 0.18,
        }
    }
}

/// The two policies under test: Kelp as shipped and the hardened variant.
pub fn policies() -> [PolicyKind; 2] {
    [PolicyKind::Kelp, PolicyKind::KelpHardened]
}

/// Per-class fault magnitude at an intensity (see [`FaultKind`] for units).
pub fn magnitude(kind: FaultKind, intensity: Intensity) -> f64 {
    match (kind, intensity) {
        // Dropout and staleness have no magnitude; intensity is expressed
        // through window length alone.
        (FaultKind::CounterDropout | FaultKind::CounterStale, _) => 1.0,
        // Outlier multiplier on counter reads.
        (FaultKind::MeasurementSpike, Intensity::Low) => 3.0,
        (FaultKind::MeasurementSpike, Intensity::High) => 8.0,
        // Probability that a sampling period's actuations silently no-op.
        (FaultKind::ActuationNoop, Intensity::Low) => 0.3,
        (FaultKind::ActuationNoop, Intensity::High) => 0.8,
        // Fraction of channel bandwidth lost (thermal throttling). This is
        // a *physical* capacity loss on the shared socket, so it is kept
        // moderate: no controller can conjure bandwidth back.
        (FaultKind::ChannelThrottle, Intensity::Low) => 0.15,
        (FaultKind::ChannelThrottle, Intensity::High) => 0.30,
        // Extra LP-domain traffic in GB/s during churn bursts.
        (FaultKind::WorkloadChurn, Intensity::Low) => 8.0,
        (FaultKind::WorkloadChurn, Intensity::High) => 20.0,
        // Machine-lifecycle kinds (outside the runtime grid — see
        // `FaultKind::machine_level`). Crash magnitude scales the seeded
        // restart delay relative to the outage window.
        (FaultKind::MachineCrash, Intensity::Low) => 0.5,
        (FaultKind::MachineCrash, Intensity::High) => 1.5,
        // Fraction of peak bandwidth lost while browned out. A saturated
        // socket absorbs losses up to ~half of peak by shedding prefetch
        // traffic, so the low level sits at the edge of the absorbable
        // range and the high level cuts into demand delivery.
        (FaultKind::MachineBrownout, Intensity::Low) => 0.35,
        (FaultKind::MachineBrownout, Intensity::High) => 0.65,
        // Solver-stress severity (fraction of the iteration budget cut).
        (FaultKind::SolverStress, Intensity::Low) => 0.9,
        (FaultKind::SolverStress, Intensity::High) => 1.0,
    }
}

/// The scheduled plan for one fault class at one intensity: two windows,
/// one straddling the end of warmup (the controller sees fault onset while
/// converged) and one in the middle of the measurement window (it must
/// recover twice).
pub fn plan_for(kind: FaultKind, intensity: Intensity, config: &ExperimentConfig) -> FaultPlan {
    let total_ns = (config.warmup + config.duration).as_nanos();
    let frac = |f: f64| SimDuration::from_nanos((total_ns as f64 * f) as u64);
    let dur = frac(intensity.window_fraction());
    let mag = magnitude(kind, intensity);
    FaultPlan::new()
        .with(FaultEvent::new(kind, frac(0.35), dur, mag))
        .with(FaultEvent::new(kind, frac(0.65), dur, mag))
}

/// The CNN1 + Stream:16 mix every cell runs (the scorecard's heavy mix).
fn mix_spec(policy: PolicyKind, config: &ExperimentConfig) -> RunSpec {
    RunSpec::new(MlWorkloadKind::Cnn1, policy, config).with_cpu(CpuSpec::new(BatchKind::Stream, 16))
}

/// Enumerates the matrix: per policy, the fault-free reference followed by
/// one run per (fault class, intensity).
pub fn specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    let per_policy = 1 + FaultKind::all().len() * Intensity::all().len();
    let mut specs = Vec::with_capacity(policies().len() * per_policy);
    for policy in policies() {
        specs.push(mix_spec(policy, config));
        for kind in FaultKind::all() {
            for intensity in Intensity::all() {
                specs.push(mix_spec(policy, config).with_faults(plan_for(kind, intensity, config)));
            }
        }
    }
    specs
}

/// One (policy, fault, intensity) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// Policy label (`KP` / `KP-H`).
    pub policy: String,
    /// Fault class name.
    pub fault: String,
    /// Intensity level.
    pub intensity: Intensity,
    /// ML throughput relative to the same policy's fault-free run.
    pub ml_ratio: f64,
    /// CPU throughput relative to the same policy's fault-free run.
    pub cpu_ratio: f64,
    /// Worst actuator direction-reversal rate per ten sampling periods.
    pub reversals_per_10: f64,
    /// Structured error, when the run failed instead of producing results.
    pub error: Option<String>,
}

impl FaultCell {
    /// Whether the cell satisfies both hardened acceptance bands.
    pub fn in_band(&self) -> bool {
        self.error.is_none()
            && self.ml_ratio >= 1.0 / ML_SLOWDOWN_BAND
            && self.reversals_per_10 <= MAX_REVERSALS_PER_10
    }
}

/// One policy's fault-free reference row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReference {
    /// Policy label.
    pub policy: String,
    /// Fault-free ML throughput (the cell denominator).
    pub ml_throughput: f64,
    /// Fault-free CPU throughput (the cell denominator).
    pub cpu_throughput: f64,
    /// Fault-free reversal rate (context for the stability band).
    pub reversals_per_10: f64,
}

/// The full fault-matrix result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixResult {
    /// Per-policy fault-free references.
    pub references: Vec<FaultReference>,
    /// All cells, in [`specs`] order.
    pub cells: Vec<FaultCell>,
}

impl FaultMatrixResult {
    /// Cells belonging to a policy label.
    pub fn cells_for<'a>(&'a self, policy: &'a str) -> impl Iterator<Item = &'a FaultCell> + 'a {
        self.cells.iter().filter(move |c| c.policy == policy)
    }

    /// The policy's worst ML ratio across all cells (0 when a run errored).
    pub fn worst_ml_ratio(&self, policy: &str) -> f64 {
        self.cells_for(policy)
            .map(|c| if c.error.is_some() { 0.0 } else { c.ml_ratio })
            .fold(f64::INFINITY, f64::min)
    }

    /// The policy's worst reversal rate across all cells.
    pub fn worst_reversals(&self, policy: &str) -> f64 {
        self.cells_for(policy)
            .map(|c| c.reversals_per_10)
            .fold(0.0, f64::max)
    }

    /// Whether the hardened controller satisfies both bands in every cell.
    pub fn hardened_in_band(&self) -> bool {
        let label = PolicyKind::KelpHardened.label();
        self.cells_for(label).count() > 0 && self.cells_for(label).all(FaultCell::in_band)
    }

    /// Errors carried by failed cells, as `(policy/fault/intensity, message)`.
    pub fn errors(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .filter_map(|c| {
                let e = c.error.as_ref()?;
                Some((
                    format!("{}/{}/{}", c.policy, c.fault, c.intensity.name()),
                    e.clone(),
                ))
            })
            .collect()
    }

    /// Renders the matrix with per-cell band verdicts.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fault matrix — ML and CPU relative to fault-free, reversals per 10 periods",
            &[
                "Fault",
                "Intensity",
                "Policy",
                "ML",
                "CPU",
                "Rev/10",
                "Band",
            ],
        );
        for cell in &self.cells {
            let verdict = if cell.error.is_some() {
                "ERROR".to_string()
            } else if cell.in_band() {
                "PASS".to_string()
            } else {
                "WARN".to_string()
            };
            t.row(vec![
                cell.fault.clone(),
                cell.intensity.name().to_string(),
                cell.policy.clone(),
                Table::num(cell.ml_ratio),
                Table::num(cell.cpu_ratio),
                Table::num(cell.reversals_per_10),
                verdict,
            ]);
        }
        t
    }
}

/// Folds batch records (in [`specs`] order) into the matrix result.
pub fn fold(records: &[RunRecord]) -> FaultMatrixResult {
    let mut next = RecordCursor::new(records);
    let mut references = Vec::new();
    let mut cells = Vec::new();
    for policy in policies() {
        let reference = next.take();
        let ml_ref = reference.ml_performance.throughput.max(1e-12);
        let cpu_ref = reference.cpu_total_throughput().max(1e-12);
        references.push(FaultReference {
            policy: policy.label().to_string(),
            ml_throughput: reference.ml_performance.throughput,
            cpu_throughput: reference.cpu_total_throughput(),
            reversals_per_10: reference.actuators.reversals_per_10(),
        });
        for kind in FaultKind::all() {
            for intensity in Intensity::all() {
                let r = next.take();
                cells.push(FaultCell {
                    policy: policy.label().to_string(),
                    fault: kind.name().to_string(),
                    intensity,
                    ml_ratio: r.ml_performance.throughput / ml_ref,
                    cpu_ratio: r.cpu_total_throughput() / cpu_ref,
                    reversals_per_10: r.actuators.reversals_per_10(),
                    error: r.error.as_ref().map(|e| e.to_string()),
                });
            }
        }
    }
    FaultMatrixResult { references, cells }
}

/// Runs the fault matrix through the given engine.
pub fn run_fault_matrix_with(runner: &Runner, config: &ExperimentConfig) -> FaultMatrixResult {
    fold(&runner.run_batch(&specs(config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_matches_fold_expectations() {
        let config = ExperimentConfig::quick();
        let s = specs(&config);
        // Per policy: 1 reference + 6 classes x 2 intensities.
        assert_eq!(s.len(), 2 * (1 + FaultKind::all().len() * 2));
        // References are fault-free, cells are not.
        assert!(s[0].faults.is_empty());
        assert!(!s[1].faults.is_empty());
    }

    #[test]
    fn plans_scale_with_the_config() {
        let config = ExperimentConfig::quick();
        let plan = plan_for(FaultKind::CounterDropout, Intensity::High, &config);
        assert_eq!(plan.events.len(), 2);
        let total = (config.warmup + config.duration).as_nanos();
        for e in &plan.events {
            assert!(e.start.as_nanos() + e.duration.as_nanos() <= total);
        }
    }

    #[test]
    fn hardened_survives_counter_dropout() {
        // One cell of the matrix as a unit check: high-intensity dropout,
        // both policies. The hardened run must stay in both bands; the
        // sweep-wide assertion lives in the integration tests.
        let config = ExperimentConfig::quick();
        let plan = plan_for(FaultKind::CounterDropout, Intensity::High, &config);
        let runner = Runner::serial();
        let reference = runner.run_one(&mix_spec(PolicyKind::KelpHardened, &config));
        let faulty = runner.run_one(&mix_spec(PolicyKind::KelpHardened, &config).with_faults(plan));
        assert!(faulty.error.is_none());
        let ratio = faulty.ml_performance.throughput / reference.ml_performance.throughput;
        assert!(
            ratio >= 1.0 / ML_SLOWDOWN_BAND,
            "hardened ML ratio under dropout: {ratio}"
        );
        assert!(
            faulty.actuators.reversals_per_10() <= MAX_REVERSALS_PER_10,
            "hardened reversals: {}",
            faulty.actuators.reversals_per_10()
        );
    }
}
