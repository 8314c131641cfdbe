//! Fleet fault matrix (ISSUE 7): machine-lifecycle faults against the
//! self-healing placer and the static baseline.
//!
//! Where [`super::faults`] injects *runtime* faults (counters, actuations,
//! channels) into a single managed host, this harness injects
//! *machine-level* faults ([`FaultKind::machine_level`]: crash, brownout,
//! solver stress) into a stepped host fleet ([`ResilientFleet`]) and
//! compares two placement policies under the identical fault schedule:
//!
//! * **self-heal** — the full control loop: drain distressed machines,
//!   reschedule displaced high-priority jobs across failure domains under
//!   capped backoff, throttle batch tenants on browned-out hosts, backfill
//!   recovered capacity;
//! * **static** — same faults, no reaction: jobs stay bound to their home
//!   machine for the whole run.
//!
//! Every (fault class, intensity) pair is scored on two acceptance bands in
//! the PR 2 style:
//!
//! * **attainment** — the self-healing fleet's mean SLO attainment must not
//!   fall more than [`ATTAINMENT_SLACK`] below the static baseline's, and
//!   no displaced job may still be pending when the run ends;
//! * **recovery** — the self-healing fleet's degraded-tick count (ticks
//!   under 95 % attainment, the time-to-recover proxy) must not exceed the
//!   static baseline's by more than [`RECOVERY_SLACK_TICKS`].
//!
//! Three classes x two intensities x two bands = twelve band cells; the
//! matrix holds when at least [`BAND_QUORUM`] of them pass.

use super::faults::{magnitude, Intensity};
use crate::report::Table;
use kelp_simcore::fault::FaultKind;
use kelp_workloads::resilient::run_config;
use kelp_workloads::{ResilientFleetConfig, ResilientRunMetrics};
use serde::{Deserialize, Serialize};

/// Attainment band: self-heal may trail the static baseline by at most
/// this much mean SLO attainment (it usually leads by far more; the slack
/// absorbs placement-churn noise in cells where both policies are healthy).
pub const ATTAINMENT_SLACK: f64 = 0.02;

/// Recovery band: self-heal may spend at most this many more ticks below
/// 95 % attainment than the static baseline.
pub const RECOVERY_SLACK_TICKS: u64 = 2;

/// Band cells (of twelve) the self-healing placer must hold.
pub const BAND_QUORUM: usize = 11;

/// Per-intensity length of each fault window as a fraction of the run.
/// Longer than the runtime matrix's windows: a machine outage is measured
/// in restart delays, not sampling periods.
fn outage_fraction(intensity: Intensity) -> f64 {
    match intensity {
        Intensity::Low => 0.12,
        Intensity::High => 0.25,
    }
}

/// Configuration of the fleet fault matrix (the fleet-shape knobs shared
/// by every cell; the per-cell fault class and magnitude come from the
/// grid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultsConfig {
    /// Hosts per fleet.
    pub machines: usize,
    /// Root seed shared by every cell (so the two policies of a pair see
    /// bit-identical fault schedules).
    pub seed: u64,
    /// Ticks per run.
    pub ticks: u64,
    /// Unused: a fleet steps on the calling thread. Kept because
    /// `results/bench_fleet_faults.json` records it and the benchmark
    /// harness passes it to [`kelp_workloads::ResilientFleet::tick_batched`].
    pub jobs: usize,
    /// Per-machine probability of being afflicted.
    pub fault_probability: f64,
    /// Failure domains (machine `m` belongs to `m % failure_domains`).
    pub failure_domains: usize,
}

impl Default for FleetFaultsConfig {
    fn default() -> Self {
        let fleet = ResilientFleetConfig::default();
        FleetFaultsConfig {
            machines: fleet.machines,
            seed: fleet.seed,
            ticks: fleet.ticks,
            jobs: 4,
            fault_probability: fleet.fault_probability,
            failure_domains: fleet.failure_domains,
        }
    }
}

impl FleetFaultsConfig {
    /// A small configuration for tests and `--quick` runs. The higher
    /// fault probability keeps every cell's schedule non-empty at the
    /// smaller fleet size.
    pub fn quick() -> Self {
        FleetFaultsConfig {
            machines: 8,
            ticks: 32,
            jobs: 2,
            fault_probability: 0.6,
            ..FleetFaultsConfig::default()
        }
    }

    /// The [`ResilientFleetConfig`] for one cell of the matrix.
    pub fn cell(
        &self,
        kind: FaultKind,
        intensity: Intensity,
        self_healing: bool,
    ) -> ResilientFleetConfig {
        ResilientFleetConfig {
            machines: self.machines,
            seed: self.seed,
            ticks: self.ticks,
            failure_domains: self.failure_domains,
            kind,
            magnitude: magnitude(kind, intensity),
            fault_probability: self.fault_probability,
            outage_fraction: outage_fraction(intensity),
            self_healing,
            ..ResilientFleetConfig::default()
        }
    }
}

/// One (fault class, intensity) pair: both policies under the identical
/// schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultCell {
    /// Fault class name.
    pub fault: String,
    /// Intensity level.
    pub intensity: Intensity,
    /// Metrics of the self-healing run.
    pub healed: ResilientRunMetrics,
    /// Metrics of the static-baseline run.
    pub fixed: ResilientRunMetrics,
}

impl FleetFaultCell {
    /// Attainment band: self-heal holds SLO attainment (within slack) and
    /// ends the run with no job still pending.
    pub fn attainment_band(&self) -> bool {
        self.healed.lost_jobs == 0
            && self.healed.slo_attainment >= self.fixed.slo_attainment - ATTAINMENT_SLACK
    }

    /// Recovery band: self-heal spends no more time degraded (within
    /// slack) than the baseline.
    pub fn recovery_band(&self) -> bool {
        self.healed.degraded_ticks <= self.fixed.degraded_ticks + RECOVERY_SLACK_TICKS
    }

    /// Band cells this pair holds (0–2).
    pub fn bands_held(&self) -> usize {
        self.attainment_band() as usize + self.recovery_band() as usize
    }
}

/// The full fleet fault-matrix result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultsResult {
    /// The shared fleet shape.
    pub config: FleetFaultsConfig,
    /// All pairs, kinds in [`FaultKind::machine_level`] order, intensities
    /// in [`Intensity::all`] order.
    pub cells: Vec<FleetFaultCell>,
}

impl FleetFaultsResult {
    /// Total band cells held across the matrix (out of
    /// `2 * cells.len()`).
    pub fn bands_held(&self) -> usize {
        self.cells.iter().map(FleetFaultCell::bands_held).sum()
    }

    /// Total band cells in the matrix.
    pub fn bands_total(&self) -> usize {
        2 * self.cells.len()
    }

    /// Whether the self-healing placer holds the acceptance quorum
    /// ([`BAND_QUORUM`] of twelve band cells at the standard grid).
    pub fn holds(&self) -> bool {
        !self.cells.is_empty() && self.bands_held() >= BAND_QUORUM.min(self.bands_total())
    }

    /// Whether the matrix actually injected faults (guards against a
    /// configuration whose every schedule came up empty).
    pub fn injected_faults(&self) -> bool {
        self.cells.iter().all(|c| c.healed.fault_onsets > 0)
    }

    /// Renders the matrix with per-pair band verdicts.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fleet fault matrix — self-healing vs static placement",
            &[
                "Fault",
                "Intensity",
                "Policy",
                "Distress",
                "SLO",
                "Degraded",
                "Displaced",
                "TTR",
                "Bands",
            ],
        );
        for cell in &self.cells {
            for (policy, m) in [("self-heal", &cell.healed), ("static", &cell.fixed)] {
                let verdict = if policy == "static" {
                    "-".to_string()
                } else {
                    format!("{}/2", cell.bands_held())
                };
                t.row(vec![
                    cell.fault.clone(),
                    cell.intensity.name().to_string(),
                    policy.to_string(),
                    Table::num(m.mean_distress_fraction),
                    Table::num(m.slo_attainment),
                    m.degraded_ticks.to_string(),
                    m.displaced_jobs.to_string(),
                    Table::num(m.mean_time_to_recover),
                    verdict,
                ]);
            }
        }
        t
    }
}

/// Runs the full matrix: for every machine-level fault class and
/// intensity, one self-healing and one static fleet through the batched
/// step path (the two policies share seed and therefore fault schedule).
pub fn run_fleet_faults(config: &FleetFaultsConfig) -> FleetFaultsResult {
    let mut cells = Vec::new();
    for kind in FaultKind::machine_level() {
        for intensity in Intensity::all() {
            let healed = run_config(config.cell(kind, intensity, true));
            let fixed = run_config(config.cell(kind, intensity, false));
            cells.push(FleetFaultCell {
                fault: kind.name().to_string(),
                intensity,
                healed,
                fixed,
            });
        }
    }
    FleetFaultsResult {
        config: *config,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_has_the_full_grid_and_injects_faults() {
        let r = run_fleet_faults(&FleetFaultsConfig::quick());
        assert_eq!(r.cells.len(), 6);
        assert_eq!(r.bands_total(), 12);
        assert!(r.injected_faults(), "a cell's fault schedule came up empty");
        // Crashes at this probability must actually displace jobs.
        assert!(r
            .cells
            .iter()
            .any(|c| c.fault == "machine-crash" && c.healed.displaced_jobs > 0));
    }

    #[test]
    fn self_healing_holds_the_band_quorum_at_quick_scale() {
        let r = run_fleet_faults(&FleetFaultsConfig::quick());
        assert!(
            r.holds(),
            "bands held {}/{}: {:#?}",
            r.bands_held(),
            r.bands_total(),
            r.cells
                .iter()
                .map(|c| (c.fault.as_str(), c.intensity.name(), c.bands_held()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn table_renders_two_rows_per_pair() {
        let r = run_fleet_faults(&FleetFaultsConfig::quick());
        assert_eq!(r.table().row_count(), 2 * r.cells.len());
    }
}
