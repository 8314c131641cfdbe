//! Fleet-scale batched stepping (ISSUE 6): the correctness side of the
//! `ext_fleet_batch` macro-benchmark.
//!
//! Drives two identically-seeded [`FleetSim`] populations tick-for-tick —
//! one through the scalar baseline ([`FleetSim::step_serial`]), one through
//! the batched SoA path ([`FleetSim::step_batched`]) — and checks the two
//! report streams stay bit-identical while recording how the batch path
//! spent its work (adaptive skips vs memo hits vs solved lanes). Wall-clock
//! speedup is deliberately *not* measured here: simulation code never reads
//! the host clock (KL-D02); timing lives in the allowlisted
//! `crates/bench/src/bin/ext_fleet_batch.rs` harness.

use crate::report::Table;
use kelp_host::HostBatchStats;
use kelp_workloads::{FleetSim, FleetSimConfig};
use serde::{Deserialize, Serialize};

/// Configuration for a fleet-scale comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetScaleConfig {
    /// The fleet population shared by both step paths.
    pub fleet: FleetSimConfig,
    /// Ticks to advance (one churn round before every tick).
    pub ticks: usize,
}

impl Default for FleetScaleConfig {
    fn default() -> Self {
        FleetScaleConfig {
            fleet: FleetSimConfig::default(),
            ticks: 32,
        }
    }
}

impl FleetScaleConfig {
    /// A small configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        FleetScaleConfig {
            fleet: FleetSimConfig {
                machines: 12,
                ..FleetSimConfig::default()
            },
            ticks: 6,
        }
    }
}

/// Outcome of a scalar-vs-batched fleet comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetScaleResult {
    /// Machines in the fleet.
    pub machines: usize,
    /// Ticks advanced.
    pub ticks: usize,
    /// Total host-steps taken per path (`machines * ticks`).
    pub host_steps: u64,
    /// Reports where the batched path diverged from the scalar path
    /// (bitwise). The determinism contract demands zero.
    pub mismatched_reports: u64,
    /// Steps the batch path served via the adaptive skip (clean machine,
    /// no lowering, no solve).
    pub adaptive_skips: u64,
    /// Steps served from a machine's memo cache after lowering.
    pub memo_hits: u64,
    /// Lanes that went through the batched SoA solver.
    pub lanes_solved: u64,
    /// Solved lanes whose fixed point converged.
    pub lanes_converged: u64,
}

impl FleetScaleResult {
    /// Fraction of host-steps that skipped the solver entirely.
    pub fn skip_fraction(&self) -> f64 {
        if self.host_steps == 0 {
            return 0.0;
        }
        self.adaptive_skips as f64 / self.host_steps as f64
    }

    /// True when the batched path reproduced the scalar path exactly and
    /// actually exercised the batch solver (at least one converged lane).
    pub fn holds(&self) -> bool {
        self.mismatched_reports == 0 && self.lanes_solved > 0 && self.lanes_converged > 0
    }

    /// Renders the comparison as a text table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fleet-scale batched stepping vs scalar baseline",
            &["metric", "value"],
        );
        t.row(vec!["machines".into(), self.machines.to_string()]);
        t.row(vec!["ticks".into(), self.ticks.to_string()]);
        t.row(vec!["host steps".into(), self.host_steps.to_string()]);
        t.row(vec![
            "mismatched reports".into(),
            self.mismatched_reports.to_string(),
        ]);
        t.row(vec![
            "adaptive skips".into(),
            self.adaptive_skips.to_string(),
        ]);
        t.row(vec!["memo hits".into(), self.memo_hits.to_string()]);
        t.row(vec!["lanes solved".into(), self.lanes_solved.to_string()]);
        t.row(vec![
            "lanes converged".into(),
            self.lanes_converged.to_string(),
        ]);
        t.row(vec![
            "skip fraction".into(),
            Table::num(self.skip_fraction()),
        ]);
        t
    }
}

/// Runs the comparison: two fleets built from the same seed, churned with
/// identical schedules, one stepped serially and one through the batched
/// path, reports compared bitwise every tick.
pub fn compare(config: &FleetScaleConfig) -> FleetScaleResult {
    let mut serial = FleetSim::new(config.fleet);
    let mut batched = FleetSim::new(config.fleet);
    let mut mismatched = 0u64;
    let mut b = Vec::new();
    for _ in 0..config.ticks {
        serial.churn();
        batched.churn();
        let a = serial.step_serial();
        // The reused vector exercises the in-place refresh path the
        // benchmark runs.
        batched.step_batched_into(1, &mut b);
        mismatched += a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
    }
    let stats: HostBatchStats = batched.batch_stats();
    FleetScaleResult {
        machines: config.fleet.machines,
        ticks: config.ticks,
        host_steps: stats.machines_stepped,
        mismatched_reports: mismatched,
        adaptive_skips: stats.adaptive_skips,
        memo_hits: stats.memo_hits,
        lanes_solved: stats.lanes_solved,
        lanes_converged: stats.lanes_converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_path_matches_scalar_at_quick_scale() {
        let r = compare(&FleetScaleConfig::quick());
        assert!(r.holds(), "contract violated: {r:?}");
        assert_eq!(r.host_steps, 12 * 6);
        // With a small phase alphabet most steps skip the solver.
        assert!(r.adaptive_skips > 0, "no adaptive skips: {r:?}");
    }

    #[test]
    fn table_renders_every_metric() {
        let r = compare(&FleetScaleConfig::quick());
        assert_eq!(r.table().row_count(), 9);
    }
}
