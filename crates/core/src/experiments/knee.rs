//! The RNN1 throughput–latency knee sweep.
//!
//! §III-A: "we sweep the query throughput (measured in queries-per-second or
//! QPS) and analyze the tail latency. The target throughput we use in the
//! paper is at the knee of the tail latency curve. The sweep plot is omitted
//! for brevity." This harness regenerates that omitted plot and locates the
//! knee ([`KneeResult::knee_qps`]) next to the calibrated target.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{MlSpec, RunRecord, RunSpec, Runner};
use kelp_workloads::calib;
use kelp_workloads::MlWorkloadKind;
use serde::{Deserialize, Serialize};

/// One point of the load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KneePoint {
    /// Offered load, QPS.
    pub offered_qps: f64,
    /// Achieved throughput, QPS.
    pub achieved_qps: f64,
    /// 95 %-ile latency in ms.
    pub tail_ms: f64,
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KneeResult {
    /// Sweep points in offered-load order.
    pub points: Vec<KneePoint>,
    /// The calibrated production target (from [`calib::rnn1_params`]).
    pub target_qps: f64,
}

impl KneeResult {
    /// The knee: the highest offered load whose tail stays within
    /// `tolerance` times the lightest point's tail.
    pub fn knee_qps(&self, tolerance: f64) -> f64 {
        let Some(base) = self.points.first().map(|p| p.tail_ms) else {
            return 0.0;
        };
        self.points
            .iter()
            .filter(|p| p.tail_ms <= base * tolerance)
            .map(|p| p.offered_qps)
            .fold(0.0, f64::max)
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "RNN1 throughput-latency sweep (the paper's omitted knee plot)",
            &["offered QPS", "achieved QPS", "p95 (ms)"],
        );
        for p in &self.points {
            t.row(vec![
                format!("{:.0}", p.offered_qps),
                format!("{:.1}", p.achieved_qps),
                format!("{:.2}", p.tail_ms),
            ]);
        }
        t
    }
}

/// Enumerates the load sweep: one unmanaged RNN1 run per offered QPS.
pub fn specs(offered: &[f64], config: &ExperimentConfig) -> Vec<RunSpec> {
    offered
        .iter()
        .map(|&qps| {
            RunSpec::new(MlWorkloadKind::Rnn1, PolicyKind::Baseline, config)
                .with_ml(MlSpec::Rnn1AtLoad(qps))
        })
        .collect()
}

/// Folds batch records (in [`specs`] order) into the sweep result.
pub fn fold(offered: &[f64], records: &[RunRecord]) -> KneeResult {
    let points = offered
        .iter()
        .zip(records)
        .map(|(&qps, r)| KneePoint {
            offered_qps: qps,
            achieved_qps: r.ml_performance.throughput,
            tail_ms: r.ml_performance.tail_latency_ms.unwrap_or(0.0),
        })
        .collect();
    KneeResult {
        points,
        target_qps: calib::rnn1_params().target_qps,
    }
}

/// Sweeps the offered load through the given engine.
pub fn knee_sweep_with(runner: &Runner, offered: &[f64], config: &ExperimentConfig) -> KneeResult {
    fold(offered, &runner.run_batch(&specs(offered, config)))
}

/// The default offered loads: 100–460 QPS in 40-QPS steps.
pub const DEFAULT_OFFERED_QPS: [f64; 10] = [
    100.0, 140.0, 180.0, 220.0, 260.0, 300.0, 340.0, 380.0, 420.0, 460.0,
];

/// The default sweep ([`DEFAULT_OFFERED_QPS`]) through the given engine.
pub fn default_sweep_with(runner: &Runner, config: &ExperimentConfig) -> KneeResult {
    knee_sweep_with(runner, &DEFAULT_OFFERED_QPS, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_grows_past_the_knee_and_target_sits_before_it() {
        let cfg = ExperimentConfig::quick();
        let r = knee_sweep_with(&Runner::serial(), &[150.0, 300.0, 440.0], &cfg);
        assert_eq!(r.points.len(), 3);
        // Light load: achieved == offered, low tail.
        assert!((r.points[0].achieved_qps - 150.0).abs() < 25.0);
        // Past the knee the tail blows up.
        assert!(
            r.points[2].tail_ms > 2.0 * r.points[0].tail_ms,
            "overload tail {} vs light tail {}",
            r.points[2].tail_ms,
            r.points[0].tail_ms
        );
        // The calibrated target sits below the overload point.
        assert!(r.target_qps < 440.0);
        assert!(r.knee_qps(3.0) >= 150.0);
    }
}
