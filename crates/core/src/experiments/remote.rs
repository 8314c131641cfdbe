//! Figure 16: Cloud TPU platform remote-memory sweep.
//!
//! §VI-A: an aggressor whose data and threads partially live on the socket
//! remote to the ML task exercises the UPI/QPI interface; on the Cloud TPU
//! platform this causes even higher slowdown than local interference. The
//! sweep varies the percentage of aggressor data on the ML task's local
//! socket (x-axis) with one line per percentage of aggressor threads on the
//! local socket, and plots ML *slowdown*.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// Sweep grid used by the paper's Figure 16.
pub const DATA_FRACTIONS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
/// Thread placements (lines in the figure).
pub const THREAD_FRACTIONS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// One workload's sweep panel: `slowdown[thread_idx][data_idx]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteSweepPanel {
    /// Workload name (CNN1 or CNN2).
    pub workload: String,
    /// Slowdown grid indexed `[thread fraction][data fraction]`.
    pub slowdown: Vec<Vec<f64>>,
}

/// The Figure 16 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteSweepResult {
    /// Data-locality fractions (columns).
    pub data_fractions: Vec<f64>,
    /// Thread-locality fractions (rows / lines).
    pub thread_fractions: Vec<f64>,
    /// Panels for CNN1 and CNN2.
    pub panels: Vec<RemoteSweepPanel>,
}

impl RemoteSweepResult {
    /// Panel lookup.
    pub fn panel(&self, workload: &str) -> Option<&RemoteSweepPanel> {
        self.panels.iter().find(|p| p.workload == workload)
    }

    /// Renders one panel.
    pub fn table(&self, workload: &str) -> Option<Table> {
        let panel = self.panel(workload)?;
        let mut header = vec!["% local threads".to_string()];
        for &d in &self.data_fractions {
            header.push(format!("{:.0}% local data", d * 100.0));
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("Figure 16 — {workload} remote-memory slowdown"),
            &refs,
        );
        for (ti, &tf) in self.thread_fractions.iter().enumerate() {
            let mut row = vec![format!("{:.0}%", tf * 100.0)];
            for di in 0..self.data_fractions.len() {
                row.push(Table::num(panel.slowdown[ti][di]));
            }
            t.row(row);
        }
        Some(t)
    }
}

/// Figure 16's workloads: the Cloud TPU platform's CNN1 and CNN2.
pub const FIGURE16_WORKLOADS: [MlWorkloadKind; 2] = [MlWorkloadKind::Cnn1, MlWorkloadKind::Cnn2];

/// Runs the Figure 16 sweep for [`FIGURE16_WORKLOADS`] through the given
/// engine.
pub fn figure16_with(runner: &Runner, config: &ExperimentConfig) -> RemoteSweepResult {
    figure16_for_with(runner, &FIGURE16_WORKLOADS, config)
}

/// Enumerates the sweep grid: per workload, the standalone reference then
/// one Baseline run per (thread fraction, data fraction) placement.
pub fn specs(workloads: &[MlWorkloadKind], config: &ExperimentConfig) -> Vec<RunSpec> {
    let per_ml = 1 + THREAD_FRACTIONS.len() * DATA_FRACTIONS.len();
    let mut specs = Vec::with_capacity(workloads.len() * per_ml);
    for &ml in workloads {
        specs.push(super::standalone_spec(ml, config));
        for &tf in &THREAD_FRACTIONS {
            for &df in &DATA_FRACTIONS {
                specs.push(
                    RunSpec::new(ml, PolicyKind::Baseline, config).with_cpu(
                        CpuSpec::new(BatchKind::DramAggressor, 16)
                            .with_local_data_fraction(df)
                            .with_local_thread_fraction(tf),
                    ),
                );
            }
        }
    }
    specs
}

/// Folds batch records (in [`specs`] order) into the sweep result.
pub fn fold(workloads: &[MlWorkloadKind], records: &[RunRecord]) -> RemoteSweepResult {
    let mut next = RecordCursor::new(records);
    let mut panels = Vec::new();
    for &ml in workloads {
        let standalone = next.take().ml_performance;
        let mut grid = Vec::new();
        for _ in &THREAD_FRACTIONS {
            let mut row = Vec::new();
            for _ in &DATA_FRACTIONS {
                let r = next.take();
                let norm = r.ml_performance.throughput / standalone.throughput.max(1e-12);
                row.push(if norm > 0.0 {
                    1.0 / norm
                } else {
                    f64::INFINITY
                });
            }
            grid.push(row);
        }
        panels.push(RemoteSweepPanel {
            workload: ml.name().to_string(),
            slowdown: grid,
        });
    }
    RemoteSweepResult {
        data_fractions: DATA_FRACTIONS.to_vec(),
        thread_fractions: THREAD_FRACTIONS.to_vec(),
        panels,
    }
}

/// Runs the sweep for an arbitrary workload set through the given engine.
pub fn figure16_for_with(
    runner: &Runner,
    workloads: &[MlWorkloadKind],
    config: &ExperimentConfig,
) -> RemoteSweepResult {
    fold(workloads, &runner.run_batch(&specs(workloads, config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Experiment;
    use kelp_workloads::BatchWorkload;

    #[test]
    fn remote_data_hurts_more_than_local_on_cloud_tpu() {
        // Single workload, two corner points: all-local vs data-remote.
        let config = ExperimentConfig::quick();
        let ml = MlWorkloadKind::Cnn1;
        let standalone =
            crate::experiments::standalone_reference_with(&Runner::serial(), ml, &config);
        let run = |df: f64, tf: f64| {
            let aggressor = BatchWorkload::new(BatchKind::DramAggressor, 16)
                .with_local_data_fraction(df)
                .with_local_thread_fraction(tf);
            let r = Experiment::builder(ml, PolicyKind::Baseline)
                .add_cpu_workload(aggressor)
                .config(config.clone())
                .run();
            standalone.throughput / r.ml_performance.throughput.max(1e-12)
        };
        let local = run(1.0, 1.0);
        // Aggressor threads remote, data on the ML socket: all its traffic
        // crosses UPI into the victim's socket.
        let cross = run(1.0, 0.0);
        assert!(local > 1.02, "local contention must slow CNN1: {local}");
        assert!(
            cross > local,
            "cross-socket traffic must hurt more on Cloud TPU: {cross} vs {local}"
        );
    }
}
