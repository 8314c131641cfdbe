//! Figure 5 (and the sensitivity half of Figure 15).
//!
//! "On average, LLC resource contention causes a noticeable performance
//! degradation of 14 %. However, colocation with the DRAM aggressor causes
//! a dramatic 40 % performance loss on average." (§III-B). Figure 15 adds
//! the `Remote DRAM` aggressor, which costs CNN1/CNN2 an extra 16 %/27 %.
//!
//! The harness runs every Table I workload standalone and against each
//! aggressor under the unmanaged baseline, reporting performance normalized
//! to standalone.

use crate::driver::ExperimentConfig;
use crate::metrics::normalized;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// Threads used by an aggressor kind in the sensitivity study. The LLC
/// aggressor oversubscribes the socket's SMT threads (it contends for
/// "in-pipeline resources shared through SMT", §III-B); the bandwidth
/// aggressors saturate the channels from one thread per core.
pub fn aggressor_threads(kind: BatchKind) -> usize {
    match kind {
        BatchKind::LlcAggressor => 40,
        _ => 16,
    }
}

/// One workload's sensitivity row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// Workload name.
    pub workload: String,
    /// Normalized performance under each aggressor, in `aggressors` order.
    pub normalized_perf: Vec<f64>,
}

/// Figure 5 / Figure 15 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResult {
    /// Aggressor names, column order.
    pub aggressors: Vec<String>,
    /// Per-workload rows.
    pub rows: Vec<SensitivityRow>,
}

impl SensitivityResult {
    /// Column average (the paper's headline numbers).
    pub fn average(&self, column: usize) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.normalized_perf[column])
            .collect();
        kelp_simcore::stats::arithmetic_mean(&vals)
    }

    /// Average for a named aggressor.
    pub fn average_for(&self, aggressor: &str) -> Option<f64> {
        let col = self.aggressors.iter().position(|a| a == aggressor)?;
        Some(self.average(col))
    }

    /// Renders as a text table.
    pub fn table(&self, title: &str) -> Table {
        let mut header = vec!["Workload"];
        for a in &self.aggressors {
            header.push(a);
        }
        let mut t = Table::new(title, &header);
        for row in &self.rows {
            let mut cells = vec![row.workload.clone()];
            cells.extend(row.normalized_perf.iter().map(|&x| Table::num(x)));
            t.row(cells);
        }
        let mut avg = vec!["Average".to_string()];
        for c in 0..self.aggressors.len() {
            avg.push(Table::num(self.average(c)));
        }
        t.row(avg);
        t
    }
}

/// Enumerates the sensitivity grid: per workload, the standalone reference
/// followed by one Baseline run against each aggressor kind.
pub fn specs(aggressors: &[BatchKind], config: &ExperimentConfig) -> Vec<RunSpec> {
    let mut specs = Vec::with_capacity(MlWorkloadKind::all().len() * (1 + aggressors.len()));
    for ml in MlWorkloadKind::all() {
        specs.push(super::standalone_spec(ml, config));
        for &kind in aggressors {
            specs.push(
                RunSpec::new(ml, PolicyKind::Baseline, config)
                    .with_cpu(CpuSpec::new(kind, aggressor_threads(kind))),
            );
        }
    }
    specs
}

/// Folds batch records (in [`specs`] order) into the sensitivity result.
pub fn fold(aggressors: &[BatchKind], records: &[RunRecord]) -> SensitivityResult {
    let mut next = RecordCursor::new(records);
    let mut rows = Vec::new();
    for ml in MlWorkloadKind::all() {
        let standalone = next.take().ml_performance;
        let mut per_aggr = Vec::new();
        for _ in aggressors {
            let r = next.take();
            per_aggr.push(normalized(
                r.ml_performance.throughput,
                standalone.throughput,
            ));
        }
        rows.push(SensitivityRow {
            workload: ml.name().to_string(),
            normalized_perf: per_aggr,
        });
    }
    SensitivityResult {
        aggressors: aggressors.iter().map(|a| a.name().to_string()).collect(),
        rows,
    }
}

/// Figure 5's aggressors: LLC and DRAM.
pub const FIGURE5_AGGRESSORS: [BatchKind; 2] = [BatchKind::LlcAggressor, BatchKind::DramAggressor];

/// Figure 15's aggressors: LLC, DRAM and Remote DRAM.
pub const FIGURE15_AGGRESSORS: [BatchKind; 3] = [
    BatchKind::LlcAggressor,
    BatchKind::DramAggressor,
    BatchKind::RemoteDramAggressor,
];

/// Runs the sensitivity study through the given engine.
pub fn run_sensitivity_with(
    runner: &Runner,
    aggressors: &[BatchKind],
    config: &ExperimentConfig,
) -> SensitivityResult {
    fold(aggressors, &runner.run_batch(&specs(aggressors, config)))
}

/// Figure 5: the [`FIGURE5_AGGRESSORS`] study through the given engine.
pub fn figure5_with(runner: &Runner, config: &ExperimentConfig) -> SensitivityResult {
    run_sensitivity_with(runner, &FIGURE5_AGGRESSORS, config)
}

/// Figure 15: the [`FIGURE15_AGGRESSORS`] study through the given engine.
pub fn figure15_with(runner: &Runner, config: &ExperimentConfig) -> SensitivityResult {
    run_sensitivity_with(runner, &FIGURE15_AGGRESSORS, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_hurts_more_than_llc() {
        let r = run_sensitivity_with(
            &Runner::serial(),
            &[BatchKind::LlcAggressor, BatchKind::DramAggressor],
            &ExperimentConfig::quick(),
        );
        assert_eq!(r.rows.len(), 4);
        let llc = r.average(0);
        let dram = r.average(1);
        assert!(dram < llc, "dram {dram} llc {llc}");
        assert!(llc < 1.02, "llc aggressor should cost something: {llc}");
        // Table renders with an Average row.
        assert_eq!(r.table("Fig 5").row_count(), 5);
    }
}
