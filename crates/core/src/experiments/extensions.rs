//! The studies behind the paper's hardware proposals (§VI-B QoS-aware
//! prefetching, §VI-C targeted distress, §VI-D fine-grained isolation) and
//! its choice of SNC over software channel partitioning (§IV-A).
//!
//! Each study runs a few mixes (an ML workload colocated with one CPU
//! workload) under each of its configurations, normalized to the ML
//! workload's standalone run: one [`StudyResult`] shape for all four.

use crate::driver::{ExperimentConfig, MemHardware};
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, PolicySpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_mem::{AdaptivePrefetch, DistressScope};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// An ML workload colocated with `threads` threads of a CPU workload.
pub type Mix = (MlWorkloadKind, BatchKind, usize);

/// The §VI-B and §VI-C mixes: Figure 7's workloads against aggressor H
/// (14 DRAM-aggressor threads).
pub const PROPOSAL_MIXES: [Mix; 3] = [
    (MlWorkloadKind::Rnn1, BatchKind::DramAggressor, 14),
    (MlWorkloadKind::Cnn1, BatchKind::DramAggressor, 14),
    (MlWorkloadKind::Cnn2, BatchKind::DramAggressor, 14),
];

/// The §VI-D mix: the heavy CNN1 + Stream pairing.
pub const FINEGRAINED_MIX: [Mix; 1] = [(MlWorkloadKind::Cnn1, BatchKind::Stream, 16)];

/// The §VI-D configurations: the paper's four, then FineGrained.
pub const FINEGRAINED_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Baseline,
    PolicyKind::CoreThrottle,
    PolicyKind::KelpSubdomain,
    PolicyKind::Kelp,
    PolicyKind::FineGrained,
];

/// The channel-partitioning mixes.
pub const CHANNEL_PARTITION_MIXES: [Mix; 3] = [
    (MlWorkloadKind::Cnn1, BatchKind::Stream, 16),
    (MlWorkloadKind::Cnn2, BatchKind::Stream, 16),
    (MlWorkloadKind::Rnn1, BatchKind::Stitch, 16),
];

/// One of the four studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Study {
    /// §VI-B QoS-aware hardware prefetching.
    QosPrefetch,
    /// §VI-C targeted distress delivery.
    TargetedDistress,
    /// §VI-D fine-grained memory isolation.
    FineGrained,
    /// §IV-A channel partitioning against SNC.
    ChannelPartition,
}

impl Study {
    /// The three §VI hardware-proposal studies, in section order.
    pub const HW_PROPOSALS: [Study; 3] = [
        Study::QosPrefetch,
        Study::TargetedDistress,
        Study::FineGrained,
    ];

    /// The study's mixes.
    fn mixes(self) -> &'static [Mix] {
        match self {
            Study::QosPrefetch | Study::TargetedDistress => &PROPOSAL_MIXES,
            Study::FineGrained => &FINEGRAINED_MIX,
            Study::ChannelPartition => &CHANNEL_PARTITION_MIXES,
        }
    }

    /// The study's configurations and their column labels.
    fn configs(self) -> Vec<(&'static str, PolicySpec)> {
        let proposed = |distress, adaptive_prefetch| {
            PolicySpec::ProposedHardware(MemHardware {
                distress,
                adaptive_prefetch,
            })
        };
        let fixed = PolicySpec::FixedPrefetch;
        match self {
            Study::QosPrefetch => vec![
                ("unmanaged", fixed(0.0)),
                ("Kelp SW toggling", fixed(1.0)),
                (
                    "HW adaptive",
                    proposed(
                        DistressScope::GlobalSocket,
                        Some(AdaptivePrefetch::default()),
                    ),
                ),
            ],
            Study::TargetedDistress => vec![
                ("global distress (real HW)", fixed(0.0)),
                (
                    "per-domain distress (proposal)",
                    proposed(DistressScope::PerDomain, None),
                ),
            ],
            Study::FineGrained => FINEGRAINED_POLICIES
                .iter()
                .map(|&p| (p.label(), PolicySpec::Kind(p)))
                .collect(),
            Study::ChannelPartition => vec![
                ("KP (SNC)", PolicySpec::Kind(PolicyKind::Kelp)),
                ("MCP (channel part.)", PolicySpec::Kind(PolicyKind::Mcp)),
            ],
        }
    }

    /// Enumerates the study: per mix, the ML workload's standalone
    /// reference, then one run per configuration.
    pub fn specs(self, config: &ExperimentConfig) -> Vec<RunSpec> {
        let configs = self.configs();
        let mut specs = Vec::with_capacity(self.mixes().len() * (1 + configs.len()));
        for &(ml, cpu, threads) in self.mixes() {
            specs.push(super::standalone_spec(ml, config));
            for (_, policy) in &configs {
                specs.push(
                    RunSpec::new(ml, PolicyKind::Baseline, config)
                        .with_policy(policy.clone())
                        .with_cpu(CpuSpec::new(cpu, threads)),
                );
            }
        }
        specs
    }

    /// Folds batch records (in [`Study::specs`] order) into the result.
    pub fn fold(self, records: &[RunRecord]) -> StudyResult {
        let configs = self.configs();
        let mut next = RecordCursor::new(records);
        let mut rows = Vec::new();
        for &(ml, cpu, _) in self.mixes() {
            let standalone = next.take().ml_performance.throughput;
            let outcomes = configs
                .iter()
                .map(|_| {
                    let r = next.take();
                    Outcome {
                        ml_norm: r.ml_performance.throughput / standalone,
                        cpu_throughput: r.cpu_total_throughput(),
                    }
                })
                .collect();
            rows.push(StudyRow {
                ml: ml.name().to_string(),
                cpu: cpu.name().to_string(),
                outcomes,
            });
        }
        let configs = configs.into_iter().map(|(label, _)| label.into()).collect();
        StudyResult {
            study: self,
            configs,
            rows,
        }
    }

    /// Runs the study through the given engine.
    pub fn run_with(self, runner: &Runner, config: &ExperimentConfig) -> StudyResult {
        self.fold(&runner.run_batch(&self.specs(config)))
    }
}

/// One configuration's outcome on one mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// ML throughput normalized to the workload's standalone run.
    pub ml_norm: f64,
    /// Total CPU throughput in units/s.
    pub cpu_throughput: f64,
}

/// One mix under each of a study's configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRow {
    /// ML workload name.
    pub ml: String,
    /// CPU workload name.
    pub cpu: String,
    /// One outcome per configuration, in [`StudyResult::configs`] order.
    pub outcomes: Vec<Outcome>,
}

/// A study's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyResult {
    /// Which study this is.
    pub study: Study,
    /// Configuration labels, in column order.
    pub configs: Vec<String>,
    /// One row per mix.
    pub rows: Vec<StudyRow>,
}

impl StudyResult {
    /// Renders the study's table.
    pub fn table(&self) -> Table {
        let title = match self.study {
            Study::QosPrefetch => "Extension §VI-B — QoS-aware prefetching (subdomains, aggressor H): ML perf / LP throughput",
            Study::TargetedDistress => "Extension §VI-C — targeted distress delivery (subdomains, no prefetcher mgmt, aggressor H)",
            Study::FineGrained => return self.finegrained_table(),
            Study::ChannelPartition => "Kelp on SNC vs Kelp on channel partitioning (ML perf / LP throughput)",
        };
        let partition = self.study == Study::ChannelPartition;
        let mut header = vec![if partition { "Mix" } else { "Workload" }];
        header.extend(self.configs.iter().map(String::as_str));
        let mut t = Table::new(title, &header);
        for row in &self.rows {
            let mut cells = vec![if partition {
                format!("{}+{}", row.ml, row.cpu)
            } else {
                row.ml.clone()
            }];
            // §VI-C's table reports ML performance alone.
            cells.extend(row.outcomes.iter().map(|o| match self.study {
                Study::TargetedDistress => Table::num(o.ml_norm),
                _ => format!("{:.3} / {:.2e}", o.ml_norm, o.cpu_throughput),
            }));
            t.row(cells);
        }
        t
    }

    /// §VI-D's one mix, transposed: one row per configuration, with CPU
    /// throughput normalized to the first (Baseline) configuration's.
    fn finegrained_table(&self) -> Table {
        let mut t = Table::new(
            "Extension §VI-D — FineGrained (MBA-style) vs paper configurations (CNN1 + Stream)",
            &["Policy", "ML perf (norm)", "CPU throughput (norm to BL)"],
        );
        for row in &self.rows {
            let bl_cpu = row.outcomes.first().map_or(0.0, |o| o.cpu_throughput);
            for (label, o) in self.configs.iter().zip(&row.outcomes) {
                let cpu = o.cpu_throughput / bl_cpu.max(1e-12);
                t.row(vec![label.clone(), Table::num(o.ml_norm), Table::num(cpu)]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finegrained_table_normalizes_cpu_to_the_baseline_row() {
        let outcomes = vec![
            Outcome {
                ml_norm: 0.5,
                cpu_throughput: 2.0e8,
            },
            Outcome {
                ml_norm: 0.999,
                cpu_throughput: 1.0e8,
            },
        ];
        let (ml, cpu) = ("CNN1".into(), "Stream".into());
        let configs = vec!["BL".into(), "FG".into()];
        let rows = vec![StudyRow { ml, cpu, outcomes }];
        let study = Study::FineGrained;
        let text = StudyResult {
            study,
            configs,
            rows,
        }
        .table()
        .render();
        assert!(
            text.contains("| FG     | 0.999          | 0.500 "),
            "{text}"
        );
    }
}
