//! Figures 13 & 14: the overall evaluation.
//!
//! Every ML workload (RNN1, CNN1, CNN2, CNN3) is colocated with every CPU
//! workload (Stream, Stitch, CPUML) under each of the four configurations.
//! Figure 13 plots ML slowdown (left axis, arithmetic-mean average) and CPU
//! slowdown (right axis, harmonic-mean average). Figure 14 plots the
//! efficiency metric — ML gain over Baseline per unit of CPU throughput
//! lost versus Baseline.
//!
//! Paper headlines: Kelp cuts ML slowdown 43 % vs Baseline at a 24 % CPU
//! cost; beats CoreThrottle by 7 % ML at parity CPU; gives up 4 % ML to
//! Subdomain but returns 19 % more CPU throughput; and lands 17 % / 37 %
//! higher efficiency than CoreThrottle / Subdomain.

use crate::driver::ExperimentConfig;
use crate::metrics::{efficiency, normalized};
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// The CPU workload shapes used in the overall evaluation.
pub fn cpu_workload_set() -> [(BatchKind, usize); 3] {
    [
        (BatchKind::Stream, 16),
        (BatchKind::Stitch, 16),
        (BatchKind::CpuMl, 16),
    ]
}

/// Per-(mix, policy) outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// ML performance normalized to standalone.
    pub ml_norm: f64,
    /// ML slowdown (1 / ml_norm).
    pub ml_slowdown: f64,
    /// CPU throughput normalized to the mix's Baseline run.
    pub cpu_norm: f64,
    /// CPU slowdown (1 / cpu_norm).
    pub cpu_slowdown: f64,
}

/// One workload mix's results across policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixOutcome {
    /// ML workload name.
    pub ml: String,
    /// CPU workload name.
    pub cpu: String,
    /// Outcomes in [`PolicyKind::paper_set`] order.
    pub outcomes: Vec<PolicyOutcome>,
}

/// The Figure 13/14 dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverallResult {
    /// Policy labels in column order.
    pub policies: Vec<String>,
    /// All 12 mixes in (ML outer, CPU inner) order.
    pub mixes: Vec<MixOutcome>,
}

impl OverallResult {
    fn policy_index(&self, policy: PolicyKind) -> Option<usize> {
        self.policies.iter().position(|p| p == policy.label())
    }

    /// Arithmetic-mean ML slowdown for a policy (Figure 13 left axis).
    pub fn avg_ml_slowdown(&self, policy: PolicyKind) -> f64 {
        let Some(i) = self.policy_index(policy) else {
            return 0.0;
        };
        let vals: Vec<f64> = self
            .mixes
            .iter()
            .map(|m| m.outcomes[i].ml_slowdown)
            .collect();
        kelp_simcore::stats::arithmetic_mean(&vals)
    }

    /// Harmonic-mean CPU normalized throughput for a policy.
    pub fn avg_cpu_norm(&self, policy: PolicyKind) -> f64 {
        let Some(i) = self.policy_index(policy) else {
            return 0.0;
        };
        let vals: Vec<f64> = self.mixes.iter().map(|m| m.outcomes[i].cpu_norm).collect();
        kelp_simcore::stats::harmonic_mean(&vals)
    }

    /// Arithmetic-mean ML normalized performance for a policy.
    pub fn avg_ml_norm(&self, policy: PolicyKind) -> f64 {
        let Some(i) = self.policy_index(policy) else {
            return 0.0;
        };
        let vals: Vec<f64> = self.mixes.iter().map(|m| m.outcomes[i].ml_norm).collect();
        kelp_simcore::stats::arithmetic_mean(&vals)
    }

    /// Per-mix efficiency for a policy (Figure 14); `None` where the policy
    /// lost no CPU throughput versus Baseline.
    pub fn efficiencies(&self, policy: PolicyKind) -> Vec<Option<f64>> {
        let Some(i) = self.policy_index(policy) else {
            return Vec::new();
        };
        let Some(bl) = self.policy_index(PolicyKind::Baseline) else {
            return Vec::new();
        };
        self.mixes
            .iter()
            .map(|m| {
                efficiency(
                    m.outcomes[i].ml_norm,
                    m.outcomes[bl].ml_norm,
                    m.outcomes[i].cpu_norm,
                    m.outcomes[bl].cpu_norm,
                )
            })
            .collect()
    }

    /// Average efficiency over mixes where it is defined.
    pub fn avg_efficiency(&self, policy: PolicyKind) -> f64 {
        let vals: Vec<f64> = self.efficiencies(policy).into_iter().flatten().collect();
        kelp_simcore::stats::arithmetic_mean(&vals)
    }

    /// Figure 13 table.
    pub fn figure13_table(&self) -> Table {
        let mut header = vec!["Mix".to_string()];
        for p in &self.policies {
            header.push(format!("{p} ML-slow"));
        }
        for p in &self.policies {
            header.push(format!("{p} CPU-slow"));
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new("Figure 13 — ML and CPU slowdown per mix", &refs);
        for m in &self.mixes {
            let mut row = vec![format!("{}+{}", m.ml, m.cpu)];
            for o in &m.outcomes {
                row.push(Table::num(o.ml_slowdown));
            }
            for o in &m.outcomes {
                row.push(Table::num(o.cpu_slowdown));
            }
            t.row(row);
        }
        let mut avg = vec!["Average".to_string()];
        for (i, _) in self.policies.iter().enumerate() {
            let vals: Vec<f64> = self
                .mixes
                .iter()
                .map(|m| m.outcomes[i].ml_slowdown)
                .collect();
            avg.push(Table::num(kelp_simcore::stats::arithmetic_mean(&vals)));
        }
        for (i, _) in self.policies.iter().enumerate() {
            let vals: Vec<f64> = self.mixes.iter().map(|m| m.outcomes[i].cpu_norm).collect();
            let hm = kelp_simcore::stats::harmonic_mean(&vals);
            avg.push(Table::num(if hm > 0.0 { 1.0 / hm } else { f64::INFINITY }));
        }
        t.row(avg);
        t
    }

    /// Figure 14 table.
    pub fn figure14_table(&self) -> Table {
        let policies = [
            PolicyKind::CoreThrottle,
            PolicyKind::KelpSubdomain,
            PolicyKind::Kelp,
        ];
        let mut header = vec!["Mix".to_string()];
        for p in policies {
            header.push(p.label().to_string());
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new("Figure 14 — efficiency (ML gain / CPU loss vs BL)", &refs);
        let effs: Vec<Vec<Option<f64>>> = policies.iter().map(|&p| self.efficiencies(p)).collect();
        for (mi, m) in self.mixes.iter().enumerate() {
            let mut row = vec![format!("{}+{}", m.ml, m.cpu)];
            for e in &effs {
                row.push(match e[mi] {
                    Some(v) => Table::num(v),
                    None => "n/a".into(),
                });
            }
            t.row(row);
        }
        let mut avg = vec!["Average".to_string()];
        for p in policies {
            avg.push(Table::num(self.avg_efficiency(p)));
        }
        t.row(avg);
        t
    }
}

/// Enumerates the overall-evaluation batch: per ML workload, one standalone
/// reference followed by one run per (CPU workload, paper-set policy) pair.
/// [`fold`] consumes the records in exactly this order.
pub fn specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    let per_ml = 1 + cpu_workload_set().len() * PolicyKind::paper_set().len();
    let mut specs = Vec::with_capacity(MlWorkloadKind::all().len() * per_ml);
    for ml in MlWorkloadKind::all() {
        specs.push(super::standalone_spec(ml, config));
        for (cpu_kind, threads) in cpu_workload_set() {
            for policy in PolicyKind::paper_set() {
                specs.push(
                    RunSpec::new(ml, policy, config).with_cpu(CpuSpec::new(cpu_kind, threads)),
                );
            }
        }
    }
    specs
}

/// Folds the batch records (in [`specs`] order) into the Figure 13/14
/// dataset. The colocated Baseline run doubles as the mix's CPU-throughput
/// reference, exactly as the paper normalizes.
pub fn fold(records: &[RunRecord]) -> OverallResult {
    let policies = PolicyKind::paper_set();
    let mut mixes = Vec::new();
    let mut next = RecordCursor::new(records);
    for ml in MlWorkloadKind::all() {
        let standalone = next.take().ml_performance;
        for (cpu_kind, _) in cpu_workload_set() {
            let per_policy: Vec<&RunRecord> = policies.iter().map(|_| next.take()).collect();
            let bl = per_policy[0];
            let bl_cpu = bl.cpu_total_throughput().max(1e-12);
            let mut outcomes = Vec::new();
            for (i, policy) in policies.iter().enumerate() {
                let r = per_policy[i];
                let ml_norm = normalized(r.ml_performance.throughput, standalone.throughput);
                let cpu_norm = if *policy == PolicyKind::Baseline {
                    1.0
                } else {
                    r.cpu_total_throughput() / bl_cpu
                };
                outcomes.push(PolicyOutcome {
                    ml_norm,
                    ml_slowdown: if ml_norm > 0.0 {
                        1.0 / ml_norm
                    } else {
                        f64::INFINITY
                    },
                    cpu_norm,
                    cpu_slowdown: if cpu_norm > 0.0 {
                        1.0 / cpu_norm
                    } else {
                        f64::INFINITY
                    },
                });
            }
            mixes.push(MixOutcome {
                ml: ml.name().to_string(),
                cpu: cpu_kind.name().to_string(),
                outcomes,
            });
        }
    }
    OverallResult {
        policies: policies.iter().map(|p| p.label().to_string()).collect(),
        mixes,
    }
}

/// Runs the full overall evaluation (12 mixes x 4 policies + references)
/// through the given engine.
pub fn run_overall_with(runner: &Runner, config: &ExperimentConfig) -> OverallResult {
    fold(&runner.run_batch(&specs(config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced overall run (one ML workload, one CPU workload) checking
    /// the key orderings cheaply; the full Figure 13 lives in the bench
    /// harness and integration tests.
    #[test]
    fn reduced_overall_orderings() {
        let config = ExperimentConfig::quick();
        let ml = MlWorkloadKind::Cnn1;
        let runner = Runner::serial();
        let standalone = crate::experiments::standalone_reference_with(&runner, ml, &config);
        let run = |policy: PolicyKind| {
            runner.run_one(
                &RunSpec::new(ml, policy, &config).with_cpu(CpuSpec::new(BatchKind::Stream, 12)),
            )
        };
        let bl = run(PolicyKind::Baseline);
        let kpsd = run(PolicyKind::KelpSubdomain);
        let kp = run(PolicyKind::Kelp);
        let bl_ml = bl.ml_performance.throughput / standalone.throughput;
        let kpsd_ml = kpsd.ml_performance.throughput / standalone.throughput;
        let kp_ml = kp.ml_performance.throughput / standalone.throughput;
        assert!(kpsd_ml > bl_ml, "KP-SD must beat BL: {kpsd_ml} vs {bl_ml}");
        assert!(kp_ml > bl_ml, "KP must beat BL: {kp_ml} vs {bl_ml}");
        // KP recovers CPU throughput relative to KP-SD via backfilling.
        let kpsd_cpu = kpsd.cpu_total_throughput();
        let kp_cpu = kp.cpu_total_throughput();
        assert!(
            kp_cpu > kpsd_cpu,
            "backfilling must recover CPU throughput: {kp_cpu} vs {kpsd_cpu}"
        );
    }
}
