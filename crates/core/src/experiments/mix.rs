//! Figures 9–12: the two case-study sweeps.
//!
//! * Figure 9: CNN1 colocated with 1–6 Stitch instances; CNN1 performance
//!   normalized to standalone and Stitch throughput normalized to Baseline
//!   with one instance, for the four configurations.
//! * Figure 10: RNN1 colocated with CPUML at 2–16 threads; RNN1 QPS and
//!   95 %-ile tail, and CPUML throughput normalized to Baseline with two
//!   threads.
//! * Figures 11/12: the actuator values each runtime settles at (cores for
//!   CT/KP, prefetchers for KP-SD), from the same runs.

use crate::driver::ExperimentConfig;
use crate::metrics::normalized;
use crate::policy::{PolicyKind, PolicySnapshot};
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// One sweep point for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixPoint {
    /// Sweep parameter (Stitch instances or CPUML threads).
    pub param: usize,
    /// ML performance normalized to standalone.
    pub ml_norm: f64,
    /// ML tail latency normalized to standalone (RNN1 only).
    pub ml_tail_norm: Option<f64>,
    /// CPU throughput normalized to the sweep's Baseline reference point.
    pub cpu_norm: f64,
    /// Final actuator snapshot (Figures 11/12).
    pub snapshot: PolicySnapshot,
}

/// One policy's series over the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSeries {
    /// Policy label.
    pub policy: String,
    /// Points in sweep order.
    pub points: Vec<MixPoint>,
}

/// A full case-study sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSweepResult {
    /// ML workload name.
    pub ml: String,
    /// CPU workload name.
    pub cpu: String,
    /// Sweep parameter values.
    pub params: Vec<usize>,
    /// One series per policy, in [`PolicyKind::paper_set`] order.
    pub series: Vec<MixSeries>,
}

impl MixSweepResult {
    /// Series lookup by policy label.
    pub fn series_for(&self, policy: PolicyKind) -> Option<&MixSeries> {
        self.series.iter().find(|s| s.policy == policy.label())
    }

    /// Average ML normalized performance for a policy across the sweep.
    pub fn avg_ml_norm(&self, policy: PolicyKind) -> f64 {
        let Some(s) = self.series_for(policy) else {
            return 0.0;
        };
        kelp_simcore::stats::arithmetic_mean(
            &s.points.iter().map(|p| p.ml_norm).collect::<Vec<_>>(),
        )
    }

    /// Harmonic-mean CPU normalized throughput for a policy.
    pub fn avg_cpu_norm(&self, policy: PolicyKind) -> f64 {
        let Some(s) = self.series_for(policy) else {
            return 0.0;
        };
        kelp_simcore::stats::harmonic_mean(&s.points.iter().map(|p| p.cpu_norm).collect::<Vec<_>>())
    }

    /// ML-performance table (Figure 9a / 10a).
    pub fn ml_table(&self) -> Table {
        self.metric_table("ML perf (normalized to standalone)", |p| Some(p.ml_norm))
    }

    /// CPU-throughput table (Figure 9b / 10c).
    pub fn cpu_table(&self) -> Table {
        self.metric_table("CPU throughput (normalized to BL reference)", |p| {
            Some(p.cpu_norm)
        })
    }

    /// Tail-latency table (Figure 10b), when available.
    pub fn tail_table(&self) -> Table {
        self.metric_table("ML tail latency (normalized to standalone)", |p| {
            p.ml_tail_norm
        })
    }

    /// Actuator table (Figures 11/12): normalized cores and prefetchers.
    pub fn actuator_table(&self) -> Table {
        let mut header = vec!["param".to_string()];
        for s in &self.series {
            header.push(format!("{} cores", s.policy));
            header.push(format!("{} pf", s.policy));
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("Figures 11/12 — actuators for {} + {}", self.ml, self.cpu),
            &refs,
        );
        for (i, &param) in self.params.iter().enumerate() {
            let mut row = vec![param.to_string()];
            for s in &self.series {
                row.push(Table::num(s.points[i].snapshot.normalized_cores()));
                row.push(Table::num(s.points[i].snapshot.normalized_prefetchers()));
            }
            t.row(row);
        }
        t
    }

    fn metric_table(&self, title: &str, f: impl Fn(&MixPoint) -> Option<f64>) -> Table {
        let mut header = vec!["param".to_string()];
        for s in &self.series {
            header.push(s.policy.clone());
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(format!("{} — {} + {}", title, self.ml, self.cpu), &refs);
        for (i, &param) in self.params.iter().enumerate() {
            let mut row = vec![param.to_string()];
            for s in &self.series {
                row.push(
                    f(&s.points[i])
                        .map(Table::num)
                        .unwrap_or_else(|| "-".into()),
                );
            }
            t.row(row);
        }
        t
    }
}

/// How a sweep parameter turns into CPU workload specs.
fn cpu_specs(cpu: BatchKind, param: usize) -> Vec<CpuSpec> {
    match cpu {
        // Figure 9 sweeps Stitch *instances* (4 threads each).
        BatchKind::Stitch => (0..param)
            .map(|i| {
                let mut label = String::with_capacity(10);
                label.push_str("Stitch#");
                push_decimal(&mut label, i);
                CpuSpec::new(BatchKind::Stitch, 4).with_label(label)
            })
            .collect(),
        // Figure 10 sweeps CPUML *threads* in one instance.
        _ => vec![CpuSpec::new(cpu, param)],
    }
}

/// Appends `n` in decimal without `format!`'s machinery, which was a
/// measurable share of enumerating Figure 9's grid (85 instance labels).
fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

fn point_spec(
    ml: MlWorkloadKind,
    cpu: BatchKind,
    param: usize,
    policy: PolicyKind,
    config: &ExperimentConfig,
) -> RunSpec {
    let mut spec = RunSpec::new(ml, policy, config);
    spec.cpu = cpu_specs(cpu, param);
    spec
}

/// Enumerates a case-study sweep: the standalone reference, the Baseline
/// CPU-normalization reference at the first sweep point, then every
/// (policy, param) grid point. [`fold`] consumes records in this order.
pub fn specs(
    ml: MlWorkloadKind,
    cpu: BatchKind,
    params: &[usize],
    config: &ExperimentConfig,
) -> Vec<RunSpec> {
    let policies = PolicyKind::paper_set();
    let mut specs = Vec::with_capacity(2 + policies.len() * params.len());
    specs.push(super::standalone_spec(ml, config));
    specs.push(point_spec(ml, cpu, params[0], PolicyKind::Baseline, config));
    for policy in policies {
        for &param in params {
            specs.push(point_spec(ml, cpu, param, policy, config));
        }
    }
    specs
}

/// Folds batch records (in [`specs`] order) into the sweep result.
pub fn fold(
    ml: MlWorkloadKind,
    cpu: BatchKind,
    params: &[usize],
    records: &[RunRecord],
) -> MixSweepResult {
    let mut next = RecordCursor::new(records);
    let standalone = next.take().ml_performance;
    // CPU normalization reference: Baseline at the first sweep point.
    let bl_ref = next.take().cpu_total_throughput().max(1e-12);

    let mut series = Vec::new();
    for policy in PolicyKind::paper_set() {
        let mut points = Vec::new();
        for &param in params {
            let r = next.take();
            let ml_tail_norm = match (r.ml_performance.tail_latency_ms, standalone.tail_latency_ms)
            {
                (Some(t), Some(s)) if s > 0.0 => Some(t / s),
                _ => None,
            };
            points.push(MixPoint {
                param,
                ml_norm: normalized(r.ml_performance.throughput, standalone.throughput),
                ml_tail_norm,
                cpu_norm: r.cpu_total_throughput() / bl_ref,
                snapshot: r.final_policy,
            });
        }
        series.push(MixSeries {
            policy: policy.label().to_string(),
            points,
        });
    }
    MixSweepResult {
        ml: ml.name().to_string(),
        cpu: cpu.name().to_string(),
        params: params.to_vec(),
        series,
    }
}

/// Runs a case-study sweep through the given engine.
pub fn run_mix_sweep_with(
    runner: &Runner,
    ml: MlWorkloadKind,
    cpu: BatchKind,
    params: &[usize],
    config: &ExperimentConfig,
) -> MixSweepResult {
    fold(
        ml,
        cpu,
        params,
        &runner.run_batch(&specs(ml, cpu, params, config)),
    )
}

/// Figure 9's sweep (and 11's): 1–6 Stitch instances.
pub const FIGURE9_INSTANCES: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// Figure 10's sweep (and 12's): 2–16 CPUML threads.
pub const FIGURE10_THREADS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// Figure 9 (and 11): CNN1 + Stitch over [`FIGURE9_INSTANCES`], through
/// the given engine.
pub fn figure9_with(runner: &Runner, config: &ExperimentConfig) -> MixSweepResult {
    run_mix_sweep_with(
        runner,
        MlWorkloadKind::Cnn1,
        BatchKind::Stitch,
        &FIGURE9_INSTANCES,
        config,
    )
}

/// Figure 10 (and 12): RNN1 + CPUML over [`FIGURE10_THREADS`], through
/// the given engine.
pub fn figure10_with(runner: &Runner, config: &ExperimentConfig) -> MixSweepResult {
    run_mix_sweep_with(
        runner,
        MlWorkloadKind::Rnn1,
        BatchKind::CpuMl,
        &FIGURE10_THREADS,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_expected_shape() {
        let cfg = ExperimentConfig::quick();
        let r = run_mix_sweep_with(
            &Runner::serial(),
            MlWorkloadKind::Cnn1,
            BatchKind::Stitch,
            &[1, 3],
            &cfg,
        );
        assert_eq!(r.series.len(), 4);
        assert_eq!(r.params, vec![1, 3]);
        for s in &r.series {
            assert_eq!(s.points.len(), 2);
        }
        // Baseline ML performance falls as instances grow.
        let bl = r.series_for(PolicyKind::Baseline).unwrap();
        assert!(bl.points[1].ml_norm <= bl.points[0].ml_norm + 0.05);
        // Managed policies protect the ML task at the heavy point.
        let kp = r.series_for(PolicyKind::Kelp).unwrap();
        assert!(
            kp.points[1].ml_norm > bl.points[1].ml_norm - 0.02,
            "kp {} bl {}",
            kp.points[1].ml_norm,
            bl.points[1].ml_norm
        );
        // Tables render.
        assert_eq!(r.ml_table().row_count(), 2);
        assert_eq!(r.actuator_table().row_count(), 2);
    }
}
