//! Figure 7: shared-memory backpressure and prefetcher toggling.
//!
//! With NUMA subdomains enabled and the aggressors confined to the other
//! subdomain, the only interference channel left is the socket-wide distress
//! broadcast. The paper sweeps the fraction of low-priority L2 prefetchers
//! disabled for three aggressor intensities (L/M/H) and plots, per
//! configuration: accelerated-task performance (bars), measured memory
//! saturation (lines, right axis), and — for RNN1 — tail latency.
//!
//! Headline observations the harness must reproduce: subdomains alone are
//! not enough (RNN1 loses ~14 % QPS, CNN1 ~50 %, CNN2 ~10 % at aggressor H
//! with no prefetchers off); disabling prefetchers restores performance; at
//! low pressure SNC can beat standalone thanks to the shorter local path.

use crate::driver::ExperimentConfig;
use crate::measure::Measurements;
use crate::metrics::normalized;
use crate::policy::{
    apply_lp_allocations, apply_standard_cat, Policy, PolicyCtx, PolicyKind, PolicySnapshot,
};
use crate::report::Table;
use crate::runner::{CpuSpec, PolicySpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_host::machine::Actuator;
use kelp_host::HostMachine;
use kelp_mem::prefetch::PrefetchSetting;
use kelp_mem::topology::SncMode;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// Aggressor intensities used in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggressorLevel {
    /// Low pressure.
    Low,
    /// Medium pressure.
    Medium,
    /// High pressure.
    High,
}

impl AggressorLevel {
    /// All levels in plot order.
    pub fn all() -> [AggressorLevel; 3] {
        [
            AggressorLevel::Low,
            AggressorLevel::Medium,
            AggressorLevel::High,
        ]
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            AggressorLevel::Low => "Aggress-L",
            AggressorLevel::Medium => "Aggress-M",
            AggressorLevel::High => "Aggress-H",
        }
    }

    /// DRAM-aggressor thread count for this level.
    ///
    /// One streaming core demands ~15 GB/s against the low-priority
    /// subdomain's ~64 GB/s: L leaves headroom, M sits just below
    /// saturation (partial distress duty), H saturates outright.
    pub fn threads(self) -> usize {
        match self {
            AggressorLevel::Low => 2,
            AggressorLevel::Medium => 4,
            AggressorLevel::High => 14,
        }
    }
}

/// A policy that pins the machine to the KP-SD placement with a *fixed*
/// prefetcher fraction — the Figure 7 sweep variable.
#[derive(Debug)]
pub struct FixedPrefetchPolicy {
    enabled_fraction: f64,
    snapshot: PolicySnapshot,
}

impl FixedPrefetchPolicy {
    /// `disabled` is the fraction of low-priority prefetchers turned off.
    pub fn with_disabled_fraction(disabled: f64) -> Self {
        FixedPrefetchPolicy {
            enabled_fraction: (1.0 - disabled).clamp(0.0, 1.0),
            snapshot: PolicySnapshot::default(),
        }
    }

    /// The fraction of prefetchers left enabled.
    pub fn enabled_fraction(&self) -> f64 {
        self.enabled_fraction
    }
}

impl Policy for FixedPrefetchPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::KelpSubdomain
    }

    fn snc_mode(&self) -> SncMode {
        SncMode::Enabled
    }

    fn setup(&mut self, machine: &mut HostMachine, ctx: &PolicyCtx) {
        apply_standard_cat(machine, ctx.socket);
        let lp_cores = machine.domain_cores(ctx.lp_domain) as u32;
        apply_lp_allocations(machine, ctx, lp_cores, 0);
        let setting = PrefetchSetting::fraction(self.enabled_fraction);
        for &(task, _) in &ctx.lp_tasks {
            machine.set_prefetchers(task, setting);
        }
        self.snapshot = PolicySnapshot {
            lp_cores,
            lp_cores_max: lp_cores,
            lp_prefetchers: (self.enabled_fraction * f64::from(lp_cores)).round() as u32,
            hp_backfill_cores: 0,
            hp_backfill_max: 0,
        };
    }

    fn on_sample(&mut self, _m: Measurements, _machine: &mut HostMachine, _ctx: &PolicyCtx) {}

    fn snapshot(&self) -> PolicySnapshot {
        self.snapshot
    }
}

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackpressurePoint {
    /// Fraction of prefetchers disabled, in `[0, 1]`.
    pub disabled_fraction: f64,
    /// ML performance normalized to (SNC-off) standalone.
    pub normalized_perf: f64,
    /// Measured saturation duty cycle (the right-axis line).
    pub saturation: f64,
    /// RNN1 tail latency normalized to standalone (None for trainers).
    pub normalized_tail: Option<f64>,
}

/// One workload's Figure 7 panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackpressurePanel {
    /// Workload name.
    pub workload: String,
    /// Per-level series in [`AggressorLevel::all`] order.
    pub series: Vec<(String, Vec<BackpressurePoint>)>,
}

/// The Figure 7 result: panels for RNN1, CNN1, CNN2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackpressureResult {
    /// Prefetcher-disabled fractions swept.
    pub disabled_fractions: Vec<f64>,
    /// One panel per workload.
    pub panels: Vec<BackpressurePanel>,
}

impl BackpressureResult {
    /// Point lookup: (workload, level, disabled fraction index).
    pub fn point(
        &self,
        workload: &str,
        level: AggressorLevel,
        idx: usize,
    ) -> Option<BackpressurePoint> {
        let panel = self.panels.iter().find(|p| p.workload == workload)?;
        let (_, series) = panel.series.iter().find(|(l, _)| l == level.label())?;
        series.get(idx).copied()
    }

    /// Renders one panel as a table.
    pub fn table(&self, workload: &str) -> Option<Table> {
        let panel = self.panels.iter().find(|p| p.workload == workload)?;
        let mut header = vec!["% prefetchers off".to_string()];
        for (label, _) in &panel.series {
            header.push(format!("{label} perf"));
            header.push(format!("{label} sat"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(format!("Figure 7 — {workload}"), &header_refs);
        for (i, &frac) in self.disabled_fractions.iter().enumerate() {
            let mut row = vec![format!("{:.0}%", frac * 100.0)];
            for (_, series) in &panel.series {
                row.push(Table::num(series[i].normalized_perf));
                row.push(Table::num(series[i].saturation));
            }
            t.row(row);
        }
        Some(t)
    }
}

/// The fractions of low-priority prefetchers disabled along the sweep.
fn sweep_fractions() -> [f64; 5] {
    [0.0, 0.25, 0.5, 0.75, 1.0]
}

/// The workloads panelled in Figure 7.
fn panel_workloads() -> [MlWorkloadKind; 3] {
    [
        MlWorkloadKind::Rnn1,
        MlWorkloadKind::Cnn1,
        MlWorkloadKind::Cnn2,
    ]
}

/// Enumerates the Figure 7 grid: per workload, the standalone reference
/// then one fixed-prefetch run per (level, disabled fraction).
pub fn specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    let levels = AggressorLevel::all().len();
    let mut specs =
        Vec::with_capacity(panel_workloads().len() * (1 + levels * sweep_fractions().len()));
    for ml in panel_workloads() {
        specs.push(super::standalone_spec(ml, config));
        for level in AggressorLevel::all() {
            for disabled in sweep_fractions() {
                specs.push(
                    RunSpec::new(ml, PolicyKind::KelpSubdomain, config)
                        .with_policy(PolicySpec::FixedPrefetch(disabled))
                        .with_cpu(CpuSpec::new(BatchKind::DramAggressor, level.threads())),
                );
            }
        }
    }
    specs
}

/// Folds batch records (in [`specs`] order) into the Figure 7 result.
pub fn fold(records: &[RunRecord]) -> BackpressureResult {
    let disabled_fractions = sweep_fractions();
    let mut next = RecordCursor::new(records);
    let mut panels = Vec::new();
    for ml in panel_workloads() {
        let standalone = next.take().ml_performance;
        let mut series = Vec::new();
        for level in AggressorLevel::all() {
            let mut points = Vec::new();
            for disabled in disabled_fractions {
                let r = next.take();
                let normalized_tail =
                    match (r.ml_performance.tail_latency_ms, standalone.tail_latency_ms) {
                        (Some(t), Some(s)) if s > 0.0 => Some(t / s),
                        _ => None,
                    };
                points.push(BackpressurePoint {
                    disabled_fraction: disabled,
                    normalized_perf: normalized(r.ml_performance.throughput, standalone.throughput),
                    saturation: r.avg_measurements.socket_saturation,
                    normalized_tail,
                });
            }
            series.push((level.label().to_string(), points));
        }
        panels.push(BackpressurePanel {
            workload: ml.name().to_string(),
            series,
        });
    }
    BackpressureResult {
        disabled_fractions: disabled_fractions.to_vec(),
        panels,
    }
}

/// Runs the Figure 7 sweep through the given engine.
pub fn figure7_with(runner: &Runner, config: &ExperimentConfig) -> BackpressureResult {
    fold(&runner.run_batch(&specs(config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Experiment;
    use kelp_workloads::BatchWorkload;

    #[test]
    fn level_threads_are_ordered() {
        assert!(AggressorLevel::Low.threads() < AggressorLevel::Medium.threads());
        assert!(AggressorLevel::Medium.threads() < AggressorLevel::High.threads());
        assert_eq!(AggressorLevel::High.label(), "Aggress-H");
    }

    #[test]
    fn fixed_prefetch_policy_clamps() {
        let p = FixedPrefetchPolicy::with_disabled_fraction(1.5);
        assert_eq!(p.enabled_fraction(), 0.0);
        let p = FixedPrefetchPolicy::with_disabled_fraction(-0.5);
        assert_eq!(p.enabled_fraction(), 1.0);
        assert_eq!(p.kind(), PolicyKind::KelpSubdomain);
    }

    #[test]
    fn disabling_prefetchers_reduces_saturation_and_restores_perf() {
        // One workload, one level, two sweep points — the cheap version of
        // the key Figure 7 claim.
        let config = ExperimentConfig::quick();
        let ml = MlWorkloadKind::Cnn1;
        let standalone =
            crate::experiments::standalone_reference_with(&Runner::serial(), ml, &config);
        let run = |disabled: f64| {
            Experiment::builder(ml, PolicyKind::KelpSubdomain)
                .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(
                    disabled,
                )))
                .add_cpu_workload(BatchWorkload::new(
                    BatchKind::DramAggressor,
                    AggressorLevel::High.threads(),
                ))
                .config(config.clone())
                .run()
        };
        let all_on = run(0.0);
        let all_off = run(1.0);
        let on_norm = all_on.ml_performance.throughput / standalone.throughput;
        let off_norm = all_off.ml_performance.throughput / standalone.throughput;
        assert!(
            off_norm > on_norm,
            "prefetchers off should help the ML task: {off_norm} vs {on_norm}"
        );
        assert!(
            all_off.avg_measurements.socket_saturation < all_on.avg_measurements.socket_saturation,
            "saturation must drop"
        );
        assert!(on_norm < 0.9, "subdomains alone are not enough: {on_norm}");
    }
}
