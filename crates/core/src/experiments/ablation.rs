//! Ablations of Kelp's design choices.
//!
//! * [`sampling_sweep_with`] — the §IV-D claim that "the effectiveness of
//!   Kelp is not sensitive to the sampling frequency".
//! * [`backfill_ablation_with`] — what §IV-C's backfilling buys over
//!   subdomains alone, per CPU workload.
//! * [`saturation_watermark_sweep_with`] — how sensitive Kelp is to the one
//!   watermark the paper's prior work did not have: the `FAST_ASSERTED`
//!   saturation threshold.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, PolicySpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_simcore::time::SimDuration;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// One sampling-period ablation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingPoint {
    /// Kelp sampling period in milliseconds.
    pub period_ms: u64,
    /// ML performance normalized to standalone.
    pub ml_norm: f64,
    /// Total CPU throughput in units/s.
    pub cpu_throughput: f64,
}

/// Enumerates the sampling sweep: the CNN1 standalone reference, then one
/// Kelp run of the CNN1 + 4x Stitch mix per sampling period.
pub fn sampling_specs(periods_ms: &[u64], base: &ExperimentConfig) -> Vec<RunSpec> {
    let ml = MlWorkloadKind::Cnn1;
    let mut specs = vec![super::standalone_spec(ml, base)];
    for &ms in periods_ms {
        let config = ExperimentConfig {
            sample_period: SimDuration::from_millis(ms),
            ..base.clone()
        };
        let mut spec = RunSpec::new(ml, PolicyKind::Kelp, &config);
        for i in 0..4 {
            spec =
                spec.with_cpu(CpuSpec::new(BatchKind::Stitch, 4).with_label(format!("Stitch#{i}")));
        }
        specs.push(spec);
    }
    specs
}

/// Folds batch records (in [`sampling_specs`] order) into sweep points.
pub fn sampling_fold(periods_ms: &[u64], records: &[RunRecord]) -> Vec<SamplingPoint> {
    let mut next = RecordCursor::new(records);
    let standalone = next.take().ml_performance;
    periods_ms
        .iter()
        .map(|&ms| {
            let r = next.take();
            SamplingPoint {
                period_ms: ms,
                ml_norm: r.ml_performance.throughput / standalone.throughput,
                cpu_throughput: r.cpu_total_throughput(),
            }
        })
        .collect()
}

/// Sweeps Kelp's sampling period through the given engine.
pub fn sampling_sweep_with(
    runner: &Runner,
    periods_ms: &[u64],
    base: &ExperimentConfig,
) -> Vec<SamplingPoint> {
    sampling_fold(
        periods_ms,
        &runner.run_batch(&sampling_specs(periods_ms, base)),
    )
}

/// Spread of the ML outcome across a sampling sweep (max - min of the
/// normalized performance). The paper's claim implies this is small.
pub fn sampling_spread(points: &[SamplingPoint]) -> f64 {
    let max = points.iter().map(|p| p.ml_norm).fold(f64::MIN, f64::max);
    let min = points.iter().map(|p| p.ml_norm).fold(f64::MAX, f64::min);
    if points.is_empty() {
        0.0
    } else {
        max - min
    }
}

/// One backfill-ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackfillRow {
    /// The CPU workload.
    pub cpu: String,
    /// KP-SD ML normalized performance.
    pub sd_ml: f64,
    /// KP ML normalized performance.
    pub kp_ml: f64,
    /// KP-SD total CPU throughput.
    pub sd_cpu: f64,
    /// KP total CPU throughput.
    pub kp_cpu: f64,
}

impl BackfillRow {
    /// Relative CPU throughput recovered by backfilling.
    pub fn cpu_recovered(&self) -> f64 {
        if self.sd_cpu <= 0.0 {
            0.0
        } else {
            self.kp_cpu / self.sd_cpu - 1.0
        }
    }
}

/// CPU workload kinds compared in the backfill ablation.
fn backfill_kinds() -> [BatchKind; 3] {
    [BatchKind::Stream, BatchKind::Stitch, BatchKind::CpuMl]
}

/// Enumerates the backfill ablation: the CNN1 standalone reference, then a
/// KP-SD and a KP run per CPU workload kind.
pub fn backfill_specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    let ml = MlWorkloadKind::Cnn1;
    let mut specs = vec![super::standalone_spec(ml, config)];
    for kind in backfill_kinds() {
        for policy in [PolicyKind::KelpSubdomain, PolicyKind::Kelp] {
            specs.push(RunSpec::new(ml, policy, config).with_cpu(CpuSpec::new(kind, 16)));
        }
    }
    specs
}

/// Folds batch records (in [`backfill_specs`] order) into ablation rows.
pub fn backfill_fold(records: &[RunRecord]) -> Vec<BackfillRow> {
    let mut next = RecordCursor::new(records);
    let standalone = next.take().ml_performance;
    backfill_kinds()
        .iter()
        .map(|&kind| {
            let sd = next.take();
            let kp = next.take();
            BackfillRow {
                cpu: kind.name().to_string(),
                sd_ml: sd.ml_performance.throughput / standalone.throughput,
                kp_ml: kp.ml_performance.throughput / standalone.throughput,
                sd_cpu: sd.cpu_total_throughput(),
                kp_cpu: kp.cpu_total_throughput(),
            }
        })
        .collect()
}

/// Runs the KP vs KP-SD ablation through the given engine.
pub fn backfill_ablation_with(runner: &Runner, config: &ExperimentConfig) -> Vec<BackfillRow> {
    backfill_fold(&runner.run_batch(&backfill_specs(config)))
}

/// One watermark-sensitivity point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatermarkPoint {
    /// High saturation watermark used by the Kelp controller.
    pub sat_high: f64,
    /// ML performance normalized to standalone.
    pub ml_norm: f64,
    /// Total CPU throughput in units/s.
    pub cpu_throughput: f64,
}

/// Enumerates the watermark sweep: the CNN1 standalone reference, then one
/// Kelp run per saturation high-watermark (the profile-library override
/// lives in [`PolicySpec::KelpSatWatermark`]).
pub fn watermark_specs(sat_highs: &[f64], config: &ExperimentConfig) -> Vec<RunSpec> {
    let ml = MlWorkloadKind::Cnn1;
    let mut specs = vec![super::standalone_spec(ml, config)];
    for &sat_high in sat_highs {
        specs.push(
            RunSpec::new(ml, PolicyKind::Kelp, config)
                .with_policy(PolicySpec::KelpSatWatermark(sat_high))
                .with_cpu(CpuSpec::new(BatchKind::DramAggressor, 14)),
        );
    }
    specs
}

/// Folds batch records (in [`watermark_specs`] order) into sweep points.
pub fn watermark_fold(sat_highs: &[f64], records: &[RunRecord]) -> Vec<WatermarkPoint> {
    let mut next = RecordCursor::new(records);
    let standalone = next.take().ml_performance;
    sat_highs
        .iter()
        .map(|&sat_high| {
            let r = next.take();
            WatermarkPoint {
                sat_high,
                ml_norm: r.ml_performance.throughput / standalone.throughput,
                cpu_throughput: r.cpu_total_throughput(),
            }
        })
        .collect()
}

/// Sweeps Kelp's saturation high-watermark on the CNN1 + DRAM-aggressor
/// mix through the given engine.
///
/// Low values throttle batch prefetchers at the slightest pressure (max ML
/// protection, min CPU throughput); high values tolerate saturation.
pub fn saturation_watermark_sweep_with(
    runner: &Runner,
    sat_highs: &[f64],
    config: &ExperimentConfig,
) -> Vec<WatermarkPoint> {
    watermark_fold(
        sat_highs,
        &runner.run_batch(&watermark_specs(sat_highs, config)),
    )
}

/// Renders the watermark sweep.
pub fn watermark_table(points: &[WatermarkPoint]) -> Table {
    let mut t = Table::new(
        "Ablation — Kelp saturation watermark (CNN1 + DRAM aggressor)",
        &["sat high watermark", "ML perf (norm)", "CPU units/s"],
    );
    for p in points {
        // `f64::MAX` neutralizes the watermark: the saturation duty caps at 1.0.
        let sat_high = if p.sat_high == f64::MAX {
            "off".to_string()
        } else {
            Table::num(p.sat_high)
        };
        t.row(vec![
            sat_high,
            Table::num(p.ml_norm),
            format!("{:.3e}", p.cpu_throughput),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_period_is_not_load_bearing() {
        // The paper's §IV-D insensitivity claim, at quick scale.
        let points = sampling_sweep_with(&Runner::serial(), &[20, 80], &ExperimentConfig::quick());
        assert_eq!(points.len(), 2);
        assert!(
            sampling_spread(&points) < 0.08,
            "sampling period should not matter: {points:?}"
        );
        assert!(points.iter().all(|p| p.ml_norm > 0.8));
    }

    #[test]
    fn backfill_recovers_cpu_without_hurting_ml() {
        let rows = backfill_ablation_with(&Runner::serial(), &ExperimentConfig::quick());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.cpu_recovered() > 0.0,
                "{}: backfill must recover throughput ({:+.1}%)",
                row.cpu,
                row.cpu_recovered() * 100.0
            );
            assert!(
                row.kp_ml > row.sd_ml - 0.08,
                "{}: backfill must not crater ML perf ({} vs {})",
                row.cpu,
                row.kp_ml,
                row.sd_ml
            );
        }
    }

    #[test]
    fn neutralized_watermark_prints_off_in_a_narrow_table() {
        let point = |sat_high| WatermarkPoint {
            sat_high,
            ml_norm: 0.9,
            cpu_throughput: 1.5e9,
        };
        let text = watermark_table(&[point(0.05), point(f64::MAX)]).render();
        assert!(text.contains("| off "), "{text}");
        assert!(text.contains("| 0.050 "), "{text}");
        for line in text.lines() {
            assert!(line.chars().count() <= 80, "line too wide: {line}");
        }
    }

    #[test]
    fn tight_saturation_watermark_protects_loose_one_does_not() {
        // The loose end must be unreachable (duty caps at 1.0).
        let points = saturation_watermark_sweep_with(
            &Runner::serial(),
            &[0.05, f64::MAX],
            &ExperimentConfig::quick(),
        );
        assert_eq!(points.len(), 2);
        let tight = points[0];
        let loose = points[1];
        assert!(
            tight.ml_norm > loose.ml_norm + 0.05,
            "tight watermark must protect more: {} vs {}",
            tight.ml_norm,
            loose.ml_norm
        );
        // Counter-intuitive but real: in the fully saturated regime the
        // loose watermark does NOT buy CPU throughput — the aggressor's
        // prefetch waste burns its own bandwidth share (congestion
        // collapse), so Kelp's throttling is win-win there. Assert only
        // that both configurations keep the batch work running.
        assert!(loose.cpu_throughput > 0.5 * tight.cpu_throughput);
        assert!(tight.cpu_throughput > 0.0 && loose.cpu_throughput > 0.0);
    }
}
