//! Figure 3: RNN1 execution timeline, standalone vs colocated.
//!
//! Runs the RNN1 inference server in closed-loop serial mode (one query at a
//! time, as the paper does "to simplify the presentation of the trace") with
//! phase tracing enabled, standalone and under a heavy DRAM aggressor, and
//! reports: the per-phase-kind time totals, the expansion factor of each
//! phase kind ("execution time for CPU-intensive phases increases by up to
//! 51 %"), and a clipped event window suitable for rendering the timeline.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, MlSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_simcore::time::SimTime;
use kelp_simcore::trace::TraceEvent;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Figure 3 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineResult {
    /// Per-phase total milliseconds, standalone.
    pub standalone_totals_ms: BTreeMap<String, f64>,
    /// Per-phase total milliseconds, colocated.
    pub colocated_totals_ms: BTreeMap<String, f64>,
    /// `colocated / standalone` per phase kind, comparing mean phase
    /// durations.
    pub expansion: BTreeMap<String, f64>,
    /// 95 %-ile latency expansion (colocated / standalone).
    pub tail_expansion: f64,
    /// A ~8 ms window of the standalone timeline for rendering.
    pub standalone_window: Vec<TraceEvent>,
    /// The same window of the colocated timeline.
    pub colocated_window: Vec<TraceEvent>,
}

/// Aggressor threads for the "heavy contention" serial trace (drives the
/// socket into the distress regime so the CPU phases visibly stretch).
const TRACE_AGGRESSOR_THREADS: usize = 8;

/// Aggressor threads for the service-level tail measurement. The pipelined
/// server is open-loop: contention that pushes capacity below the offered
/// load makes the tail unbounded rather than "+70%", so the tail is
/// measured in the medium-pressure regime the paper's production trace
/// reflects.
const TAIL_AGGRESSOR_THREADS: usize = 7;

fn traced_spec(config: &ExperimentConfig, colocated: bool) -> RunSpec {
    let mut spec = RunSpec::new(MlWorkloadKind::Rnn1, PolicyKind::Baseline, config)
        .with_ml(MlSpec::TracedSerialRnn1);
    if colocated {
        // A heavy-but-not-saturating aggressor, matching the paper's
        // illustrative trace (CPU phases stretch ~1.5x, not 3x).
        spec = spec.with_cpu(CpuSpec::new(
            BatchKind::DramAggressor,
            TRACE_AGGRESSOR_THREADS,
        ));
    }
    spec
}

/// The service-level tail: the paper's "+70%" number comes from the
/// *pipelined* production configuration, where queueing amplifies the CPU
/// phase stretch.
fn pipelined_spec(config: &ExperimentConfig, colocated: bool) -> RunSpec {
    let mut spec = RunSpec::new(MlWorkloadKind::Rnn1, PolicyKind::Baseline, config);
    if colocated {
        spec = spec.with_cpu(CpuSpec::new(
            BatchKind::DramAggressor,
            TAIL_AGGRESSOR_THREADS,
        ));
    }
    spec
}

/// Enumerates the Figure 3 runs: traced serial standalone/colocated, then
/// pipelined standalone/colocated for the service-level tail.
pub fn specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    vec![
        traced_spec(config, false),
        traced_spec(config, true),
        pipelined_spec(config, false),
        pipelined_spec(config, true),
    ]
}

/// Folds batch records (in [`specs`] order) into the Figure 3 result.
pub fn fold(config: &ExperimentConfig, records: &[RunRecord]) -> TimelineResult {
    let mut next = RecordCursor::new(records);
    // A record without a trace only arises from a broken batch; an empty
    // trace keeps the fold total and makes the breakage visible as flat
    // zero timelines instead of a panic.
    let standalone = next.take().trace.clone().unwrap_or_default();
    let colocated = next.take().trace.clone().unwrap_or_default();
    let tail_s = next.take().ml_performance.tail_latency_ms.unwrap_or(0.0);
    let tail_c = next.take().ml_performance.tail_latency_ms.unwrap_or(0.0);
    let to_ms = |m: BTreeMap<String, kelp_simcore::time::SimDuration>| -> BTreeMap<String, f64> {
        m.into_iter().map(|(k, v)| (k, v.as_millis_f64())).collect()
    };
    let expansion = colocated.mean_expansion_vs(&standalone);
    let window_start = SimTime::ZERO + config.warmup;
    let window_end = window_start + kelp_simcore::time::SimDuration::from_millis(8);
    TimelineResult {
        standalone_totals_ms: to_ms(standalone.totals_by_kind()),
        colocated_totals_ms: to_ms(colocated.totals_by_kind()),
        expansion,
        tail_expansion: if tail_s > 0.0 { tail_c / tail_s } else { 0.0 },
        standalone_window: standalone.window(window_start, window_end),
        colocated_window: colocated.window(window_start, window_end),
    }
}

/// Runs the Figure 3 experiment through the given engine.
pub fn figure3_with(runner: &Runner, config: &ExperimentConfig) -> TimelineResult {
    fold(config, &runner.run_batch(&specs(config)))
}

impl TimelineResult {
    /// Expansion of the CPU phase kind (the paper's +51 % headline).
    pub fn cpu_expansion(&self) -> f64 {
        self.expansion.get("cpu").copied().unwrap_or(0.0)
    }

    /// Renders the phase summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3 — RNN1 serial timeline phase totals",
            &["phase", "standalone ms", "colocated ms", "expansion"],
        );
        for (kind, &ms) in &self.standalone_totals_ms {
            let co = self.colocated_totals_ms.get(kind).copied().unwrap_or(0.0);
            let exp = self.expansion.get(kind).copied().unwrap_or(0.0);
            t.row(vec![
                kind.clone(),
                Table::num(ms),
                Table::num(co),
                Table::num(exp),
            ]);
        }
        t.row(vec![
            "tail (p95)".into(),
            "1.000".into(),
            Table::num(self.tail_expansion),
            Table::num(self.tail_expansion),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_phases_stretch_but_accel_does_not() {
        let r = figure3_with(&Runner::serial(), &ExperimentConfig::quick());
        let cpu = r.cpu_expansion();
        assert!(cpu > 1.15, "CPU phases must stretch: {cpu}");
        let accel = r.expansion.get("accel").copied().unwrap_or(1.0);
        assert!(
            (0.9..1.1).contains(&accel),
            "accelerator phases are insensitive: {accel}"
        );
        assert!(!r.standalone_window.is_empty());
        assert!(!r.colocated_window.is_empty());
    }
}
