//! Smoke tests: every figure harness runs end to end at quick scale and
//! produces a structurally complete, serializable result.

use kelp::driver::ExperimentConfig;
use kelp::experiments;
use kelp::runner::Runner;
use kelp_workloads::{BatchKind, MlWorkloadKind};

fn quick() -> ExperimentConfig {
    // Honors KELP_QUICK (default quick; KELP_QUICK=0 runs at full scale).
    ExperimentConfig::from_env()
}

#[test]
fn table1_renders() {
    let t = experiments::table1::table1();
    assert_eq!(t.row_count(), 4);
}

#[test]
fn figure2_serializes() {
    let fig = experiments::fleet::figure2(5);
    let json = serde_json::to_string(&fig).unwrap();
    assert!(json.contains("ccdf"));
}

#[test]
fn figure3_produces_windows_and_json() {
    let r = experiments::timeline::figure3_with(&Runner::serial(), &quick());
    assert!(!r.standalone_window.is_empty());
    assert!(!r.colocated_window.is_empty());
    assert!(r.standalone_totals_ms.contains_key("cpu"));
    assert!(serde_json::to_string(&r).is_ok());
}

#[test]
fn figure5_structure() {
    let r = experiments::sensitivity::run_sensitivity_with(
        &Runner::serial(),
        &[BatchKind::DramAggressor],
        &quick(),
    );
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.aggressors, vec!["DRAM"]);
    for row in &r.rows {
        assert_eq!(row.normalized_perf.len(), 1);
        assert!(row.normalized_perf[0] > 0.0);
    }
}

#[test]
fn figure9_structure() {
    let r = experiments::mix::run_mix_sweep_with(
        &Runner::serial(),
        MlWorkloadKind::Cnn1,
        BatchKind::Stitch,
        &[1, 2],
        &quick(),
    );
    assert_eq!(r.series.len(), 4);
    assert!(r.avg_ml_norm(kelp::policy::PolicyKind::Kelp) > 0.0);
    assert!(r.avg_cpu_norm(kelp::policy::PolicyKind::Kelp) > 0.0);
    assert!(serde_json::to_string(&r).is_ok());
}

#[test]
fn figure10_reports_tail() {
    let r = experiments::mix::run_mix_sweep_with(
        &Runner::serial(),
        MlWorkloadKind::Rnn1,
        BatchKind::CpuMl,
        &[4],
        &quick(),
    );
    for s in &r.series {
        assert!(
            s.points[0].ml_tail_norm.is_some(),
            "RNN1 must report tail latency ({})",
            s.policy
        );
    }
}

#[test]
fn figure16_grid_is_full() {
    let r = experiments::remote::figure16_for_with(
        &Runner::serial(),
        &[MlWorkloadKind::Cnn1],
        &quick(),
    );
    let panel = r.panel("CNN1").unwrap();
    assert_eq!(panel.slowdown.len(), r.thread_fractions.len());
    for row in &panel.slowdown {
        assert_eq!(row.len(), r.data_fractions.len());
        assert!(row.iter().all(|&s| s.is_finite() && s > 0.0));
    }
    assert!(r.table("CNN1").is_some());
    assert!(r.table("NOPE").is_none());
}

#[test]
fn figure7_single_cell_runs() {
    use kelp::driver::Experiment;
    use kelp::experiments::backpressure::{AggressorLevel, FixedPrefetchPolicy};
    use kelp::policy::PolicyKind;
    use kelp_workloads::BatchWorkload;
    let r = Experiment::builder(MlWorkloadKind::Cnn2, PolicyKind::KelpSubdomain)
        .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(0.5)))
        .add_cpu_workload(BatchWorkload::new(
            BatchKind::DramAggressor,
            AggressorLevel::Medium.threads(),
        ))
        .config(quick())
        .run();
    assert!(r.ml_performance.throughput > 0.0);
}
