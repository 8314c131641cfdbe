//! End-to-end tests for the §VI hardware-proposal extensions and the
//! runtime-dynamics features built on top of the paper's core.

use kelp::driver::{Experiment, ExperimentConfig};
use kelp::experiments::extensions::{Outcome, Study};
use kelp::experiments::standalone_reference_with;
use kelp::policy::{KelpPolicy, PolicyKind};
use kelp::profile::ProfileLibrary;
use kelp::runner::Runner;
use kelp_mem::topology::{SncMode, SocketId};
use kelp_simcore::time::{SimDuration, SimTime};
use kelp_workloads::model::WindowedWorkload;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn quick() -> ExperimentConfig {
    // Honors KELP_QUICK (default quick; KELP_QUICK=0 runs at full scale).
    ExperimentConfig::from_env()
}

/// CNN1's outcomes against aggressor H, one per configuration of a §VI
/// study, with the study's specs run through a `Runner`.
fn cnn1_outcomes(study: Study) -> Vec<Outcome> {
    let result = study.run_with(&Runner::serial(), &quick());
    let cnn1 = result.rows.into_iter().find(|row| row.ml == "CNN1");
    cnn1.expect("the study runs CNN1").outcomes
}

/// §VI-C: with per-domain distress delivery, subdomains alone are enough —
/// no prefetcher management needed.
#[test]
fn targeted_distress_makes_subdomains_sufficient() {
    let outcomes = cnn1_outcomes(Study::TargetedDistress);
    let (global, targeted) = (outcomes[0].ml_norm, outcomes[1].ml_norm);
    assert!(global < 0.8, "real hardware leaks: {global}");
    assert!(targeted > 0.95, "targeted delivery isolates: {targeted}");
}

/// §VI-B: hardware adaptive prefetching protects the ML task like Kelp's
/// software toggling, but keeps more low-priority throughput.
#[test]
fn adaptive_prefetch_beats_software_toggling_on_throughput() {
    let outcomes = cnn1_outcomes(Study::QosPrefetch);
    let (software, hardware) = (outcomes[1], outcomes[2]);
    let (sw_ml, hw_ml) = (software.ml_norm, hardware.ml_norm);
    assert!(
        hw_ml > sw_ml - 0.06,
        "HW must protect comparably: {hw_ml} vs {sw_ml}"
    );
    assert!(
        hardware.cpu_throughput > software.cpu_throughput,
        "HW throttling is finer-grained, so LP work keeps more throughput: {} vs {}",
        hardware.cpu_throughput,
        software.cpu_throughput
    );
}

/// §IV-D profiles: a library-backed Kelp looks up per-application
/// watermarks; for CNN3 the relaxed backfill watermark must not hurt the
/// parameter server.
#[test]
fn profile_library_is_consulted() {
    let ml = MlWorkloadKind::Cnn3;
    let standalone = standalone_reference_with(&Runner::serial(), ml, &quick());
    let lib = ProfileLibrary::default_for_machine(
        &ml.platform().host_machine(),
        SncMode::Enabled,
        SocketId(0),
    );
    let with_lib = Experiment::builder(ml, PolicyKind::Kelp)
        .custom_policy(Box::new(KelpPolicy::full().with_profile_library(lib)))
        .add_cpu_workload(BatchWorkload::new(BatchKind::CpuMl, 16))
        .config(quick())
        .run();
    let default = Experiment::builder(ml, PolicyKind::Kelp)
        .add_cpu_workload(BatchWorkload::new(BatchKind::CpuMl, 16))
        .config(quick())
        .run();
    let norm_lib = with_lib.ml_performance.throughput / standalone.throughput;
    let norm_def = default.ml_performance.throughput / standalone.throughput;
    assert!(
        norm_lib > 0.8,
        "profile-backed run protects CNN3: {norm_lib}"
    );
    assert!(
        (norm_lib - norm_def).abs() < 0.1,
        "profiles tune, not break: {norm_lib} vs {norm_def}"
    );
    // The relaxed backfill watermark lets at least as much CPU work run.
    assert!(
        with_lib.cpu_total_throughput() >= 0.95 * default.cpu_total_throughput(),
        "{} vs {}",
        with_lib.cpu_total_throughput(),
        default.cpu_total_throughput()
    );
}

/// Churn: Kelp tightens when a windowed burst arrives and recovers after it
/// departs.
#[test]
fn kelp_adapts_to_windowed_bursts() {
    let config = ExperimentConfig {
        dt: SimDuration::from_micros(40),
        warmup: SimDuration::from_millis(0),
        duration: SimDuration::from_millis(1500),
        sample_period: SimDuration::from_millis(25),
    };
    let burst = WindowedWorkload::new(
        BatchWorkload::new(BatchKind::Stream, 14),
        SimTime::from_millis(500),
        Some(SimTime::from_millis(1000)),
    );
    let result = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Kelp)
        .add_cpu_workload(burst)
        .config(config)
        .run();
    let pf_at = |ms: u64| {
        result
            .policy_series
            .iter()
            .rfind(|(t, _)| t.as_nanos() <= ms * 1_000_000)
            .map(|(_, s)| s.lp_prefetchers)
            .unwrap_or(0)
    };
    let before = pf_at(450);
    let during = pf_at(990);
    let after = pf_at(1500);
    assert_eq!(before, 12, "all prefetchers on before the burst");
    assert!(during < before, "burst forces prefetchers off: {during}");
    assert!(
        after > during,
        "recovery after departure: {after} vs {during}"
    );
}

/// Proposed hardware configures only its own run's memory system. In one
/// serial batch every run adopts the previous run's `ExecScratch`; a study
/// runs each mix's standalone reference before its configurations, so
/// here every proposal's run hands its scratch to a shipping-hardware run.
/// Every record must equal its spec executed alone.
#[test]
fn tweak_is_scoped_to_its_run() {
    let mut specs = Study::TargetedDistress.specs(&quick());
    specs.extend(Study::QosPrefetch.specs(&quick()));
    let batch = Runner::serial().run_batch(&specs);
    for (spec, record) in specs.iter().zip(&batch) {
        assert_eq!(
            *record,
            spec.execute(),
            "{:?} on {:?}",
            spec.policy,
            spec.ml
        );
    }
}
