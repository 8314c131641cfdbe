//! End-to-end tests for the §VI hardware-proposal extensions and the
//! runtime-dynamics features built on top of the paper's core.

use kelp::driver::{Experiment, ExperimentConfig};
use kelp::experiments::backpressure::FixedPrefetchPolicy;
use kelp::experiments::standalone_reference_with;
use kelp::policy::{KelpPolicy, PolicyKind};
use kelp::profile::ProfileLibrary;
use kelp::runner::Runner;
use kelp_mem::topology::{MachineSpec, SncMode, SocketId};
use kelp_mem::{AdaptivePrefetch, DistressScope};
use kelp_simcore::time::{SimDuration, SimTime};
use kelp_workloads::model::WindowedWorkload;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn quick() -> ExperimentConfig {
    // Honors KELP_QUICK (default quick; KELP_QUICK=0 runs at full scale).
    ExperimentConfig::from_env()
}

/// §VI-C: with per-domain distress delivery, subdomains alone are enough —
/// no prefetcher management needed.
#[test]
fn targeted_distress_makes_subdomains_sufficient() {
    let ml = MlWorkloadKind::Cnn1;
    let standalone = standalone_reference_with(&Runner::serial(), ml, &quick());
    let run = |scope: DistressScope| {
        Experiment::builder(ml, PolicyKind::KelpSubdomain)
            .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(0.0)))
            .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
            .tweak_mem(move |mem| mem.set_distress_scope(scope))
            .config(quick())
            .run()
            .ml_performance
            .throughput
            / standalone.throughput
    };
    let global = run(DistressScope::GlobalSocket);
    let targeted = run(DistressScope::PerDomain);
    assert!(global < 0.8, "real hardware leaks: {global}");
    assert!(targeted > 0.95, "targeted delivery isolates: {targeted}");
}

/// §VI-B: hardware adaptive prefetching protects the ML task like Kelp's
/// software toggling, but keeps more low-priority throughput.
#[test]
fn adaptive_prefetch_beats_software_toggling_on_throughput() {
    let ml = MlWorkloadKind::Cnn1;
    let standalone = standalone_reference_with(&Runner::serial(), ml, &quick());
    let run = |disabled: f64, hw: bool| {
        let mut b = Experiment::builder(ml, PolicyKind::KelpSubdomain)
            .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(
                disabled,
            )))
            .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
            .config(quick());
        if hw {
            b = b.tweak_mem(|mem| mem.set_adaptive_prefetch(Some(AdaptivePrefetch::default())));
        }
        b.run()
    };
    let software = run(1.0, false);
    let hardware = run(0.0, true);
    let sw_ml = software.ml_performance.throughput / standalone.throughput;
    let hw_ml = hardware.ml_performance.throughput / standalone.throughput;
    assert!(
        hw_ml > sw_ml - 0.06,
        "HW must protect comparably: {hw_ml} vs {sw_ml}"
    );
    assert!(
        hardware.cpu_total_throughput() > software.cpu_total_throughput(),
        "HW throttling is finer-grained, so LP work keeps more throughput: {} vs {}",
        hardware.cpu_total_throughput(),
        software.cpu_total_throughput()
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

/// The mem_tweak hook composes with ordinary runs and does not disturb an
/// untweaked identical experiment (guard against cache leakage across runs).
#[test]
fn tweak_is_scoped_to_its_run() {
    let ml = MlWorkloadKind::Cnn1;
    let base = || {
        Experiment::builder(ml, PolicyKind::Baseline)
            .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
            .config(quick())
            .run()
            .ml_performance
            .throughput
    };
    let a = base();
    // A run with a drastic tweak in between...
    let _ = Experiment::builder(ml, PolicyKind::Baseline)
        .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
        .tweak_mem(|mem| {
            mem.set_distress(kelp_mem::DistressModel {
                threshold: 0.1,
                ramp_exponent: 1.0,
                max_throttle: 0.9,
            })
        })
        .config(quick())
        .run();
    // ...must not contaminate a fresh untweaked run.
    let b = base();
    assert_eq!(a, b);
    // And the machine spec constructor stays pristine.
    assert_eq!(MachineSpec::dual_socket(), MachineSpec::dual_socket());
}
