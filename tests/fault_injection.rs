//! Integration tests for the fault-injection subsystem: determinism of
//! faulty runs across engines, cache round-trips, and batch survival when
//! a spec panics mid-flight.

use kelp::driver::ExperimentConfig;
use kelp::experiments::faults::{plan_for, Intensity};
use kelp::policy::PolicyKind;
use kelp::runner::{CpuSpec, PolicySpec, RunRecord, RunSpec, Runner};
use kelp_simcore::fault::{FaultEvent, FaultKind, FaultPlan};
use kelp_simcore::time::SimDuration;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

fn quick() -> ExperimentConfig {
    ExperimentConfig::from_env()
}

/// The whole record with only `meta.cached` masked: a cache hit must equal
/// the execution that produced it in every other field.
fn payload(record: &RunRecord) -> Value {
    let mut record = record.clone();
    record.meta.cached = false;
    record.to_value()
}

fn faulty_mix(policy: PolicyKind, kind: FaultKind, config: &ExperimentConfig) -> RunSpec {
    RunSpec::new(MlWorkloadKind::Cnn1, policy, config)
        .with_cpu(CpuSpec::new(BatchKind::Stream, 16))
        .with_faults(plan_for(kind, Intensity::High, config))
}

struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("kelp-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn faulty_runs_are_bit_identical_serial_vs_parallel() {
    let config = quick();
    let mut specs = Vec::new();
    for policy in [PolicyKind::Kelp, PolicyKind::KelpHardened] {
        for kind in [FaultKind::CounterDropout, FaultKind::MeasurementSpike] {
            specs.push(faulty_mix(policy, kind, &config));
        }
    }
    let serial = Runner::serial().run_batch(&specs);
    let parallel = Runner::new(4).run_batch(&specs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.error.is_none(), "faulty runs must still complete");
        assert_eq!(
            serde_json::to_string(&payload(s)).unwrap(),
            serde_json::to_string(&payload(p)).unwrap(),
            "faulty parallel output must be bit-identical to serial"
        );
    }
}

#[test]
fn same_seed_and_plan_reproduce_byte_identically() {
    let config = quick();
    let spec = faulty_mix(PolicyKind::KelpHardened, FaultKind::ActuationNoop, &config).with_seed(7);
    let a = spec.execute();
    let b = spec.execute();
    assert_eq!(
        serde_json::to_string(&payload(&a)).unwrap(),
        serde_json::to_string(&payload(&b)).unwrap(),
        "a faulty run must be a pure function of its spec"
    );
}

#[test]
fn empty_fault_plan_is_identical_to_no_plan() {
    let config = quick();
    let base = RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Kelp, &config)
        .with_cpu(CpuSpec::new(BatchKind::Stream, 8));
    let with_empty = base.clone().with_faults(FaultPlan::new());
    assert_eq!(
        serde_json::to_string(&payload(&base.execute())).unwrap(),
        serde_json::to_string(&payload(&with_empty.execute())).unwrap(),
        "the empty plan must not perturb the trajectory"
    );
}

#[test]
fn faulty_run_round_trips_through_the_cache() {
    let config = quick();
    let dir = TempCacheDir::new("roundtrip");
    let runner = Runner::serial().with_cache(dir.0.clone());
    let spec = faulty_mix(
        PolicyKind::KelpHardened,
        FaultKind::ChannelThrottle,
        &config,
    );

    let cold = runner.run_one(&spec);
    assert!(!cold.meta.cached, "first faulty run must execute");
    let warm = runner.run_one(&spec);
    assert!(warm.meta.cached, "second faulty run must hit the cache");
    assert_eq!(
        serde_json::to_string(&payload(&cold)).unwrap(),
        serde_json::to_string(&payload(&warm)).unwrap(),
        "cached faulty record must round-trip losslessly"
    );

    // The faulty spec must not collide with its fault-free twin.
    let clean = spec.clone().with_faults(FaultPlan::new());
    assert_ne!(clean.hash(), spec.hash());
    assert!(!runner.run_one(&clean).meta.cached);
}

#[test]
fn one_panicking_spec_in_a_batch_yields_one_error_record() {
    let config = quick();
    let dir = TempCacheDir::new("batch");

    // 15 good specs plus one that panics during policy setup (an inverted
    // saturation watermark trips the Watermark constructor's assertion).
    let mut specs: Vec<RunSpec> = (0..15)
        .map(|i| {
            RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Baseline, &config).with_seed(i as u64)
        })
        .collect();
    let bad = RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Kelp, &config)
        .with_policy(PolicySpec::KelpSatWatermark(-1.0));
    specs.insert(7, bad.clone());

    let runner = Runner::new(4).with_cache(dir.0.clone());
    let records = runner.run_batch(&specs);
    assert_eq!(records.len(), 16);

    let errors: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_error())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(errors, vec![7], "exactly the panicking spec must error");
    let error = records[7].error.as_ref().unwrap();
    assert!(error.panicked);
    assert!(error.message.contains("watermark"));
    for (i, r) in records.iter().enumerate() {
        if i != 7 {
            assert!(r.ml_performance.throughput > 0.0, "record {i} must be good");
        }
    }

    // Good records are cached; the error record is not.
    assert!(!dir.0.join(format!("{:016x}.json", bad.hash())).exists());
    assert!(dir
        .0
        .join(format!("{:016x}.json", specs[0].hash()))
        .is_file());

    // A warm rerun of the same batch survives too: hits for the good
    // records, a fresh (uncached) error for the bad one.
    let warm = runner.run_batch(&specs);
    assert!(warm[0].meta.cached);
    assert!(warm[7].is_error());
    assert!(!warm[7].meta.cached);
}

#[test]
fn validation_error_spec_does_not_abort_the_batch() {
    let config = quick();
    let invalid = RunSpec::cpu_only(PolicyKind::Baseline, &config)
        .with_policy(PolicySpec::KelpSatWatermark(0.5));
    let good = RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Baseline, &config);
    let records = Runner::serial().run_batch(&[invalid, good]);
    let error = records[0].error.as_ref().expect("validation error record");
    assert!(!error.panicked);
    assert!(records[1].error.is_none());
}

#[test]
fn fault_windows_outside_the_run_are_inert() {
    let config = quick();
    let total = config.warmup + config.duration;
    let late = FaultPlan::new().with(FaultEvent::new(
        FaultKind::CounterDropout,
        total + SimDuration::from_millis(1),
        SimDuration::from_millis(50),
        1.0,
    ));
    let base = RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Kelp, &config)
        .with_cpu(CpuSpec::new(BatchKind::Stream, 8));
    let with_late = base.clone().with_faults(late);
    assert_eq!(
        serde_json::to_string(&payload(&base.execute())).unwrap(),
        serde_json::to_string(&payload(&with_late.execute())).unwrap(),
        "a window that never opens must not perturb the run"
    );
}
