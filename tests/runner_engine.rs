//! Integration tests for the declarative run engine: parallel determinism,
//! the content-addressed result cache, and byte-identity of the vendored
//! JSON encoder against the checked-in results.

use kelp::driver::ExperimentConfig;
use kelp::policy::PolicyKind;
use kelp::runner::{CpuSpec, RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

fn quick() -> ExperimentConfig {
    ExperimentConfig::from_env()
}

/// A Figure 13 subset: CNN1 standalone plus every paper policy against the
/// Stream aggressor.
fn fig13_subset(config: &ExperimentConfig) -> Vec<RunSpec> {
    let mut specs = vec![RunSpec::new(
        MlWorkloadKind::Cnn1,
        PolicyKind::Baseline,
        config,
    )];
    for policy in PolicyKind::paper_set() {
        specs.push(
            RunSpec::new(MlWorkloadKind::Cnn1, policy, config)
                .with_cpu(CpuSpec::new(BatchKind::Stream, 16)),
        );
    }
    specs
}

/// The whole record with only `meta.cached` masked: a cache hit must equal
/// the execution that produced it in every other field.
fn payload(record: &RunRecord) -> Value {
    let mut record = record.clone();
    record.meta.cached = false;
    record.to_value()
}

#[test]
fn parallel_batch_is_bit_identical_to_serial() {
    let config = quick();
    let specs = fig13_subset(&config);
    let serial = Runner::serial().run_batch(&specs);
    let parallel = Runner::new(4).run_batch(&specs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            serde_json::to_string(&payload(s)).unwrap(),
            serde_json::to_string(&payload(p)).unwrap(),
            "parallel output must be bit-identical to serial"
        );
    }
}

struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("kelp-cache-{tag}-{}", std::process::id()));
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
fn cache_round_trip_hits_and_stale_spec_reexecutes() {
    let config = quick();
    let dir = TempCacheDir::new("roundtrip");
    let runner = Runner::serial().with_cache(dir.0.clone());
    let spec = RunSpec::new(MlWorkloadKind::Cnn1, PolicyKind::Kelp, &config)
        .with_cpu(CpuSpec::new(BatchKind::Stream, 16));

    let cold = runner.run_one(&spec);
    assert!(!cold.meta.cached, "first run must execute");
    assert!(
        dir.0.join(format!("{:016x}.json", spec.hash())).is_file(),
        "the record must be persisted under its spec hash"
    );

    let warm = runner.run_one(&spec);
    assert!(warm.meta.cached, "second run must hit the cache");
    assert_eq!(
        serde_json::to_string(&payload(&cold)).unwrap(),
        serde_json::to_string(&payload(&warm)).unwrap(),
        "cached record must round-trip losslessly"
    );

    // A different spec (changed seed) must miss and re-execute.
    let stale = spec.clone().with_seed(99);
    assert_ne!(stale.hash(), spec.hash());
    let rerun = runner.run_one(&stale);
    assert!(!rerun.meta.cached, "a changed spec must re-execute");
}

#[test]
fn checked_in_results_round_trip_byte_identically() {
    // The vendored serde_json must re-emit the checked-in artifacts
    // byte-for-byte, or warm-cache repro runs would churn `results/`.
    for name in ["fig13_overall", "fig09_cnn1_stitch", "knee_sweep"] {
        let path = PathBuf::from("results").join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing checked-in result {}", path.display()));
        let value: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&value).unwrap(),
            text,
            "{name}.json must re-serialize byte-identically"
        );
    }
}
