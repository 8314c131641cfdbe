//! Randomized property tests for the ISSUE 9 engine hot path: the
//! persistent worker pool must be bit-identical to the serial loop
//! (including error records), the streaming FNV cache key must equal the
//! buffered hash on arbitrary specs, and the in-memory cache index must
//! agree with per-file existence probes.
//!
//! Like `tests/proptests.rs`, cases are generated deterministically with
//! [`SimRng`] (fixed seed, fixed case count) because the build environment
//! has no crates.io access for `proptest`.

use kelp::driver::ExperimentConfig;
use kelp::policy::PolicyKind;
use kelp::runner::{fnv1a64, CpuSpec, MlSpec, PolicySpec, RunRecord, RunSpec, Runner};
use kelp_simcore::rng::SimRng;
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

fn payload_text(record: &RunRecord) -> String {
    serde_json::to_string(&payload(record)).unwrap()
}

/// A batch that exercises every record shape the engine can produce:
/// successful runs across the paper policies, a validation rejection
/// (KelpSatWatermark without a standard ML workload), and a caught
/// mid-simulation panic (negative saturation watermark).
fn mixed_batch(config: &ExperimentConfig) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for policy in PolicyKind::paper_set() {
        specs.push(
            RunSpec::new(MlWorkloadKind::Cnn1, policy, config)
                .with_cpu(CpuSpec::new(BatchKind::Stream, 16)),
        );
    }
    specs.push(
        RunSpec::cpu_only(PolicyKind::Baseline, config)
            .with_policy(PolicySpec::KelpSatWatermark(0.5)),
    );
    specs.push(
        RunSpec::new(MlWorkloadKind::Rnn1, PolicyKind::Kelp, config)
            .with_policy(PolicySpec::KelpSatWatermark(-1.0)),
    );
    specs.push(RunSpec::cpu_only(PolicyKind::Baseline, config));
    specs.push(RunSpec::new(MlWorkloadKind::Rnn1, PolicyKind::Kelp, config).with_seed(7));
    specs
}

#[test]
fn pool_is_bit_identical_to_serial_including_error_records() {
    let config = quick();
    let specs = mixed_batch(&config);
    let serial: Vec<String> = Runner::serial()
        .run_batch(&specs)
        .iter()
        .map(payload_text)
        .collect();

    // Two batches through the SAME runner: the second run reuses the
    // persistent pool and every worker's adopted machine/solver scratch.
    let runner = Runner::new(4);
    for round in 0..2 {
        let pooled = runner.run_batch(&specs);
        assert_eq!(serial.len(), pooled.len());
        for (i, record) in pooled.iter().enumerate() {
            assert_eq!(
                serial[i],
                payload_text(record),
                "pool round {round} spec {i} diverged from serial"
            );
        }
        assert!(
            pooled[4].is_error() && pooled[5].is_error(),
            "the validation and panic specs must produce error records"
        );
    }
}

/// FNV-1a over the buffered `to_string` bytes — the reference the streaming
/// sink inside `RunSpec::hash` must reproduce exactly.
fn buffered_hash(spec: &RunSpec) -> u64 {
    fnv1a64(serde_json::to_string(spec).unwrap().as_bytes())
}

fn arb_spec(rng: &mut SimRng, config: &ExperimentConfig) -> RunSpec {
    let ml = match rng.below(4) {
        0 => MlSpec::None,
        1 => MlSpec::Standard(match rng.below(4) {
            0 => MlWorkloadKind::Rnn1,
            1 => MlWorkloadKind::Cnn1,
            2 => MlWorkloadKind::Cnn2,
            _ => MlWorkloadKind::Cnn3,
        }),
        2 => MlSpec::TracedSerialRnn1,
        _ => MlSpec::Rnn1AtLoad(rng.uniform(0.0, 20_000.0)),
    };
    let policy = match rng.below(3) {
        0 => PolicySpec::Kind(match rng.below(4) {
            0 => PolicyKind::Baseline,
            1 => PolicyKind::CoreThrottle,
            2 => PolicyKind::Kelp,
            _ => PolicyKind::KelpSubdomain,
        }),
        1 => PolicySpec::FixedPrefetch(rng.uniform(0.0, 1.0)),
        _ => PolicySpec::KelpSatWatermark(rng.uniform(-1.0, 1.0)),
    };
    let mut spec = RunSpec::cpu_only(PolicyKind::Baseline, config)
        .with_ml(ml)
        .with_policy(policy)
        .with_seed(rng.next_u64());
    for _ in 0..rng.below(3) {
        let kind = match rng.below(5) {
            0 => BatchKind::Stream,
            1 => BatchKind::Stitch,
            2 => BatchKind::CpuMl,
            3 => BatchKind::LlcAggressor,
            _ => BatchKind::DramAggressor,
        };
        let mut cpu = CpuSpec::new(kind, 1 + rng.below(64) as usize);
        if rng.chance(0.5) {
            // Labels with JSON-escape-relevant bytes stress the streaming
            // encoder's string path.
            cpu = cpu.with_label(format!("w\"{}\\\u{1F980}\n\t", rng.below(100)));
        }
        if rng.chance(0.3) {
            cpu = cpu.with_local_data_fraction(rng.uniform(0.0, 1.0));
        }
        if rng.chance(0.3) {
            cpu = cpu.with_local_thread_fraction(rng.uniform(0.0, 1.0));
        }
        spec = spec.with_cpu(cpu);
    }
    spec
}

#[test]
fn streaming_hash_equals_buffered_hash_on_fuzzed_specs() {
    let config = quick();
    let mut root = SimRng::seed_from(0x9A54_CA5E);
    for case in 0..128 {
        let mut rng = root.fork(case);
        let spec = arb_spec(&mut rng, &config);
        assert_eq!(
            spec.hash(),
            buffered_hash(&spec),
            "case {case}: streaming hash diverged from buffered hash for {spec:?}"
        );
    }
    // Edge seeds exercise the integer fast paths explicitly.
    for seed in [0, 1, u64::MAX, u64::MAX - 1, i64::MAX as u64 + 1] {
        let spec = RunSpec::cpu_only(PolicyKind::Baseline, &config).with_seed(seed);
        assert_eq!(spec.hash(), buffered_hash(&spec));
    }
}

struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("kelp-hot-{tag}-{}", std::process::id()));
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
fn cache_index_agrees_with_per_file_probes() {
    let config = quick();
    let dir = TempCacheDir::new("index");
    let warmup: Vec<RunSpec> = PolicyKind::paper_set()
        .into_iter()
        .map(|p| RunSpec::new(MlWorkloadKind::Cnn1, p, &config))
        .collect();
    let reference: Vec<String> = Runner::serial()
        .with_cache(dir.0.clone())
        .run_batch(&warmup)
        .iter()
        .map(payload_text)
        .collect();

    // A fresh runner on the same directory sees the warmed entries only
    // through its directory-scan index. The batch mixes warm specs with
    // never-seen ones; the index's hit/miss decision must agree with a
    // plain per-file existence probe taken before the batch runs.
    let mut batch = warmup.clone();
    batch.push(RunSpec::new(
        MlWorkloadKind::Cnn2,
        PolicyKind::Kelp,
        &config,
    ));
    batch.push(RunSpec::cpu_only(PolicyKind::Baseline, &config));
    let expect_cached: Vec<bool> = batch
        .iter()
        .map(|s| dir.0.join(format!("{:016x}.json", s.hash())).is_file())
        .collect();
    assert_eq!(
        expect_cached.iter().filter(|&&c| c).count(),
        warmup.len(),
        "exactly the warmed specs should be on disk"
    );

    let records = Runner::new(2).with_cache(dir.0.clone()).run_batch(&batch);
    for (i, record) in records.iter().enumerate() {
        assert_eq!(
            record.meta.cached, expect_cached[i],
            "spec {i}: index decision disagrees with the per-file probe"
        );
    }
    for (i, reference_text) in reference.iter().enumerate() {
        assert_eq!(
            *reference_text,
            payload_text(&records[i]),
            "spec {i}: cached payload diverged from the original execution"
        );
    }

    // After the batch, the misses must have been persisted too.
    for spec in &batch {
        assert!(
            dir.0.join(format!("{:016x}.json", spec.hash())).is_file(),
            "every executed spec must land in the cache directory"
        );
    }

    // Cold runs of the batch write byte-identical cache files whichever
    // engine executes them: every stored record is a function of its spec.
    let serial_dir = TempCacheDir::new("bytes-serial");
    let pooled_dir = TempCacheDir::new("bytes-pooled");
    Runner::serial()
        .with_cache(serial_dir.0.clone())
        .run_batch(&batch);
    Runner::new(2)
        .with_cache(pooled_dir.0.clone())
        .run_batch(&batch);
    for spec in &batch {
        let name = format!("{:016x}.json", spec.hash());
        assert_eq!(
            std::fs::read_to_string(serial_dir.0.join(&name)).unwrap(),
            std::fs::read_to_string(pooled_dir.0.join(&name)).unwrap(),
            "{name}: serial and pooled cold runs cached different bytes"
        );
    }
}
