//! One harness per table and figure of the paper's evaluation.
//!
//! | Harness | Paper artefact |
//! |---|---|
//! | [`fleet`] | Figure 2 — fleet 99 %-ile bandwidth CCDF |
//! | [`timeline`] | Figure 3 — RNN1 execution timeline, standalone vs colocated |
//! | [`table1`] | Table I — workload/platform matrix |
//! | [`sensitivity`] | Figure 5 — LLC vs DRAM aggressor sensitivity |
//! | [`backpressure`] | Figure 7 — prefetcher-toggling sweep under subdomains |
//! | [`mix`] | Figures 9–12 — CNN1+Stitch and RNN1+CPUML case-study sweeps |
//! | [`overall`] | Figures 13 & 14 — all mixes, slowdowns and efficiency |
//! | [`remote`] | Figures 15 & 16 — remote-memory interference |
//! | [`knee`] | the §III-A throughput–latency sweep the paper omits |
//! | [`ablation`] | sampling-period / backfill / watermark ablations |
//! | [`cluster`] | §II-D tail amplification at cluster scale |
//! | [`fleet_faults`] | ISSUE 7 — machine-lifecycle faults, self-healing vs static placement |
//! | [`scorecard`] | programmatic check of every headline claim |
//! | [`faults`] | fault matrix — KP vs KP-H under injected faults |
//!
//! Each harness returns a serializable result struct and can render itself
//! as a text table. Each has one entry point, which takes the
//! [`Runner`] to run its grid through; `repro_all` (in `kelp-bench`) calls
//! them and writes `results/`.

pub mod ablation;
pub mod backpressure;
pub mod cluster;
pub mod faults;
pub mod fleet;
pub mod fleet_faults;
pub mod knee;
pub mod mix;
pub mod overall;
pub mod remote;
pub mod scorecard;
pub mod sensitivity;
pub mod table1;
pub mod timeline;

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::runner::{RunSpec, Runner};
use kelp_workloads::model::PerfSnapshot;
use kelp_workloads::MlWorkloadKind;

/// The spec of a standalone run (no colocation, unmanaged baseline) of an
/// ML workload. Every figure normalizes against its performance.
pub fn standalone_spec(ml: MlWorkloadKind, config: &ExperimentConfig) -> RunSpec {
    RunSpec::new(ml, PolicyKind::Baseline, config)
}

/// Runs an ML workload standalone through the given engine and returns its
/// reference performance.
pub fn standalone_reference_with(
    runner: &Runner,
    ml: MlWorkloadKind,
    config: &ExperimentConfig,
) -> PerfSnapshot {
    runner.run_one(&standalone_spec(ml, config)).ml_performance
}

/// The union of every spec the `repro_all` sweep enumerates at `config`.
///
/// `kelp-sim cache --prune` keeps exactly these entries and deletes the
/// rest, so the cache never accumulates entries from abandoned
/// configurations. The scorecard's and the tail study's runs need no entry
/// here: they are a subset of [`overall::specs`]. Each figure's grid is the
/// constant its `figureN_with` runs.
pub fn repro_specs(config: &ExperimentConfig) -> Vec<RunSpec> {
    use kelp_workloads::BatchKind;
    let mut specs = Vec::new();
    specs.extend(timeline::specs(config));
    specs.extend(sensitivity::specs(&sensitivity::FIGURE5_AGGRESSORS, config));
    specs.extend(sensitivity::specs(
        &sensitivity::FIGURE15_AGGRESSORS,
        config,
    ));
    specs.extend(backpressure::specs(config));
    specs.extend(mix::specs(
        MlWorkloadKind::Cnn1,
        BatchKind::Stitch,
        &mix::FIGURE9_INSTANCES,
        config,
    ));
    specs.extend(mix::specs(
        MlWorkloadKind::Rnn1,
        BatchKind::CpuMl,
        &mix::FIGURE10_THREADS,
        config,
    ));
    specs.extend(overall::specs(config));
    specs.extend(knee::specs(&knee::DEFAULT_OFFERED_QPS, config));
    specs.extend(remote::specs(&remote::FIGURE16_WORKLOADS, config));
    specs.extend(faults::specs(config));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_reference_is_positive() {
        let p = standalone_reference_with(
            &Runner::serial(),
            MlWorkloadKind::Cnn1,
            &ExperimentConfig::quick(),
        );
        assert!(p.throughput > 0.0);
    }
}
