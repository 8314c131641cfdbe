//! # kelp
//!
//! The Kelp runtime (HPCA 2019) and its evaluation harness.
//!
//! Kelp is a node-level software runtime that protects a high-priority
//! accelerated ML task from host **memory-bandwidth interference** caused by
//! colocated low-priority CPU tasks. It combines four existing hardware
//! mechanisms:
//!
//! 1. **NUMA subdomains** (Intel SNC / CoD) — the ML task and the
//!    low-priority tasks get their own half-socket memory controllers.
//! 2. **Backpressure management** — the socket-wide distress signal leaks
//!    interference across subdomains; Kelp measures saturation
//!    (`FAST_ASSERTED`) and progressively disables low-priority L2
//!    prefetchers to pull the offending controller out of saturation.
//! 3. **Subdomain backfilling** — low-priority tasks are backfilled into the
//!    high-priority subdomain under a watermark feedback loop to recover the
//!    throughput the coarse partition fragments away.
//! 4. **LLC partitioning** (CAT) for cache isolation.
//!
//! The crate provides the runtime [`policy`] implementations evaluated in
//! the paper — `Baseline`, `CoreThrottle`, `KelpSubdomain` (KP-SD), `Kelp`
//! (KP), plus the §VI-D `FineGrained` MBA-style extension — the control
//! [`algorithm`] (Algorithms 1 and 2 verbatim), the experiment [`driver`],
//! and one harness per table/figure in [`experiments`].
//!
//! ## Quickstart
//!
//! ```
//! use kelp::driver::{Experiment, ExperimentConfig};
//! use kelp::policy::PolicyKind;
//! use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};
//!
//! let mut config = ExperimentConfig::quick();
//! let result = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Kelp)
//!     .add_cpu_workload(BatchWorkload::new(BatchKind::Stream, 8))
//!     .config(config.clone())
//!     .run();
//! assert!(result.ml_performance.throughput > 0.0);
//! config.duration = kelp_simcore::time::SimDuration::from_millis(50);
//! ```

// Library code reports failure as a value and writes no output; a
// deliberate exception is a reasoned `#[expect]` (DESIGN.md §6b).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod config;
pub mod driver;
pub mod experiments;
pub mod measure;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod report;
pub mod runner;

pub use algorithm::{Action, KelpController, KelpControllerConfig};
pub use config::ExperimentConfig;
pub use driver::{Experiment, ExperimentResult};
pub use measure::Measurements;
pub use policy::{Policy, PolicyKind};
pub use profile::WatermarkProfile;
pub use runner::{RunRecord, RunSpec, Runner};
