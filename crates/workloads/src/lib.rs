//! # kelp-workloads
//!
//! Workload models for the Kelp reproduction:
//!
//! * The four accelerated production ML workloads of Table I —
//!   [`registry::MlWorkloadKind::Rnn1`] (TPU inference with beam search),
//!   `Cnn1`/`Cnn2` (Cloud TPU training with data in-feed) and `Cnn3` (GPU
//!   training with a parameter server) — built from two generic engines:
//!   the phase-structured [`trainer::Trainer`] and the open-loop pipelined
//!   [`inference::InferenceServer`].
//! * The colocated CPU workloads of §V-A: `Stream`, `Stitch`, `CPUML`, and
//!   the synthetic aggressors `LLC`, `DRAM` and `Remote DRAM` of §III-B and
//!   §VI-A, all built on [`batch::BatchWorkload`].
//! * The fleet bandwidth model behind Figure 2 ([`fleet`]).
//!
//! The paper's workloads are confidential; each model here is parameterised
//! to the *published* characteristics (Table I interaction type, CPU and
//! memory intensity) and calibrated against the published sensitivity
//! numbers (Figures 3, 5 and 7). Calibration constants live in [`calib`].

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

pub mod batch;
pub mod calib;
pub mod fleet;
pub mod inference;
pub mod model;
pub mod registry;
pub mod resilient;
pub mod trainer;

pub use batch::{BatchKind, BatchWorkload};
pub use fleet::{FleetSim, FleetSimConfig};
pub use inference::{InferenceParams, InferenceServer};
pub use model::{InstallCtx, PerfSnapshot, WindowedWorkload, Workload, WorkloadKind};
pub use registry::MlWorkloadKind;
pub use resilient::{ResilientFleet, ResilientFleetConfig, ResilientRunMetrics};
pub use trainer::{Trainer, TrainerParams};
