//! # kelp-repro
//!
//! Workspace facade for the reproduction of *Kelp: QoS for Accelerated
//! Machine Learning Systems* (HPCA 2019). Re-exports every crate in the
//! workspace so the examples and integration tests (and downstream users
//! who want a single dependency) can reach the whole stack:
//!
//! * [`simcore`] — simulated time, deterministic RNG, statistics, tracing.
//! * [`mem`] — the fluid memory-system model (channels, SNC subdomains,
//!   LLC+CAT, prefetchers, distress backpressure, UPI).
//! * [`host`] — tasks, placement, SMT, the cgroup/MSR-style actuation
//!   surface.
//! * [`accel`] — the TPU / Cloud TPU / GPU platform models.
//! * [`workloads`] — RNN1/CNN1/CNN2/CNN3 and the colocated CPU workloads.
//! * [`kelp`] — the Kelp runtime, baseline policies, experiment driver and
//!   per-figure harnesses.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![warn(missing_docs)]

pub use kelp;
pub use kelp_accel as accel;
pub use kelp_host as host;
pub use kelp_mem as mem;
pub use kelp_simcore as simcore;
pub use kelp_workloads as workloads;

#[cfg(test)]
mod rules;
