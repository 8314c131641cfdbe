//! # kelp-mem
//!
//! A first-order ("fluid") model of a dual-socket server memory system, built
//! to reproduce the mechanisms the Kelp paper (HPCA 2019) manipulates:
//!
//! * **Channels & controllers** with a loaded-latency curve — latency rises
//!   steeply as a controller approaches saturation.
//! * **NUMA subdomains** (Intel SNC / Cluster-on-Die): a socket can be split
//!   into two half-domains, each with half the channels and LLC; local
//!   accesses get a latency discount, the key Kelp isolation lever.
//! * **Shared-memory backpressure**: when any controller on a socket
//!   saturates, a distress signal (`FAST_ASSERTED`) throttles *all* cores on
//!   the socket — including the other subdomain's. This is the cross-domain
//!   leak Kelp manages by toggling prefetchers.
//! * **L2 prefetchers**: hide a coverage fraction of miss latency but inflate
//!   memory traffic by a waste factor; disabling them trades low-priority
//!   task performance for controller headroom.
//! * **LLC with CAT way-partitioning** and occupancy-proportional sharing.
//! * **UPI cross-socket link** with bandwidth, added latency, and a
//!   platform-dependent coherence tax (the Figure 15/16 remote-memory
//!   effects).
//!
//! The heart of the crate is [`solver::MemSystem::solve`], which resolves the
//! circular dependency between task throughput, LLC occupancy, bandwidth
//! allocation and memory latency by damped fixed-point iteration, using a
//! generalized weighted max-min fair allocator ([`maxmin`]) for bandwidth.

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
pub mod counters;
pub mod distress;
pub mod latency;
pub mod llc;
pub mod maxmin;
pub mod prefetch;
pub mod solver;
pub mod topology;

pub use batch::BatchSolver;
pub use counters::MemCounters;
pub use distress::{DistressModel, DistressScope};
pub use latency::LatencyCurve;
pub use llc::{CatAllocation, LlcModel};
pub use prefetch::{PrefetchProfile, PrefetchSetting};
pub use solver::{
    AdaptivePrefetch, FixedFlow, MemSystem, SolverInput, SolverOutput, SolverTask, TaskKey,
};
pub use topology::{DomainId, MachineSpec, SncMode, SocketId, SocketSpec};
