//! # kelp-host
//!
//! The host-CPU side of the Kelp reproduction: tasks (thread groups with an
//! execution profile), CPU placement (cores per NUMA subdomain, SMT
//! co-residency), NUMA memory policy, and a cgroup/MSR-style actuation
//! surface ([`Actuator`]) that runtime policies use exactly the way Kelp
//! drives cpusets, prefetcher MSRs and CAT masks on real hardware.
//!
//! [`HostMachine`] owns a [`kelp_mem::MemSystem`] plus the task table, lowers
//! every task into solver form each step, and reports achieved work rates
//! and performance counters.

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
pub mod machine;
pub mod placement;
pub mod task;

pub use batch::{HostBatch, HostBatchStats};
pub use machine::{
    Actuator, HostMachine, MachineLifecycle, MachineReport, ReportRows, SolveHealth, StepScratch,
    TaskStepResult,
};
pub use placement::{CpuAllocation, FleetPlacer, MemPolicy, PlacementId, SmtModel};
pub use task::{HostTaskId, Priority, TaskSpec, ThreadProfile};
