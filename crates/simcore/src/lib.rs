//! # kelp-simcore
//!
//! Foundation crate for the Kelp reproduction: simulated time, a deterministic
//! random number generator, statistics (means, harmonic means, exact and
//! streaming percentiles), time-series recording, phase tracing (used to
//! regenerate the paper's Figure 3 timeline), and a damped fixed-point solver
//! used by the memory-system model.
//!
//! Everything in this crate is deterministic: the same seed and the same call
//! sequence always produce the same results, which the reproduction relies on
//! for reproducible experiment tables.
//!
//! ## Example
//!
//! ```
//! use kelp_simcore::{time::SimTime, rng::SimRng, stats::SampleSet};
//!
//! let mut rng = SimRng::seed_from(42);
//! let mut samples = SampleSet::new();
//! for _ in 0..1000 {
//!     samples.record(rng.next_f64());
//! }
//! assert!((samples.mean() - 0.5).abs() < 0.05);
//! assert!(samples.p95() > samples.quantile(0.5));
//! let t = SimTime::ZERO + SimTime::from_millis(3).as_duration();
//! assert_eq!(t.as_nanos(), 3_000_000);
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

pub mod fault;
pub mod fixedpoint;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod trace;

pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use fixedpoint::{solve_fixed_point, FixedPointConfig, FixedPointOutcome};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{OnlineStats, P2Quantile, SampleSet};
pub use time::{SimDuration, SimTime};
pub use trace::{PhaseTrace, TraceEvent};
