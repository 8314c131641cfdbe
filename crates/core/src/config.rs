//! Experiment timing configuration.
//!
//! Split out of the driver so that the declarative run layer
//! ([`crate::runner`]) can serialize configurations as part of a
//! [`RunSpec`](crate::runner::RunSpec) and hash them for the result cache.

use kelp_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Timing parameters of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Simulation step.
    pub dt: SimDuration,
    /// Warmup discarded before measurement (lets the policy converge).
    pub warmup: SimDuration,
    /// Measurement window.
    pub duration: SimDuration,
    /// Policy sampling period (the paper uses 10 s wall time and notes the
    /// runtime is insensitive to it; we scale it down with the simulation).
    pub sample_period: SimDuration,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dt: SimDuration::from_micros(20),
            warmup: SimDuration::from_millis(1500),
            duration: SimDuration::from_millis(2500),
            sample_period: SimDuration::from_millis(50),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for unit/integration tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            dt: SimDuration::from_micros(40),
            warmup: SimDuration::from_millis(400),
            duration: SimDuration::from_millis(600),
            sample_period: SimDuration::from_millis(20),
        }
    }

    /// Selects a configuration from the `KELP_QUICK` environment variable.
    ///
    /// Integration tests use this instead of hard-coding [`quick`]: the
    /// default (and any truthy value, e.g. `KELP_QUICK=1`) keeps the fast
    /// test configuration, while `KELP_QUICK=0` opts a run into the full
    /// paper-scale configuration for higher-fidelity local checks.
    ///
    /// [`quick`]: ExperimentConfig::quick
    #[expect(
        clippy::disallowed_methods,
        reason = "KELP_QUICK is the documented test-speed toggle; it selects a config and never reaches results"
    )]
    pub fn from_env() -> Self {
        match std::env::var("KELP_QUICK").as_deref() {
            Ok("0") | Ok("false") | Ok("off") => ExperimentConfig::default(),
            _ => ExperimentConfig::quick(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_shorter_than_default() {
        let q = ExperimentConfig::quick();
        let d = ExperimentConfig::default();
        assert!(q.duration < d.duration);
        assert!(q.warmup < d.warmup);
    }

    #[test]
    fn config_roundtrips_through_json() {
        let c = ExperimentConfig::default();
        let text = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, c);
    }
}
