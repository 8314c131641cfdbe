//! Shared-memory backpressure (the socket-wide distress signal).
//!
//! Paper §IV-B: when a memory controller's queues saturate, the uncore
//! broadcasts a distress signal to *every* core on the socket, which throttle
//! their request issue to protect the mesh. The `FAST_ASSERTED` uncore event
//! counts cycles with the signal asserted; Kelp reads it as a saturation
//! duty cycle.
//!
//! The model: a controller at utilization `rho` asserts distress with duty
//! cycle rising from 0 at the threshold to 1 at full saturation; the socket's
//! cores are slowed by a factor proportional to the worst duty cycle on the
//! socket. This is the mechanism that leaks interference *across* NUMA
//! subdomains and makes "Subdomain alone" insufficient (Figure 7).

use serde::{Deserialize, Serialize};

/// Who receives the distress signal when a controller saturates.
///
/// Shipping hardware broadcasts socket-wide ([`DistressScope::GlobalSocket`]),
/// which is exactly the cross-subdomain leak Kelp has to manage (§IV-B).
/// The paper's §VI-C proposes delivering backpressure only to the offending
/// threads; [`DistressScope::PerDomain`] models that proposal: only cores in
/// the saturating subdomain are throttled. `repro_all`'s §VI-C study
/// (`kelp::experiments::extensions`, `results/ext_hw_proposals.json`)
/// quantifies what the hardware change would buy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DistressScope {
    /// The signal throttles every core on the socket (real hardware).
    #[default]
    GlobalSocket,
    /// The signal throttles only the saturating domain's cores (§VI-C
    /// proposal).
    PerDomain,
}

/// Parameters of the distress/backpressure mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistressModel {
    /// Controller utilization at which the distress signal starts asserting.
    pub threshold: f64,
    /// Shape exponent for the duty-cycle ramp between threshold and 1.0.
    pub ramp_exponent: f64,
    /// Maximum core slowdown at duty cycle 1.0 (e.g. 0.5 = cores halve).
    pub max_throttle: f64,
}

impl DistressModel {
    /// Duty cycle of the distress signal at controller utilization `rho`.
    ///
    /// 0 below the threshold; ramps to 1 at full utilization.
    pub fn duty_cycle(&self, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 1.0);
        if rho <= self.threshold {
            return 0.0;
        }
        let span = (1.0 - self.threshold).max(1e-9);
        ((rho - self.threshold) / span).powf(self.ramp_exponent)
    }

    /// Core speed multiplier on a socket whose worst controller shows the
    /// given duty cycle: 1.0 unthrottled, down to `1 - max_throttle`.
    pub fn core_speed_factor(&self, duty: f64) -> f64 {
        1.0 - self.max_throttle * duty.clamp(0.0, 1.0)
    }

    /// Convenience: speed factor straight from the worst utilization.
    pub fn speed_from_rho(&self, rho: f64) -> f64 {
        self.core_speed_factor(self.duty_cycle(rho))
    }
}

impl Default for DistressModel {
    /// Distress asserts above ~78 % controller utilization and can slow
    /// cores by up to 55 % at full saturation — calibrated so an unmanaged
    /// streaming aggressor reproduces the paper's 50 % CNN1 degradation
    /// across subdomains (Figure 7a–b).
    fn default() -> Self {
        DistressModel {
            threshold: 0.78,
            ramp_exponent: 1.2,
            max_throttle: 0.45,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_below_threshold() {
        let d = DistressModel::default();
        assert_eq!(d.duty_cycle(0.0), 0.0);
        assert_eq!(d.duty_cycle(d.threshold), 0.0);
        assert_eq!(d.speed_from_rho(0.5), 1.0);
    }

    #[test]
    fn full_duty_at_saturation() {
        let d = DistressModel::default();
        assert!((d.duty_cycle(1.0) - 1.0).abs() < 1e-12);
        assert!((d.core_speed_factor(1.0) - (1.0 - d.max_throttle)).abs() < 1e-12);
    }

    #[test]
    fn duty_is_monotonic() {
        let d = DistressModel::default();
        let mut prev = -1.0;
        for i in 0..=100 {
            let duty = d.duty_cycle(i as f64 / 100.0);
            assert!(duty >= prev);
            prev = duty;
        }
    }

    #[test]
    fn duty_clamps_out_of_range() {
        let d = DistressModel::default();
        assert_eq!(d.duty_cycle(-1.0), 0.0);
        assert!((d.duty_cycle(5.0) - 1.0).abs() < 1e-12);
        assert!((d.core_speed_factor(5.0) - (1.0 - d.max_throttle)).abs() < 1e-12);
    }

    #[test]
    fn scope_default_is_global() {
        assert_eq!(DistressScope::default(), DistressScope::GlobalSocket);
    }

    #[test]
    fn ramp_exponent_shapes_onset() {
        let gentle = DistressModel {
            ramp_exponent: 1.0,
            ..DistressModel::default()
        };
        let sharp = DistressModel {
            ramp_exponent: 3.0,
            ..DistressModel::default()
        };
        let mid = gentle.threshold + (1.0 - gentle.threshold) / 2.0;
        assert!(sharp.duty_cycle(mid) < gentle.duty_cycle(mid));
    }
}
