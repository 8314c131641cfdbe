//! Loaded-latency model.
//!
//! DRAM latency is flat at low load and rises sharply as a controller
//! approaches saturation (bank conflicts, queueing). We model the classic
//! loaded-latency curve measured on real parts with
//!
//! ```text
//! L(rho) = L0 * (1 + a * rho^k / (1 - min(rho, rho_cap)))
//! ```
//!
//! which is ~flat below 50 % utilization, gently rising through 80 %, and
//! several-times-base close to saturation — the regime the paper's DRAM
//! aggressors push the socket into.

use serde::{Deserialize, Serialize};

/// Parameters of the loaded-latency curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    /// Queueing amplitude `a`.
    pub amplitude: f64,
    /// Shape exponent `k` (higher = flatter low-load region).
    pub exponent: f64,
    /// Utilization cap for the pole (prevents infinite latency at rho = 1).
    pub rho_cap: f64,
}

impl LatencyCurve {
    /// Loaded latency in ns given unloaded latency `base_ns` and utilization
    /// `rho` (clamped to `[0, 1]`).
    pub fn loaded_ns(&self, base_ns: f64, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 1.0);
        // An idle controller: `0^k` is a zero for `k > 0`, so with a finite
        // amplitude the queueing term is a zero, `1 + ±0 = 1` exactly, and
        // the `powf` can be skipped.
        if rho == 0.0 && self.exponent > 0.0 && self.amplitude.is_finite() {
            return base_ns;
        }
        let pole = 1.0 - rho.min(self.rho_cap);
        base_ns * (1.0 + self.amplitude * rho.powf(self.exponent) / pole)
    }

    /// The latency multiplier (`loaded / base`) at utilization `rho`.
    pub fn multiplier(&self, rho: f64) -> f64 {
        self.loaded_ns(1.0, rho)
    }
}

impl Default for LatencyCurve {
    /// Calibrated so that rho = 0.5 costs ~+1 %, 0.8 ~+25 %, 0.9 ~+80 %,
    /// 0.97+ ~4–5x base — matching published loaded-latency sweeps of
    /// Skylake-SP-class parts to first order.
    fn default() -> Self {
        LatencyCurve {
            amplitude: 0.135,
            exponent: 4.0,
            rho_cap: 0.965,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_base() {
        let c = LatencyCurve::default();
        assert!((c.loaded_ns(85.0, 0.0) - 85.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_monotonic_in_load() {
        let c = LatencyCurve::default();
        let mut prev = 0.0;
        for i in 0..=100 {
            let l = c.loaded_ns(85.0, i as f64 / 100.0);
            assert!(l >= prev, "latency dipped at rho {}", i as f64 / 100.0);
            prev = l;
        }
    }

    #[test]
    fn curve_shape_matches_calibration_intent() {
        let c = LatencyCurve::default();
        assert!(c.multiplier(0.5) < 1.05, "{}", c.multiplier(0.5));
        let at80 = c.multiplier(0.8);
        assert!((1.15..1.5).contains(&at80), "{at80}");
        let at90 = c.multiplier(0.9);
        assert!((1.5..2.4).contains(&at90), "{at90}");
        let sat = c.multiplier(1.0);
        assert!((3.0..8.0).contains(&sat), "{sat}");
    }

    #[test]
    fn rho_is_clamped() {
        let c = LatencyCurve::default();
        assert_eq!(c.loaded_ns(100.0, -0.5), 100.0);
        assert!(c.loaded_ns(100.0, 2.0).is_finite());
        assert_eq!(c.loaded_ns(100.0, 2.0), c.loaded_ns(100.0, 1.0));
    }
}
