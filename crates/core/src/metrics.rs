//! Evaluation metrics.
//!
//! The paper reports: ML slowdown (standalone / measured, arithmetic-mean
//! averaged), CPU-task slowdown (baseline throughput / measured,
//! harmonic-mean averaged — Figure 13), and the *efficiency* metric of
//! Figure 14: "the ratio of performance gain of high priority ML tasks
//! compared to Baseline, and throughput loss of CPU tasks compared to
//! Baseline … ML task performance gain per unit of CPU task throughput loss
//! (higher is better)."

/// Normalized performance: `measured / reference` (1.0 = parity).
pub fn normalized(measured: f64, reference: f64) -> f64 {
    if reference <= 0.0 {
        0.0
    } else {
        measured / reference
    }
}

/// Slowdown: `reference / measured` (>= 1 when degraded).
pub fn slowdown(measured: f64, reference: f64) -> f64 {
    if measured <= 0.0 {
        f64::INFINITY
    } else {
        reference / measured
    }
}

/// The Figure 14 efficiency metric.
///
/// `ml_*` are throughputs normalized to standalone; `cpu_*` are CPU
/// throughputs normalized to the Baseline run of the same mix. Returns
/// `None` when the configuration lost no CPU throughput (the tradeoff is
/// undefined / infinitely good); the figure harness renders those as a
/// capped bar.
pub fn efficiency(
    ml_config: f64,
    ml_baseline: f64,
    cpu_config: f64,
    cpu_baseline: f64,
) -> Option<f64> {
    let gain = ml_config - ml_baseline;
    let loss = cpu_baseline - cpu_config;
    if loss <= 1e-9 {
        return None;
    }
    Some((gain / loss).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_and_slowdown_are_inverses() {
        assert!((normalized(50.0, 100.0) - 0.5).abs() < 1e-12);
        assert!((slowdown(50.0, 100.0) - 2.0).abs() < 1e-12);
        assert_eq!(normalized(1.0, 0.0), 0.0);
        assert_eq!(slowdown(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn efficiency_matches_definition() {
        // ML gains 0.2 normalized, CPU loses 0.4 normalized -> 0.5.
        let e = efficiency(0.8, 0.6, 0.6, 1.0).unwrap();
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_undefined_without_cpu_loss() {
        assert_eq!(efficiency(0.8, 0.6, 1.0, 1.0), None);
        assert_eq!(efficiency(0.8, 0.6, 1.2, 1.0), None);
    }

    #[test]
    fn efficiency_clamps_negative_gain() {
        let e = efficiency(0.5, 0.6, 0.6, 1.0).unwrap();
        assert_eq!(e, 0.0);
    }
}
