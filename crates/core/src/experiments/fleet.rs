//! Figure 2: fleet 99 %-ile memory-bandwidth distribution.
//!
//! Thin wrapper over [`kelp_workloads::fleet`] that renders the
//! complementary CDF the paper plots and checks the "16 % of machines above
//! 70 % of peak" headline.

use crate::report::Table;
use kelp_workloads::fleet::{FleetModel, FleetResult};
use serde::{Deserialize, Serialize};

/// Figure 2 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFigure {
    /// `(threshold fraction of peak, fraction of machines above)` points.
    pub ccdf: Vec<(f64, f64)>,
    /// The headline statistic: fraction of machines above 70 % of peak.
    pub fraction_above_70pct: f64,
}

/// The fleet-model seed of the committed Figure 2 (`results/fig02_fleet_bw.json`),
/// which the scorecard's Figure 2 claim reads too.
pub const FIGURE2_SEED: u64 = 2019;

/// Runs the fleet model and extracts the Figure 2 series.
pub fn figure2(seed: u64) -> FleetFigure {
    let result: FleetResult = FleetModel::default().simulate(seed);
    let thresholds: Vec<f64> = (0..=9).map(|i| i as f64 / 10.0).collect();
    FleetFigure {
        ccdf: result.ccdf(&thresholds),
        fraction_above_70pct: result.fraction_above(0.70),
    }
}

impl FleetFigure {
    /// Renders the CCDF as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 2 — fleet 99%-ile memory BW (fraction of machines above X% of peak)",
            &["% of peak BW", "% of machines"],
        );
        for &(x, y) in &self.ccdf {
            t.row(vec![
                format!("{:.0}%", x * 100.0),
                format!("{:.1}%", y * 100.0),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_band_holds() {
        let f = figure2(1);
        assert!(
            (0.12..=0.20).contains(&f.fraction_above_70pct),
            "{}",
            f.fraction_above_70pct
        );
        assert_eq!(f.ccdf.len(), 10);
        assert_eq!(f.table().row_count(), 10);
    }
}
