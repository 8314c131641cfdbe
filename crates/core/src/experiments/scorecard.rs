//! The reproduction scorecard: every headline claim of the paper checked
//! programmatically against the simulator, with pass bands.
//!
//! `repro_all` prints the table that backs `EXPERIMENTS.md` and writes it to
//! `results/scorecard.json`; the calibration integration tests assert a
//! subset of the same bands.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// One checked claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Where the claim comes from.
    pub source: String,
    /// What the paper says.
    pub paper: String,
    /// What the reproduction measured.
    pub measured: f64,
    /// Acceptance band `[lo, hi]`.
    pub band: (f64, f64),
}

impl Claim {
    /// Whether the measurement falls inside the band.
    pub fn passes(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

/// The full scorecard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scorecard {
    /// All checked claims.
    pub claims: Vec<Claim>,
}

impl Scorecard {
    /// Number of passing claims.
    pub fn passed(&self) -> usize {
        self.claims.iter().filter(|c| c.passes()).count()
    }

    /// Renders the scorecard.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Reproduction scorecard — {}/{} claims in band",
                self.passed(),
                self.claims.len()
            ),
            &["Source", "Paper", "Measured", "Band", "Verdict"],
        );
        for c in &self.claims {
            t.row(vec![
                c.source.clone(),
                c.paper.clone(),
                Table::num(c.measured),
                format!("[{:.2}, {:.2}]", c.band.0, c.band.1),
                if c.passes() { "PASS" } else { "WARN" }.to_string(),
            ]);
        }
        t
    }
}

/// Runs the scorecard (several dozen experiments) through the given engine.
/// Each composed harness batches its grid through the engine, so `--jobs N`
/// parallelizes within every figure.
pub fn run_scorecard_with(runner: &Runner, config: &ExperimentConfig) -> Scorecard {
    let mut claims = Vec::new();

    // Figure 2 (analytic; no simulator runs).
    let fleet = super::fleet::figure2(1);
    claims.push(Claim {
        source: "Fig 2".into(),
        paper: "~16% of machines above 70% of peak BW".into(),
        measured: fleet.fraction_above_70pct,
        band: (0.12, 0.20),
    });

    // Figure 5.
    let fig5 = super::sensitivity::figure5_with(runner, config);
    claims.push(Claim {
        source: "Fig 5".into(),
        paper: "LLC aggressor costs ~14% on average".into(),
        measured: fig5.average_for("LLC").unwrap_or(0.0),
        band: (0.78, 0.93),
    });
    claims.push(Claim {
        source: "Fig 5".into(),
        paper: "DRAM aggressor costs ~40% on average".into(),
        measured: fig5.average_for("DRAM").unwrap_or(0.0),
        band: (0.50, 0.74),
    });

    // Figure 3.
    let fig3 = super::timeline::figure3_with(runner, config);
    claims.push(Claim {
        source: "Fig 3".into(),
        paper: "CPU phases stretch up to +51%".into(),
        measured: fig3.cpu_expansion(),
        band: (1.2, 2.2),
    });
    claims.push(Claim {
        source: "Fig 3".into(),
        paper: "accelerator phases insensitive".into(),
        measured: fig3.expansion.get("accel").copied().unwrap_or(1.0),
        band: (0.9, 1.1),
    });
    claims.push(Claim {
        source: "Fig 3".into(),
        paper: "tail latency grows >+70%".into(),
        measured: fig3.tail_expansion,
        band: (1.3, 6.0),
    });

    // Figure 7 headline (CNN1 at aggressor H, no prefetchers off vs all off).
    let fig7 = super::backpressure::figure7_with(runner, config);
    let cnn1_on = fig7
        .point("CNN1", super::backpressure::AggressorLevel::High, 0)
        .map(|p| p.normalized_perf)
        .unwrap_or(0.0);
    let cnn1_off = fig7
        .point("CNN1", super::backpressure::AggressorLevel::High, 4)
        .map(|p| p.normalized_perf)
        .unwrap_or(0.0);
    claims.push(Claim {
        source: "Fig 7".into(),
        paper: "subdomains alone: CNN1 loses ~50%".into(),
        measured: cnn1_on,
        band: (0.40, 0.70),
    });
    claims.push(Claim {
        source: "Fig 7".into(),
        paper: "prefetchers off restores CNN1".into(),
        measured: cnn1_off,
        band: (0.90, 1.05),
    });

    // Key Figure 13 orderings on the heavy CNN1+Stream mix.
    let spec = |policy: PolicyKind| {
        RunSpec::new(MlWorkloadKind::Cnn1, policy, config)
            .with_cpu(CpuSpec::new(BatchKind::Stream, 16))
    };
    let records = runner.run_batch(&[
        super::standalone_spec(MlWorkloadKind::Cnn1, config),
        spec(PolicyKind::Baseline),
        spec(PolicyKind::KelpSubdomain),
        spec(PolicyKind::Kelp),
    ]);
    let mut next = RecordCursor::new(&records);
    let standalone = next.take().ml_performance;
    let (bl, kpsd, kp) = (next.take(), next.take(), next.take());
    claims.push(Claim {
        source: "Fig 13".into(),
        paper: "Kelp restores ML performance".into(),
        measured: kp.ml_performance.throughput / standalone.throughput,
        band: (0.9, 1.05),
    });
    claims.push(Claim {
        source: "Fig 13".into(),
        paper: "KP CPU throughput ~+19% over KP-SD".into(),
        measured: kp.cpu_total_throughput() / kpsd.cpu_total_throughput().max(1e-12),
        band: (1.05, 2.2),
    });
    claims.push(Claim {
        source: "Fig 13".into(),
        paper: "baseline suffers heavily on CNN1+Stream".into(),
        measured: bl.ml_performance.throughput / standalone.throughput,
        band: (0.30, 0.75),
    });

    Scorecard { claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_pass_logic() {
        let c = Claim {
            source: "x".into(),
            paper: "y".into(),
            measured: 0.5,
            band: (0.4, 0.6),
        };
        assert!(c.passes());
        let c = Claim {
            measured: 0.39,
            ..c
        };
        assert!(!c.passes());
    }

    #[test]
    fn scorecard_runs_quick() {
        let s = run_scorecard_with(&Runner::serial(), &ExperimentConfig::quick());
        assert!(s.claims.len() >= 10);
        // At quick scale, the large majority of claims must already hold.
        assert!(
            s.passed() >= s.claims.len() - 2,
            "{}/{} passed:\n{}",
            s.passed(),
            s.claims.len(),
            s.table().render()
        );
    }
}
