//! Tail amplification at cluster scale (paper §II-D).
//!
//! "Accelerated workloads can span multiple nodes and cross-node
//! synchronization is often necessary for each iteration … service-level
//! performance of distributed workloads is even more susceptible to
//! interference due to 'tail amplification'." In synchronous distributed
//! training every global step waits for the **slowest** worker/parameter
//! server, so even a small probability of a node being contended makes the
//! whole cluster run at contended speed once enough nodes participate.
//!
//! The harness measures a node's step time clean and contended (under a
//! runtime policy), then computes the expected cluster slowdown versus
//! cluster size by Monte-Carlo over which nodes are contended — showing why
//! node-level isolation (Kelp) is worth far more than its single-node
//! improvement suggests.

use crate::driver::ExperimentConfig;
use crate::policy::PolicyKind;
use crate::report::Table;
use crate::runner::{CpuSpec, RecordCursor, RunRecord, RunSpec, Runner};
use kelp_simcore::rng::SimRng;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};

/// Configuration of the tail-amplification study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Cluster sizes to evaluate.
    pub cluster_sizes: Vec<usize>,
    /// Probability that any given node is colocated with an aggressor
    /// (Figure 2 suggests ~16 % of machines run near saturation).
    pub contended_fraction: f64,
    /// Monte-Carlo trials per cluster size.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cluster_sizes: vec![1, 2, 4, 8, 16, 32, 64],
            contended_fraction: 0.16,
            trials: 2000,
            seed: 7,
        }
    }
}

/// Result for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSeries {
    /// Policy label.
    pub policy: String,
    /// Single-node step-time ratio contended/clean (>= 1).
    pub node_slowdown: f64,
    /// `(cluster size, expected service-level slowdown)` points.
    pub amplification: Vec<(usize, f64)>,
}

/// The study result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Study configuration.
    pub config: ClusterConfig,
    /// One series per evaluated policy.
    pub series: Vec<ClusterSeries>,
}

impl ClusterResult {
    /// Series lookup by policy label.
    pub fn series_for(&self, policy: PolicyKind) -> Option<&ClusterSeries> {
        self.series.iter().find(|s| s.policy == policy.label())
    }

    /// Renders the study.
    pub fn table(&self) -> Table {
        let mut header = vec!["cluster size".to_string()];
        for s in &self.series {
            header.push(format!("{} slowdown", s.policy));
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!(
                "SII-D tail amplification — expected service-level slowdown \
                 ({}% of nodes contended)",
                self.config.contended_fraction * 100.0
            ),
            &refs,
        );
        for (i, &k) in self.config.cluster_sizes.iter().enumerate() {
            let mut row = vec![k.to_string()];
            for s in &self.series {
                row.push(Table::num(s.amplification[i].1));
            }
            t.row(row);
        }
        t
    }
}

/// Expected service-level slowdown of a `k`-node lock-step cluster where
/// each node independently runs at `node_slowdown` with probability `p`.
///
/// Closed form: the step waits for the slowest node, so the cluster runs at
/// `node_slowdown` unless *every* node is clean:
/// `E[slowdown] = (1-p)^k * 1 + (1 - (1-p)^k) * node_slowdown` — the
/// Monte-Carlo in [`tail_amplification`] exists to validate this and to
/// extend naturally to heterogeneous node populations.
pub fn expected_slowdown(node_slowdown: f64, p: f64, k: usize) -> f64 {
    let clean_all = (1.0 - p.clamp(0.0, 1.0)).powi(k as i32);
    clean_all + (1.0 - clean_all) * node_slowdown.max(1.0)
}

/// Monte-Carlo estimate of the expected service-level slowdown.
pub fn monte_carlo_slowdown(
    node_slowdown: f64,
    p: f64,
    k: usize,
    trials: usize,
    rng: &mut SimRng,
) -> f64 {
    if trials == 0 || k == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    for _ in 0..trials {
        let any_contended = (0..k).any(|_| rng.chance(p));
        total += if any_contended {
            node_slowdown.max(1.0)
        } else {
            1.0
        };
    }
    total / trials as f64
}

/// Enumerates the per-node measurements: the CNN3 standalone reference,
/// then one contended (CNN3 + Stream) run per policy.
pub fn specs(policies: &[PolicyKind], config: &ExperimentConfig) -> Vec<RunSpec> {
    let ml = MlWorkloadKind::Cnn3;
    let mut specs = vec![super::standalone_spec(ml, config)];
    for &policy in policies {
        specs.push(RunSpec::new(ml, policy, config).with_cpu(CpuSpec::new(BatchKind::Stream, 16)));
    }
    specs
}

/// Folds batch records (in [`specs`] order) into the cluster extrapolation.
/// The Monte-Carlo is pure post-processing seeded from `cluster.seed`, so
/// the fold is deterministic regardless of how the records were produced.
pub fn fold(
    policies: &[PolicyKind],
    cluster: &ClusterConfig,
    records: &[RunRecord],
) -> ClusterResult {
    let mut next = RecordCursor::new(records);
    let standalone = next.take().ml_performance;
    let mut rng = SimRng::seed_from(cluster.seed);
    let mut series = Vec::new();
    for &policy in policies {
        let contended = next.take();
        let node_slowdown =
            (standalone.throughput / contended.ml_performance.throughput.max(1e-12)).max(1.0);
        let mut prng = rng.fork(policy.label().len() as u64);
        let amplification = cluster
            .cluster_sizes
            .iter()
            .map(|&k| {
                (
                    k,
                    monte_carlo_slowdown(
                        node_slowdown,
                        cluster.contended_fraction,
                        k,
                        cluster.trials,
                        &mut prng,
                    ),
                )
            })
            .collect();
        series.push(ClusterSeries {
            policy: policy.label().to_string(),
            node_slowdown,
            amplification,
        });
    }
    ClusterResult {
        config: cluster.clone(),
        series,
    }
}

/// Runs the tail-amplification study through the given engine: per-node
/// measurements for each policy, then the cluster extrapolation.
///
/// Uses CNN3 (the paper's distributed parameter-server workload) with the
/// Stream aggressor as the contended mix.
pub fn tail_amplification_with(
    runner: &Runner,
    policies: &[PolicyKind],
    cluster: &ClusterConfig,
    config: &ExperimentConfig,
) -> ClusterResult {
    fold(
        policies,
        cluster,
        &runner.run_batch(&specs(policies, config)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_monte_carlo() {
        let mut rng = SimRng::seed_from(1);
        for &(s, p, k) in &[(1.6, 0.16, 8usize), (2.0, 0.05, 32), (1.2, 0.5, 4)] {
            let exact = expected_slowdown(s, p, k);
            let mc = monte_carlo_slowdown(s, p, k, 20_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.02 * exact,
                "s={s} p={p} k={k}: exact {exact} mc {mc}"
            );
        }
    }

    #[test]
    fn amplification_grows_with_cluster_size() {
        // At p=0.16, a 32-node cluster almost certainly contains a
        // contended node: the cluster runs at the contended speed.
        let one = expected_slowdown(1.6, 0.16, 1);
        let thirty_two = expected_slowdown(1.6, 0.16, 32);
        assert!(one < 1.12, "single node is mostly clean: {one}");
        assert!(
            thirty_two > 1.59,
            "large cluster is almost surely dragged: {thirty_two}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(expected_slowdown(0.5, 0.16, 4), 1.0, "slowdown floors at 1");
        assert_eq!(
            expected_slowdown(2.0, 0.0, 64),
            1.0,
            "no contention anywhere"
        );
        let mut rng = SimRng::seed_from(2);
        assert_eq!(monte_carlo_slowdown(2.0, 0.5, 0, 100, &mut rng), 1.0);
        assert_eq!(monte_carlo_slowdown(2.0, 0.5, 4, 0, &mut rng), 1.0);
    }

    #[test]
    fn kelp_flattens_the_amplification_curve() {
        let cluster = ClusterConfig {
            cluster_sizes: vec![1, 16],
            trials: 500,
            ..ClusterConfig::default()
        };
        let r = tail_amplification_with(
            &Runner::serial(),
            &[PolicyKind::Baseline, PolicyKind::Kelp],
            &cluster,
            &ExperimentConfig::quick(),
        );
        let bl = r.series_for(PolicyKind::Baseline).unwrap();
        let kp = r.series_for(PolicyKind::Kelp).unwrap();
        assert!(
            bl.node_slowdown > 1.2,
            "BL node suffers: {}",
            bl.node_slowdown
        );
        assert!(kp.node_slowdown < bl.node_slowdown);
        // At 16 nodes, the baseline cluster is dragged down much harder.
        let bl16 = bl.amplification[1].1;
        let kp16 = kp.amplification[1].1;
        assert!(
            bl16 > kp16 + 0.1,
            "Kelp must flatten the curve: BL {bl16} vs KP {kp16}"
        );
        assert_eq!(r.table().row_count(), 2);
    }
}
