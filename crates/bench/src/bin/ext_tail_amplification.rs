//! §II-D: tail amplification — why node-level isolation matters far more at
//! cluster scale than its single-node win suggests.

use kelp::experiments::cluster::{tail_amplification_with, ClusterConfig};
use kelp::policy::PolicyKind;

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = tail_amplification_with(
        &runner,
        &[PolicyKind::Baseline, PolicyKind::Kelp],
        &ClusterConfig::default(),
        &config,
    );
    r.table().print();
    for s in &r.series {
        println!(
            "{:<5} single-node slowdown when contended: {:.3}",
            s.policy, s.node_slowdown
        );
    }
    kelp_bench::save_json(kelp_bench::results_dir(), "ext_tail_amplification", &r);
}
