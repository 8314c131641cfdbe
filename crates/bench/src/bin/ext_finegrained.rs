//! Extension (paper §VI-D): fine-grained memory isolation upper bound.
//!
//! Runs the FineGrained MBA-style policy against the paper's four
//! configurations on the heavy CNN1+Stream mix. The paper predicts a
//! hardware mechanism could beat Subdomain's ML performance while keeping
//! more CPU throughput than CoreThrottle or Kelp. In this model FG matches
//! Kelp's ML protection and keeps more CPU throughput than CoreThrottle,
//! but less than Kelp.

use kelp::driver::Experiment;
use kelp::experiments::standalone_reference_with;
use kelp::policy::PolicyKind;
use kelp::report::Table;
use kelp::runner::Runner;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn main() {
    let config = kelp_bench::config_from(&kelp_bench::checked_args(&["--quick"], &[]));
    let ml = MlWorkloadKind::Cnn1;
    let standalone = standalone_reference_with(&Runner::serial(), ml, &config);
    let mut t = Table::new(
        "Extension §VI-D — FineGrained (MBA-style) vs paper configurations (CNN1 + Stream)",
        &["Policy", "ML perf (norm)", "CPU throughput (norm to BL)"],
    );
    let mut bl_cpu = 1e-12;
    for policy in [
        PolicyKind::Baseline,
        PolicyKind::CoreThrottle,
        PolicyKind::KelpSubdomain,
        PolicyKind::Kelp,
        PolicyKind::FineGrained,
    ] {
        let r = Experiment::builder(ml, policy)
            .add_cpu_workload(BatchWorkload::new(BatchKind::Stream, 16))
            .config(config.clone())
            .run();
        if policy == PolicyKind::Baseline {
            bl_cpu = r.cpu_total_throughput().max(1e-12);
        }
        t.row(vec![
            policy.label().to_string(),
            Table::num(r.ml_performance.throughput / standalone.throughput),
            Table::num(r.cpu_total_throughput() / bl_cpu),
        ]);
    }
    t.print();
}
