//! Channel partitioning vs SNC (paper §IV-A, reference \[32\]).
//!
//! "While channel partitioning has been discussed before for CPU workloads,
//! we evaluate it \[SNC\] on real accelerated platforms." This harness runs
//! the full Kelp controller on both substrates: software channel
//! partitioning (bandwidth isolated, LLC shared, no latency change) and SNC
//! (bandwidth + LLC split, local-path discount) — isolating what the SNC
//! hardware contributes beyond pure bandwidth isolation.

use kelp::driver::Experiment;
use kelp::experiments::standalone_reference_with;
use kelp::policy::PolicyKind;
use kelp::report::Table;
use kelp::runner::Runner;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn main() {
    let config = kelp_bench::config_from(&kelp_bench::checked_args(&["--quick"], &[]));
    let mut t = Table::new(
        "Kelp on SNC vs Kelp on channel partitioning (ML perf / LP throughput)",
        &["Mix", "KP (SNC)", "MCP (channel part.)"],
    );
    for (ml, cpu, threads) in [
        (MlWorkloadKind::Cnn1, BatchKind::Stream, 16),
        (MlWorkloadKind::Cnn2, BatchKind::Stream, 16),
        (MlWorkloadKind::Rnn1, BatchKind::Stitch, 16),
    ] {
        let standalone = standalone_reference_with(&Runner::serial(), ml, &config);
        let run = |policy: PolicyKind| {
            let r = Experiment::builder(ml, policy)
                .add_cpu_workload(BatchWorkload::new(cpu, threads))
                .config(config.clone())
                .run();
            format!(
                "{:.3} / {:.2e}",
                r.ml_performance.throughput / standalone.throughput,
                r.cpu_total_throughput()
            )
        };
        t.row(vec![
            format!("{}+{}", ml.name(), cpu.name()),
            run(PolicyKind::Kelp),
            run(PolicyKind::Mcp),
        ]);
    }
    t.print();
}
