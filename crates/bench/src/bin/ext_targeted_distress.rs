//! Extension (paper §VI-C): per-thread / per-domain memory backpressure.
//!
//! "Ideally, memory backpressure should be sent to the offending hardware
//! thread in order to avoid unnecessary performance loss." This harness
//! re-runs the Figure 7 "subdomains alone" configuration with the distress
//! signal delivered only to the saturating subdomain's cores, showing that
//! the targeted hardware would make prefetcher toggling unnecessary.

use kelp::driver::Experiment;
use kelp::experiments::backpressure::FixedPrefetchPolicy;
use kelp::experiments::standalone_reference_with;
use kelp::policy::PolicyKind;
use kelp::report::Table;
use kelp::runner::Runner;
use kelp_mem::DistressScope;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn main() {
    let config = kelp_bench::config_from(&kelp_bench::checked_args(&["--quick"], &[]));
    let mut t = Table::new(
        "Extension §VI-C — targeted distress delivery (subdomains, no prefetcher mgmt, aggressor H)",
        &["Workload", "global distress (real HW)", "per-domain distress (proposal)"],
    );
    for ml in [
        MlWorkloadKind::Rnn1,
        MlWorkloadKind::Cnn1,
        MlWorkloadKind::Cnn2,
    ] {
        let standalone = standalone_reference_with(&Runner::serial(), ml, &config);
        let run = |scope: DistressScope| {
            Experiment::builder(ml, PolicyKind::KelpSubdomain)
                .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(0.0)))
                .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
                .tweak_mem(move |mem| mem.set_distress_scope(scope))
                .config(config.clone())
                .run()
                .ml_performance
                .throughput
                / standalone.throughput
        };
        t.row(vec![
            ml.name().to_string(),
            Table::num(run(DistressScope::GlobalSocket)),
            Table::num(run(DistressScope::PerDomain)),
        ]);
    }
    t.print();
}
