//! Extension (paper §VI-B): QoS-aware hardware prefetching.
//!
//! "This functionality can be integrated into hardware … guide the
//! aggressiveness of prefetchers based on the immediately-available
//! information of memory resources." This harness compares three ways of
//! containing backpressure under subdomains: nothing, Kelp's software
//! prefetcher toggling, and feedback-directed hardware throttling.

use kelp::driver::Experiment;
use kelp::experiments::backpressure::FixedPrefetchPolicy;
use kelp::experiments::standalone_reference_with;
use kelp::policy::PolicyKind;
use kelp::report::Table;
use kelp::runner::Runner;
use kelp_mem::AdaptivePrefetch;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn main() {
    let config = kelp_bench::config_from(&kelp_bench::checked_args(&["--quick"], &[]));
    let mut t = Table::new(
        "Extension §VI-B — QoS-aware prefetching (subdomains, aggressor H): ML perf / LP throughput",
        &["Workload", "unmanaged", "Kelp SW toggling", "HW adaptive"],
    );
    for ml in [
        MlWorkloadKind::Rnn1,
        MlWorkloadKind::Cnn1,
        MlWorkloadKind::Cnn2,
    ] {
        let standalone = standalone_reference_with(&Runner::serial(), ml, &config);
        let run = |disabled: f64, hw: Option<AdaptivePrefetch>| {
            let mut b = Experiment::builder(ml, PolicyKind::KelpSubdomain)
                .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(
                    disabled,
                )))
                .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 14))
                .config(config.clone());
            if let Some(model) = hw {
                b = b.tweak_mem(move |mem| mem.set_adaptive_prefetch(Some(model)));
            }
            let r = b.run();
            (
                r.ml_performance.throughput / standalone.throughput,
                r.cpu_total_throughput(),
            )
        };
        let unmanaged = run(0.0, None);
        let software = run(1.0, None);
        let hardware = run(0.0, Some(AdaptivePrefetch::default()));
        let cell = |(ml, cpu): (f64, f64)| format!("{:.3} / {:.2e}", ml, cpu);
        t.row(vec![
            ml.name().to_string(),
            cell(unmanaged),
            cell(software),
            cell(hardware),
        ]);
    }
    t.print();
}
