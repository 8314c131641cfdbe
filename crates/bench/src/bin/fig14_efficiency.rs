//! Figure 14: efficiency (ML gain per unit of CPU throughput loss).

use kelp::policy::PolicyKind;

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::overall::run_overall_with(&runner, &config);
    r.figure14_table().print();
    println!(
        "Average efficiency — CT {:.3}, KP-SD {:.3}, KP {:.3} (paper: KP +17% vs CT, +37% vs KP-SD)",
        r.avg_efficiency(PolicyKind::CoreThrottle),
        r.avg_efficiency(PolicyKind::KelpSubdomain),
        r.avg_efficiency(PolicyKind::Kelp)
    );
    kelp_bench::save_json(kelp_bench::results_dir(), "fig14_efficiency", &r);
}
