//! Figure 13: overall ML and CPU slowdown across all mixes.

use kelp::policy::PolicyKind;

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::overall::run_overall_with(&runner, &config);
    r.figure13_table().print();
    for p in PolicyKind::paper_set() {
        println!(
            "{:<6} avg ML slowdown {:.3}  avg CPU throughput (hmean, vs BL) {:.3}",
            p.label(),
            r.avg_ml_slowdown(p),
            r.avg_cpu_norm(p)
        );
    }
    let mut chart =
        kelp::report::BarChart::new("\naverage ML slowdown (left) / CPU throughput vs BL (right)");
    chart.group(
        "ML slowdown",
        PolicyKind::paper_set()
            .iter()
            .map(|&p| (p.label().to_string(), r.avg_ml_slowdown(p)))
            .collect(),
    );
    chart.group(
        "CPU throughput",
        PolicyKind::paper_set()
            .iter()
            .map(|&p| (p.label().to_string(), r.avg_cpu_norm(p)))
            .collect(),
    );
    chart.print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig13_overall", &r);
    kelp_bench::save_csv(
        kelp_bench::results_dir(),
        "fig13_overall",
        &r.figure13_table(),
    );
}
