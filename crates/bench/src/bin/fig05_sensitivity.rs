//! Figure 5: workload sensitivity to LLC vs DRAM aggressors.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::sensitivity::figure5_with(&runner, &config);
    r.table("Figure 5 — sensitivity to shared-resource interference (normalized perf)")
        .print();
    println!(
        "Averages: LLC {:.3} (paper ~0.86), DRAM {:.3} (paper ~0.60)\n",
        r.average_for("LLC").unwrap_or(0.0),
        r.average_for("DRAM").unwrap_or(0.0)
    );
    let mut chart =
        kelp::report::BarChart::new("normalized performance (1.0 = standalone)").with_max(1.0);
    for row in &r.rows {
        let bars = r
            .aggressors
            .iter()
            .zip(&row.normalized_perf)
            .map(|(a, &v)| (a.clone(), v))
            .collect();
        chart.group(row.workload.clone(), bars);
    }
    chart.print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig05_sensitivity", &r);
}
