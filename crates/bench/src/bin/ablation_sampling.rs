//! Ablation: Kelp sampling-period sweep (paper §IV-D claims insensitivity).

use kelp::experiments::ablation;
use kelp::report::Table;

fn main() {
    let args = kelp_bench::checked_args(&["--quick", "--no-cache"], &["--jobs"]);
    let config = kelp_bench::config_from(&args);
    let runner = kelp_bench::runner_from(&args);
    let points = ablation::sampling_sweep_with(&runner, &[20, 50, 100, 200], &config);
    let mut t = Table::new(
        "Ablation — Kelp sampling period (CNN1 + Stitch x4)",
        &["sample period (ms)", "ML perf (norm)", "CPU units/s"],
    );
    for p in &points {
        t.row(vec![
            p.period_ms.to_string(),
            Table::num(p.ml_norm),
            format!("{:.3e}", p.cpu_throughput),
        ]);
    }
    t.print();
    println!(
        "spread of ML outcome across periods: {:.1}% (paper: insensitive)",
        ablation::sampling_spread(&points) * 100.0
    );
}
