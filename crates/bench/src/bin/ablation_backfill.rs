//! Ablation: what subdomain backfilling buys (KP vs KP-SD), per CPU workload.

use kelp::experiments::ablation;
use kelp::report::Table;

fn main() {
    let args = kelp_bench::checked_args(&["--quick", "--no-cache"], &["--jobs"]);
    let config = kelp_bench::config_from(&args);
    let runner = kelp_bench::runner_from(&args);
    let rows = ablation::backfill_ablation_with(&runner, &config);
    let mut t = Table::new(
        "Ablation — backfilling (KP) vs subdomains only (KP-SD), CNN1 host",
        &[
            "CPU workload",
            "KP-SD ML",
            "KP ML",
            "KP-SD CPU",
            "KP CPU",
            "CPU recovered",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.cpu.clone(),
            Table::num(r.sd_ml),
            Table::num(r.kp_ml),
            format!("{:.3e}", r.sd_cpu),
            format!("{:.3e}", r.kp_cpu),
            format!("{:+.1}%", r.cpu_recovered() * 100.0),
        ]);
    }
    t.print();
}
