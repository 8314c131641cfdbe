//! Reproduces every table and figure in one run and writes `results/*.json`.
//!
//! Every harness enumerates its grid as [`kelp::runner::RunSpec`]s and runs
//! them through one [`kelp::runner::Runner`], so `--jobs N` parallelizes
//! within each figure and `results/cache/` memoizes completed specs across
//! invocations (`--no-cache` bypasses it). The sweeps in Figures 9-14 are
//! computed once and shared between the figures that consume them.

use kelp::policy::PolicyKind;
use std::time::Instant;

fn timed<T>(times: &mut Vec<(String, f64)>, name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    times.push((name.to_string(), start.elapsed().as_secs_f64()));
    value
}

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let dir = kelp_bench::results_dir();
    let started = Instant::now();
    let mut times: Vec<(String, f64)> = Vec::new();

    println!("=== Table I ===");
    kelp::experiments::table1::table1().print();

    println!("=== Figure 2 ===");
    let fig2 = timed(&mut times, "fig02_fleet_bw", || {
        kelp::experiments::fleet::figure2(2019)
    });
    fig2.table().print();
    println!(
        "fraction above 70% peak: {:.3} (paper ~0.16)\n",
        fig2.fraction_above_70pct
    );
    kelp_bench::save_json(&dir, "fig02_fleet_bw", &fig2);

    println!("=== Figure 3 ===");
    let fig3 = timed(&mut times, "fig03_timeline", || {
        kelp::experiments::timeline::figure3_with(&runner, &config)
    });
    fig3.table().print();
    kelp_bench::save_json(&dir, "fig03_timeline", &fig3);

    println!("=== Figure 5 ===");
    let fig5 = timed(&mut times, "fig05_sensitivity", || {
        kelp::experiments::sensitivity::figure5_with(&runner, &config)
    });
    fig5.table("Figure 5").print();
    kelp_bench::save_json(&dir, "fig05_sensitivity", &fig5);
    kelp_bench::save_csv(&dir, "fig05_sensitivity", &fig5.table("Figure 5"));

    println!("=== Figure 7 ===");
    let fig7 = timed(&mut times, "fig07_backpressure", || {
        kelp::experiments::backpressure::figure7_with(&runner, &config)
    });
    for w in ["RNN1", "CNN1", "CNN2"] {
        if let Some(t) = fig7.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(&dir, "fig07_backpressure", &fig7);

    println!("=== Figures 9 & 11 ===");
    let fig9 = timed(&mut times, "fig09_cnn1_stitch", || {
        kelp::experiments::mix::figure9_with(&runner, &config)
    });
    fig9.ml_table().print();
    fig9.cpu_table().print();
    fig9.actuator_table().print();
    kelp_bench::save_json(&dir, "fig09_cnn1_stitch", &fig9);
    kelp_bench::save_json(&dir, "fig11_params_cnn1_stitch", &fig9);

    println!("=== Figures 10 & 12 ===");
    let fig10 = timed(&mut times, "fig10_rnn1_cpuml", || {
        kelp::experiments::mix::figure10_with(&runner, &config)
    });
    fig10.ml_table().print();
    fig10.tail_table().print();
    fig10.cpu_table().print();
    fig10.actuator_table().print();
    kelp_bench::save_json(&dir, "fig10_rnn1_cpuml", &fig10);
    kelp_bench::save_json(&dir, "fig12_params_rnn1_cpuml", &fig10);

    println!("=== Figures 13 & 14 ===");
    let overall = timed(&mut times, "fig13_overall", || {
        kelp::experiments::overall::run_overall_with(&runner, &config)
    });
    overall.figure13_table().print();
    overall.figure14_table().print();
    for p in PolicyKind::paper_set() {
        println!(
            "{:<6} avg ML slowdown {:.3}  avg CPU throughput {:.3}",
            p.label(),
            overall.avg_ml_slowdown(p),
            overall.avg_cpu_norm(p)
        );
    }
    println!(
        "efficiency: CT {:.3} KP-SD {:.3} KP {:.3}\n",
        overall.avg_efficiency(PolicyKind::CoreThrottle),
        overall.avg_efficiency(PolicyKind::KelpSubdomain),
        overall.avg_efficiency(PolicyKind::Kelp)
    );
    kelp_bench::save_json(&dir, "fig13_overall", &overall);
    kelp_bench::save_csv(&dir, "fig13_overall", &overall.figure13_table());
    kelp_bench::save_csv(&dir, "fig14_efficiency", &overall.figure14_table());

    println!("=== Knee sweep (the paper's omitted SIII-A plot) ===");
    let knee = timed(&mut times, "knee_sweep", || {
        kelp::experiments::knee::default_sweep_with(&runner, &config)
    });
    knee.table().print();
    kelp_bench::save_json(&dir, "knee_sweep", &knee);

    println!("=== Figure 15 ===");
    let fig15 = timed(&mut times, "fig15_remote_sensitivity", || {
        kelp::experiments::sensitivity::figure15_with(&runner, &config)
    });
    fig15.table("Figure 15").print();
    kelp_bench::save_json(&dir, "fig15_remote_sensitivity", &fig15);

    println!("=== Figure 16 ===");
    let fig16 = timed(&mut times, "fig16_remote_sweep", || {
        kelp::experiments::remote::figure16_with(&runner, &config)
    });
    for w in ["CNN1", "CNN2"] {
        if let Some(t) = fig16.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(&dir, "fig16_remote_sweep", &fig16);

    println!("=== Fault matrix (extension) ===");
    let fault_matrix = timed(&mut times, "ext_fault_matrix", || {
        kelp::experiments::faults::run_fault_matrix_with(&runner, &config)
    });
    fault_matrix.table().print();
    for (cell, message) in fault_matrix.errors() {
        eprintln!("fault-matrix error in {cell}: {message}");
    }
    println!(
        "hardened controller {} the acceptance bands\n",
        if fault_matrix.hardened_in_band() {
            "satisfies"
        } else {
            "LEAVES"
        }
    );
    kelp_bench::save_json(&dir, "ext_fault_matrix", &fault_matrix);

    println!("=== Wall-clock (jobs = {}) ===", runner.jobs());
    for (name, secs) in &times {
        println!("{name:<28} {secs:>8.2} s");
    }
    println!("{:<28} {:>8.2} s", "total", started.elapsed().as_secs_f64());
    println!("All results written to {}/", dir.display());
}
