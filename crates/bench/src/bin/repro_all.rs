//! Reproduces every table and figure in one run, with the ablations and
//! the extension studies, and writes every `results/` file computed from
//! experiment runs; the three `bench_*` files come from their own
//! macro-benchmarks.
//!
//! Every harness enumerates its grid as [`kelp::runner::RunSpec`]s and runs
//! them through one [`kelp::runner::Runner`], so `--jobs N` parallelizes
//! within each figure and `results/cache/` memoizes completed specs across
//! invocations (`--no-cache` bypasses it). The sweeps in Figures 9-14 are
//! computed once and shared between the figures that consume them.
//!
//! Exits 1 when a fault-matrix run produced an error record (a caught panic
//! or a rejected spec; neither should happen in this grid) and, with
//! `--strict`, 3 when the hardened controller (KP-H) leaves its fault
//! acceptance bands. Both checks run after every file is written.

use kelp::experiments::ablation::{self, Ablations};
use kelp::experiments::cluster::{self, ClusterConfig};
use kelp::experiments::extensions::Study;
use kelp::experiments::faults::{self, MAX_REVERSALS_PER_10, ML_SLOWDOWN_BAND};
use kelp::experiments::{
    backpressure, fleet, knee, mix, overall, remote, scorecard, sensitivity, table1, timeline,
};
use kelp::policy::PolicyKind;
use kelp::report::BarChart;
use kelp_simcore::trace::{to_chrome_trace, PhaseTrace};

fn main() {
    let args = kelp_bench::checked_args(&["--quick", "--no-cache", "--strict"], &["--jobs"]);
    let config = kelp_bench::config_from(&args);
    let runner = kelp_bench::runner_from(&args);
    let strict = args.iter().any(|a| a == "--strict");
    let dir = kelp_bench::results_dir();

    println!("=== Table I ===");
    table1::table1().print();

    println!("=== Figure 2 ===");
    let fig2 = fleet::figure2(fleet::FIGURE2_SEED);
    fig2.table().print();
    println!(
        "fraction above 70% peak: {:.3} (paper ~0.16)\n",
        fig2.fraction_above_70pct
    );
    kelp_bench::save_json(&dir, "fig02_fleet_bw", &fig2);

    println!("=== Figure 3 ===");
    let fig3 = timeline::figure3_with(&runner, &config);
    fig3.table().print();
    println!(
        "CPU phase expansion: {:.0}% (paper: +51%); tail expansion: {:.0}% (paper: +70%)",
        (fig3.cpu_expansion() - 1.0) * 100.0,
        (fig3.tail_expansion - 1.0) * 100.0
    );
    for (name, window) in [
        ("Standalone", &fig3.standalone_window),
        ("Colocated", &fig3.colocated_window),
    ] {
        println!("{name} window (first events):");
        for e in window.iter().take(12) {
            println!("  {:>8} {} -> {}", e.kind, e.start, e.end);
        }
    }
    kelp_bench::save_json(&dir, "fig03_timeline", &fig3);
    // Perfetto-compatible timeline of the two windows (open in
    // https://ui.perfetto.dev or chrome://tracing).
    let standalone = PhaseTrace::from_events(fig3.standalone_window.clone());
    let colocated = PhaseTrace::from_events(fig3.colocated_window.clone());
    let chrome = to_chrome_trace(&[("standalone", &standalone), ("colocated", &colocated)]);
    let path = dir.join("fig03_trace.json");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome));
    kelp_bench::exit_unless_written(&path, written);
    println!("Perfetto timeline written to {}\n", path.display());

    println!("=== Figure 5 ===");
    let fig5 = sensitivity::figure5_with(&runner, &config);
    fig5.table("Figure 5").print();
    println!(
        "Averages: LLC {:.3} (paper ~0.86), DRAM {:.3} (paper ~0.60)\n",
        fig5.average_for("LLC").unwrap_or(0.0),
        fig5.average_for("DRAM").unwrap_or(0.0)
    );
    let mut chart = BarChart::new("normalized performance (1.0 = standalone)").with_max(1.0);
    for row in &fig5.rows {
        let bars = fig5
            .aggressors
            .iter()
            .zip(&row.normalized_perf)
            .map(|(a, &v)| (a.clone(), v))
            .collect();
        chart.group(row.workload.clone(), bars);
    }
    chart.print();
    kelp_bench::save_json(&dir, "fig05_sensitivity", &fig5);
    kelp_bench::save_csv(&dir, "fig05_sensitivity", &fig5.table("Figure 5"));

    println!("=== Figure 7 ===");
    let fig7 = backpressure::figure7_with(&runner, &config);
    for w in ["RNN1", "CNN1", "CNN2"] {
        if let Some(t) = fig7.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(&dir, "fig07_backpressure", &fig7);

    println!("=== Figures 9 & 11 ===");
    let fig9 = mix::figure9_with(&runner, &config);
    fig9.ml_table().print();
    fig9.cpu_table().print();
    fig9.actuator_table().print();
    kelp_bench::save_json(&dir, "fig09_cnn1_stitch", &fig9);
    kelp_bench::save_json(&dir, "fig11_params_cnn1_stitch", &fig9);

    println!("=== Figures 10 & 12 ===");
    let fig10 = mix::figure10_with(&runner, &config);
    fig10.ml_table().print();
    fig10.tail_table().print();
    fig10.cpu_table().print();
    fig10.actuator_table().print();
    kelp_bench::save_json(&dir, "fig10_rnn1_cpuml", &fig10);
    kelp_bench::save_json(&dir, "fig12_params_rnn1_cpuml", &fig10);

    println!("=== Figures 13 & 14 ===");
    let overall = overall::run_overall_with(&runner, &config);
    overall.figure13_table().print();
    overall.figure14_table().print();
    for p in PolicyKind::paper_set() {
        println!(
            "{:<6} avg ML slowdown {:.3}  avg CPU throughput (hmean, vs BL) {:.3}",
            p.label(),
            overall.avg_ml_slowdown(p),
            overall.avg_cpu_norm(p)
        );
    }
    let mut chart = BarChart::new("\naverage ML slowdown (left) / CPU throughput vs BL (right)");
    chart.group(
        "ML slowdown",
        PolicyKind::paper_set()
            .iter()
            .map(|&p| (p.label().to_string(), overall.avg_ml_slowdown(p)))
            .collect(),
    );
    chart.group(
        "CPU throughput",
        PolicyKind::paper_set()
            .iter()
            .map(|&p| (p.label().to_string(), overall.avg_cpu_norm(p)))
            .collect(),
    );
    chart.print();
    println!(
        "efficiency: CT {:.3} KP-SD {:.3} KP {:.3} (paper: KP +17% vs CT, +37% vs KP-SD)\n",
        overall.avg_efficiency(PolicyKind::CoreThrottle),
        overall.avg_efficiency(PolicyKind::KelpSubdomain),
        overall.avg_efficiency(PolicyKind::Kelp)
    );
    kelp_bench::save_json(&dir, "fig13_overall", &overall);
    kelp_bench::save_csv(&dir, "fig13_overall", &overall.figure13_table());
    kelp_bench::save_csv(&dir, "fig14_efficiency", &overall.figure14_table());

    println!("=== Knee sweep (the paper's omitted SIII-A plot) ===");
    let knee = knee::default_sweep_with(&runner, &config);
    knee.table().print();
    println!(
        "knee (tail <= 3x light-load tail): {:.0} QPS; calibrated target: {:.0} QPS\n",
        knee.knee_qps(3.0),
        knee.target_qps
    );
    kelp_bench::save_json(&dir, "knee_sweep", &knee);

    println!("=== Figure 15 ===");
    let fig15 = sensitivity::figure15_with(&runner, &config);
    fig15.table("Figure 15").print();
    kelp_bench::save_json(&dir, "fig15_remote_sensitivity", &fig15);

    println!("=== Figure 16 ===");
    let fig16 = remote::figure16_with(&runner, &config);
    for w in ["CNN1", "CNN2"] {
        if let Some(t) = fig16.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(&dir, "fig16_remote_sweep", &fig16);

    println!("=== Fault matrix (extension) ===");
    let fault_matrix = faults::run_fault_matrix_with(&runner, &config);
    fault_matrix.table().print();
    for reference in &fault_matrix.references {
        println!(
            "{:<6} fault-free: ML {:.2}  CPU {:.3e}  rev/10 {:.2}",
            reference.policy,
            reference.ml_throughput,
            reference.cpu_throughput,
            reference.reversals_per_10
        );
    }
    println!(
        "\nacceptance bands: ML ratio >= {:.3} (slowdown within {ML_SLOWDOWN_BAND}x), reversals <= {MAX_REVERSALS_PER_10}/10 periods",
        1.0 / ML_SLOWDOWN_BAND
    );
    for policy in [PolicyKind::Kelp, PolicyKind::KelpHardened] {
        println!(
            "{:<6} worst ML ratio {:.3}  worst rev/10 {:.2}",
            policy.label(),
            fault_matrix.worst_ml_ratio(policy.label()),
            fault_matrix.worst_reversals(policy.label())
        );
    }
    let hardened_in_band = fault_matrix.hardened_in_band();
    println!(
        "hardened controller {} the acceptance bands\n",
        if hardened_in_band {
            "satisfies"
        } else {
            "LEAVES"
        }
    );
    let errors = fault_matrix.errors();
    for (cell, message) in &errors {
        eprintln!("fault-matrix error in {cell}: {message}");
    }
    kelp_bench::save_json(&dir, "ext_fault_matrix", &fault_matrix);

    println!("=== Tail amplification (SII-D extension) ===");
    let tail = cluster::tail_amplification_with(
        &runner,
        &[PolicyKind::Baseline, PolicyKind::Kelp],
        &ClusterConfig::default(),
        &config,
    );
    tail.table().print();
    for s in &tail.series {
        println!(
            "{:<5} single-node slowdown when contended: {:.3}",
            s.policy, s.node_slowdown
        );
    }
    println!();
    kelp_bench::save_json(&dir, "ext_tail_amplification", &tail);

    println!("=== Ablations ===");
    let ablations = Ablations {
        sampling: ablation::sampling_sweep_with(&runner, &config),
        backfill: ablation::backfill_ablation_with(&runner, &config),
        watermarks: ablation::saturation_watermark_sweep_with(&runner, &config),
    };
    ablation::backfill_table(&ablations.backfill).print();
    ablation::sampling_table(&ablations.sampling).print();
    println!(
        "spread of ML outcome across periods: {:.1}% (paper: insensitive)",
        ablation::sampling_spread(&ablations.sampling) * 100.0
    );
    ablation::watermark_table(&ablations.watermarks).print();
    kelp_bench::save_json(&dir, "ablations", &ablations);

    println!("=== Hardware proposals (SVI-B, SVI-C, SVI-D) ===");
    let proposals: Vec<_> = Study::HW_PROPOSALS
        .iter()
        .map(|study| study.run_with(&runner, &config))
        .collect();
    for study in &proposals {
        study.table().print();
    }
    kelp_bench::save_json(&dir, "ext_hw_proposals", &proposals);

    println!("=== Channel partitioning vs SNC (SIV-A) ===");
    let partition = Study::ChannelPartition.run_with(&runner, &config);
    partition.table().print();
    kelp_bench::save_json(&dir, "ext_channel_partition", &partition);

    println!("=== Scorecard ===");
    let card = scorecard::run_scorecard_with(&runner, &config);
    card.table().print();
    if card.passed() < card.claims.len() {
        println!("note: WARN rows are outside their band; see EXPERIMENTS.md for discussion");
    }
    kelp_bench::save_json(&dir, "scorecard", &card);

    println!("All results written to {}/", dir.display());
    if !errors.is_empty() {
        std::process::exit(1);
    }
    if strict && !hardened_in_band {
        std::process::exit(3);
    }
}
