//! Figure 3: RNN1 execution timeline, standalone vs colocated.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::timeline::figure3_with(&runner, &config);
    r.table().print();
    println!(
        "CPU phase expansion: {:.0}% (paper: +51%); tail expansion: {:.0}% (paper: +70%)",
        (r.cpu_expansion() - 1.0) * 100.0,
        (r.tail_expansion - 1.0) * 100.0
    );
    println!("\nStandalone window (first events):");
    for e in r.standalone_window.iter().take(12) {
        println!("  {:>8} {} -> {}", e.kind, e.start, e.end);
    }
    println!("Colocated window (first events):");
    for e in r.colocated_window.iter().take(12) {
        println!("  {:>8} {} -> {}", e.kind, e.start, e.end);
    }
    kelp_bench::save_json(kelp_bench::results_dir(), "fig03_timeline", &r);
    // Perfetto-compatible timeline of the two windows (open in
    // https://ui.perfetto.dev or chrome://tracing).
    let standalone = kelp_simcore::trace::PhaseTrace::from_events(r.standalone_window.clone());
    let colocated = kelp_simcore::trace::PhaseTrace::from_events(r.colocated_window.clone());
    let chrome = kelp_simcore::trace::to_chrome_trace(&[
        ("standalone", &standalone),
        ("colocated", &colocated),
    ]);
    let dir = kelp_bench::results_dir();
    let path = dir.join("fig03_trace.json");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome));
    kelp_bench::exit_unless_written(&path, written);
    println!("\nPerfetto timeline written to {}", path.display());
}
