//! Figure 7: backpressure management by prefetcher toggling.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::backpressure::figure7_with(&runner, &config);
    for w in ["RNN1", "CNN1", "CNN2"] {
        if let Some(t) = r.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(kelp_bench::results_dir(), "fig07_backpressure", &r);
}
