//! Figure 16: Cloud TPU platform remote-memory sweep.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::remote::figure16_with(&runner, &config);
    for w in ["CNN1", "CNN2"] {
        if let Some(t) = r.table(w) {
            t.print();
        }
    }
    kelp_bench::save_json(kelp_bench::results_dir(), "fig16_remote_sweep", &r);
}
