//! The §III-A RNN1 throughput-latency sweep (the paper's omitted plot).

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::knee::default_sweep_with(&runner, &config);
    r.table().print();
    println!(
        "knee (tail <= 3x light-load tail): {:.0} QPS; calibrated target: {:.0} QPS",
        r.knee_qps(3.0),
        r.target_qps
    );
    kelp_bench::save_json(kelp_bench::results_dir(), "knee_sweep", &r);
}
