//! Figure 11: runtime actuator parameters for CNN1 + Stitch.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::mix::figure9_with(&runner, &config);
    r.actuator_table().print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig11_params_cnn1_stitch", &r);
}
