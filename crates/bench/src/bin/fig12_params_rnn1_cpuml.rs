//! Figure 12: runtime actuator parameters for RNN1 + CPUML.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::mix::figure10_with(&runner, &config);
    r.actuator_table().print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig12_params_rnn1_cpuml", &r);
}
