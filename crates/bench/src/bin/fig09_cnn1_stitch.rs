//! Figure 9: CNN1 + Stitch memory-pressure sweep.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::mix::figure9_with(&runner, &config);
    r.ml_table().print();
    r.cpu_table().print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig09_cnn1_stitch", &r);
}
