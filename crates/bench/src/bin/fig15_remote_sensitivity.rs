//! Figure 15: sensitivity including the Remote DRAM aggressor.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let r = kelp::experiments::sensitivity::figure15_with(&runner, &config);
    r.table("Figure 15 — sensitivity incl. remote memory interference (normalized perf)")
        .print();
    kelp_bench::save_json(kelp_bench::results_dir(), "fig15_remote_sensitivity", &r);
}
