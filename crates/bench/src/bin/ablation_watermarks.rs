//! Ablation: sensitivity of Kelp to the saturation watermark — the signal
//! prior-work controllers did not have.

use kelp::experiments::ablation;

fn main() {
    let args = kelp_bench::checked_args(&["--quick", "--no-cache"], &["--jobs"]);
    let config = kelp_bench::config_from(&args);
    let runner = kelp_bench::runner_from(&args);
    let points = ablation::saturation_watermark_sweep_with(
        &runner,
        &[0.02, 0.05, 0.15, 0.4, f64::MAX],
        &config,
    );
    ablation::watermark_table(&points).print();
}
