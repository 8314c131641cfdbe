//! Figure 2: fleet 99%-ile memory-bandwidth CCDF.

fn main() {
    let fig = kelp::experiments::fleet::figure2(2019);
    fig.table().print();
    println!(
        "Headline: {:.1}% of machines exceed 70% of peak BW (paper: ~16%)",
        fig.fraction_above_70pct * 100.0
    );
    kelp_bench::save_json(kelp_bench::results_dir(), "fig02_fleet_bw", &fig);
}
