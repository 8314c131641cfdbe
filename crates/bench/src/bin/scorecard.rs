//! Programmatic reproduction scorecard: every headline claim vs its band.

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let s = kelp::experiments::scorecard::run_scorecard_with(&runner, &config);
    s.table().print();
    kelp_bench::save_json(kelp_bench::results_dir(), "scorecard", &s);
    if s.passed() < s.claims.len() {
        println!("note: WARN rows are outside their band; see EXPERIMENTS.md for discussion");
    }
}
