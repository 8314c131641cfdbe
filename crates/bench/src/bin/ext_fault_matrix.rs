//! Extension: the fault matrix — every fault class at two intensities
//! against Kelp as shipped (KP) and the hardened controller (KP-H).
//!
//! Prints the scorecard-style matrix with per-cell band verdicts and a
//! hardened acceptance summary, then writes `results/ext_fault_matrix.json`.
//! Exits nonzero when any run produced an error record (a caught panic or a
//! rejected spec — neither should happen in this grid) or when `--strict`
//! is given and the hardened controller leaves its acceptance bands.

use kelp::experiments::faults::{self, MAX_REVERSALS_PER_10, ML_SLOWDOWN_BAND};
use kelp::policy::PolicyKind;

fn main() {
    let config = kelp_bench::config_from_args();
    let runner = kelp_bench::runner_from_args();
    let strict = std::env::args().any(|a| a == "--strict");

    let matrix = faults::run_fault_matrix_with(&runner, &config);
    matrix.table().print();

    for reference in &matrix.references {
        println!(
            "{:<6} fault-free: ML {:.2}  CPU {:.3e}  rev/10 {:.2}",
            reference.policy,
            reference.ml_throughput,
            reference.cpu_throughput,
            reference.reversals_per_10
        );
    }
    let hardened = PolicyKind::KelpHardened.label();
    let shipped = PolicyKind::Kelp.label();
    println!(
        "\nacceptance bands: ML ratio >= {:.3} (slowdown within {ML_SLOWDOWN_BAND}x), reversals <= {MAX_REVERSALS_PER_10}/10 periods",
        1.0 / ML_SLOWDOWN_BAND
    );
    for policy in [shipped, hardened] {
        println!(
            "{policy:<6} worst ML ratio {:.3}  worst rev/10 {:.2}",
            matrix.worst_ml_ratio(policy),
            matrix.worst_reversals(policy)
        );
    }
    let in_band = matrix.hardened_in_band();
    println!(
        "hardened controller {} the acceptance bands",
        if in_band { "satisfies" } else { "LEAVES" }
    );

    kelp_bench::save_json(kelp_bench::results_dir(), "ext_fault_matrix", &matrix);

    let errors = matrix.errors();
    for (cell, message) in &errors {
        eprintln!("error in {cell}: {message}");
    }
    if !errors.is_empty() {
        std::process::exit(1);
    }
    if strict && !in_band {
        std::process::exit(3);
    }
}
