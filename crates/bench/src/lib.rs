//! # kelp-bench
//!
//! Shared plumbing for the reproduction binaries. `repro_all` regenerates
//! every table and figure of the paper's evaluation and writes every
//! `results/` file computed from experiment runs:
//!
//! ```text
//! cargo run --release -p kelp-bench --bin repro_all
//! cargo run --release -p kelp-bench --bin repro_all -- --quick --jobs 2
//! ```
//!
//! The `ext_solver_hot`, `ext_fleet_batch` and `ext_fleet_faults`
//! macro-benchmarks write the three `results/bench_*.json` files, and
//! `kelp_sim` runs one experiment from the command line.

#![warn(missing_docs)]

pub mod cli;

use kelp::driver::ExperimentConfig;
use kelp::report::Table;
use serde::Serialize;
use std::path::Path;

/// The command line, checked against a binary's known flags: each of
/// `switches` stands alone and each of `valued` takes a value. An unknown
/// flag exits 2 naming it ([`cli::check_flags`]).
pub fn checked_args(switches: &[&str], valued: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    exit_on_usage_error(cli::check_flags(&args, switches, valued));
    args
}

/// The experiment configuration an argument vector selects: `--quick`
/// selects the fast test configuration, and its absence the default one.
pub fn config_from(args: &[String]) -> ExperimentConfig {
    if args.iter().any(|a| a == "--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    }
}

/// Directory where the binaries drop their results.
/// `KELP_RESULTS_DIR` overrides the default `results/` so smoke runs and
/// the tier-1 regenerate-and-diff step can write somewhere disposable
/// instead of clobbering the checked-in default-config artifacts.
#[expect(
    clippy::disallowed_methods,
    reason = "KELP_RESULTS_DIR only redirects output paths; file contents are unaffected"
)]
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("KELP_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Unwraps a parsed flag. On a usage error (a missing or malformed value)
/// it prints the error to stderr and exits 2.
pub fn exit_on_usage_error<T>(parsed: Result<T, cli::CliError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Writes `value` as `<dir>/<name>.json`; a failed write exits 1
/// ([`exit_unless_written`]).
pub fn save_json<T: Serialize>(dir: impl AsRef<Path>, name: &str, value: &T) {
    let dir = dir.as_ref();
    let written = kelp::report::write_json(dir, name, value);
    exit_unless_written(&dir.join(format!("{name}.json")), written);
}

/// Writes `table` as `<dir>/<name>.csv`; a failed write exits 1
/// ([`exit_unless_written`]).
pub fn save_csv(dir: impl AsRef<Path>, name: &str, table: &Table) {
    let dir = dir.as_ref();
    let written = kelp::report::write_csv(dir, name, table);
    exit_unless_written(&dir.join(format!("{name}.csv")), written);
}

/// Unwraps the result of writing the results file `path`. On failure it
/// prints the path and the error to stderr and exits 1, so a run that
/// wrote nothing never exits 0.
pub fn exit_unless_written<T>(path: &Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1)
    })
}

/// Directory of the content-addressed run cache (`results/cache/`).
pub fn cache_dir() -> std::path::PathBuf {
    results_dir().join("cache")
}

/// Builds the run engine an argument vector selects: `--jobs N` selects
/// the worker-pool width (default serial; a bad value exits 2) and
/// `--no-cache` disables the content-addressed result cache under
/// [`cache_dir`].
pub fn runner_from(args: &[String]) -> kelp::runner::Runner {
    let jobs = exit_on_usage_error(cli::parse_jobs(args));
    let runner = kelp::runner::Runner::new(jobs);
    if args.iter().any(|a| a == "--no-cache") {
        runner
    } else {
        runner.with_cache(cache_dir())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(extra: &[&str]) -> Vec<String> {
        std::iter::once("bin".to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn quick_flag_selects_quick_config() {
        assert_eq!(config_from(&argv(&["--quick"])), ExperimentConfig::quick());
    }

    #[test]
    fn default_is_full_config() {
        assert_eq!(config_from(&argv(&[])), ExperimentConfig::default());
    }
}
