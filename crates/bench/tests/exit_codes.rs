//! Exit codes of the generator binaries at their failure edges: a results
//! write that fails exits 1 and names the file, and a malformed or
//! out-of-range flag value or an unknown flag exits 2 instead of falling
//! back to the default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test path under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kelp-exit-codes-{}-{name}", std::process::id()))
}

/// Runs `bin` with its results redirected to `results_dir`, so a run that
/// should have been refused cannot overwrite the committed `results/`.
fn run(bin: &str, args: &[&str], results_dir: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .env("KELP_RESULTS_DIR", results_dir)
        .output()
        .expect("the binary starts")
}

#[test]
fn failed_results_write_exits_1_naming_the_path() {
    // A results directory under a regular file cannot be created.
    let blocker = scratch("blocker");
    std::fs::write(&blocker, b"not a directory").expect("temp file is writable");
    let results = blocker.join("results");
    let out = run(
        env!("CARGO_BIN_EXE_ext_fleet_faults"),
        &["--quick"],
        &results,
    );
    std::fs::remove_file(&blocker).expect("temp file is removable");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = results.join("bench_fleet_faults.json");
    assert!(
        stderr.contains(&expected.display().to_string()),
        "stderr does not name {}: {stderr}",
        expected.display()
    );
}

#[test]
fn malformed_flag_values_exit_2() {
    let faults = env!("CARGO_BIN_EXE_ext_fleet_faults");
    let batch = env!("CARGO_BIN_EXE_ext_fleet_batch");
    let results = scratch("unused");
    let cases: [(&str, &str, &str); 12] = [
        (faults, "--machines", "nope"),
        (faults, "--machines", "0"),
        (faults, "--ticks", "2x"),
        (faults, "--ticks", "0"),
        (faults, "--jobs", "nope"),
        (faults, "--jobs", "0"),
        (batch, "--ticks", "-1"),
        (batch, "--ticks", "0"),
        (batch, "--churn", "lots"),
        (batch, "--churn", ""),
        (batch, "--churn", "7"),
        (batch, "--churn", "NaN"),
    ];
    for (bin, flag, value) in cases {
        let out = run(bin, &["--quick", flag, value], &results);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {flag} {value:?}: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{bin} {flag} {value:?}: {stderr}");
    }
    // A missing value is malformed too.
    for (bin, flag) in [(faults, "--ticks"), (batch, "--churn")] {
        let out = run(bin, &["--quick", flag], &results);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {out:?}");
    }
    // A mistyped flag is named, not ignored: `--quik` alone would otherwise
    // run at full scale. `kelp_sim` has a parser of its own.
    for bin in [
        env!("CARGO_BIN_EXE_repro_all"),
        env!("CARGO_BIN_EXE_ext_solver_hot"),
        faults,
        batch,
    ] {
        let out = run(bin, &["--quik"], &results);
        assert_eq!(out.status.code(), Some(2), "{bin} --quik: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--quik"), "{bin} --quik: {stderr}");
    }
    // Every binary that takes `--jobs` refuses a malformed value.
    for bin in [env!("CARGO_BIN_EXE_repro_all"), faults] {
        let out = run(bin, &["--quick", "--jobs", "nope"], &results);
        assert_eq!(out.status.code(), Some(2), "{bin} --jobs nope: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs"), "{bin} --jobs nope: {stderr}");
    }
    assert!(!results.exists(), "a refused run wrote results");
}
