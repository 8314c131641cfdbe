//! `kelp_sim cache --prune` keeps every cache entry `repro_all` writes: its
//! keep-set (`kelp::experiments::repro_specs`) covers every spec the sweep
//! runs, the scorecard and the tail study included.

use std::path::Path;
use std::process::Command;

/// The number of cache entries under `<results>/cache/`.
fn entries(results: &Path) -> usize {
    std::fs::read_dir(results.join("cache"))
        .expect("repro_all filled the cache")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count()
}

#[test]
fn prune_keeps_every_entry_repro_all_writes() {
    let results = std::env::temp_dir().join(format!("kelp-cache-prune-{}", std::process::id()));
    let repro = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--quick", "--jobs", "2"])
        .env("KELP_RESULTS_DIR", &results)
        .output()
        .expect("repro_all starts");
    assert!(repro.status.success(), "{repro:?}");
    let before = entries(&results);

    let prune = Command::new(env!("CARGO_BIN_EXE_kelp_sim"))
        .args(["cache", "--prune"])
        .env("KELP_RESULTS_DIR", &results)
        .output()
        .expect("kelp_sim starts");
    let after = entries(&results);
    std::fs::remove_dir_all(&results).expect("temp dir is removable");

    assert!(prune.status.success(), "{prune:?}");
    let stdout = String::from_utf8_lossy(&prune.stdout);
    assert!(stdout.contains("pruned 0 entries"), "{stdout}");
    assert!(before > 0, "repro_all cached nothing");
    assert_eq!(after, before, "{stdout}");
}
