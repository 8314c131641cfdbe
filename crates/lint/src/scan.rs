//! Workspace discovery and per-file lint-context classification.

use crate::rules::FileCtx;
use std::path::{Path, PathBuf};

/// Library crates whose public surface must stay panic-free (KL-P01/P02)
/// and print-free (KL-H02): PR 2's `catch_unwind` containment is a last
/// resort, not a control-flow mechanism.
const PANIC_SCOPE_CRATES: [&str; 5] = ["core", "mem", "host", "simcore", "workloads"];

/// Vendored shim crates: audited separately, `#![deny(unsafe_code)]`
/// accepted at the root where `forbid` is infeasible.
const SHIM_CRATES: [&str; 3] = ["serde", "serde_derive", "serde_json"];

/// Directories scanned relative to the workspace root.
const SCAN_ROOTS: [&str; 3] = ["crates", "src", "examples"];

/// Classifies one workspace-relative path (forward slashes). Returns `None`
/// for files the workspace lint skips: non-Rust files, generated output,
/// integration tests and benches (covered by `#[cfg(test)]` semantics and
/// free to use unwrap), and the lint crate's own fixture corpus.
pub fn classify(rel: &str) -> Option<FileCtx> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.iter().any(|p| *p == "target" || *p == "fixtures") {
        return None;
    }
    // `tests/` and `benches/` are integration-test roots only at the
    // workspace top level or directly under a crate; a `src/tests.rs`
    // module (or any `tests` directory inside `src/`) is real code and
    // must be scanned.
    match parts.as_slice() {
        ["tests", ..] | ["benches", ..] => return None,
        ["crates", _, dir, ..] if *dir == "tests" || *dir == "benches" => return None,
        _ => {}
    }

    let mut ctx = FileCtx {
        path: rel.to_string(),
        ..FileCtx::default()
    };
    if let ["crates", krate, "src", rest @ ..] = parts.as_slice() {
        ctx.panic_scope = PANIC_SCOPE_CRATES.contains(krate);
        ctx.allow_deny_unsafe = SHIM_CRATES.contains(krate);
        ctx.crate_root = matches!(rest, ["lib.rs"] | ["main.rs"]);
    } else if rel == "src/lib.rs" || rel == "src/main.rs" {
        ctx.crate_root = true;
    }
    Some(ctx)
}

/// Recursively collects every classifiable `.rs` file under the workspace
/// root, in sorted (deterministic) order, as workspace-relative paths.
pub fn workspace_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    for scan_root in SCAN_ROOTS {
        walk(&root.join(scan_root), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out);
        } else if let Ok(rel) = path.strip_prefix(root) {
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if classify(&rel).is_some() {
                out.push((rel, path));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let core = classify("crates/core/src/runner.rs").expect("scanned");
        assert!(core.panic_scope);
        assert!(!core.crate_root);

        let root = classify("crates/mem/src/lib.rs").expect("scanned");
        assert!(root.crate_root && root.panic_scope && !root.allow_deny_unsafe);

        let shim = classify("crates/serde/src/lib.rs").expect("scanned");
        assert!(shim.crate_root && shim.allow_deny_unsafe && !shim.panic_scope);

        let bin = classify("crates/bench/src/bin/repro_all.rs").expect("scanned");
        assert!(!bin.panic_scope);

        let driver = classify("crates/core/src/driver.rs").expect("scanned");
        assert!(driver.panic_scope);

        let hot = classify("crates/bench/src/bin/ext_solver_hot.rs").expect("scanned");
        assert!(!hot.panic_scope);

        assert!(classify("tests/proptests.rs").is_none());
        assert!(classify("crates/bench/benches/bench_figures.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/bad.rs").is_none());
        assert!(classify("results/fig02.json").is_none());
        assert!(classify("src/lib.rs").is_some_and(|c| c.crate_root));

        // `tests` as a *module* inside src/ is real code and is scanned;
        // only top-level and crate-level `tests/` roots are skipped.
        let module = classify("crates/core/src/tests.rs").expect("scanned");
        assert!(module.panic_scope && !module.crate_root);
        assert!(classify("crates/core/src/policy/tests/mod.rs").is_some());
        assert!(classify("src/tests.rs").is_some());
        assert!(classify("crates/core/tests/integration.rs").is_none());
    }

    /// Allowlist drift guard: every path/crate the scanner special-cases
    /// must exist on disk, so a rename breaks the build instead of silently
    /// allowlisting nothing.
    #[test]
    fn allowlist_entries_resolve_on_disk() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        for krate in PANIC_SCOPE_CRATES {
            assert!(
                root.join("crates").join(krate).join("Cargo.toml").is_file(),
                "PANIC_SCOPE_CRATES entry `{krate}` is not a crate; update scan.rs"
            );
        }
        for krate in SHIM_CRATES {
            assert!(
                root.join("crates").join(krate).join("Cargo.toml").is_file(),
                "SHIM_CRATES entry `{krate}` is not a crate; update scan.rs"
            );
        }
    }
}
