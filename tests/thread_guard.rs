//! Two guards over the workspace's sources, both keeping one mechanism
//! where there were two.
//!
//! `Runner`'s persistent pool is the workspace's one parallel mechanism:
//! no Rust file opens a `thread::scope` region, only
//! `crates/core/src/runner.rs` calls `thread::spawn`, and the pool's `Drop`
//! still joins its workers.
//!
//! `RunSpec` is the one way library and binary code runs an experiment:
//! outside `runner.rs` (where `RunSpec::build` lives), no crate source calls
//! `Experiment::builder` except in its `#[cfg(test)]` modules and comments.
//! Integration tests and `examples/` may still build experiments by hand.
//!
//! The pool's behaviour is tested elsewhere: pool ≡ serial bit identity,
//! error records included, in `tests/engine_hot.rs`, and clones of one
//! `Runner` driven from two threads in `runner.rs`'s unit tests.

use std::path::{Path, PathBuf};

const RUNNER: &str = "crates/core/src/runner.rs";

/// This file names the patterns it searches for, so the walk skips it.
const SELF: &str = "tests/thread_guard.rs";

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every Rust file under the repo's `dirs` except this one, as (path
/// relative to the repo, contents).
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files);
    }
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
            (
                rel.replace('\\', "/"),
                std::fs::read_to_string(path).unwrap_or_default(),
            )
        })
        .filter(|(rel, _)| rel != SELF)
        .collect()
}

/// The `impl Drop for WorkerPool` block, up to the first closing brace at
/// column 0 (the file is rustfmt-formatted).
fn worker_pool_drop_impl(src: &str) -> Option<&str> {
    let block = &src[src.find("impl Drop for WorkerPool")?..];
    Some(&block[..block.find("\n}\n")?])
}

#[test]
fn runner_pool_is_the_only_thread_code() {
    let files = sources(&["crates", "src", "tests", "examples"]);
    assert!(
        files.len() > 50,
        "workspace walk found only {} files",
        files.len()
    );

    let mut offenders = Vec::new();
    let mut runner_src = None;
    for (rel, src) in files {
        if src.contains("thread::scope") {
            offenders.push(format!("{rel}: thread::scope"));
        }
        if rel == RUNNER {
            runner_src = Some(src);
        } else if src.contains("thread::spawn") {
            offenders.push(format!("{rel}: thread::spawn"));
        }
    }
    assert!(
        offenders.is_empty(),
        "thread code outside {RUNNER}: {offenders:?}"
    );

    let runner_src = runner_src.unwrap_or_else(|| panic!("{RUNNER} not found"));
    assert!(
        runner_src.contains("thread::spawn"),
        "{RUNNER} no longer spawns its pool"
    );
    let drop_impl = worker_pool_drop_impl(&runner_src)
        .unwrap_or_else(|| panic!("{RUNNER} has no `impl Drop for WorkerPool` block"));
    assert!(
        drop_impl.contains(".join()"),
        "`Drop for WorkerPool` no longer joins its workers: {drop_impl}"
    );
}

/// The code lines of a rustfmt-formatted crate source: comment lines are
/// dropped, and so is its unit-test module, which closes the file.
fn non_test_code(src: &str) -> impl Iterator<Item = &str> {
    let code = src
        .split("#[cfg(test)]\nmod tests {")
        .next()
        .unwrap_or_default();
    code.lines().filter(|l| !l.trim_start().starts_with("//"))
}

#[test]
fn run_spec_is_the_only_way_to_run_an_experiment() {
    let mut offenders = Vec::new();
    let mut runner_builds = false;
    for (rel, src) in sources(&["crates"]) {
        if !rel.contains("/src/") {
            continue;
        }
        let calls = non_test_code(&src).any(|l| l.contains("Experiment::builder"));
        if rel == RUNNER {
            runner_builds = calls;
        } else if calls {
            offenders.push(rel);
        }
    }
    assert!(runner_builds, "{RUNNER} no longer builds experiments");
    assert!(
        offenders.is_empty(),
        "experiments built outside RunSpec::build: {offenders:?}"
    );
}
