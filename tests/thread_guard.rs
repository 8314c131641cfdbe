//! `Runner`'s persistent pool is the workspace's one parallel mechanism.
//! This guard keeps it that way: no Rust file opens a `thread::scope`
//! region, only `crates/core/src/runner.rs` calls `thread::spawn`, and the
//! pool's `Drop` still joins its workers.
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

/// The `impl Drop for WorkerPool` block, up to the first closing brace at
/// column 0 (the file is rustfmt-formatted).
fn worker_pool_drop_impl(src: &str) -> Option<&str> {
    let block = &src[src.find("impl Drop for WorkerPool")?..];
    Some(&block[..block.find("\n}\n")?])
}

#[test]
fn runner_pool_is_the_only_thread_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 50,
        "workspace walk found only {} files",
        files.len()
    );

    let mut offenders = Vec::new();
    let mut runner_src = None;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel == SELF {
            continue;
        }
        let src = std::fs::read_to_string(path).unwrap_or_default();
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
