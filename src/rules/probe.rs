//! Lints small fixture crates with the workspace's own static gate.
//!
//! Each [`Case`] becomes a member crate of a scratch workspace that copies
//! the root manifest's `[workspace.lints]` tables and inherits them through
//! `[lints] workspace = true`, as every real member does. `CLIPPY_CONF_DIR`
//! points clippy at the repository's `clippy.toml`, and a case marked as a
//! library root gets the restriction header of `crates/mem/src/lib.rs`
//! prepended. The scratch workspace is then linted with the tier-1 command,
//! `cargo clippy --workspace --all-targets -- -D warnings`, so a change to
//! any of the three sources of configuration shows up here.

use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One fixture crate.
pub struct Case<'a> {
    /// Crate name: lowercase letters and underscores.
    pub name: &'a str,
    /// Lint the source as a library crate root that carries the
    /// restriction header (the panic and stdout lints). Without it the
    /// crate stands where `kelp-bench` and the root package stand.
    pub library_root: bool,
    /// The crate root's source.
    pub src: &'a str,
}

/// Lints every case in one clippy run and returns, per case in order, its
/// findings as `"<line>: <lint>"`, sorted by line and column. Lines count
/// in `src`, without the prepended header. A finding that both the library
/// build and the test build report is listed once.
pub fn lint(cases: &[Case]) -> Vec<Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch = Scratch::new();
    let members: Vec<String> = cases.iter().map(|c| format!("{:?}", c.name)).collect();
    write(
        &scratch.0.join("Cargo.toml"),
        &format!(
            "[workspace]\nmembers = [{}]\nresolver = \"2\"\n\n{}",
            members.join(", "),
            workspace_lints(&read(&root.join("Cargo.toml")))
        ),
    );
    let header = restriction_header(&read(&root.join("crates/mem/src/lib.rs")));
    for case in cases {
        let dir = scratch.0.join(case.name);
        write(
            &dir.join("Cargo.toml"),
            &format!(
                "[package]\nname = {:?}\nversion = \"0.0.0\"\nedition = \"2021\"\n\
                 publish = false\n\n[lints]\nworkspace = true\n",
                case.name
            ),
        );
        let src = if case.library_root {
            format!("{header}\n{}", case.src)
        } else {
            case.src.to_string()
        };
        write(&dir.join("src/lib.rs"), &src);
    }

    let out = Command::new("cargo")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .args(["--keep-going", "--message-format=json", "-j", "1"])
        .args(["--", "-D", "warnings"])
        .current_dir(&scratch.0)
        .env("CARGO_TARGET_DIR", scratch.0.join("target"))
        .env("CLIPPY_CONF_DIR", root)
        .output()
        .expect("cargo runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // (case index, line, column, lint); `linted` marks the cases clippy
    // reached, so a run that never linted a case cannot pass as clean.
    let mut found: BTreeSet<(usize, u32, u32, String)> = BTreeSet::new();
    let mut linted = vec![false; cases.len()];
    for line in stdout.lines() {
        let msg: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("cargo printed a line that is not JSON ({e:?}): {line}"));
        let Some(case) = field(&msg, "manifest_path")
            .and_then(text)
            .and_then(|p| Path::new(p).parent()?.file_name()?.to_str())
            .and_then(|name| cases.iter().position(|c| c.name == name))
        else {
            continue;
        };
        linted[case] = true;
        let Some(diag) = field(&msg, "message") else {
            continue;
        };
        let spans = field(diag, "spans").and_then(seq).unwrap_or_default();
        let Some(span) = spans
            .iter()
            .find(|s| field(s, "is_primary") == Some(&Value::Bool(true)))
        else {
            continue;
        };
        let lint = field(diag, "code")
            .and_then(|c| field(c, "code"))
            .and_then(text)
            .unwrap_or("<no code>");
        let shift = u32::from(cases[case].library_root);
        let line = number(field(span, "line_start")) - shift;
        let column = number(field(span, "column_start"));
        found.insert((case, line, column, lint.to_string()));
    }
    for (case, reached) in cases.iter().zip(&linted) {
        assert!(
            reached,
            "clippy never linted case `{}`\nstderr:\n{stderr}\nstdout:\n{stdout}",
            case.name
        );
    }
    (0..cases.len())
        .map(|case| {
            found
                .iter()
                .filter(|f| f.0 == case)
                .map(|(_, line, _, lint)| format!("{line}: {lint}"))
                .collect()
        })
        .collect()
}

/// The `[workspace.lints.*]` tables of a manifest, verbatim.
fn workspace_lints(manifest: &str) -> String {
    let tables: Vec<String> = manifest
        .split("\n[")
        .filter(|table| table.starts_with("workspace.lints"))
        .map(|table| format!("[{}\n", table.trim_end()))
        .collect();
    assert!(
        !tables.is_empty(),
        "the root Cargo.toml has no [workspace.lints] table"
    );
    tables.join("\n")
}

/// The first `#![warn(..)]` attribute that names clippy lints, on one line.
fn restriction_header(lib_rs: &str) -> String {
    let attr = lib_rs
        .match_indices("#![warn(")
        .map(|(start, _)| &lib_rs[start..])
        .filter_map(|rest| rest.find(")]").map(|end| &rest[..end + 2]))
        .find(|attr| attr.contains("clippy::"))
        .expect("crates/mem/src/lib.rs carries the restriction header");
    attr.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn seq(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Seq(items) => Some(items),
        _ => None,
    }
}

fn number(value: Option<&Value>) -> u32 {
    match value {
        Some(Value::UInt(n)) => u32::try_from(*n).expect("a span position fits in u32"),
        other => panic!("expected a span position, got {other:?}"),
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn write(path: &Path, contents: &str) {
    let dir = path.parent().expect("a file path has a parent");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// A scratch workspace under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "kelp-clippy-probe-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover from a killed run with a recycled pid would leave
        // stale members behind.
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
