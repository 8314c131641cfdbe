//! The Tier-1 verify line is `cargo build --release && cargo test -q` at
//! the repository root. Without `--workspace` those commands cover only the
//! root manifest's default members, so the members must include every crate.
//! Every member must also inherit the workspace lints, or clippy stops
//! gating it, and the workspace's `rust-version`, or the declared MSRV
//! binds nothing.

#[test]
fn default_members_cover_every_crate() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("the root Cargo.toml is readable");
    let workspace = manifest
        .split("\n[")
        .map(|table| table.trim_start_matches('['))
        .find(|table| table.starts_with("workspace]"))
        .expect("the root Cargo.toml has a [workspace] table");
    let line = workspace
        .lines()
        .find(|l| l.starts_with("default-members"))
        .expect("[workspace] sets default-members");
    let members: Vec<&str> = line
        .trim_start_matches("default-members")
        .split(['=', '[', ']', ','])
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .collect();
    assert!(
        members.contains(&".") && members.contains(&"crates/*"),
        "default-members must list \".\" and \"crates/*\": {line}"
    );
}

/// The root manifest and every `crates/*/Cargo.toml`, with their text.
/// (`kelp_benchmark` is a workspace of its own and is not a member.)
fn member_manifests() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").file_name())
        .map(|name| format!("crates/{}/Cargo.toml", name.to_string_lossy()))
        .filter(|manifest| root.join(manifest).is_file())
        .collect();
    crates.sort();
    assert!(!crates.is_empty(), "no crates/*/Cargo.toml found");
    std::iter::once("Cargo.toml".to_string())
        .chain(crates)
        .map(|manifest| {
            let text =
                std::fs::read_to_string(root.join(&manifest)).expect("the manifest is readable");
            (manifest, text)
        })
        .collect()
}

/// The static rules live in the root manifest's `[workspace.lints]`
/// (`forbid(unsafe_code)`, the bans on allow attributes and `dbg!`), and
/// a member gets them only through its own `[lints] workspace = true`.
/// Without that table a new crate would silently lose them.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let missing: Vec<String> = member_manifests()
        .into_iter()
        .filter(|(_, text)| !text.contains("\n[lints]\nworkspace = true\n"))
        .map(|(manifest, _)| manifest)
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests do not inherit the workspace lints ([lints] workspace = true): {missing:?}"
    );
}

/// The root's `rust-version` binds a package only through its own
/// `rust-version.workspace = true`: without the line, cargo does not check
/// the toolchain and clippy lints as if the newest std were allowed, so
/// code that needs a newer Rust than the declared one still passes.
#[test]
fn every_member_inherits_the_workspace_rust_version() {
    let missing: Vec<String> = member_manifests()
        .into_iter()
        .filter(|(_, text)| !text.contains("\nrust-version.workspace = true\n"))
        .map(|(manifest, _)| manifest)
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests do not inherit the workspace MSRV (rust-version.workspace = true): {missing:?}"
    );
}
