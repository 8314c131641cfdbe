//! The Tier-1 verify line is `cargo build --release && cargo test -q` at
//! the repository root. Without `--workspace` those commands cover only the
//! root manifest's default members, so the members must include every crate.
//! Every member must also inherit the workspace lints, or clippy stops
//! gating it.

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

/// The static rules live in the root manifest's `[workspace.lints]`
/// (`forbid(unsafe_code)`, the bans on allow attributes and `dbg!`), and
/// a member gets them only through its own `[lints] workspace = true`.
/// Without that table a new crate would silently lose them.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").file_name())
        .map(|name| format!("crates/{}/Cargo.toml", name.to_string_lossy()))
        .filter(|manifest| root.join(manifest).is_file())
        .collect();
    crates.sort();
    assert!(!crates.is_empty(), "no crates/*/Cargo.toml found");
    let missing: Vec<String> = std::iter::once("Cargo.toml".to_string())
        .chain(crates)
        .filter(|manifest| {
            let text =
                std::fs::read_to_string(root.join(manifest)).expect("the manifest is readable");
            !text.contains("\n[lints]\nworkspace = true\n")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests do not inherit the workspace lints ([lints] workspace = true): {missing:?}"
    );
}
