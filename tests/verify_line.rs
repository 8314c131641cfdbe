//! The Tier-1 verify line is `cargo build --release && cargo test -q` at
//! the repository root. Without `--workspace` those commands cover only the
//! root manifest's default members, so the members must include every crate.

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
