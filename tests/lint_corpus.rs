//! Corpus self-test: the checked-in fixtures, linted by clippy under the
//! workspace's own configuration, must produce exactly the expected
//! findings (lint names and line numbers).

#[path = "../src/rules/probe.rs"]
mod probe;

use probe::{lint, Case};

const KNOWN_BAD: &str = include_str!("fixtures/known_bad.rs");
const KNOWN_GOOD: &str = include_str!("fixtures/known_good.rs");

/// What `known_bad.rs` fires as a library crate root, one entry per
/// line comment in the fixture.
const KNOWN_BAD_FINDINGS: [&str; 21] = [
    "5: clippy::disallowed_types",
    "6: clippy::disallowed_types",
    "9: clippy::disallowed_types",
    "10: clippy::disallowed_types",
    "10: clippy::disallowed_types",
    "12: clippy::disallowed_methods",
    "13: clippy::disallowed_methods",
    "18: clippy::unwrap_used",
    "19: clippy::expect_used",
    "21: clippy::panic",
    "23: unsafe_code",
    "28: clippy::todo",
    "29: clippy::unimplemented",
    "30: clippy::unreachable",
    "35: clippy::print_stdout",
    "36: clippy::print_stderr",
    "37: clippy::dbg_macro",
    "40: clippy::allow_attributes_without_reason",
    "40: clippy::allow_attributes",
    "43: clippy::allow_attributes_without_reason",
    "43: unfulfilled_lint_expectations",
];

/// The lints that hold in every crate, library root or not: the
/// `clippy.toml` bans and the workspace lints.
const UNIVERSAL: [&str; 7] = [
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "unsafe_code",
    "clippy::dbg_macro",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
    "unfulfilled_lint_expectations",
];

fn lint_one(name: &str, library_root: bool, src: &str) -> Vec<String> {
    lint(&[Case {
        name,
        library_root,
        src,
    }])
    .remove(0)
}

#[test]
fn known_bad_fires_every_family_at_exact_lines() {
    assert_eq!(lint_one("known_bad", true, KNOWN_BAD), KNOWN_BAD_FINDINGS);
}

#[test]
fn known_good_is_clean() {
    let found = lint_one("known_good", true, KNOWN_GOOD);
    assert!(found.is_empty(), "unexpected findings: {found:#?}");
}

#[test]
fn known_bad_under_binary_ctx_keeps_universal_rules_only() {
    // Without the restriction header, as in `kelp-bench` and the root
    // package, the panic and stdout lints stand down but the determinism
    // bans, `forbid(unsafe_code)`, the `dbg!` ban and the attribute rules
    // still apply.
    let found = lint_one("known_bad_binary", false, KNOWN_BAD);
    let universal: Vec<&str> = KNOWN_BAD_FINDINGS
        .into_iter()
        .filter(|f| {
            UNIVERSAL
                .iter()
                .any(|lint| f.ends_with(&format!(": {lint}")))
        })
        .collect();
    assert_eq!(found, universal);
    assert!(
        found.contains(&"23: unsafe_code".to_string()),
        "unsafe is never fine"
    );
    assert!(
        found.contains(&"37: clippy::dbg_macro".to_string()),
        "nor is dbg!"
    );
}

#[test]
fn deleting_an_allow_resurfaces_the_diagnostic() {
    let stripped: String = KNOWN_GOOD
        .lines()
        .filter(|l| !l.contains("#[expect("))
        .map(|l| format!("{l}\n"))
        .collect();
    // The unwrap on line 19 moves up to line 18 with its expectation gone.
    assert_eq!(
        lint_one("known_good_stripped", true, &stripped),
        ["18: clippy::unwrap_used"]
    );
}
