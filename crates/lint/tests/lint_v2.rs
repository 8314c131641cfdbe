//! v2 corpus: exact-output witness chains (KL-R), float-determinism lines
//! (KL-F), parser totality fuzzing, and byte-stability of the workspace
//! JSON report.
//!
//! Fixtures live under `crates/lint/fixtures/` (a `fixtures` path component
//! keeps them out of `scan::classify`, so linting the workspace never trips
//! over its own corpus).

use kelp_lint::callgraph::{CallGraph, SourceUnit};
use kelp_lint::lexer::lex;
use kelp_lint::parse::parse_items;
use kelp_lint::rules::{lint_source, FileCtx};
use kelp_lint::{report, rules_v2};
use kelp_simcore::rng::SimRng;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ctx(path: &str, panic_scope: bool) -> FileCtx {
    FileCtx {
        path: path.into(),
        panic_scope,
        ..FileCtx::default()
    }
}

/// The acceptance-criterion format: `pub fn a -> b -> c panics at file:line`,
/// asserted byte-for-byte on a multi-hop chain through private helpers.
/// `unchecked_index` stays silent: indexing is not a panic site.
#[test]
fn kl_r_witness_chain_exact_output() {
    let src = fixture("panic_chain.rs");
    let items = parse_items(&lex(&src));
    let units = [SourceUnit {
        file: "crates/core/src/chain.rs",
        krate: "core",
        panic_scope: true,
        items: &items,
    }];
    let graph = CallGraph::build(&units);
    let diags = rules_v2::panic_reachability(&graph);

    let got: Vec<(u32, &str, &str, &str)> = diags
        .iter()
        .map(|d| (d.line, d.rule, d.symbol.as_str(), d.message.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![(
            3,
            "KL-R02",
            "core::entry_point",
            "pub fn entry_point -> middle -> deepest panics at \
             crates/core/src/chain.rs:12 (.unwrap())",
        )],
        "witness chains drifted: {diags:?}"
    );
}

/// KL-F fires at exactly the hazard lines; the `clean` fn (total_cmp,
/// slice-ordered sum) stays silent.
#[test]
fn kl_f_exact_lines() {
    let src = fixture("float_bad.rs");
    let diags = lint_source(&ctx("crates/bench/src/float_bad.rs", false), &src);
    let floats: Vec<(u32, &str)> = diags
        .iter()
        .filter(|d| d.rule.starts_with("KL-F"))
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        floats,
        vec![(6, "KL-F01"), (10, "KL-F02"), (14, "KL-F03")],
        "float rules drifted: {diags:?}"
    );
}

/// The recursive-descent parser must be total on arbitrary token soup: 500
/// seeded streams of Rust-ish fragments and lossily-decoded garbage bytes.
/// Mirrors `lexer_is_total_on_arbitrary_input` one layer up the stack.
#[test]
fn parser_is_total_on_random_token_streams() {
    let fragments = [
        "fn f()",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "pub ",
        "impl ",
        "struct S",
        "enum E",
        "trait T",
        "match x ",
        "=> ",
        "-> ",
        ":: ",
        ".. ",
        "..= ",
        "| ",
        "|| ",
        "#[cfg(test)] ",
        "#![allow()] ",
        "let x = ",
        "if let ",
        "else ",
        "loop ",
        "while ",
        "for i in ",
        "return ",
        "break ",
        "move ",
        "unsafe ",
        "async ",
        "as f32 ",
        ".unwrap()",
        ".await",
        "? ",
        "x[1]",
        "panic!(\"boom\")",
        "macro_rules! m ",
        "where ",
        "T: Clone, ",
        "'a ",
        "&mut ",
        "*p ",
        "self.",
        "Self::new()",
        "::<u64>",
        "1.5e3 ",
        "b\"x\" ",
        "r#\"raw\"# ",
        "// line\n",
        "/* block */ ",
        "\"str\" ",
        "'c' ",
        "; ",
        ", ",
        "< ",
        "> ",
        "= ",
        "== ",
        "&& ",
        "@ ",
        "$ ",
        "\\ ",
    ];
    let mut rng = SimRng::seed_from(0x9A25_7AB1E);
    for case in 0..500 {
        let mut src = String::new();
        for _ in 0..rng.below(64) {
            if rng.chance(0.5) {
                src.push_str(fragments[rng.below(fragments.len() as u64) as usize]);
            } else {
                let bytes: Vec<u8> = (0..rng.below(8)).map(|_| rng.below(256) as u8).collect();
                src.push_str(&String::from_utf8_lossy(&bytes));
            }
        }
        // Must not panic, hang, or recurse unboundedly — every stream parses
        // to *some* item list (possibly empty, possibly all Opaque).
        let items = parse_items(&lex(&src));
        drop(items);
        let _ = case;
    }
}

/// Satellite: the `--json` report is byte-stable — two full workspace runs
/// render identically, diagnostics arrive in (file, line, rule) order, and
/// the schema version is pinned.
#[test]
fn workspace_json_report_is_byte_stable() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let (diags_a, scanned_a) = kelp_lint::lint_workspace(&root);
    let (diags_b, scanned_b) = kelp_lint::lint_workspace(&root);
    let json_a = report::json(&diags_a, scanned_a);
    let json_b = report::json(&diags_b, scanned_b);
    assert_eq!(json_a, json_b, "workspace JSON report is not byte-stable");
    assert!(
        json_a.starts_with(&format!("{{\"schema_version\":{}", report::SCHEMA_VERSION)),
        "schema_version missing from report head: {}",
        &json_a[..json_a.len().min(80)]
    );
    let keys: Vec<(&str, u32, &str)> = diags_a
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics not sorted by (file, line, rule)");
}
