//! v2 corpus: exact-output witness chains (KL-R), float-determinism lines
//! (KL-F), serde schema drift against a golden pair (KL-S), parser totality
//! fuzzing, and byte-stability of the workspace JSON report.
//!
//! Fixtures live under `crates/lint/fixtures/` (a `fixtures` path component
//! keeps them out of `scan::classify`, so linting the workspace never trips
//! over its own corpus).

use kelp_lint::callgraph::{CallGraph, SourceUnit};
use kelp_lint::lexer::lex;
use kelp_lint::parse::parse_items;
use kelp_lint::rules::{lint_source, FileCtx};
use kelp_lint::{jsonmini, report, rules_v2};
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

fn schema_diags(src: &str, golden: &str) -> Vec<(u32, &'static str, String)> {
    let mut types = Vec::new();
    rules_v2::collect_types(
        &ctx("crates/core/src/record.rs", true),
        &parse_items(&lex(src)),
        &mut types,
    );
    let goldens = vec![(
        "results/golden.json".to_string(),
        jsonmini::parse(golden).expect("golden fixture parses"),
    )];
    rules_v2::schema_rules(&types, &goldens)
        .into_iter()
        .map(|d| (d.line, d.rule, d.symbol))
        .collect()
}

/// The checked-in fixture pair is drift-free, and only reachable structs are
/// checked: `Unreferenced::never_serialized` never appears in the golden yet
/// stays silent.
#[test]
fn kl_s_clean_pair_is_silent() {
    let diags = schema_diags(&fixture("schema_record.rs"), &fixture("schema_golden.json"));
    assert_eq!(diags, vec![], "clean schema pair produced findings");
}

/// Negative test (acceptance criterion): renaming a RunRecord-reachable
/// field without regenerating the golden fails with KL-S01 at the field.
#[test]
fn kl_s01_renamed_field_fires() {
    let src = fixture("schema_record.rs").replace("wall_ms", "wall_time_ms");
    let diags = schema_diags(&src, &fixture("schema_golden.json"));
    assert_eq!(
        diags,
        vec![(11, "KL-S01", "RunMeta::wall_time_ms".to_string())],
        "renamed field not caught"
    );
}

/// Mutating the golden side of the pair — a key the struct no longer carries
/// — fails with KL-S02 on the best-matching struct.
#[test]
fn kl_s02_golden_drift_fires() {
    let golden = fixture("schema_golden.json").replace(
        "\"sim_steps\": 400",
        "\"sim_steps\": 400,\n    \"retired_field\": 1",
    );
    let diags = schema_diags(&fixture("schema_record.rs"), &golden);
    assert_eq!(
        diags,
        vec![(10, "KL-S02", "RunMeta".to_string())],
        "golden drift not caught"
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
