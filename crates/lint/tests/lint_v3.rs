//! v3 corpus: exact-output witness chains for the interprocedural
//! nondeterminism-taint pass (KL-T01..T03), sanitizer negatives,
//! dataflow totality fuzzing, and byte-stability of witness rendering.
//!
//! Fixtures live under `crates/lint/fixtures/` (a `fixtures` path component
//! keeps them out of `scan::classify`).

use kelp_lint::callgraph::{CallGraph, SourceUnit};
use kelp_lint::dataflow;
use kelp_lint::lexer::lex;
use kelp_lint::parse::parse_items;
use kelp_lint::report;
use kelp_lint::rules::{Diagnostic, FileCtx};
use kelp_lint::rules_v2;
use kelp_simcore::rng::SimRng;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the taint pass over a single source, labelled as `file` in crate
/// `core` — the same wiring `lint_workspace` uses, minus the scan.
fn dataflow_diags(file: &'static str, src: &str) -> Vec<Diagnostic> {
    let items = parse_items(&lex(src));
    let units = [SourceUnit {
        file,
        krate: "core",
        panic_scope: true,
        items: &items,
    }];
    let graph = CallGraph::build(&units);
    let mut types = Vec::new();
    rules_v2::collect_types(
        &FileCtx {
            path: file.into(),
            panic_scope: true,
            ..FileCtx::default()
        },
        &items,
        &mut types,
    );
    let mut diags = dataflow::taint_pass(&graph, &types);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn flat(diags: &[Diagnostic]) -> Vec<(u32, &str, &str, &str)> {
    diags
        .iter()
        .map(|d| (d.line, d.rule, d.symbol.as_str(), d.message.as_str()))
        .collect()
}

fn chain(d: &Diagnostic) -> Vec<(u32, &str)> {
    d.witness
        .iter()
        .map(|s| (s.line, s.what.as_str()))
        .collect()
}

/// The acceptance-criterion format for the taint family: every diagnostic
/// carries a source→…→sink witness chain, asserted byte-for-byte on a flow
/// that crosses a resolved call boundary (`record_run` → `build`).
#[test]
fn kl_t_witness_chains_exact_output() {
    let diags = dataflow_diags(
        "crates/core/src/taint_flow_bad.rs",
        &fixture("taint_flow_bad.rs"),
    );
    assert_eq!(
        flat(&diags),
        vec![
            (
                25,
                "KL-T01",
                "RunMeta::wall_ms",
                "clock taint reaches `Instant::now` -> let `started` -> let `wall` -> \
                 passed to `build` -> param `wall_ms` of `build` -> \
                 serialized field `RunMeta::wall_ms`",
            ),
            (
                32,
                "KL-T02",
                "core::dump_env",
                "env taint reaches `std::env::var` -> let `tag` -> \
                 results writer `std::fs::write`",
            ),
            (
                38,
                "KL-T03",
                "core::cache_key",
                "env taint reaches `std::env::var` -> let `tag` -> \
                 cache-key computation `fnv1a64(…)`",
            ),
        ],
        "taint witness chains drifted: {diags:?}"
    );
    // The chain is structured, not just prose: each step carries its line.
    assert_eq!(
        chain(&diags[0]),
        vec![
            (18, "`Instant::now`"),
            (18, "let `started`"),
            (19, "let `wall`"),
            (20, "passed to `build`"),
            (23, "param `wall_ms` of `build`"),
            (25, "serialized field `RunMeta::wall_ms`"),
        ],
        "structured witness drifted: {:?}",
        diags[0].witness
    );
}

/// Negative corpus: a `sort` rendezvous kills hash-order taint before the
/// writer, and an env-derived *path* argument never taints written bytes.
#[test]
fn kl_t_sanitizers_stay_silent() {
    let diags = dataflow_diags(
        "crates/core/src/taint_flow_clean.rs",
        &fixture("taint_flow_clean.rs"),
    );
    assert_eq!(flat(&diags), vec![], "sanitized flows produced findings");
}

/// Witness chains render as structured JSON and the rendering is
/// byte-stable: two passes over the same corpus serialize identically, and
/// the KL-T entries carry non-empty `witness` arrays.
#[test]
fn witness_json_rendering_is_byte_stable() {
    let render = || {
        let diags = dataflow_diags(
            "crates/core/src/taint_flow_bad.rs",
            &fixture("taint_flow_bad.rs"),
        );
        report::json(&diags, 1)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "witness JSON rendering is not byte-stable");
    assert!(
        a.starts_with(&format!("{{\"schema_version\":{}", report::SCHEMA_VERSION)),
        "schema_version missing: {}",
        &a[..a.len().min(80)]
    );
    assert!(
        a.contains("\"witness\":[{\"what\":"),
        "witness chains missing from JSON: {a}"
    );
}

/// The dataflow engine must be total on arbitrary token soup, exactly like
/// the parser one layer down: 500 seeded streams of Rust-ish fragments —
/// biased toward taint shapes — and lossily-decoded garbage bytes all run
/// through `collect_types` and `taint_pass` without panicking, hanging, or
/// recursing unboundedly.
#[test]
fn dataflow_is_total_on_random_token_streams() {
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
        "#[derive(Serialize)] ",
        "match x ",
        "=> ",
        "-> ",
        ":: ",
        "| ",
        "let x = ",
        "if let ",
        "else ",
        "loop ",
        "for i in ",
        "return ",
        "move ",
        "std::thread::scope",
        "(|scope| ",
        "scope.spawn",
        "(|| ",
        ".fetch_add(1, Ordering::Relaxed)",
        ".load(Ordering::Relaxed)",
        ".lock().unwrap()",
        ".push(x)",
        ".sort()",
        ".insert(k, v)",
        ".values()",
        ".hash(&mut h)",
        "Instant::now()",
        "std::env::var(\"K\")",
        "std::fs::write(p, b)",
        "fnv1a64(bytes)",
        "serde_json::to_string(&r)",
        "HashMap<String, u64>",
        "Mutex::new(Vec::new())",
        "AtomicUsize::new(0)",
        "records[slot] = ",
        "x += 1",
        "x.y = ",
        "thread_rng()",
        "available_parallelism()",
        "RunMeta { wall_ms }",
        "..Default::default()",
        "self.",
        "\"str\" ",
        "; ",
        ", ",
        "= ",
        "&mut ",
        "? ",
        ".unwrap()",
        "panic!(\"boom\")",
        "// line\n",
        "$ ",
        "\\ ",
    ];
    let mut rng = SimRng::seed_from(0xDA7A_F10E);
    for _case in 0..500 {
        let mut src = String::new();
        for _ in 0..rng.below(64) {
            if rng.chance(0.5) {
                src.push_str(fragments[rng.below(fragments.len() as u64) as usize]);
            } else {
                let bytes: Vec<u8> = (0..rng.below(8)).map(|_| rng.below(256) as u8).collect();
                src.push_str(&String::from_utf8_lossy(&bytes));
            }
        }
        let items = parse_items(&lex(&src));
        let units = [SourceUnit {
            file: "crates/core/src/fuzz.rs",
            krate: "core",
            panic_scope: true,
            items: &items,
        }];
        let graph = CallGraph::build(&units);
        let mut types = Vec::new();
        rules_v2::collect_types(
            &FileCtx {
                path: "crates/core/src/fuzz.rs".into(),
                panic_scope: true,
                ..FileCtx::default()
            },
            &items,
            &mut types,
        );
        let _ = dataflow::taint_pass(&graph, &types);
    }
}
