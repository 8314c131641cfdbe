//! kelp-lint: an offline, dependency-free static-analysis pass guarding the
//! two invariants the whole reproduction rests on:
//!
//! 1. **Determinism** — every run is a pure function of its `RunSpec`, so
//!    the parallel Runner, the content-addressed `results/cache/`, and the
//!    fault injector stay bit-identical. Hash-ordered collections, wall
//!    clocks, ambient randomness, and environment reads all silently break
//!    that (rules KL-D01…KL-D04).
//! 2. **Panic-safety** — the Runner's `catch_unwind` containment must be a
//!    last resort, so library crates may not use `unwrap`/`expect`/`panic!`
//!    as control flow (rules KL-P01…KL-P03), and a public function should
//!    not reach a panic macro or an unwrap through its callees (KL-R01,
//!    KL-R02).
//!
//! Plus float determinism (KL-F), nondeterminism-taint dataflow (KL-T),
//! and hygiene checks (KL-H01…KL-H05). See [`rules`] for the full catalog
//! and the inline `// kelp-lint: allow(<rule>): <justification>`
//! suppression syntax. The lexer is hand-rolled (no `syn`, consistent with
//! the vendored no-registry constraint) and is total on arbitrary input.

#![forbid(unsafe_code)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod jsonmini;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod rules_v2;
pub mod scan;

pub use rules::{lint_source, Diagnostic, FileCtx};

/// The crate label a workspace-relative path belongs to (`crates/mem/…` →
/// `mem`; top-level `src/` → `root`). Used for call-graph name resolution.
fn crate_label(path: &str) -> &str {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("root")
    } else {
        "root"
    }
}

/// Lints every classifiable file under `root`: the per-file rules plus the
/// workspace passes (KL-R panic reachability over the call graph, KL-T
/// interprocedural nondeterminism-taint dataflow). Returns the diagnostics
/// in a total order — (file, line, rule, symbol, message) — and the number
/// of files scanned.
pub fn lint_workspace(root: &std::path::Path) -> (Vec<Diagnostic>, usize) {
    let files = scan::workspace_files(root);
    let mut analyses = Vec::new();
    for (rel, path) in &files {
        let Some(ctx) = scan::classify(rel) else {
            continue;
        };
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        let src = String::from_utf8_lossy(&bytes);
        analyses.push(rules::collect_file(&ctx, &src));
    }

    // Workspace pass 1: panic reachability over the call graph.
    let units: Vec<callgraph::SourceUnit<'_>> = analyses
        .iter()
        .map(|fa| callgraph::SourceUnit {
            file: &fa.ctx.path,
            krate: crate_label(&fa.ctx.path),
            panic_scope: fa.ctx.panic_scope,
            items: &fa.items,
        })
        .collect();
    let graph = callgraph::CallGraph::build(&units);
    drop(units);
    let mut workspace_diags = rules_v2::panic_reachability(&graph);

    // Workspace pass 2: interprocedural nondeterminism-taint dataflow
    // (KL-T), with the serialized types as its sinks.
    let mut types = Vec::new();
    for fa in &analyses {
        rules_v2::collect_types(&fa.ctx, &fa.items, &mut types);
    }
    workspace_diags.extend(dataflow::taint_pass(&graph, &types));

    // A witness-chain diagnostic (KL-T) is suppressed by an inline
    // allow at ANY step of its chain — in particular at the taint source,
    // so one documented allow at an intentional nondeterminism root covers
    // every sink it feeds.
    workspace_diags.retain(|d| {
        !d.witness.iter().any(|s| {
            analyses
                .iter_mut()
                .find(|fa| fa.ctx.path == s.file)
                .is_some_and(|fa| fa.try_allow(d.rule, s.line))
        })
    });

    // Route workspace findings to their owning file so the inline allow
    // mechanism (and KL-H05 stale-allow detection) covers them uniformly.
    for d in workspace_diags {
        if let Some(fa) = analyses.iter_mut().find(|fa| fa.ctx.path == d.file) {
            fa.diags.push(d);
        }
    }

    let mut diags = Vec::new();
    for fa in analyses {
        diags.extend(rules::finish(fa));
    }
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.symbol, &a.message)
            .cmp(&(&b.file, b.line, b.rule, &b.symbol, &b.message))
    });
    (diags, files.len())
}

/// Inserts `#![forbid(unsafe_code)]` into crate roots that lack it (the
/// `--fix-forbid` helper). The attribute lands after any leading `//!` doc
/// header so rustdoc output is unchanged. Returns the files rewritten.
pub fn fix_forbid(root: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut fixed = Vec::new();
    for (rel, path) in scan::workspace_files(root) {
        let Some(ctx) = scan::classify(&rel) else {
            continue;
        };
        if !ctx.crate_root {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        if !rules::lint_source(&ctx, &src)
            .iter()
            .any(|d| d.rule == "KL-H01")
        {
            continue;
        }
        let lines: Vec<&str> = src.lines().collect();
        let doc_end = lines
            .iter()
            .take_while(|l| l.trim_start().starts_with("//!"))
            .count();
        let mut out = String::new();
        for line in &lines[..doc_end] {
            out.push_str(line);
            out.push('\n');
        }
        if doc_end > 0 {
            out.push('\n');
        }
        out.push_str("#![forbid(unsafe_code)]\n");
        let rest = &lines[doc_end..];
        if !rest.first().is_some_and(|l| l.trim().is_empty()) && !rest.is_empty() {
            out.push('\n');
        }
        for line in rest {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        fixed.push(rel);
    }
    Ok(fixed)
}
