//! The kelp-lint rule engine.
//!
//! Rules operate on the token stream from [`crate::lexer`], so string
//! literals and comments can never produce false positives. Each rule has a
//! stable ID; diagnostics can be suppressed by an inline comment of the form
//!
//! ```text
//! // kelp-lint: allow(KL-P01): one-line justification
//! ```
//!
//! which covers the comment's own line and the line directly below it. A
//! justification is mandatory (KL-H04) and an allow that suppresses nothing
//! is itself an error (KL-H05), so stale annotations cannot accumulate.
//!
//! ## Rule catalog
//!
//! | ID     | Family       | Fires on |
//! |--------|--------------|----------|
//! | KL-D01 | determinism  | `HashMap`/`HashSet` in non-test code (iteration order can leak into serialized or cached output; use `BTreeMap`/`BTreeSet`) |
//! | KL-D02 | determinism  | `Instant`/`SystemTime` (the wall clock) |
//! | KL-D03 | determinism  | `thread_rng`/`from_entropy`/`rand::random` (ambient, unseeded randomness) |
//! | KL-D04 | determinism  | `env::var`/`var_os`/`vars` reads (ambient configuration) |
//! | KL-P01 | panic-safety | `.unwrap()`/`.expect(` in library crates |
//! | KL-P02 | panic-safety | `panic!`/`unreachable!`/`todo!`/`unimplemented!` in library crates |
//! | KL-P03 | panic-safety | `unwrap_unchecked`/`get_unchecked` anywhere |
//! | KL-H01 | hygiene      | crate root missing `#![forbid(unsafe_code)]` |
//! | KL-H02 | hygiene      | `dbg!` anywhere; `println!`/`print!` in library crates |
//! | KL-H03 | hygiene      | TODO/FIXME comment without an issue tag like `TODO(#12)` |
//! | KL-H04 | hygiene      | malformed `kelp-lint: allow` comment |
//! | KL-H05 | hygiene      | `kelp-lint: allow` that suppresses nothing |
//! | KL-R01 | panic-reach  | public panic-scope fn transitively reaches `panic!`/`unreachable!`/`todo!`/`unimplemented!` (witness chain in the message) |
//! | KL-R02 | panic-reach  | public panic-scope fn transitively reaches `.unwrap()`/`.expect(…)` |
//! | KL-F01 | float-det    | `partial_cmp(…).unwrap()` — panics on NaN; use `total_cmp` (applies in tests too) |
//! | KL-F02 | float-det    | `as f32` narrowing in non-test code (accumulate and report in f64) |
//! | KL-F03 | float-det    | float reduction over hash-ordered iteration (operand order nondeterministic) |
//! | KL-T01 | taint-flow   | nondeterminism taint (clock/rand/env/hash-order/jobs) flows into a serde-serialized `RunRecord`/`ExperimentResult`-reachable field (witness chain in the message) |
//! | KL-T02 | taint-flow   | nondeterminism taint flows into a results writer (`fs::write` content argument) |
//! | KL-T03 | taint-flow   | nondeterminism taint flows into cache-key computation (`fnv1a64`, `.hash(…)`) |
//!
//! The KL-R/KL-T families need the whole workspace (call graph, dataflow
//! summaries) and only fire from [`crate::lint_workspace`]; the rest,
//! including KL-F, also fire from the single-file [`lint_source`] entry
//! point.

use crate::ast::Item;
use crate::lexer::{lex, Comment, Tok, Token};
use crate::parse::parse_items;

/// Per-file lint context, derived from the workspace-relative path by
/// [`crate::scan::classify`].
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Workspace-relative path with forward slashes (diagnostic label).
    pub path: String,
    /// Library crate: panic-safety and print rules apply.
    pub panic_scope: bool,
    /// Crate root file: must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// Vendored shim crate root: `#![deny(unsafe_code)]` also accepted.
    pub allow_deny_unsafe: bool,
}

/// One step of a source→…→sink witness chain (KL-T): a short display
/// form plus the location it happened at. The `--json` report renders the
/// chain as a structured array; the human message joins the `what`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    pub what: String,
    pub file: String,
    pub line: u32,
}

/// One finding: a stable rule ID, a location, a stable symbol path (for
/// line-drift-robust baseline matching; empty for token-level rules), a
/// human message, and — for the taint-flow family — a witness chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub symbol: String,
    pub message: String,
    /// Source→…→sink provenance for KL-T; empty for other families.
    pub witness: Vec<WitnessStep>,
}

/// Every rule ID the engine can emit, in catalog order.
pub const ALL_RULES: [&str; 20] = [
    "KL-D01", "KL-D02", "KL-D03", "KL-D04", "KL-P01", "KL-P02", "KL-P03", "KL-H01", "KL-H02",
    "KL-H03", "KL-H04", "KL-H05", "KL-R01", "KL-R02", "KL-F01", "KL-F02", "KL-F03", "KL-T01",
    "KL-T02", "KL-T03",
];

/// An inline suppression parsed from a comment.
struct Allow {
    rule: String,
    line: u32,
    used: bool,
}

/// One file's lint state before suppressions are applied: the pre-allow
/// diagnostics, the parsed AST (for the workspace passes), and the pending
/// allows. [`crate::lint_workspace`] appends workspace-level findings
/// (KL-R, KL-T) to `diags` before calling [`finish`], so a single inline
/// allow mechanism covers every rule family.
pub struct FileAnalysis {
    pub ctx: FileCtx,
    pub items: Vec<Item>,
    pub diags: Vec<Diagnostic>,
    allows: Vec<Allow>,
}

impl FileAnalysis {
    /// Tries to consume an inline allow for `rule` covering `line` (an
    /// allow covers its own line and the next). The workspace passes use
    /// this to honor allows anywhere along a witness chain — one documented
    /// allow at an intentional nondeterminism *source* suppresses every
    /// sink it feeds, instead of requiring an allow per sink.
    pub fn try_allow(&mut self, rule: &str, line: u32) -> bool {
        match self
            .allows
            .iter_mut()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
        {
            Some(a) => {
                a.used = true;
                true
            }
            None => false,
        }
    }
}

/// Runs every per-file rule (token rules, comment rules, KL-F float rules)
/// without applying suppressions yet.
pub fn collect_file(ctx: &FileCtx, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let test_ranges = test_token_ranges(&lexed.tokens);
    let in_test = |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx < hi);

    let mut diags: Vec<Diagnostic> = Vec::new();
    let allows = parse_allows(&lexed.comments, &mut diags, ctx);

    token_rules(ctx, &lexed.tokens, &in_test, &mut diags);
    comment_rules(ctx, &lexed.comments, &mut diags);
    if ctx.crate_root && !has_unsafe_guard(&lexed.tokens, ctx.allow_deny_unsafe) {
        diags.push(Diagnostic {
            rule: "KL-H01",
            file: ctx.path.clone(),
            line: 1,
            symbol: String::new(),
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            witness: Vec::new(),
        });
    }

    let items = parse_items(&lexed);
    diags.extend(crate::rules_v2::float_rules(ctx, &items));

    FileAnalysis {
        ctx: ctx.clone(),
        items,
        diags,
        allows,
    }
}

/// Applies inline suppressions (an allow covers its own line and the next),
/// reports stale allows (KL-H05), and returns the file's diagnostics sorted
/// by (line, rule).
pub fn finish(analysis: FileAnalysis) -> Vec<Diagnostic> {
    let FileAnalysis {
        ctx,
        mut diags,
        mut allows,
        ..
    } = analysis;
    diags.retain(|d| {
        if d.rule == "KL-H04" || d.rule == "KL-H05" {
            return true;
        }
        match allows
            .iter_mut()
            .find(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
        {
            Some(a) => {
                a.used = true;
                false
            }
            None => true,
        }
    });
    for a in &allows {
        if !a.used {
            diags.push(Diagnostic {
                rule: "KL-H05",
                file: ctx.path.clone(),
                line: a.line,
                symbol: String::new(),
                message: format!("`allow({})` suppresses nothing; delete it", a.rule),
                witness: Vec::new(),
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Lints one source file under the given context: every per-file rule with
/// suppressions applied. The workspace-wide families (KL-R, KL-T) need the
/// call graph and only fire from [`crate::lint_workspace`].
pub fn lint_source(ctx: &FileCtx, src: &str) -> Vec<Diagnostic> {
    finish(collect_file(ctx, src))
}

/// The token-stream rules (everything except comment and file-level checks).
fn token_rules(
    ctx: &FileCtx,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let ident = |i: usize| match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c);
    let mut push = |rule: &'static str, line: u32, message: String| {
        diags.push(Diagnostic {
            rule,
            file: ctx.path.clone(),
            line,
            symbol: String::new(),
            message,
            witness: Vec::new(),
        });
    };

    for (i, tok) in tokens.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let Tok::Ident(name) = &tok.kind else {
            continue;
        };
        match name.as_str() {
            "HashMap" | "HashSet" => push(
                "KL-D01",
                tok.line,
                format!("`{name}` iteration order is nondeterministic; use the BTree equivalent or justify with an allow"),
            ),
            "Instant" | "SystemTime" => push(
                "KL-D02",
                tok.line,
                format!("`{name}` reads the wall clock; results must be pure functions of the RunSpec"),
            ),
            "thread_rng" | "from_entropy" => push(
                "KL-D03",
                tok.line,
                format!("`{name}` is ambient randomness; derive a seeded SimRng stream instead"),
            ),
            "random" if ident(i.wrapping_sub(3)) == Some("rand") => push(
                "KL-D03",
                tok.line,
                "`rand::random` is ambient randomness; derive a seeded SimRng stream instead".into(),
            ),
            "var" | "var_os" | "vars"
                if i >= 3
                    && ident(i - 3) == Some("env")
                    && punct(i - 2, ':')
                    && punct(i - 1, ':') =>
            {
                push(
                    "KL-D04",
                    tok.line,
                    format!("`env::{name}` reads ambient configuration; thread it through an explicit config instead"),
                )
            }
            "unwrap" | "expect"
                if ctx.panic_scope && i >= 1 && punct(i - 1, '.') && punct(i + 1, '(') =>
            {
                push(
                    "KL-P01",
                    tok.line,
                    format!("`.{name}()` in library code; return a structured error (panic containment is a last resort)"),
                )
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if ctx.panic_scope && punct(i + 1, '!') =>
            {
                push(
                    "KL-P02",
                    tok.line,
                    format!("`{name}!` in library code; return a structured error (panic containment is a last resort)"),
                )
            }
            "unwrap_unchecked" | "get_unchecked" => push(
                "KL-P03",
                tok.line,
                format!("`{name}` skips the bounds/presence check entirely"),
            ),
            "dbg" if punct(i + 1, '!') => push(
                "KL-H02",
                tok.line,
                "`dbg!` left in committed code".into(),
            ),
            "println" | "print" if ctx.panic_scope && punct(i + 1, '!') => push(
                "KL-H02",
                tok.line,
                format!("`{name}!` in library code; route output through the report layer"),
            ),
            _ => {}
        }
    }
}

/// TODO/FIXME comments must carry an issue tag: `TODO(#12): …`.
fn comment_rules(ctx: &FileCtx, comments: &[Comment], diags: &mut Vec<Diagnostic>) {
    for c in comments {
        if c.doc {
            continue;
        }
        for marker in ["TODO", "FIXME"] {
            let Some(pos) = c.text.find(marker) else {
                continue;
            };
            // Reject `TODOS`-style embeddings: the marker must end at a
            // non-identifier character.
            let after = c.text[pos + marker.len()..].chars().next();
            if after.is_some_and(|ch| ch.is_alphanumeric() || ch == '_') {
                continue;
            }
            let tagged = c.text[pos..]
                .strip_prefix(marker)
                .and_then(|rest| rest.strip_prefix('('))
                .and_then(|rest| rest.split_once(')'))
                .is_some_and(|(tag, _)| tag.starts_with('#') && tag.len() > 1);
            if !tagged {
                diags.push(Diagnostic {
                    rule: "KL-H03",
                    file: ctx.path.clone(),
                    line: c.line,
                    symbol: String::new(),
                    message: format!("`{marker}` without an issue tag; write `{marker}(#NNN): …`"),
                    witness: Vec::new(),
                });
            }
        }
    }
}

/// Parses `kelp-lint: allow(RULE): justification` comments, reporting
/// malformed ones (unknown rule, missing justification) as KL-H04.
fn parse_allows(comments: &[Comment], diags: &mut Vec<Diagnostic>, ctx: &FileCtx) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("kelp-lint:") else {
            continue;
        };
        let rest = c.text[pos + "kelp-lint:".len()..].trim_start();
        let mut bad = |why: &str| {
            diags.push(Diagnostic {
                rule: "KL-H04",
                file: ctx.path.clone(),
                line: c.line,
                symbol: String::new(),
                message: format!("malformed kelp-lint comment: {why}"),
                witness: Vec::new(),
            });
        };
        let Some(inner) = rest.strip_prefix("allow(") else {
            bad("expected `allow(<rule>): <justification>`");
            continue;
        };
        let Some((rule, tail)) = inner.split_once(')') else {
            bad("unclosed `allow(`");
            continue;
        };
        let rule = rule.trim();
        if !ALL_RULES.contains(&rule) {
            bad(&format!("unknown rule `{rule}`"));
            continue;
        }
        let justification = tail.trim_start().strip_prefix(':').map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => allows.push(Allow {
                rule: rule.to_string(),
                line: c.line,
                used: false,
            }),
            _ => bad("missing justification after `allow(…):`"),
        }
    }
    allows
}

/// Finds `#![forbid(unsafe_code)]` (or `deny` when permitted) in the token
/// stream.
fn has_unsafe_guard(tokens: &[Token], allow_deny: bool) -> bool {
    tokens.windows(8).any(|w| {
        matches!(&w[0].kind, Tok::Punct('#'))
            && matches!(&w[1].kind, Tok::Punct('!'))
            && matches!(&w[2].kind, Tok::Punct('['))
            && matches!(&w[3].kind, Tok::Ident(s) if s == "forbid" || (allow_deny && s == "deny"))
            && matches!(&w[4].kind, Tok::Punct('('))
            && matches!(&w[5].kind, Tok::Ident(s) if s == "unsafe_code")
            && matches!(&w[6].kind, Tok::Punct(')'))
            && matches!(&w[7].kind, Tok::Punct(']'))
    })
}

/// Computes token-index ranges covered by `#[cfg(test)]` (and `cfg(all(test,
/// …))`) items: from the attribute to the close of the following brace
/// block. `cfg(not(test))` is real code and is not excluded.
fn test_token_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !matches!(tokens[i].kind, Tok::Punct('#'))
            || !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('[')))
            || !matches!(tokens.get(i + 2).map(|t| &t.kind), Some(Tok::Ident(s)) if s == "cfg")
        {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to its closing `]`.
        let attr_start = i + 2;
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].kind {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr_end = j; // index of `]` (or end of input)
        let has = |name: &str| {
            tokens[attr_start..attr_end.min(tokens.len())]
                .iter()
                .any(|t| matches!(&t.kind, Tok::Ident(s) if s == name))
        };
        if !has("test") || has("not") {
            i = attr_end.max(i + 1);
            continue;
        }
        // The guarded item: everything through the matching close of its
        // first brace block (covers `mod`, `fn`, `impl`, …).
        let mut k = attr_end + 1;
        while k < tokens.len() && !matches!(tokens[k].kind, Tok::Punct('{')) {
            k += 1;
        }
        let mut braces = 0usize;
        let mut end = tokens.len();
        while k < tokens.len() {
            match tokens[k].kind {
                Tok::Punct('{') => braces += 1,
                Tok::Punct('}') => {
                    braces = braces.saturating_sub(1);
                    if braces == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        ranges.push((i, end));
        i = end.max(i + 1);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileCtx {
        FileCtx {
            path: "crates/core/src/x.rs".into(),
            panic_scope: true,
            ..FileCtx::default()
        }
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "fn f() { g().unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { h().unwrap(); } }";
        let diags = lint_source(&lib_ctx(), src);
        assert_eq!(rules_of(&diags), vec!["KL-P01"]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { g().unwrap(); }";
        assert_eq!(rules_of(&lint_source(&lib_ctx(), src)), vec!["KL-P01"]);
    }

    #[test]
    fn allow_with_justification_suppresses_and_unused_allow_fires() {
        let src = "// kelp-lint: allow(KL-P01): setup contract\nfn f() { g().unwrap(); }";
        assert!(lint_source(&lib_ctx(), src).is_empty());
        let stale = "// kelp-lint: allow(KL-P01): nothing here\nfn f() {}";
        assert_eq!(rules_of(&lint_source(&lib_ctx(), stale)), vec!["KL-H05"]);
    }

    #[test]
    fn allow_requires_justification_and_known_rule() {
        let src = "// kelp-lint: allow(KL-P01)\nfn f() { g().unwrap(); }";
        let diags = lint_source(&lib_ctx(), src);
        assert!(rules_of(&diags).contains(&"KL-H04"));
        assert!(rules_of(&diags).contains(&"KL-P01"));
        let src = "// kelp-lint: allow(KL-X99): whatever\nfn f() {}";
        assert_eq!(rules_of(&lint_source(&lib_ctx(), src)), vec!["KL-H04"]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { g().unwrap_or_else(|_| 3); h().unwrap_or_default(); }";
        assert!(lint_source(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn env_read_detected_through_paths() {
        let ctx = FileCtx {
            path: "crates/accel/src/x.rs".into(),
            ..FileCtx::default()
        };
        let src = "fn f() { let _ = std::env::var(\"X\"); }";
        assert_eq!(rules_of(&lint_source(&ctx, src)), vec!["KL-D04"]);
        // `env::args` is explicit input, not ambient state.
        let src = "fn f() { let _ = std::env::args(); }";
        assert!(lint_source(&ctx, src).is_empty());
    }

    #[test]
    fn crate_root_requires_forbid() {
        let ctx = FileCtx {
            path: "crates/accel/src/lib.rs".into(),
            crate_root: true,
            ..FileCtx::default()
        };
        assert_eq!(rules_of(&lint_source(&ctx, "fn f() {}")), vec!["KL-H01"]);
        assert!(lint_source(&ctx, "#![forbid(unsafe_code)]\nfn f() {}").is_empty());
        // deny only acceptable for vendored shims.
        assert_eq!(
            rules_of(&lint_source(&ctx, "#![deny(unsafe_code)]")),
            vec!["KL-H01"]
        );
        let shim = FileCtx {
            allow_deny_unsafe: true,
            ..ctx
        };
        assert!(lint_source(&shim, "#![deny(unsafe_code)]").is_empty());
    }

    #[test]
    fn todo_requires_issue_tag() {
        let ctx = FileCtx {
            path: "crates/accel/src/x.rs".into(),
            ..FileCtx::default()
        };
        assert_eq!(
            rules_of(&lint_source(&ctx, "// TODO: fix this later")),
            vec!["KL-H03"]
        );
        assert!(lint_source(&ctx, "// TODO(#42): tracked").is_empty());
        assert!(lint_source(&ctx, "// mastodons roam").is_empty());
    }
}
