//! The v2 (AST-level) rule families.
//!
//! * **KL-R01…R02 — panic reachability** (workspace pass): every *public*
//!   function of a panic-scope crate that can transitively reach a panic
//!   site through the [`crate::callgraph`] is reported once, with the
//!   shortest witness call chain in the message. One diagnostic per
//!   function, highest-severity kind wins (macro > unwrap).
//! * **KL-F01…F03 — float determinism** (per-file pass): NaN-unsafe
//!   orderings, lossy `f32` narrowing, and float reductions fed by
//!   hash-ordered iteration.
//!
//! It also collects the workspace's type definitions ([`collect_types`]),
//! from which the KL-T pass builds its serialized sink set.

use crate::ast::{Expr, Item, ItemKind};
use crate::callgraph::{CallGraph, PanicKind};
use crate::rules::{Diagnostic, FileCtx};

/// Serialization roots of the KL-T01 serialized sink set: the cache record
/// every run persists, and the per-experiment aggregate.
pub(crate) const SCHEMA_ROOTS: [&str; 2] = ["RunRecord", "ExperimentResult"];

// ---------------------------------------------------------------------------
// KL-R: panic reachability
// ---------------------------------------------------------------------------

/// Emits one KL-R diagnostic per public panic-scope function that can reach
/// a panic site, labeled with the shortest witness chain.
pub fn panic_reachability(graph: &CallGraph) -> Vec<Diagnostic> {
    let dists: Vec<(PanicKind, &'static str, Vec<Option<u32>>)> = PanicKind::ALL
        .iter()
        .map(|&kind| {
            let rule = match kind {
                PanicKind::Macro => "KL-R01",
                PanicKind::Unwrap => "KL-R02",
            };
            (kind, rule, graph.distances(kind))
        })
        .collect();

    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.public || !f.panic_scope {
            continue;
        }
        let Some((kind, rule, dist)) = dists
            .iter()
            .find(|(_, _, dist)| dist[i].is_some())
            .map(|(k, r, d)| (*k, *r, d))
        else {
            continue;
        };
        let (chain, site) = graph.witness(i, kind, dist);
        let names: Vec<String> = chain.iter().map(|&j| graph.fns[j].display()).collect();
        let site_file = &graph.fns[*chain.last().unwrap_or(&i)].file;
        diags.push(Diagnostic {
            rule,
            file: f.file.clone(),
            line: f.line,
            symbol: f.symbol(),
            message: format!(
                "pub fn {} panics at {}:{} ({})",
                names.join(" -> "),
                site_file,
                site.line,
                site.what
            ),
            witness: Vec::new(),
        });
    }
    diags
}

// ---------------------------------------------------------------------------
// KL-F: float determinism
// ---------------------------------------------------------------------------

/// Per-file float-determinism rules over the parsed AST.
///
/// * **KL-F01**: `partial_cmp(…).unwrap()/.expect(…)` — panics on NaN.
///   Applies in test code too: a NaN-panicking comparator is a flaky-test
///   hazard, not a test convenience.
/// * **KL-F02**: `as f32` narrowing outside test code — accumulating or
///   reporting through `f32` loses bits that the byte-stable goldens
///   notice.
/// * **KL-F03**: a float reduction (`sum`/`product`/`fold`/`reduce`) fed by
///   `.values()`/`.keys()` iteration in a function that also mentions
///   `HashMap`/`HashSet` — the operand order, and thus the rounded result,
///   is nondeterministic. Fires in test code too (KL-D01 exempts tests, so
///   this is the only guard goldens-producing test harnesses get).
pub fn float_rules(ctx: &FileCtx, items: &[Item]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    walk_fns(items, false, None, &mut |item, fn_item, owner, in_test| {
        let Some(body) = &fn_item.body else {
            return;
        };
        let symbol_base = match owner {
            Some(o) => format!("{o}::{}", fn_item.name),
            None => fn_item.name.clone(),
        };
        let mut mentions_hash = fn_item
            .sig_idents
            .iter()
            .any(|s| s == "HashMap" || s == "HashSet");
        body.walk(&mut |e| {
            if let Expr::Path { segments, .. } = e {
                if segments.iter().any(|s| s == "HashMap" || s == "HashSet") {
                    mentions_hash = true;
                }
            }
        });
        let fn_test = in_test
            || item
                .attrs
                .iter()
                .any(|a| a.idents.first().is_some_and(|i| i == "test"));
        body.walk(&mut |e| match e {
            Expr::MethodCall {
                recv, method, line, ..
            } if method == "unwrap" || method == "expect" => {
                if matches!(recv.as_ref(), Expr::MethodCall { method: m, .. } if m == "partial_cmp")
                {
                    diags.push(Diagnostic {
                        rule: "KL-F01",
                        file: ctx.path.clone(),
                        line: *line,
                        symbol: symbol_base.clone(),
                        message: format!(
                            "`partial_cmp(…).{method}(…)` panics on NaN; use `total_cmp`"
                        ),
                        witness: Vec::new(),
                    });
                }
            }
            Expr::Cast {
                ty_idents, line, ..
            } if !fn_test && ty_idents.len() == 1 && ty_idents[0] == "f32" => {
                diags.push(Diagnostic {
                    rule: "KL-F02",
                    file: ctx.path.clone(),
                    line: *line,
                    symbol: symbol_base.clone(),
                    message: "`as f32` narrows; accumulate and report in f64 (goldens are \
                              byte-stable)"
                        .into(),
                    witness: Vec::new(),
                });
            }
            Expr::MethodCall {
                recv, method, line, ..
            } if matches!(method.as_str(), "sum" | "product" | "fold" | "reduce")
                && mentions_hash
                && spine_has_map_iteration(recv) =>
            {
                diags.push(Diagnostic {
                    rule: "KL-F03",
                    file: ctx.path.clone(),
                    line: *line,
                    symbol: symbol_base.clone(),
                    message: format!(
                        "`.{method}(…)` over hash-ordered iteration: float reduction order is \
                         nondeterministic; collect into a BTree or sort first"
                    ),
                    witness: Vec::new(),
                });
            }
            _ => {}
        });
    });
    diags
}

/// Whether the method-call receiver spine contains a map-iteration call
/// (`values`, `keys`, `into_values`, `into_keys`, `drain`).
fn spine_has_map_iteration(mut expr: &Expr) -> bool {
    loop {
        match expr {
            Expr::MethodCall { recv, method, .. } => {
                if matches!(
                    method.as_str(),
                    "values" | "keys" | "into_values" | "into_keys" | "drain"
                ) {
                    return true;
                }
                expr = recv;
            }
            Expr::Field { base, .. } | Expr::Cast { expr: base, .. } => expr = base,
            _ => return false,
        }
    }
}

/// Walks every function item (including ones nested in impls, traits, and
/// inline modules), tracking `#[cfg(test)]` inheritance and the enclosing
/// impl/trait type. Function bodies' own nested items are not entered.
fn walk_fns<'a>(
    items: &'a [Item],
    in_test: bool,
    owner: Option<&'a str>,
    visit: &mut impl FnMut(&'a Item, &'a crate::ast::FnItem, Option<&'a str>, bool),
) {
    for item in items {
        let t = in_test || item.attrs.iter().any(|a| a.is_cfg_test());
        match &item.kind {
            ItemKind::Fn(f) => visit(item, f, owner, t),
            ItemKind::Impl(b) => walk_fns(&b.items, t, Some(&b.type_name), visit),
            ItemKind::Trait(tr) => walk_fns(&tr.items, t, Some(&tr.name), visit),
            ItemKind::Mod(m) => walk_fns(&m.items, t, owner, visit),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Type definitions (the KL-T sink set)
// ---------------------------------------------------------------------------

/// A type definition collected for the KL-T serialized sink set.
pub struct TypeDef {
    pub file: String,
    pub name: String,
    pub line: u32,
    /// Named fields: (name, line, type identifier tokens).
    pub fields: Vec<(String, u32, Vec<String>)>,
    /// Tuple-struct payload / enum-variant payload type identifiers.
    pub payload_idents: Vec<String>,
    /// Carries `#[derive(Serialize)]` or `#[derive(Deserialize)]`.
    pub serde: bool,
    /// A named-field struct (the shape whose fields are KL-T01 sinks).
    pub named_struct: bool,
}

/// Collects every struct/enum definition from one file's AST (skipping
/// `#[cfg(test)]` regions).
pub fn collect_types(ctx: &FileCtx, items: &[Item], out: &mut Vec<TypeDef>) {
    collect_types_inner(items, false, ctx, out);
}

fn collect_types_inner(items: &[Item], in_test: bool, ctx: &FileCtx, out: &mut Vec<TypeDef>) {
    for item in items {
        let t = in_test || item.attrs.iter().any(|a| a.is_cfg_test());
        if t {
            continue;
        }
        let serde = item
            .attrs
            .iter()
            .any(|a| a.mentions("Serialize") || a.mentions("Deserialize"));
        match &item.kind {
            ItemKind::Struct(s) => out.push(TypeDef {
                file: ctx.path.clone(),
                name: s.name.clone(),
                line: item.line,
                fields: s
                    .fields
                    .iter()
                    .map(|f| (f.name.clone(), f.line, f.type_idents.clone()))
                    .collect(),
                payload_idents: s.tuple_type_idents.clone(),
                serde,
                named_struct: !s.fields.is_empty(),
            }),
            ItemKind::Enum(e) => out.push(TypeDef {
                file: ctx.path.clone(),
                name: e.name.clone(),
                line: item.line,
                fields: Vec::new(),
                payload_idents: e
                    .variants
                    .iter()
                    .flat_map(|(_, payload)| payload.iter().cloned())
                    .collect(),
                serde,
                named_struct: false,
            }),
            ItemKind::Mod(m) => collect_types_inner(&m.items, t, ctx, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn ctx(path: &str) -> FileCtx {
        FileCtx {
            path: path.into(),
            ..FileCtx::default()
        }
    }

    fn floats(src: &str) -> Vec<(&'static str, u32)> {
        let items = parse_items(&lex(src));
        float_rules(&ctx("crates/core/src/x.rs"), &items)
            .iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn f01_partial_cmp_unwrap_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(xs: &mut [f64]) {\n        \
                   xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    }\n}";
        assert_eq!(floats(src), vec![("KL-F01", 4)]);
        // total_cmp is the fix and is clean.
        assert!(floats("fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.total_cmp(b)); }").is_empty());
    }

    #[test]
    fn f02_narrowing_cast_outside_tests_only() {
        assert_eq!(
            floats("fn f(x: f64) -> f32 { x as f32 }"),
            vec![("KL-F02", 1)]
        );
        assert!(floats("#[cfg(test)]\nmod t { fn g(x: f64) -> f32 { x as f32 } }").is_empty());
        assert!(floats("fn f(x: f32) -> f64 { x as f64 }").is_empty());
    }

    #[test]
    fn f03_hash_ordered_reduction() {
        let src = "fn f(m: &HashMap<String, f64>) -> f64 { m.values().sum() }";
        let got = floats(src);
        assert!(got.contains(&("KL-F03", 1)), "{got:?}");
        // BTreeMap iteration is ordered: no KL-F03.
        assert!(floats("fn f(m: &BTreeMap<String, f64>) -> f64 { m.values().sum() }").is_empty());
    }
}
