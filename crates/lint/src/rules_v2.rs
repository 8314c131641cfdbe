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
//! * **KL-S01…S02 — serde schema drift** (workspace pass): serialized
//!   structs reachable from `RunRecord`/`ExperimentResult` are cross-checked
//!   against the keys actually present in the checked-in `results/*.json`
//!   goldens, in both directions.

use crate::ast::{Expr, Item, ItemKind};
use crate::callgraph::{CallGraph, PanicKind};
use crate::jsonmini::{self, Value};
use crate::rules::{Diagnostic, FileCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Serialization roots for the schema-drift pass (and the KL-T01 serialized
/// sink set): the cache record every run persists, and the per-experiment
/// aggregate.
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
// KL-S: serde schema drift
// ---------------------------------------------------------------------------

/// A type definition collected for the schema pass.
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
    /// A named-field struct (the shape KL-S01/S02 check).
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

/// Loads and parses every checked-in golden under `root/results/*.json`,
/// sorted by file name for determinism. Unparseable files are skipped (the
/// results pipeline owns their validity, not the lint).
pub fn load_goldens(root: &Path) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("results")) else {
        return out;
    };
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json") && p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if let Some(value) = jsonmini::parse(&text) {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push((name, value));
        }
    }
    out
}

/// Cross-checks serialized structs reachable from the schema roots against
/// the goldens.
///
/// * **KL-S01**: a field of a reachable `#[derive(Serialize)]` struct whose
///   name appears in **no** golden key — a rename or a never-serialized
///   field the goldens cannot witness.
/// * **KL-S02**: the golden object that best matches a reachable struct
///   (≥ half its fields, minimum 2) carries keys the struct does not
///   produce — a field was dropped or renamed after the golden was written.
///
/// With no goldens on disk the pass is silent (nothing to drift from).
pub fn schema_rules(types: &[TypeDef], goldens: &[(String, Value)]) -> Vec<Diagnostic> {
    if goldens.is_empty() {
        return Vec::new();
    }

    // Name → definitions (duplicates possible across crates; all chased).
    let mut by_name: BTreeMap<&str, Vec<&TypeDef>> = BTreeMap::new();
    for t in types {
        by_name.entry(t.name.as_str()).or_default().push(t);
    }

    // Type reachability from the roots, chasing field/payload identifiers.
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut frontier: Vec<&str> = SCHEMA_ROOTS.to_vec();
    while let Some(name) = frontier.pop() {
        if !by_name.contains_key(name) || !reachable.insert(name) {
            continue;
        }
        for def in &by_name[name] {
            for (_, _, type_idents) in &def.fields {
                for ident in type_idents {
                    frontier.push(ident.as_str());
                }
            }
            for ident in &def.payload_idents {
                frontier.push(ident.as_str());
            }
        }
    }

    // Golden key universe and per-object key sets.
    let mut all_keys: BTreeSet<&str> = BTreeSet::new();
    let mut objects: Vec<(&str, BTreeSet<&str>)> = Vec::new();
    for (file, value) in goldens {
        value.walk(&mut |v| {
            if let Value::Obj(pairs) = v {
                let keys: BTreeSet<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                all_keys.extend(keys.iter().copied());
                objects.push((file.as_str(), keys));
            }
        });
    }

    let mut diags = Vec::new();
    let mut checked: BTreeSet<(&str, &str)> = BTreeSet::new();
    for name in &reachable {
        for def in &by_name[name] {
            if !def.serde || !def.named_struct {
                continue;
            }
            // A name may be defined once per crate; check each definition
            // at most once per file.
            if !checked.insert((def.file.as_str(), def.name.as_str())) {
                continue;
            }
            let field_names: BTreeSet<&str> =
                def.fields.iter().map(|(n, _, _)| n.as_str()).collect();

            // KL-S01: fields no golden has ever witnessed.
            for (fname, fline, _) in &def.fields {
                if !all_keys.contains(fname.as_str()) {
                    diags.push(Diagnostic {
                        rule: "KL-S01",
                        file: def.file.clone(),
                        line: *fline,
                        symbol: format!("{}::{}", def.name, fname),
                        message: format!(
                            "serialized field `{}::{fname}` appears in no results/*.json \
                             golden; regenerate goldens or justify",
                            def.name
                        ),
                        witness: Vec::new(),
                    });
                }
            }

            // KL-S02: the best-matching golden object has extra keys.
            let threshold = 2.max(field_names.len().div_ceil(2));
            let best = objects
                .iter()
                .map(|(file, keys)| {
                    let overlap = keys.intersection(&field_names).count();
                    (overlap, *file, keys)
                })
                .max_by_key(|(overlap, file, _)| (*overlap, std::cmp::Reverse(*file)));
            if let Some((overlap, gfile, keys)) = best {
                if overlap >= threshold {
                    let extra: Vec<&str> = keys.difference(&field_names).copied().collect();
                    if !extra.is_empty() {
                        diags.push(Diagnostic {
                            rule: "KL-S02",
                            file: def.file.clone(),
                            line: def.line,
                            symbol: def.name.clone(),
                            message: format!(
                                "golden {gfile} holds keys [{}] that `{}` no longer \
                                 produces; regenerate goldens or justify",
                                extra.join(", "),
                                def.name
                            ),
                            witness: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    diags
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

    fn types_of(srcs: &[(&str, &str)]) -> Vec<TypeDef> {
        let mut out = Vec::new();
        for (path, src) in srcs {
            collect_types(&ctx(path), &parse_items(&lex(src)), &mut out);
        }
        out
    }

    const RECORD_SRC: &str = "#[derive(Serialize, Deserialize)]\npub struct RunRecord {\n    \
                              pub ml_name: String,\n    pub meta: RunMeta,\n}\n\
                              #[derive(Serialize, Deserialize)]\npub struct RunMeta {\n    \
                              pub wall_ms: f64,\n    pub sim_steps: u64,\n}\n\
                              #[derive(Serialize, Deserialize)]\npub struct Unrelated {\n    \
                              pub zzz: u8,\n}";

    fn golden(json: &str) -> Vec<(String, Value)> {
        vec![("g.json".into(), jsonmini::parse(json).expect("valid"))]
    }

    #[test]
    fn s01_fires_only_on_reachable_missing_fields() {
        let types = types_of(&[("crates/core/src/runner.rs", RECORD_SRC)]);
        let goldens =
            golden("{\"ml_name\":\"x\",\"meta\":{\"wall_ms\":1.0,\"sim_steps\":2,\"extra\":0}}");
        let diags = schema_rules(&types, &goldens);
        // All reachable fields are witnessed; `Unrelated.zzz` is not
        // reachable so its absence does not fire.
        assert!(diags.iter().all(|d| d.rule != "KL-S01"), "{diags:?}");
        // Rename `wall_ms` in the golden → the struct field is orphaned.
        let goldens = golden("{\"ml_name\":\"x\",\"meta\":{\"wall\":1.0,\"sim_steps\":2}}");
        let diags = schema_rules(&types, &goldens);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "KL-S01" && d.symbol == "RunMeta::wall_ms"),
            "{diags:?}"
        );
    }

    #[test]
    fn s02_fires_when_golden_has_orphaned_keys() {
        let types = types_of(&[("crates/core/src/runner.rs", RECORD_SRC)]);
        let goldens = golden(
            "{\"ml_name\":\"x\",\"meta\":{\"wall_ms\":1.0,\"sim_steps\":2,\"dropped_field\":9}}",
        );
        let diags = schema_rules(&types, &goldens);
        assert!(
            diags.iter().any(|d| d.rule == "KL-S02"
                && d.symbol == "RunMeta"
                && d.message.contains("dropped_field")),
            "{diags:?}"
        );
    }

    #[test]
    fn no_goldens_means_no_schema_findings() {
        let types = types_of(&[("crates/core/src/runner.rs", RECORD_SRC)]);
        assert!(schema_rules(&types, &[]).is_empty());
    }
}
