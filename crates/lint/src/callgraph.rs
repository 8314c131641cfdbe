//! Workspace call-graph construction and panic-reachability analysis.
//!
//! Built from the per-file ASTs produced by [`crate::parse`]. Functions are
//! nodes; an edge `caller → callee` exists when the caller's body contains a
//! call that *may* resolve to the callee under the name-based resolution
//! below. Resolution is deliberately an **over-approximation** (no type
//! inference, no trait solving):
//!
//! * `name(…)` — every free function called `name` in the caller's crate.
//! * `Type::name(…)` — when `Type` names a workspace type with an impl:
//!   that type's `name`. `Self::name(…)` uses the enclosing impl's type.
//! * `module::name(…)` — every free function called `name`, workspace-wide
//!   (the qualifier is a module path the resolver does not model).
//! * `recv.name(…)` — every workspace method called `name`, on any type
//!   (the receiver's type is unknown).
//!
//! Over-approximation direction matters: edges that cannot exist at runtime
//! may be added, so panic *reachability* can have false positives (pinned in
//! the baseline) but a reported chain always names real call expressions.
//! `#[cfg(test)]` functions are excluded entirely — their panics are
//! intended, and nothing in shipped code can call them.
//!
//! Panic **sites** seed the analysis per [`PanicKind`]:
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros ([`PanicKind::Macro`])
//! and `.unwrap()`/`.expect(…)` ([`PanicKind::Unwrap`]). `assert!`-family
//! macros are deliberately **not** sites: asserts state invariants, and
//! flagging them would dilute the signal (documented under-approximation).
//! Nor is `x[i]` indexing: nearly every numeric routine reaches one, and
//! the Runner turns a bounds panic into an error record like any other.

use crate::ast::{Expr, Item, ItemKind};
use std::collections::{BTreeMap, VecDeque};

/// The kinds of panic site, in diagnostic-priority order: when a public
/// function reaches several kinds, only the highest-priority one is
/// reported (KL-R01 before KL-R02).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `.unwrap()` / `.expect(…)`.
    Unwrap,
}

impl PanicKind {
    /// All kinds, in priority order.
    pub const ALL: [PanicKind; 2] = [PanicKind::Macro, PanicKind::Unwrap];
}

/// One concrete panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: u32,
    /// Display form for diagnostics: `panic!`, `.unwrap()`…
    pub what: String,
}

/// An unresolved call reference collected from a function body.
#[derive(Debug, Clone)]
enum CallRef {
    /// `a::b::name(…)` — path call with its segments.
    Path(Vec<String>),
    /// `recv.name(…)`.
    Method(String),
}

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode<'a> {
    pub name: String,
    /// Enclosing impl/trait type name for methods; `None` for free fns.
    pub owner: Option<String>,
    /// Crate label derived from the file path (`core`, `mem`, … or `root`).
    pub krate: String,
    pub file: String,
    pub line: u32,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(in …)`).
    pub public: bool,
    /// The file lives in a panic-scope crate (KL-R reports only these).
    pub panic_scope: bool,
    pub sites: Vec<PanicSite>,
    /// Parameter names in declaration order (dataflow summaries).
    pub params: Vec<String>,
    /// Signature identifier tokens (parameter/return types, where clause),
    /// for type co-occurrence checks without a type grammar.
    pub sig_idents: Vec<String>,
    /// The parsed body, for expression-level analyses over the graph.
    pub body: Option<&'a Expr>,
    calls: Vec<CallRef>,
}

impl FnNode<'_> {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Stable symbol path for baselines: `krate::Type::name`.
    pub fn symbol(&self) -> String {
        format!("{}::{}", self.krate, self.display())
    }
}

/// One parsed file feeding the graph.
pub struct SourceUnit<'a> {
    pub file: &'a str,
    pub krate: &'a str,
    pub panic_scope: bool,
    pub items: &'a [Item],
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    pub fns: Vec<FnNode<'a>>,
    /// caller index → sorted, deduplicated callee indices.
    edges: Vec<Vec<usize>>,
    /// callee index → caller indices (for reverse BFS).
    redges: Vec<Vec<usize>>,
    // Resolution indices (kept so expression-level analyses can resolve
    // individual call sites). BTreeMaps keep iteration deterministic.
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    by_type: BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph from every file's AST.
    pub fn build(units: &[SourceUnit<'a>]) -> CallGraph<'a> {
        let mut fns = Vec::new();
        for unit in units {
            collect_fns(unit.items, unit, None, false, &mut fns);
        }

        let mut free_by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_type: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.owner {
                None => {
                    free_by_crate
                        .entry((f.krate.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    free_by_name.entry(f.name.clone()).or_default().push(i);
                }
                Some(t) => {
                    by_type
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                }
            }
        }

        let mut graph = CallGraph {
            fns,
            edges: Vec::new(),
            redges: Vec::new(),
            free_by_crate,
            free_by_name,
            by_type,
            methods_by_name,
        };

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()];
        for (i, slot) in edges.iter_mut().enumerate() {
            let mut callees: Vec<usize> = Vec::new();
            for call in &graph.fns[i].calls {
                match call {
                    CallRef::Method(name) => callees.extend(graph.resolve_method(name)),
                    CallRef::Path(segments) => {
                        callees.extend(graph.resolve_path(i, segments));
                    }
                }
            }
            callees.sort_unstable();
            callees.dedup();
            *slot = callees;
        }

        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()];
        for (caller, callees) in edges.iter().enumerate() {
            for &callee in callees {
                redges[callee].push(caller);
            }
        }

        graph.edges = edges;
        graph.redges = redges;
        graph
    }

    /// Resolves a path call appearing in `caller`'s body to candidate
    /// callee indices, under the module-level over-approximation rules.
    pub fn resolve_path(&self, caller: usize, segments: &[String]) -> &[usize] {
        static EMPTY: [usize; 0] = [];
        let f = &self.fns[caller];
        match segments {
            [] => &EMPTY,
            // Same-crate candidates win; otherwise the name was brought in
            // by a `use` import, so fall back to every crate's free fns
            // (the usual name-based over-approximation).
            [name] => self
                .free_by_crate
                .get(&(f.krate.clone(), name.clone()))
                .map(Vec::as_slice)
                .filter(|c| !c.is_empty())
                .or_else(|| self.free_by_name.get(name.as_str()).map(Vec::as_slice))
                .unwrap_or(&EMPTY),
            [.., qual, name] => {
                let qual = if qual == "Self" {
                    f.owner.as_deref().unwrap_or(qual)
                } else {
                    qual
                };
                if let Some(ix) = self.by_type.get(&(qual.to_string(), name.clone())) {
                    ix.as_slice()
                } else if qual_is_module(qual) {
                    self.free_by_name
                        .get(name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&EMPTY)
                } else {
                    &EMPTY
                }
            }
        }
    }

    /// Resolves a method call by name to every workspace method candidate.
    pub fn resolve_method(&self, name: &str) -> &[usize] {
        static EMPTY: [usize; 0] = [];
        self.methods_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or(&EMPTY)
    }

    /// Shortest distance (in call hops) from each function to a panic site
    /// of `kind`; `None` when unreachable. Distance 0 means the function
    /// contains such a site itself.
    pub fn distances(&self, kind: PanicKind) -> Vec<Option<u32>> {
        let mut dist: Vec<Option<u32>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.sites.iter().any(|s| s.kind == kind) {
                dist[i] = Some(0);
                queue.push_back(i);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let next = dist[cur].map(|d| d + 1);
            for &caller in &self.redges[cur] {
                if dist[caller].is_none() {
                    dist[caller] = next;
                    queue.push_back(caller);
                }
            }
        }
        dist
    }

    /// Reconstructs the shortest witness chain from `start` down to a
    /// function containing a site of `kind`, plus that site. Ties are
    /// broken by (display name, file, line) so the chain is deterministic.
    /// `start` must be reachable under `dist`.
    pub fn witness(
        &self,
        start: usize,
        kind: PanicKind,
        dist: &[Option<u32>],
    ) -> (Vec<usize>, PanicSite) {
        let mut chain = vec![start];
        let mut cur = start;
        while let Some(d) = dist[cur] {
            if d == 0 {
                break;
            }
            let step = self.edges[cur]
                .iter()
                .copied()
                .filter(|&c| dist[c] == Some(d - 1))
                .min_by_key(|&c| {
                    let f = &self.fns[c];
                    (f.display(), f.file.clone(), f.line)
                });
            match step {
                Some(next) => {
                    chain.push(next);
                    cur = next;
                }
                None => break, // defensive: dist said reachable, trust chain so far
            }
        }
        let site = self.fns[cur]
            .sites
            .iter()
            .filter(|s| s.kind == kind)
            .min_by_key(|s| s.line)
            .cloned()
            .unwrap_or(PanicSite {
                kind,
                line: self.fns[cur].line,
                what: "panic".into(),
            });
        (chain, site)
    }
}

/// A lowercase first letter marks a module-path qualifier (`solver::solve`);
/// an uppercase one that is not a known type is most likely an enum variant
/// or std type constructor (`Some`, `Vec::new`) and resolving it by bare
/// name would wire huge spurious fan-out into the graph.
fn qual_is_module(qual: &str) -> bool {
    qual.chars().next().is_some_and(|c| c.is_lowercase())
}

/// Recursively collects function nodes, tracking the enclosing impl/trait
/// type and `#[cfg(test)]` inheritance. Test functions are skipped.
fn collect_fns<'a>(
    items: &'a [Item],
    unit: &SourceUnit<'a>,
    owner: Option<&str>,
    in_test: bool,
    out: &mut Vec<FnNode<'a>>,
) {
    for item in items {
        let item_test = in_test || item.attrs.iter().any(|a| a.is_cfg_test());
        match &item.kind {
            ItemKind::Impl(b) => {
                collect_fns(&b.items, unit, Some(&b.type_name), item_test, out);
            }
            ItemKind::Trait(t) => {
                collect_fns(&t.items, unit, Some(&t.name), item_test, out);
            }
            ItemKind::Mod(m) => {
                collect_fns(&m.items, unit, owner, item_test, out);
            }
            ItemKind::Fn(f) => {
                let is_test_fn = item_test
                    || item
                        .attrs
                        .iter()
                        .any(|a| a.idents.first().is_some_and(|i| i == "test"));
                if is_test_fn {
                    continue;
                }
                let mut node = FnNode {
                    name: f.name.clone(),
                    owner: owner.map(str::to_string),
                    krate: unit.krate.to_string(),
                    file: unit.file.to_string(),
                    line: f.line,
                    public: item.public && !item.restricted,
                    panic_scope: unit.panic_scope,
                    sites: Vec::new(),
                    params: f.params.clone(),
                    sig_idents: f.sig_idents.clone(),
                    body: f.body.as_ref(),
                    calls: Vec::new(),
                };
                if let Some(body) = &f.body {
                    harvest_body(body, &mut node);
                    out.push(node);
                    // Nested `fn` items inside the body are functions too
                    // (never public API; owner does not apply).
                    let mut nested: Vec<&'a Item> = Vec::new();
                    body.walk(&mut |e| {
                        if let Expr::Block { items, .. } = e {
                            nested.extend(items.iter());
                        }
                    });
                    for n in nested {
                        collect_fns(std::slice::from_ref(n), unit, None, item_test, out);
                    }
                } else {
                    out.push(node);
                }
            }
            _ => {}
        }
    }
}

/// Collects panic sites and call references from one function body.
fn harvest_body(body: &Expr, node: &mut FnNode<'_>) {
    body.walk(&mut |e| match e {
        Expr::Call { callee, .. } => {
            if let Expr::Path { segments, .. } = callee.as_ref() {
                node.calls.push(CallRef::Path(segments.clone()));
            }
        }
        Expr::MethodCall { method, line, .. } => {
            if method == "unwrap" || method == "expect" {
                node.sites.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    line: *line,
                    what: format!(".{method}()"),
                });
            }
            node.calls.push(CallRef::Method(method.clone()));
        }
        Expr::Macro { name, line, .. } => {
            if matches!(
                name.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) {
                node.sites.push(PanicSite {
                    kind: PanicKind::Macro,
                    line: *line,
                    what: format!("{name}!"),
                });
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn graph(srcs: &[(&'static str, &'static str, &'static str)]) -> CallGraph<'static> {
        // Tests leak the parsed trees so the graph can borrow them freely.
        let parsed: &'static [Vec<Item>] = Box::leak(
            srcs.iter()
                .map(|(_, _, src)| parse_items(&lex(src)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );
        let units: Vec<SourceUnit<'static>> = srcs
            .iter()
            .zip(parsed.iter())
            .map(|((file, krate, _), items)| SourceUnit {
                file,
                krate,
                panic_scope: true,
                items,
            })
            .collect();
        CallGraph::build(&units)
    }

    fn idx(g: &CallGraph<'_>, name: &str) -> usize {
        g.fns.iter().position(|f| f.display() == name).expect(name)
    }

    #[test]
    fn multi_hop_chain_with_shortest_witness() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn entry() { middle(); }\n\
             fn middle() { deep(); }\n\
             fn deep() { let v: Vec<u32> = Vec::new(); v.first().unwrap(); }\n\
             pub fn direct() { deep(); }",
        )]);
        let dist = g.distances(PanicKind::Unwrap);
        let entry = idx(&g, "entry");
        assert_eq!(dist[entry], Some(2));
        let (chain, site) = g.witness(entry, PanicKind::Unwrap, &dist);
        let names: Vec<String> = chain.iter().map(|&i| g.fns[i].display()).collect();
        assert_eq!(names, vec!["entry", "middle", "deep"]);
        assert_eq!(site.line, 3);
        assert_eq!(site.what, ".unwrap()");
        // `direct` is one hop closer.
        assert_eq!(dist[idx(&g, "direct")], Some(1));
    }

    #[test]
    fn method_and_type_qualified_resolution() {
        let g = graph(&[(
            "crates/mem/src/b.rs",
            "mem",
            "pub struct S;\n\
             impl S { pub fn solve(&self) { self.inner(); }\n\
                      fn inner(&self) { panic!(\"boom\"); } }\n\
             pub fn run(s: &S) { s.solve(); }\n\
             pub fn construct() { S::solve_all(); }\n\
             impl S { pub fn solve_all() { todo!() } }",
        )]);
        let dist = g.distances(PanicKind::Macro);
        assert_eq!(dist[idx(&g, "S::inner")], Some(0));
        assert_eq!(dist[idx(&g, "S::solve")], Some(1));
        assert_eq!(dist[idx(&g, "run")], Some(2));
        assert_eq!(dist[idx(&g, "construct")], Some(1));
    }

    #[test]
    fn cross_crate_module_qualified_calls_resolve() {
        let g = graph(&[
            (
                "crates/core/src/c.rs",
                "core",
                "pub fn tick() { kelp_mem::solver::solve(); }",
            ),
            (
                "crates/mem/src/solver.rs",
                "mem",
                "pub fn solve() { let xs: Vec<u32> = Vec::new(); xs.first().unwrap(); }",
            ),
        ]);
        let dist = g.distances(PanicKind::Unwrap);
        assert_eq!(dist[idx(&g, "solve")], Some(0));
        assert_eq!(dist[idx(&g, "tick")], Some(1));
    }

    #[test]
    fn cfg_test_functions_are_invisible() {
        let g = graph(&[(
            "crates/core/src/d.rs",
            "core",
            "pub fn clean() {}\n\
             #[cfg(test)]\nmod tests { pub fn helper() { x().unwrap(); } }\n\
             #[test]\nfn t() { clean(); helper(); }",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.distances(PanicKind::Unwrap)[idx(&g, "clean")], None);
    }

    #[test]
    fn same_crate_free_call_shadows_cross_crate_fallback() {
        // A same-crate definition wins outright: the benign local `helper`
        // resolves and the panicking one in `mem` does not leak in.
        let g = graph(&[
            (
                "crates/core/src/f.rs",
                "core",
                "pub fn go() { helper(); }\npub fn helper() {}",
            ),
            (
                "crates/mem/src/g.rs",
                "mem",
                "pub fn helper() { panic!(\"other crate\"); }",
            ),
        ]);
        assert_eq!(g.distances(PanicKind::Macro)[idx(&g, "go")], None);

        // Without a same-crate candidate the name must have arrived via a
        // `use` import, so resolution falls back across crates.
        let g = graph(&[
            ("crates/core/src/f.rs", "core", "pub fn go() { helper(); }"),
            (
                "crates/mem/src/g.rs",
                "mem",
                "pub fn helper() { panic!(\"other crate\"); }",
            ),
        ]);
        assert_eq!(g.distances(PanicKind::Macro)[idx(&g, "go")], Some(1));
    }
}
