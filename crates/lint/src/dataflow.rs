//! The v3 interprocedural nondeterminism-taint dataflow engine
//! (KL-T01…T03).
//!
//! A flow-insensitive-per-variable, **interprocedural** forward dataflow
//! over the [`crate::callgraph`]. Taint kinds form a flat powerset lattice
//! ({} ⊑ any subset of {clock, rand, env, hash-order, jobs}); every taint
//! carries its provenance as a [`WitnessStep`] chain so a violation is
//! reported as a shortest source→…→sink chain in the KL-R style.
//!
//! * **Sources** — `Instant`/`SystemTime` paths (clock),
//!   `thread_rng`/`from_entropy`/`rand::random` (rand), `env::var[_os]`/
//!   `env::vars` (env), `.values()`/`.keys()`/`.drain()` iteration in a
//!   function mentioning `HashMap`/`HashSet` (hash-order), and
//!   `available_parallelism`/`num_cpus` (jobs).
//! * **Propagation** — `let` bindings, assignments (plain and compound,
//!   through field and index spines), struct-literal fields, `for`/`match`
//!   bindings, returns, and *name-resolved calls*: each function gets a
//!   summary (return taint, param→return flows, param→sink flows) and the
//!   engine iterates to a fixed point over the call graph. Everything is
//!   additive, so the fixed point exists and is reached monotonically.
//! * **Sinks** — serde-serialized fields of structs reachable from
//!   `RunRecord`/`ExperimentResult` (KL-T01), `fs::write` content
//!   arguments (KL-T02), and cache-key computation — `fnv1a64(…)` /
//!   `.hash(…)` (KL-T03).
//!
//! Deliberate precision choices (all documented over-approximations or
//! sanitizers, mirroring the codebase's rendezvous idioms):
//!
//! * A tainted **index** does not taint the container or the element read:
//!   `records[slot] = r` keyed by a `Relaxed` counter is exactly the
//!   placement rendezvous that makes the worker pool deterministic.
//! * `.sort*()` kills hash-order taint on the receiver (sorting is the
//!   other rendezvous).
//! * A taint that crosses into a serialized field is **consumed** there:
//!   the field hit is reported once, and the constructed value does not
//!   re-taint every transitive consumer (one finding per flow, not one per
//!   downstream copy).
//! * `serde_json::to_*` is taint-preserving (the vendored shim's internals
//!   route data through a serializer the summary engine cannot follow).

use crate::ast::Expr;
use crate::callgraph::CallGraph;
use crate::rules::{Diagnostic, WitnessStep};
use crate::rules_v2::{TypeDef, SCHEMA_ROOTS};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on witness-chain length: long chains stay truncated mid-flow rather
/// than growing without bound through deep call stacks or loops.
const MAX_CHAIN: usize = 16;
/// Backstop on fixed-point rounds (the lattice is finite and everything is
/// additive, so convergence is expected in a handful of rounds).
const MAX_ROUNDS: usize = 24;

// ---------------------------------------------------------------------------
// Taint lattice
// ---------------------------------------------------------------------------

/// The nondeterminism taint kinds (a flat powerset lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    Clock,
    Rand,
    Env,
    HashOrder,
    Jobs,
}

impl TaintKind {
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::Clock => "clock",
            TaintKind::Rand => "rand",
            TaintKind::Env => "env",
            TaintKind::HashOrder => "hash-order",
            TaintKind::Jobs => "jobs",
        }
    }
}

/// Where a taint entered the current function: an in-body source, or one of
/// the function's parameters (the latter feeds the caller-side summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    Source(TaintKind),
    Param(usize),
}

/// One taint: its origin plus the provenance chain accumulated so far.
#[derive(Debug, Clone)]
struct Taint {
    origin: Origin,
    steps: Vec<WitnessStep>,
}

fn chain_key(steps: &[WitnessStep]) -> (usize, String) {
    let mut s = String::new();
    for st in steps {
        s.push_str(&st.what);
        s.push('\u{1}');
        s.push_str(&st.file);
        s.push('\u{1}');
        s.push_str(&st.line.to_string());
        s.push('\u{2}');
    }
    (steps.len(), s)
}

/// Merges one taint into a set: one entry per origin, shortest (then
/// lexicographically smallest) chain wins, so provenance is deterministic
/// regardless of evaluation order.
fn merge_one(dst: &mut Vec<Taint>, t: Taint) {
    match dst.iter_mut().find(|d| d.origin == t.origin) {
        Some(d) => {
            if chain_key(&t.steps) < chain_key(&d.steps) {
                d.steps = t.steps;
            }
        }
        None => {
            dst.push(t);
            dst.sort_by_key(|d| d.origin);
        }
    }
}

fn merge(dst: &mut Vec<Taint>, src: &[Taint]) {
    for t in src {
        merge_one(dst, t.clone());
    }
}

fn push_step(t: &mut Taint, what: String, file: &str, line: u32) {
    if t.steps.len() < MAX_CHAIN {
        t.steps.push(WitnessStep {
            what,
            file: file.to_string(),
            line,
        });
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A sink location. For KL-T01 the symbol is the `Struct::field` path (the
/// line-drift-stable baseline key); for KL-T02/T03 it is the enclosing
/// function's symbol.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SinkSite {
    rule: &'static str,
    file: String,
    line: u32,
    symbol: String,
    desc: String,
}

/// The serialized sink surface: for every serde-derived named struct
/// reachable from [`SCHEMA_ROOTS`], its field-name set — plus the reverse
/// (field name → owning structs) for `x.field = …` assignments.
pub struct SinkConfig {
    fields: BTreeMap<String, BTreeSet<String>>,
    owners: BTreeMap<String, Vec<String>>,
}

impl SinkConfig {
    /// Chases type reachability from the schema roots and keeps the
    /// serde-derived named structs.
    pub fn build(types: &[TypeDef]) -> SinkConfig {
        let mut by_name: BTreeMap<&str, Vec<&TypeDef>> = BTreeMap::new();
        for t in types {
            by_name.entry(t.name.as_str()).or_default().push(t);
        }
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
        let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for name in &reachable {
            for def in &by_name[name] {
                if !def.serde || !def.named_struct {
                    continue;
                }
                let set = fields.entry(def.name.clone()).or_default();
                for (fname, _, _) in &def.fields {
                    set.insert(fname.clone());
                    let own = owners.entry(fname.clone()).or_default();
                    if !own.contains(&def.name) {
                        own.push(def.name.clone());
                        own.sort();
                    }
                }
            }
        }
        SinkConfig { fields, owners }
    }
}

// ---------------------------------------------------------------------------
// Function summaries
// ---------------------------------------------------------------------------

/// A taint flow from a parameter to a sink somewhere inside (or below) a
/// function: materialized at call sites where the argument is tainted.
#[derive(Debug, Clone)]
struct ParamSink {
    param: usize,
    sink: SinkSite,
    /// Chain from the parameter's entry to the sink.
    steps: Vec<WitnessStep>,
}

/// One function's dataflow summary.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// Source-originated taint escaping through the return value.
    ret: Vec<Taint>,
    /// Parameters whose taint flows to the return value.
    param_ret: BTreeSet<usize>,
    /// Parameters whose taint reaches a sink inside the function.
    param_sinks: Vec<ParamSink>,
}

impl Summary {
    /// The convergence key: origins and sink identities, not provenance
    /// chains (chains are recomputed deterministically every round).
    fn key(&self) -> (Vec<Origin>, Vec<usize>, Vec<(usize, SinkSite)>) {
        (
            self.ret.iter().map(|t| t.origin).collect(),
            self.param_ret.iter().copied().collect(),
            self.param_sinks
                .iter()
                .map(|p| (p.param, p.sink.clone()))
                .collect(),
        )
    }
}

/// A source-originated taint that reached a sink.
struct Hit {
    sink: SinkSite,
    kind: TaintKind,
    steps: Vec<WitnessStep>,
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

fn source_of_path(segments: &[String]) -> Option<TaintKind> {
    let last = segments.last().map(String::as_str)?;
    if segments.iter().any(|s| s == "Instant" || s == "SystemTime") {
        return Some(TaintKind::Clock);
    }
    if last == "thread_rng" || last == "from_entropy" {
        return Some(TaintKind::Rand);
    }
    if last == "random" && segments.iter().any(|s| s == "rand") {
        return Some(TaintKind::Rand);
    }
    if matches!(last, "var" | "var_os" | "vars") && segments.iter().any(|s| s == "env") {
        return Some(TaintKind::Env);
    }
    if last == "available_parallelism" || segments.iter().any(|s| s == "num_cpus") {
        return Some(TaintKind::Jobs);
    }
    None
}

/// `fs::write(path, contents)` — the one raw results writer. The path
/// argument is skipped: an env-derived *destination* does not make the
/// written *bytes* nondeterministic.
fn writer_sink(segments: &[String]) -> Option<(usize, String)> {
    let last = segments.last()?;
    if last == "write" && segments.iter().any(|s| s == "fs") {
        return Some((1, segments.join("::")));
    }
    None
}

/// The vendored serde_json entry points are treated as taint-preserving
/// built-ins: their internals route data through a serializer the summary
/// engine cannot follow, so resolution would lose the flow.
fn is_serde_passthrough(segments: &[String]) -> bool {
    segments.iter().any(|s| s == "serde_json")
        && segments.last().is_some_and(|l| {
            matches!(
                l.as_str(),
                "to_string" | "to_string_pretty" | "to_vec" | "to_writer" | "from_str"
            )
        })
}

// ---------------------------------------------------------------------------
// The intraprocedural evaluator
// ---------------------------------------------------------------------------

struct Eval<'e, 'a> {
    graph: &'e CallGraph<'a>,
    summaries: &'e [Summary],
    sinks: &'e SinkConfig,
    me: usize,
    mentions_hash: bool,
    env: BTreeMap<String, Vec<Taint>>,
    ret: Vec<Taint>,
    hits: Vec<Hit>,
    psinks: Vec<ParamSink>,
}

impl Eval<'_, '_> {
    fn file(&self) -> &str {
        &self.graph.fns[self.me].file
    }

    fn my_symbol(&self) -> String {
        self.graph.fns[self.me].symbol()
    }

    fn bind_merge(&mut self, name: &str, ts: Vec<Taint>) {
        if ts.is_empty() {
            return;
        }
        merge(self.env.entry(name.to_string()).or_default(), &ts);
    }

    /// Routes a taint reaching `site`: source origins become candidate
    /// diagnostics, param origins become caller-side summary entries.
    fn sink(&mut self, site: &SinkSite, ts: &[Taint]) {
        for t in ts {
            match t.origin {
                Origin::Source(kind) => self.hits.push(Hit {
                    sink: site.clone(),
                    kind,
                    steps: t.steps.clone(),
                }),
                Origin::Param(p) => self.psinks.push(ParamSink {
                    param: p,
                    sink: site.clone(),
                    steps: t.steps.clone(),
                }),
            }
        }
    }

    /// Applies callee summaries at a call site: returns the result taint and
    /// materializes param→sink flows against the (receiver +) arguments.
    fn apply_callees(
        &mut self,
        cands: &[usize],
        recv: Option<&[Taint]>,
        args: &[Vec<Taint>],
        line: u32,
    ) -> Vec<Taint> {
        let mut out = Vec::new();
        for &c in cands {
            let callee = &self.graph.fns[c];
            let sum = &self.summaries[c];
            let display = callee.display();
            let has_self = callee.params.first().is_some_and(|p| p == "self");
            let shift = usize::from(has_self && recv.is_some());
            let param_taint = |pi: usize| -> Option<&[Taint]> {
                if has_self && recv.is_some() && pi == 0 {
                    recv
                } else {
                    pi.checked_sub(shift)
                        .and_then(|ai| args.get(ai))
                        .map(Vec::as_slice)
                }
            };
            merge(&mut out, &sum.ret);
            for &p in &sum.param_ret {
                if let Some(at) = param_taint(p) {
                    let mut ts = at.to_vec();
                    for t in &mut ts {
                        push_step(t, format!("through `{display}`"), self.file(), line);
                    }
                    merge(&mut out, &ts);
                }
            }
            for ps in sum.param_sinks.clone() {
                if let Some(at) = param_taint(ps.param) {
                    for t in at.iter().cloned() {
                        let mut steps = t.steps;
                        if steps.len() < MAX_CHAIN {
                            steps.push(WitnessStep {
                                what: format!("passed to `{display}`"),
                                file: self.file().to_string(),
                                line,
                            });
                        }
                        for s in &ps.steps {
                            if steps.len() < MAX_CHAIN {
                                steps.push(s.clone());
                            }
                        }
                        self.sink(
                            &ps.sink,
                            &[Taint {
                                origin: t.origin,
                                steps,
                            }],
                        );
                    }
                }
            }
        }
        out
    }

    fn eval_opt(&mut self, e: Option<&Expr>) -> Vec<Taint> {
        e.map(|e| self.eval(e)).unwrap_or_default()
    }

    fn eval(&mut self, e: &Expr) -> Vec<Taint> {
        match e {
            Expr::Path { segments, line } => {
                let mut out = Vec::new();
                if let [name] = segments.as_slice() {
                    if let Some(ts) = self.env.get(name) {
                        out = ts.clone();
                    }
                }
                if let Some(kind) = source_of_path(segments) {
                    merge_one(
                        &mut out,
                        Taint {
                            origin: Origin::Source(kind),
                            steps: vec![WitnessStep {
                                what: format!("`{}`", segments.join("::")),
                                file: self.file().to_string(),
                                line: *line,
                            }],
                        },
                    );
                }
                out
            }
            Expr::Lit { .. } | Expr::Opaque { .. } => Vec::new(),
            Expr::Let {
                pat_idents,
                init,
                els,
                line,
            } => {
                let t = self.eval_opt(init.as_deref());
                self.eval_opt(els.as_deref());
                for id in pat_idents {
                    let mut ts = t.clone();
                    for x in &mut ts {
                        push_step(x, format!("let `{id}`"), self.file(), *line);
                    }
                    self.bind_merge(id, ts);
                }
                Vec::new()
            }
            Expr::Assign {
                target,
                value,
                line,
                ..
            } => {
                let vt = self.eval_opt(value.as_deref());
                self.assign_into(target, vt, *line);
                Vec::new()
            }
            Expr::StructLit {
                name,
                fields,
                rest,
                line,
            } => {
                let mut out = Vec::new();
                let sink_fields = self.sinks.fields.get(name).cloned();
                for (fname, fexpr) in fields {
                    let ft = self.eval(fexpr);
                    if sink_fields.as_ref().is_some_and(|fs| fs.contains(fname)) {
                        let site = SinkSite {
                            rule: "KL-T01",
                            file: self.file().to_string(),
                            line: fexpr.line().max(*line),
                            symbol: format!("{name}::{fname}"),
                            desc: format!("serialized field `{name}::{fname}`"),
                        };
                        self.sink(&site, &ft);
                        // Consumed: reported at the serialization boundary,
                        // not re-reported by every downstream consumer.
                    } else {
                        merge(&mut out, &ft);
                    }
                }
                for r in rest {
                    let rt = self.eval(r);
                    merge(&mut out, &rt);
                }
                out
            }
            Expr::Call { callee, args, line } => {
                let ats: Vec<Vec<Taint>> = args.iter().map(|a| self.eval(a)).collect();
                if let Expr::Path { segments, .. } = callee.as_ref() {
                    if let Some((skip, display)) = writer_sink(segments) {
                        let site = SinkSite {
                            rule: "KL-T02",
                            file: self.file().to_string(),
                            line: *line,
                            symbol: self.my_symbol(),
                            desc: format!("results writer `{display}`"),
                        };
                        for at in ats.iter().skip(skip) {
                            self.sink(&site, at);
                        }
                    }
                    if segments.last().is_some_and(|l| l == "fnv1a64") {
                        let site = SinkSite {
                            rule: "KL-T03",
                            file: self.file().to_string(),
                            line: *line,
                            symbol: self.my_symbol(),
                            desc: "cache-key computation `fnv1a64(…)`".to_string(),
                        };
                        for at in &ats {
                            self.sink(&site, at);
                        }
                    }
                    if is_serde_passthrough(segments) {
                        let mut out = Vec::new();
                        for at in &ats {
                            merge(&mut out, at);
                        }
                        return out;
                    }
                    let cands = self.graph.resolve_path(self.me, segments).to_vec();
                    if cands.is_empty() {
                        let mut out = self.eval(callee);
                        for at in &ats {
                            merge(&mut out, at);
                        }
                        out
                    } else {
                        self.apply_callees(&cands, None, &ats, *line)
                    }
                } else {
                    let mut out = self.eval(callee);
                    for at in &ats {
                        merge(&mut out, at);
                    }
                    out
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                let rt = self.eval(recv);
                let ats: Vec<Vec<Taint>> = args.iter().map(|a| self.eval(a)).collect();
                if method.starts_with("sort") {
                    // Sorting is the order rendezvous: it kills hash-order
                    // taint on the receiver variable.
                    if let Some(root) = root_var(recv) {
                        if let Some(ts) = self.env.get_mut(root) {
                            ts.retain(|t| t.origin != Origin::Source(TaintKind::HashOrder));
                        }
                    }
                    return Vec::new();
                }
                if method == "hash" {
                    let site = SinkSite {
                        rule: "KL-T03",
                        file: self.file().to_string(),
                        line: *line,
                        symbol: self.my_symbol(),
                        desc: "cache-key computation `.hash(…)`".to_string(),
                    };
                    self.sink(&site, &rt);
                    for at in &ats {
                        self.sink(&site, at);
                    }
                }
                let hash_iter = self.mentions_hash
                    && matches!(
                        method.as_str(),
                        "values" | "keys" | "into_values" | "into_keys" | "drain"
                    );
                let cands = self.graph.resolve_method(method).to_vec();
                let mut out = if cands.is_empty() {
                    let mut o = rt;
                    for at in &ats {
                        merge(&mut o, at);
                    }
                    o
                } else {
                    self.apply_callees(&cands, Some(&rt), &ats, *line)
                };
                if hash_iter {
                    merge_one(
                        &mut out,
                        Taint {
                            origin: Origin::Source(TaintKind::HashOrder),
                            steps: vec![WitnessStep {
                                what: format!("`.{method}()` over hash-ordered storage"),
                                file: self.file().to_string(),
                                line: *line,
                            }],
                        },
                    );
                }
                out
            }
            Expr::Field { base, .. } => self.eval(base),
            Expr::Index { base, index, .. } => {
                // A tainted *index* does not taint the element: index-keyed
                // placement is the deterministic rendezvous idiom.
                self.eval(index);
                self.eval(base)
            }
            Expr::Macro { args, .. } => {
                let mut out = Vec::new();
                for a in args {
                    let t = self.eval(a);
                    merge(&mut out, &t);
                }
                out
            }
            Expr::Cast { expr, .. } => self.eval(expr),
            Expr::Closure { params, body, .. } => {
                // Params shadow captures for the closure body; non-param
                // bindings made inside persist (captured state).
                let saved: Vec<(String, Option<Vec<Taint>>)> = params
                    .iter()
                    .map(|p| (p.clone(), self.env.get(p).cloned()))
                    .collect();
                for p in params {
                    self.env.insert(p.clone(), Vec::new());
                }
                let t = self.eval(body);
                for (p, old) in saved {
                    match old {
                        Some(v) => {
                            self.env.insert(p, v);
                        }
                        None => {
                            self.env.remove(&p);
                        }
                    }
                }
                t
            }
            Expr::Block { stmts, .. } => {
                let mut last = Vec::new();
                for s in stmts {
                    last = self.eval(s);
                }
                last
            }
            Expr::For {
                pat_idents,
                iter,
                body,
                line,
            } => {
                let it = self.eval_opt(iter.as_deref());
                for id in pat_idents {
                    let mut ts = it.clone();
                    for t in &mut ts {
                        push_step(t, format!("for `{id}` in …"), self.file(), *line);
                    }
                    self.bind_merge(id, ts);
                }
                self.eval_opt(body.as_deref());
                Vec::new()
            }
            Expr::Match {
                scrutinee,
                arms,
                line,
            } => {
                let st = self.eval_opt(scrutinee.as_deref());
                let mut out = Vec::new();
                for arm in arms {
                    for id in &arm.pat_idents {
                        let mut ts = st.clone();
                        for t in &mut ts {
                            push_step(t, format!("bound `{id}` in match"), self.file(), *line);
                        }
                        self.bind_merge(id, ts);
                    }
                    for c in &arm.children {
                        let t = self.eval(c);
                        merge(&mut out, &t);
                    }
                }
                out
            }
            Expr::Ret { value, .. } => {
                let t = self.eval_opt(value.as_deref());
                merge(&mut self.ret, &t);
                Vec::new()
            }
            Expr::Range { operands, .. }
            | Expr::Many {
                children: operands, ..
            } => {
                let mut out = Vec::new();
                for c in operands {
                    let t = self.eval(c);
                    merge(&mut out, &t);
                }
                out
            }
        }
    }

    /// Assignment targets: variables get (weak) updates, serialized fields
    /// are sinks, index writes merge into the container variable.
    fn assign_into(&mut self, target: &Expr, vt: Vec<Taint>, line: u32) {
        match peel(target) {
            Expr::Path { segments, .. } => {
                if let [name] = segments.as_slice() {
                    let mut ts = vt;
                    for t in &mut ts {
                        push_step(t, format!("assigned to `{name}`"), self.file(), line);
                    }
                    self.bind_merge(name, ts);
                }
            }
            Expr::Field { base, name, .. } => {
                if let Some(owner) = self.sinks.owners.get(name).and_then(|o| o.first()) {
                    let site = SinkSite {
                        rule: "KL-T01",
                        file: self.file().to_string(),
                        line,
                        symbol: format!("{owner}::{name}"),
                        desc: format!("serialized field `{owner}::{name}`"),
                    };
                    self.sink(&site, &vt);
                    // Consumed at the serialization boundary (same rule as
                    // struct-literal fields): the flow is reported at the
                    // field it lands in, and the containing struct does not
                    // re-taint every transitive consumer.
                    return;
                }
                if let Some(root) = root_var(base) {
                    let root = root.to_string();
                    let mut ts = vt;
                    for t in &mut ts {
                        push_step(t, format!("stored in `{root}.{name}`"), self.file(), line);
                    }
                    self.bind_merge(&root, ts);
                }
            }
            Expr::Index { base, index, .. } => {
                self.eval(index);
                if let Some(root) = root_var(base) {
                    let root = root.to_string();
                    let mut ts = vt;
                    for t in &mut ts {
                        push_step(t, format!("stored in `{root}[…]`"), self.file(), line);
                    }
                    self.bind_merge(&root, ts);
                }
            }
            other => {
                self.eval(other);
            }
        }
    }
}

/// Peels single-child wrappers (`*x`, parens) so assignment targets and
/// spines see through unary operators.
fn peel(mut e: &Expr) -> &Expr {
    while let Expr::Many { children, .. } = e {
        match children.as_slice() {
            [only] => e = only,
            _ => break,
        }
    }
    e
}

/// The root variable of an lvalue/receiver spine (`a.b[i].c` → `a`), if it
/// is a simple identifier (including `self`).
fn root_var(e: &Expr) -> Option<&str> {
    match peel(e) {
        Expr::Path { segments, .. } => match segments.as_slice() {
            [name] => Some(name.as_str()),
            _ => None,
        },
        Expr::Field { base, .. } | Expr::Index { base, .. } | Expr::Cast { expr: base, .. } => {
            root_var(base)
        }
        Expr::MethodCall { recv, .. } => root_var(recv),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The taint pass
// ---------------------------------------------------------------------------

fn analyze_fn(
    graph: &CallGraph<'_>,
    summaries: &[Summary],
    sinks: &SinkConfig,
    me: usize,
) -> (Summary, Vec<Hit>) {
    let f = &graph.fns[me];
    let Some(body) = f.body else {
        return (Summary::default(), Vec::new());
    };
    let mut mentions_hash = f
        .sig_idents
        .iter()
        .any(|s| s == "HashMap" || s == "HashSet");
    if !mentions_hash {
        body.walk(&mut |e| {
            if let Expr::Path { segments, .. } = e {
                if segments.iter().any(|s| s == "HashMap" || s == "HashSet") {
                    mentions_hash = true;
                }
            }
        });
    }
    let mut ev = Eval {
        graph,
        summaries,
        sinks,
        me,
        mentions_hash,
        env: BTreeMap::new(),
        ret: Vec::new(),
        hits: Vec::new(),
        psinks: Vec::new(),
    };
    for (pi, p) in f.params.iter().enumerate() {
        ev.env.insert(
            p.clone(),
            vec![Taint {
                origin: Origin::Param(pi),
                steps: vec![WitnessStep {
                    what: format!("param `{p}` of `{}`", f.display()),
                    file: f.file.clone(),
                    line: f.line,
                }],
            }],
        );
    }
    // Warm-up pass: populates bindings so use-before-def flows (loop-carried
    // state, forward references) are visible to the recording pass.
    ev.eval(body);
    ev.ret.clear();
    ev.hits.clear();
    ev.psinks.clear();
    let tail = ev.eval(body);
    merge(&mut ev.ret, &tail);

    let mut sum = Summary::default();
    for t in ev.ret {
        match t.origin {
            Origin::Param(p) => {
                sum.param_ret.insert(p);
            }
            Origin::Source(_) => {
                let mut t = t;
                push_step(
                    &mut t,
                    format!("returned by `{}`", f.display()),
                    &f.file,
                    f.line,
                );
                sum.ret.push(t);
            }
        }
    }
    sum.ret.sort_by_key(|t| t.origin);
    // Deduplicate param→sink flows: one per (param, sink), best chain wins.
    let mut psinks: Vec<ParamSink> = Vec::new();
    for ps in ev.psinks {
        match psinks
            .iter_mut()
            .find(|q| q.param == ps.param && q.sink == ps.sink)
        {
            Some(q) => {
                if chain_key(&ps.steps) < chain_key(&q.steps) {
                    q.steps = ps.steps;
                }
            }
            None => psinks.push(ps),
        }
    }
    psinks.sort_by(|a, b| (a.param, &a.sink).cmp(&(b.param, &b.sink)));
    sum.param_sinks = psinks;
    (sum, ev.hits)
}

/// Runs the interprocedural taint analysis: fixed-point over function
/// summaries, then one recording pass that materializes source→sink hits
/// into diagnostics (one per sink site and taint kind, shortest chain).
pub fn taint_pass(graph: &CallGraph<'_>, types: &[TypeDef]) -> Vec<Diagnostic> {
    let sinks = SinkConfig::build(types);
    let n = graph.fns.len();
    let mut summaries = vec![Summary::default(); n];
    for _ in 0..MAX_ROUNDS {
        let next: Vec<Summary> = (0..n)
            .map(|i| analyze_fn(graph, &summaries, &sinks, i).0)
            .collect();
        let stable = summaries.iter().zip(&next).all(|(a, b)| a.key() == b.key());
        summaries = next;
        if stable {
            break;
        }
    }
    let mut hits: Vec<Hit> = Vec::new();
    for i in 0..n {
        hits.extend(analyze_fn(graph, &summaries, &sinks, i).1);
    }

    // One diagnostic per (sink site, taint kind); shortest chain wins.
    let mut best: BTreeMap<(SinkSite, TaintKind), Vec<WitnessStep>> = BTreeMap::new();
    for h in hits {
        match best.get_mut(&(h.sink.clone(), h.kind)) {
            Some(steps) => {
                if chain_key(&h.steps) < chain_key(steps) {
                    *steps = h.steps;
                }
            }
            None => {
                best.insert((h.sink, h.kind), h.steps);
            }
        }
    }
    best.into_iter()
        .map(|((site, kind), mut steps)| {
            steps.push(WitnessStep {
                what: site.desc.clone(),
                file: site.file.clone(),
                line: site.line,
            });
            let chain: Vec<&str> = steps.iter().map(|s| s.what.as_str()).collect();
            Diagnostic {
                rule: site.rule,
                file: site.file,
                line: site.line,
                symbol: site.symbol,
                message: format!("{} taint reaches {}", kind.label(), chain.join(" -> ")),
                witness: steps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Item;
    use crate::callgraph::SourceUnit;
    use crate::lexer::lex;
    use crate::parse::parse_items;
    use crate::rules::FileCtx;
    use crate::rules_v2::collect_types;

    fn run(srcs: &[(&'static str, &'static str, &'static str)]) -> Vec<Diagnostic> {
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
        let graph = CallGraph::build(&units);
        let mut types = Vec::new();
        for ((file, _, _), items) in srcs.iter().zip(parsed.iter()) {
            let ctx = FileCtx {
                path: (*file).to_string(),
                ..FileCtx::default()
            };
            collect_types(&ctx, items, &mut types);
        }
        taint_pass(&graph, &types)
    }

    const RECORD: &str = "#[derive(Serialize)]\npub struct RunRecord { pub meta: RunMeta }\n\
                          #[derive(Serialize)]\npub struct RunMeta { pub wall_ms: f64 }\n";

    #[test]
    fn clock_taint_reaches_serialized_field_through_let() {
        let src = format!(
            "{RECORD}pub fn record() -> RunRecord {{\n    let started = Instant::now();\n    \
             let wall = started.elapsed().as_secs_f64();\n    \
             RunRecord {{ meta: RunMeta {{ wall_ms: wall }} }}\n}}"
        );
        let diags = run(&[(
            "crates/core/src/r.rs",
            "core",
            Box::leak(src.into_boxed_str()),
        )]);
        let t01: Vec<_> = diags.iter().filter(|d| d.rule == "KL-T01").collect();
        assert_eq!(t01.len(), 1, "{diags:?}");
        assert_eq!(t01[0].symbol, "RunMeta::wall_ms");
        assert!(t01[0].message.contains("clock taint"), "{}", t01[0].message);
        assert!(t01[0].witness.len() >= 3, "{:?}", t01[0].witness);
        assert!(t01[0].witness[0].what.contains("Instant"));
    }

    #[test]
    fn interprocedural_flow_through_resolved_call() {
        let src = format!(
            "{RECORD}impl RunRecord {{\n    pub fn from_wall(wall_ms: f64) -> RunRecord {{\n        \
             RunRecord {{ meta: RunMeta {{ wall_ms }} }}\n    }}\n}}\n\
             pub fn execute() -> RunRecord {{\n    let start = Instant::now();\n    \
             RunRecord::from_wall(start.elapsed().as_secs_f64())\n}}"
        );
        let diags = run(&[(
            "crates/core/src/r.rs",
            "core",
            Box::leak(src.into_boxed_str()),
        )]);
        let t01: Vec<_> = diags.iter().filter(|d| d.rule == "KL-T01").collect();
        assert_eq!(t01.len(), 1, "{diags:?}");
        assert!(
            t01[0].witness.iter().any(|s| s.what.contains("from_wall")),
            "{:?}",
            t01[0].witness
        );
    }

    #[test]
    fn env_taint_reaches_cache_key_and_writer() {
        let src =
            "pub fn key() -> u64 {\n    let tag = std::env::var(\"X\").unwrap_or_default();\n    \
                   fnv1a64(tag.as_bytes())\n}\n\
                   pub fn fnv1a64(bytes: &[u8]) -> u64 { 0 }\n\
                   pub fn dump() {\n    let tag = std::env::var(\"X\").unwrap_or_default();\n    \
                   std::fs::write(\"out.json\", tag);\n}";
        let diags = run(&[("crates/core/src/k.rs", "core", src)]);
        assert!(diags.iter().any(|d| d.rule == "KL-T03"), "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "KL-T02"), "{diags:?}");
        // The path argument is exempt.
        let src2 =
            "pub fn dump() {\n    let dir = std::env::var(\"OUT\").unwrap_or_default();\n    \
                    std::fs::write(dir, \"stable\");\n}";
        let diags2 = run(&[("crates/core/src/k.rs", "core", src2)]);
        assert!(diags2.iter().all(|d| d.rule != "KL-T02"), "{diags2:?}");
    }

    #[test]
    fn sort_kills_hash_order_taint() {
        let tainted = "pub fn total(m: &HashMap<String, f64>) -> Vec<f64> {\n    \
                       let mut xs: Vec<f64> = m.values().copied().collect();\n    \
                       std::fs::write(\"o\", xs.len().to_string());\n    xs\n}";
        let diags = run(&[("crates/core/src/h.rs", "core", tainted)]);
        assert!(diags.iter().any(|d| d.rule == "KL-T02"), "{diags:?}");
        let sorted = "pub fn total(m: &HashMap<String, f64>) -> Vec<f64> {\n    \
                      let mut xs: Vec<f64> = m.values().copied().collect();\n    \
                      xs.sort_by(|a, b| a.total_cmp(b));\n    \
                      std::fs::write(\"o\", xs.len().to_string());\n    xs\n}";
        let diags = run(&[("crates/core/src/h.rs", "core", sorted)]);
        assert!(diags.iter().all(|d| d.rule != "KL-T02"), "{diags:?}");
    }

    #[test]
    fn consumed_field_does_not_cascade_downstream() {
        let src = format!(
            "{RECORD}pub fn make(wall_ms: f64) -> RunRecord {{\n    \
             RunRecord {{ meta: RunMeta {{ wall_ms }} }}\n}}\n\
             pub fn run() {{\n    let t = Instant::now();\n    \
             let r = make(t.elapsed().as_secs_f64());\n    \
             std::fs::write(\"out\", serde_json::to_string(&r).unwrap_or_default());\n}}"
        );
        let diags = run(&[(
            "crates/core/src/c.rs",
            "core",
            Box::leak(src.into_boxed_str()),
        )]);
        // Exactly one T01 (at the field), and crucially no T02 echo: the
        // record's clock taint was consumed at the serialization boundary.
        assert_eq!(
            diags.iter().filter(|d| d.rule == "KL-T01").count(),
            1,
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.rule != "KL-T02"), "{diags:?}");
    }
}
