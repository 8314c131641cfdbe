//! The v4 workspace pass: whole-program concurrency-protocol analysis
//! (KL-X01…X04).
//!
//! The engine's worker pool (`Runner` in `crates/core/src/runner.rs`) is
//! built on `thread::spawn`, mpsc channels, a `Relaxed` work-stealing
//! cursor, and `Mutex`-guarded engine state. This pass follows threads
//! wherever they are spawned and checks the protocols that keep them
//! deterministic and deadlock-free. It is the analyzer's one concurrency
//! analysis.
//!
//! ## Region discovery
//!
//! Three worker shapes, discovered per function body:
//!
//! * **Scoped** — a closure passed to a `.spawn(…)` *method* call (the
//!   `thread::scope` handle idiom).
//! * **Detached** — a closure passed to a free `thread::spawn(…)` call.
//! * **Pool** — a detached worker whose closure contains a channel
//!   receive: the long-lived, channel-fed persistent-pool shape.
//!
//! ## The rules
//!
//! * **KL-X01 — channel rendezvous.** Every `let (tx, rx) = …channel…()`
//!   destructure is matched into a sender/receiver endpoint pair. A sender
//!   that *escapes to workers* — captured by a spawn closure, or stored
//!   into a task-struct field (the broadcast idiom: a `Sender` lands in a
//!   task struct precisely to ride to other threads) — makes its receiver
//!   a cross-thread merge point: values received outside a worker arrive
//!   in scheduler order. Consumption of the received bindings must then go
//!   through a rendezvous: an index-keyed placement whose index comes from
//!   the received tuple (the `(slot, record)` reorder idiom in
//!   `Runner::run_batch`) or a later `.sort*()`. Any other consuming use
//!   fires.
//! * **KL-X02 — lock discipline.** An interprocedural lock-order graph.
//!   While a `Mutex` guard is live (a `let`-bound `.lock()` spine, scoped
//!   to its enclosing block, released early by `drop(guard)`), every
//!   further acquisition — direct, or transitive through resolved callees'
//!   may-lock summaries — adds an ordering edge. A cycle between two locks
//!   is deadlock-capable and fires once per participating edge; the
//!   degenerate self-cycle (re-acquiring a held lock, directly or through
//!   a callee) fires immediately because std's `Mutex` is not reentrant.
//!   Locks are named by their field/binding spine
//!   (`self.cache_index.lock()` → `cache_index`) — deliberately
//!   instance-coarse, like every name resolution in this analyzer.
//!   Closure bodies are skipped on both sides (their execution point is
//!   not the call site), trading missed deferred locks for zero
//!   false-positive edges from `unwrap_or_else`/`get_or_insert_with`
//!   plumbing.
//! * **KL-X03 — Relaxed discipline.** Inside every worker, values
//!   derived from an `Ordering::Relaxed` atomic op may only steer
//!   *opaque work-partitioning*: bounds checks, ranges, indexing into
//!   shared immutable state, and channel sends (whose consumption KL-X01
//!   judges at the receiver). Flowing into an order-sensitive fold
//!   (`push`/`insert`/`extend`/`append`/`push_str`), a struct-literal
//!   field, or a compound accumulator fires. The documented-clean
//!   exemplar is the chunked claim cursor in `Runner`'s pool worker
//!   (`crates/core/src/runner.rs`, `fetch_add(chunk, Relaxed)`): its
//!   result only bounds a claim range, indexes the shared spec array, and
//!   rides the `(slot, record)` rendezvous.
//! * **KL-X04 — join discipline.** A `thread::spawn` whose `JoinHandle`
//!   is discarded (statement position, or a `let _ =` binding) detaches
//!   the thread. A struct that stores `JoinHandle`s — a persistent pool —
//!   must have a `Drop` impl that transitively reaches `.join()`
//!   (`WorkerPool`'s `Drop` clears its task senders, then joins).
//!
//! Every diagnostic carries the v3-style three-step structured witness
//! chain (`spawn -> capture -> op`) and flows through the chain-allow
//! mechanism, `--baseline`, and `--json` like every other family. Like
//! the rest of kelp-lint the pass is total on arbitrary input and
//! over-approximating by design; intentional exceptions carry inline
//! allows.

use crate::ast::Expr;
use crate::callgraph::{CallGraph, FnNode};
use crate::dataflow::{peel, root_var};
use crate::rules::{Diagnostic, WitnessStep};
use crate::rules_v2::TypeDef;
use std::collections::{BTreeMap, BTreeSet};

/// Channel-receive method names (the blocking, timed, and polling forms).
const RECV_METHODS: [&str; 4] = ["recv", "try_recv", "recv_timeout", "recv_deadline"];

/// Order-sensitive folds a `Relaxed`-derived value must not reach.
const RELAXED_SINK_FOLDS: [&str; 5] = ["push", "insert", "extend", "append", "push_str"];

/// Atomic ops whose `Ordering::Relaxed` use seeds the KL-X03 flow check.
const ATOMIC_OPS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
];

/// Fixed-point iteration cap for the interprocedural summaries (matches
/// the taint engine's bound; summaries are monotone so this only guards
/// against pathological call graphs).
const MAX_ROUNDS: usize = 24;

/// Per-function may-lock summaries are capped so a pathological input
/// cannot make the fixed point quadratic in distinct lock names.
const LOCK_SUMMARY_CAP: usize = 16;

// ---------------------------------------------------------------------------
// Shared expression plumbing
// ---------------------------------------------------------------------------

/// The direct children of an expression, for custom traversals that need
/// to prune subtrees ([`Expr::walk`] always descends).
fn children(e: &Expr) -> Vec<&Expr> {
    let mut out: Vec<&Expr> = Vec::new();
    match e {
        Expr::Call { callee, args, .. } => {
            out.push(callee);
            out.extend(args.iter());
        }
        Expr::MethodCall { recv, args, .. } => {
            out.push(recv);
            out.extend(args.iter());
        }
        Expr::Field { base, .. } => out.push(base),
        Expr::Index { base, index, .. } => {
            out.push(base);
            out.push(index);
        }
        Expr::Macro { args, .. } => out.extend(args.iter()),
        Expr::Cast { expr, .. } => out.push(expr),
        Expr::Closure { body, .. } => out.push(body),
        Expr::Let { init, els, .. } => {
            out.extend(init.as_deref());
            out.extend(els.as_deref());
        }
        Expr::Assign { target, value, .. } => {
            out.push(target);
            out.extend(value.as_deref());
        }
        Expr::StructLit { fields, rest, .. } => {
            out.extend(fields.iter().map(|(_, v)| v));
            out.extend(rest.iter());
        }
        Expr::For { iter, body, .. } => {
            out.extend(iter.as_deref());
            out.extend(body.as_deref());
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            out.extend(scrutinee.as_deref());
            for arm in arms {
                out.extend(arm.children.iter());
            }
        }
        Expr::Ret { value, .. } => out.extend(value.as_deref()),
        Expr::Block { stmts, .. } => out.extend(stmts.iter()),
        Expr::Range { operands, .. }
        | Expr::Many {
            children: operands, ..
        } => out.extend(operands.iter()),
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
    }
    out
}

/// Pre-order visit that does not descend into closure bodies (used where
/// the execution point of a closure is not the syntactic site: lock
/// scanning and summary collection).
fn walk_outside_closures<'a>(e: &'a Expr, visit: &mut impl FnMut(&'a Expr)) {
    visit(e);
    if matches!(e, Expr::Closure { .. }) {
        return;
    }
    for c in children(e) {
        walk_outside_closures(c, visit);
    }
}

/// Whether the expression tree references the plain identifier `name`.
fn mentions_ident(e: &Expr, name: &str) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::Path { segments, .. } = x {
            if matches!(segments.as_slice(), [only] if only == name) {
                found = true;
            }
        }
    });
    found
}

/// Whether the expression tree references any identifier in `names`.
fn mentions_any(e: &Expr, names: &BTreeSet<String>) -> bool {
    if names.is_empty() {
        return false;
    }
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::Path { segments, .. } = x {
            if matches!(segments.as_slice(), [only] if names.contains(only)) {
                found = true;
            }
        }
    });
    found
}

/// The first closure inside `e` (pre-order), if any.
fn first_closure(e: &Expr) -> Option<&Expr> {
    let mut found: Option<&Expr> = None;
    e.walk(&mut |x| {
        if found.is_none() {
            if let Expr::Closure { .. } = x {
                found = Some(x);
            }
        }
    });
    found
}

/// Whether any argument mentions `Relaxed` (`Ordering::Relaxed` or a bare
/// import).
fn arg_mentions_relaxed(args: &[Expr]) -> bool {
    let mut found = false;
    for a in args {
        a.walk(&mut |e| {
            if let Expr::Path { segments, .. } = e {
                if segments.iter().any(|s| s == "Relaxed") {
                    found = true;
                }
            }
        });
    }
    found
}

/// `thread::spawn` / `std::thread::spawn` as a free-call path.
fn is_thread_spawn(segments: &[String]) -> bool {
    segments.last().is_some_and(|l| l == "spawn") && segments.iter().any(|s| s == "thread")
}

/// Whether a body contains a channel receive (the pool-worker marker).
fn contains_recv(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::MethodCall { method, .. } = x {
            if RECV_METHODS.contains(&method.as_str()) {
                found = true;
            }
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Region discovery
// ---------------------------------------------------------------------------

/// How a worker thread came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerKind {
    /// `handle.spawn(|| …)` method form — the `thread::scope` idiom.
    Scoped,
    /// Free `thread::spawn(|| …)` running one closure to completion.
    Detached,
    /// A detached worker whose closure receives from a channel: the
    /// long-lived persistent-pool shape.
    Pool,
}

/// One discovered worker closure.
struct Worker<'a> {
    kind: WorkerKind,
    /// The spawn call site.
    line: u32,
    /// The worker closure body.
    body: &'a Expr,
}

impl Worker<'_> {
    /// The witness label for the spawn step.
    fn what(&self) -> &'static str {
        match self.kind {
            WorkerKind::Scoped => "`.spawn(…)` scoped worker",
            WorkerKind::Detached => "`thread::spawn` worker",
            WorkerKind::Pool => "channel-fed `thread::spawn` pool worker",
        }
    }
}

/// Discovers every worker closure spawned inside `body`.
fn discover_workers<'a>(body: &'a Expr) -> Vec<Worker<'a>> {
    let mut out: Vec<Worker<'a>> = Vec::new();
    body.walk(&mut |e| match e {
        Expr::Call { callee, args, line } => {
            if let Expr::Path { segments, .. } = peel(callee) {
                if is_thread_spawn(segments) {
                    if let Some(Expr::Closure { body: wb, .. }) =
                        args.first().and_then(first_closure)
                    {
                        let kind = if contains_recv(wb) {
                            WorkerKind::Pool
                        } else {
                            WorkerKind::Detached
                        };
                        out.push(Worker {
                            kind,
                            line: *line,
                            body: wb,
                        });
                    }
                }
            }
        }
        Expr::MethodCall {
            method, args, line, ..
        } if method == "spawn" => {
            if let Some(Expr::Closure { body: wb, .. }) = args.first().and_then(first_closure) {
                out.push(Worker {
                    kind: WorkerKind::Scoped,
                    line: *line,
                    body: wb,
                });
            }
        }
        _ => {}
    });
    out
}

/// Pre-order visit over the *collector side* of a function: worker closure
/// bodies (both call-form and method-form spawns) are pruned, so receive
/// sites and consuming uses found here run on the spawning thread.
fn walk_outside_workers<'a>(e: &'a Expr, visit: &mut impl FnMut(&'a Expr)) {
    visit(e);
    let spawn_args: Option<&[Expr]> = match e {
        Expr::Call { callee, args, .. } => match peel(callee) {
            Expr::Path { segments, .. } if is_thread_spawn(segments) => Some(args),
            _ => None,
        },
        Expr::MethodCall { method, args, .. }
            if method == "spawn" && args.first().and_then(first_closure).is_some() =>
        {
            Some(args)
        }
        _ => None,
    };
    match (e, spawn_args) {
        (Expr::Call { callee, .. }, Some(_)) => walk_outside_workers(callee, visit),
        (Expr::MethodCall { recv, .. }, Some(_)) => walk_outside_workers(recv, visit),
        _ => {
            for c in children(e) {
                walk_outside_workers(c, visit);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// KL-X01: channel protocols
// ---------------------------------------------------------------------------

/// Whether the expression creates a channel (`mpsc::channel()`,
/// `mpsc::sync_channel(n)`, turbofish forms included — the parser folds
/// `::<T>` away).
fn creates_channel(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::Call { callee, .. } = x {
            if let Expr::Path { segments, .. } = peel(callee) {
                if segments
                    .last()
                    .is_some_and(|l| l == "channel" || l == "sync_channel")
                {
                    found = true;
                }
            }
        }
    });
    found
}

/// Whether `e` receives from the channel receiver named `rx`.
fn receives_from(e: &Expr, rx: &str) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::MethodCall { recv, method, .. } = x {
            if RECV_METHODS.contains(&method.as_str()) && root_var(recv) == Some(rx) {
                found = true;
            }
        }
    });
    found
}

/// How (and where) a sender escaped to worker threads, if it did.
fn sender_escape(body: &Expr, workers: &[Worker<'_>], tx: &str) -> Option<(String, u32)> {
    for w in workers {
        if mentions_ident(w.body, tx) {
            return Some((format!("sender `{tx}` captured by spawned worker"), w.line));
        }
    }
    let mut found: Option<(String, u32)> = None;
    body.walk(&mut |e| {
        if found.is_some() {
            return;
        }
        if let Expr::StructLit {
            name, fields, line, ..
        } = e
        {
            for (fname, v) in fields {
                if mentions_ident(v, tx) {
                    found = Some((
                        format!("sender `{tx}` stored in task struct `{name}.{fname}`"),
                        *line,
                    ));
                    return;
                }
            }
        }
    });
    found
}

/// The channel-protocol check for one function: every worker-bound
/// sender's receiver must consume its values through a rendezvous.
fn channel_pass(f: &FnNode<'_>, body: &Expr, workers: &[Worker<'_>], diags: &mut Vec<Diagnostic>) {
    let mut channels: Vec<(String, String, u32)> = Vec::new();
    body.walk(&mut |e| {
        if let Expr::Let {
            pat_idents,
            init: Some(init),
            line,
            ..
        } = e
        {
            if pat_idents.len() == 2 && creates_channel(init) {
                channels.push((pat_idents[0].clone(), pat_idents[1].clone(), *line));
            }
        }
    });
    if channels.is_empty() {
        return;
    }

    // A `.sort*()` anywhere in the function is the v3-convention rendezvous.
    let mut has_sort = false;
    body.walk(&mut |e| {
        if let Expr::MethodCall { method, .. } = e {
            if method.starts_with("sort") {
                has_sort = true;
            }
        }
    });

    for (tx, rx, chan_line) in channels {
        let Some((esc_what, esc_line)) = sender_escape(body, workers, &tx) else {
            continue; // sender stays on this thread: FIFO order is deterministic
        };
        // Receive sites on the collector side (worker-internal receives are
        // the task-distribution direction, single-producer per worker).
        let mut recv_sites: Vec<(u32, Vec<String>, String)> = Vec::new();
        walk_outside_workers(body, &mut |e| match e {
            Expr::Let {
                pat_idents,
                init: Some(init),
                line,
                ..
            } if receives_from(init, &rx) => {
                recv_sites.push((
                    *line,
                    pat_idents.clone(),
                    format!("`{rx}.recv()` merges worker results"),
                ));
            }
            Expr::For {
                pat_idents,
                iter: Some(iter),
                line,
                ..
            } if mentions_ident(iter, &rx) => {
                recv_sites.push((
                    *line,
                    pat_idents.clone(),
                    format!("iteration over `{rx}` merges worker results"),
                ));
            }
            _ => {}
        });
        for (recv_line, bound, recv_what) in recv_sites {
            let bound: BTreeSet<String> = bound.into_iter().collect();
            if bound.is_empty() {
                continue; // results discarded: nothing order-sensitive escapes
            }
            // Index-keyed placement whose index comes from the received
            // tuple — the `(slot, record)` reorder idiom.
            let mut rendezvous = has_sort;
            body.walk(&mut |e| {
                if let Expr::Assign { target, .. } = e {
                    if let Expr::Index { index, .. } = peel(target) {
                        if mentions_any(index, &bound) {
                            rendezvous = true;
                        }
                    }
                }
            });
            if rendezvous {
                continue;
            }
            // First consuming use of a received binding in scheduler order.
            let mut first_use: Option<(u32, String)> = None;
            walk_outside_workers(body, &mut |e| {
                if first_use.is_some() {
                    return;
                }
                if let Expr::Path { segments, line } = e {
                    if let [only] = segments.as_slice() {
                        if bound.contains(only) {
                            first_use = Some((*line, only.clone()));
                        }
                    }
                }
            });
            let Some((use_line, ident)) = first_use else {
                continue;
            };
            diags.push(Diagnostic {
                rule: "KL-X01",
                file: f.file.clone(),
                line: use_line,
                symbol: f.symbol(),
                message: format!(
                    "cross-thread results from `{rx}` consumed without an index-keyed or \
                     sort rendezvous: received binding `{ident}` is used in scheduler order"
                ),
                witness: vec![
                    WitnessStep {
                        what: esc_what.clone(),
                        file: f.file.clone(),
                        line: esc_line,
                    },
                    WitnessStep {
                        what: recv_what,
                        file: f.file.clone(),
                        line: recv_line,
                    },
                    WitnessStep {
                        what: format!("`{ident}` consumed without rendezvous"),
                        file: f.file.clone(),
                        line: use_line,
                    },
                ],
            });
        }
        let _ = chan_line; // channel creation is implied by the escape step
    }
}

// ---------------------------------------------------------------------------
// KL-X02: lock and deadlock discipline
// ---------------------------------------------------------------------------

/// One recorded acquisition site for the may-lock summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AcquireSite {
    file: String,
    line: u32,
}

/// The lock a `.lock()` receiver names: the nearest field/binding on the
/// spine (`self.cache_index.lock()` → `cache_index`). Instance-coarse by
/// design.
fn lock_name(recv: &Expr) -> Option<String> {
    match peel(recv) {
        Expr::Field { name, .. } => Some(name.clone()),
        Expr::Path { segments, .. } => segments.last().cloned(),
        Expr::Index { base, .. } | Expr::Cast { expr: base, .. } => lock_name(base),
        Expr::MethodCall { recv, .. } => lock_name(recv),
        _ => None,
    }
}

/// The lock acquired somewhere along a `let` initializer's method spine
/// (`self.pool.lock().unwrap_or_else(…)` → `pool`), i.e. a guard binding.
fn lock_spine_name(e: &Expr) -> Option<String> {
    match peel(e) {
        Expr::MethodCall { recv, method, .. } => {
            if method == "lock" {
                lock_name(recv)
            } else {
                lock_spine_name(recv)
            }
        }
        Expr::Field { base, .. } | Expr::Index { base, .. } | Expr::Cast { expr: base, .. } => {
            lock_spine_name(base)
        }
        _ => None,
    }
}

/// Per-function may-lock summaries: the set of locks a call to the
/// function may acquire, directly or transitively, with one witness
/// acquire site each. Fixed point over the call graph, closure bodies
/// excluded on both sides.
fn lock_summaries(graph: &CallGraph<'_>) -> Vec<BTreeMap<String, AcquireSite>> {
    let n = graph.fns.len();
    let mut sums: Vec<BTreeMap<String, AcquireSite>> = vec![BTreeMap::new(); n];
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(body) = f.body else { continue };
        let mut direct = BTreeMap::new();
        walk_outside_closures(body, &mut |e| {
            if let Expr::MethodCall {
                recv, method, line, ..
            } = e
            {
                if method == "lock" && direct.len() < LOCK_SUMMARY_CAP {
                    if let Some(name) = lock_name(recv) {
                        direct.entry(name).or_insert(AcquireSite {
                            file: f.file.clone(),
                            line: *line,
                        });
                    }
                }
            }
        });
        sums[i] = direct;
    }
    for _ in 0..MAX_ROUNDS {
        let mut next = sums.clone();
        for (i, f) in graph.fns.iter().enumerate() {
            let Some(body) = f.body else { continue };
            walk_outside_closures(body, &mut |e| {
                let callees: Vec<usize> = match e {
                    Expr::Call { callee, .. } => match peel(callee) {
                        Expr::Path { segments, .. } => graph.resolve_path(i, segments).to_vec(),
                        _ => Vec::new(),
                    },
                    Expr::MethodCall { method, .. } => graph.resolve_method(method).to_vec(),
                    _ => Vec::new(),
                };
                for j in callees {
                    for (lock, site) in &sums[j] {
                        if next[i].len() >= LOCK_SUMMARY_CAP {
                            break;
                        }
                        if !next[i].contains_key(lock) {
                            next[i].insert(lock.clone(), site.clone());
                        }
                    }
                }
            });
        }
        let stable = next == sums;
        sums = next;
        if stable {
            break;
        }
    }
    sums
}

/// One lock-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    /// Where the acquisition happened (the diagnostic anchor).
    file: String,
    line: u32,
    symbol: String,
    /// Where the held guard was bound.
    hold_line: u32,
    /// Witness label for the acquiring event.
    what: String,
}

/// A live guard during the intra-function scan.
struct HeldGuard {
    lock: String,
    line: u32,
    idents: Vec<String>,
}

struct LockScan<'a, 'g> {
    graph: &'a CallGraph<'g>,
    sums: &'a [BTreeMap<String, AcquireSite>],
    me: usize,
    edges: &'a mut Vec<LockEdge>,
    diags: &'a mut Vec<Diagnostic>,
}

impl LockScan<'_, '_> {
    /// Records an acquisition of `to` (at `line`, described by `what`)
    /// under every currently held guard: a same-lock acquisition is an
    /// immediate self-deadlock; a cross-lock one is an ordering edge.
    fn event(&mut self, to: &str, line: u32, what: &str, held: &[HeldGuard]) {
        let f = &self.graph.fns[self.me];
        for h in held {
            if h.lock == to {
                self.diags.push(Diagnostic {
                    rule: "KL-X02",
                    file: f.file.clone(),
                    line,
                    symbol: f.symbol(),
                    message: format!(
                        "`Mutex` `{to}` re-acquired while its guard is live \
                         (std `Mutex` is not reentrant): {what}"
                    ),
                    witness: vec![
                        WitnessStep {
                            what: format!("`Mutex` guard `{}` held", h.lock),
                            file: f.file.clone(),
                            line: h.line,
                        },
                        WitnessStep {
                            what: what.to_string(),
                            file: f.file.clone(),
                            line,
                        },
                        WitnessStep {
                            what: "self-deadlock on a non-reentrant lock".to_string(),
                            file: f.file.clone(),
                            line,
                        },
                    ],
                });
            } else {
                self.edges.push(LockEdge {
                    from: h.lock.clone(),
                    to: to.to_string(),
                    file: f.file.clone(),
                    line,
                    symbol: f.symbol(),
                    hold_line: h.line,
                    what: what.to_string(),
                });
            }
        }
    }

    /// Scans an expression with the current held-guard stack.
    fn scan(&mut self, e: &Expr, held: &mut Vec<HeldGuard>) {
        match e {
            Expr::Block { stmts, .. } => {
                let depth = held.len();
                for s in stmts {
                    if let Expr::Let {
                        pat_idents,
                        init: Some(init),
                        els,
                        line,
                    } = s
                    {
                        self.scan(init, held);
                        if let Some(e2) = els {
                            self.scan(e2, held);
                        }
                        if let Some(lock) = lock_spine_name(init) {
                            held.push(HeldGuard {
                                lock,
                                line: *line,
                                idents: pat_idents.clone(),
                            });
                        }
                        continue;
                    }
                    // `drop(guard)` releases early.
                    if let Expr::Call { callee, args, .. } = peel(s) {
                        if matches!(peel(callee), Expr::Path { segments, .. }
                            if segments.last().is_some_and(|l| l == "drop"))
                        {
                            if let Some(Expr::Path { segments, .. }) = args.first().map(peel) {
                                if let [g] = segments.as_slice() {
                                    held.retain(|h| !h.idents.iter().any(|i| i == g));
                                    continue;
                                }
                            }
                        }
                    }
                    self.scan(s, held);
                }
                held.truncate(depth.min(held.len()));
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                if method == "lock" {
                    if let Some(to) = lock_name(recv) {
                        let what = format!("`{to}.lock()` acquired under it");
                        self.event(&to, *line, &what, held);
                    }
                } else {
                    for j in self.graph.resolve_method(method).to_vec() {
                        self.call_event(j, *line, held);
                    }
                }
                self.scan(recv, held);
                for a in args {
                    self.scan(a, held);
                }
            }
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segments, .. } = peel(callee) {
                    for j in self.graph.resolve_path(self.me, segments).to_vec() {
                        self.call_event(j, *line, held);
                    }
                }
                for a in args {
                    self.scan(a, held);
                }
            }
            // A closure's execution point is not the call site: deferred
            // (or cross-thread) locks produce no edge here.
            Expr::Closure { .. } => {}
            _ => {
                for c in children(e) {
                    self.scan(c, held);
                }
            }
        }
    }

    /// Records the summary-borne acquisitions of calling function `j`.
    fn call_event(&mut self, j: usize, line: u32, held: &[HeldGuard]) {
        if held.is_empty() {
            return;
        }
        let sums = self.sums;
        let callee = self.graph.fns[j].display();
        for (lock, site) in &sums[j] {
            let what = format!(
                "call to `{callee}` acquires `{lock}` ({}:{})",
                site.file, site.line
            );
            self.event(lock, line, &what, held);
        }
    }
}

/// Finds a directed path `from -> … -> to` over the deduplicated edges
/// (BFS, deterministic order). Returns the path's edges.
fn find_path<'e>(edges: &'e [LockEdge], from: &str, to: &str) -> Option<Vec<&'e LockEdge>> {
    let mut queue: Vec<Vec<&LockEdge>> = edges
        .iter()
        .filter(|e| e.from == from)
        .map(|e| vec![e])
        .collect();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    seen.insert(from);
    let mut qi = 0;
    while qi < queue.len() {
        let path = queue[qi].clone();
        qi += 1;
        let last = *path.last().unwrap();
        if last.to == to {
            return Some(path);
        }
        if seen.contains(last.to.as_str()) {
            continue;
        }
        seen.insert(&last.to);
        for e in edges.iter().filter(|e| e.from == last.to) {
            let mut next = path.clone();
            next.push(e);
            queue.push(next);
        }
    }
    None
}

/// Emits one KL-X02 per edge that participates in a lock-order cycle.
fn cycle_diags(edges: Vec<LockEdge>, diags: &mut Vec<Diagnostic>) {
    let mut uniq: Vec<LockEdge> = Vec::new();
    for e in edges {
        if !uniq.iter().any(|u| u.from == e.from && u.to == e.to) {
            uniq.push(e);
        }
    }
    for e in &uniq {
        let Some(back) = find_path(&uniq, &e.to, &e.from) else {
            continue;
        };
        let mut names = vec![e.from.clone(), e.to.clone()];
        names.extend(back.iter().map(|b| b.to.clone()));
        let closing = back.last().map_or(e, |b| *b);
        diags.push(Diagnostic {
            rule: "KL-X02",
            file: e.file.clone(),
            line: e.line,
            symbol: e.symbol.clone(),
            message: format!(
                "lock-order cycle `{}` is deadlock-capable: `{}` acquired while \
                 `{}` guard is held, and the reverse order exists",
                names.join("` -> `"),
                e.to,
                e.from
            ),
            witness: vec![
                WitnessStep {
                    what: format!("`Mutex` guard `{}` held", e.from),
                    file: e.file.clone(),
                    line: e.hold_line,
                },
                WitnessStep {
                    what: e.what.clone(),
                    file: e.file.clone(),
                    line: e.line,
                },
                WitnessStep {
                    what: format!("counter-order acquisition of `{}` closes the cycle", e.from),
                    file: closing.file.clone(),
                    line: closing.line,
                },
            ],
        });
    }
}

// ---------------------------------------------------------------------------
// KL-X03: Relaxed-value discipline
// ---------------------------------------------------------------------------

/// The first `Ordering::Relaxed` atomic op inside `e`, if any.
fn relaxed_op_in(e: &Expr) -> Option<(u32, String)> {
    let mut found: Option<(u32, String)> = None;
    e.walk(&mut |x| {
        if found.is_some() {
            return;
        }
        if let Expr::MethodCall {
            method, args, line, ..
        } = x
        {
            if ATOMIC_OPS.contains(&method.as_str()) && arg_mentions_relaxed(args) {
                found = Some((*line, method.clone()));
            }
        }
    });
    found
}

/// A KL-X03 sink site: `(line, description, inline Relaxed seed)` — the
/// seed is present when the sink argument itself contains the Relaxed op.
type RelaxedSink = (u32, String, Option<(u32, String)>);

/// The Relaxed-flow check for one worker.
fn relaxed_pass(f: &FnNode<'_>, w: &Worker<'_>, diags: &mut Vec<Diagnostic>) {
    // Seed and propagate: bindings derived from a Relaxed atomic op, then
    // anything bound from a tainted value (including index reads — the
    // *pairing* of cursor and value is what the rendezvous preserves).
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut seed: Option<(u32, String)> = None;
    for _ in 0..MAX_ROUNDS {
        let before = tainted.len();
        w.body.walk(&mut |e| match e {
            Expr::Let {
                pat_idents,
                init: Some(init),
                ..
            } => {
                let from_relaxed = relaxed_op_in(init);
                if from_relaxed.is_some() || mentions_any(init, &tainted) {
                    if seed.is_none() {
                        seed = from_relaxed;
                    }
                    tainted.extend(pat_idents.iter().cloned());
                }
            }
            Expr::For {
                pat_idents,
                iter: Some(iter),
                ..
            } if relaxed_op_in(iter).is_some() || mentions_any(iter, &tainted) => {
                if seed.is_none() {
                    seed = relaxed_op_in(iter);
                }
                tainted.extend(pat_idents.iter().cloned());
            }
            Expr::Assign {
                target,
                value: Some(v),
                compound: false,
                ..
            } if mentions_any(v, &tainted) => {
                if let Some(r) = root_var(target) {
                    tainted.insert(r.to_string());
                }
            }
            _ => {}
        });
        if tainted.len() == before {
            break;
        }
    }

    let mut sinks: Vec<RelaxedSink> = Vec::new();
    w.body.walk(&mut |e| match e {
        Expr::MethodCall {
            method, args, line, ..
        } if RELAXED_SINK_FOLDS.contains(&method.as_str()) => {
            for a in args {
                let inline = relaxed_op_in(a);
                if mentions_any(a, &tainted) || inline.is_some() {
                    sinks.push((
                        *line,
                        format!("`.{method}(…)` fold of a `Relaxed`-derived value"),
                        inline,
                    ));
                    break;
                }
            }
        }
        Expr::StructLit { name, fields, .. } => {
            for (fname, v) in fields {
                if mentions_any(v, &tainted) {
                    sinks.push((
                        v.line(),
                        format!("`Relaxed`-derived value stored in `{name}.{fname}`"),
                        None,
                    ));
                }
            }
        }
        Expr::Assign {
            value: Some(v),
            compound: true,
            line,
            ..
        } if mentions_any(v, &tainted) => {
            sinks.push((
                *line,
                "compound accumulation of a `Relaxed`-derived value".to_string(),
                None,
            ));
        }
        _ => {}
    });

    for (line, what, inline) in sinks {
        let Some((seed_line, seed_method)) = inline.or_else(|| seed.clone()) else {
            continue;
        };
        diags.push(Diagnostic {
            rule: "KL-X03",
            file: f.file.clone(),
            line,
            symbol: f.symbol(),
            message: format!(
                "`Ordering::Relaxed` `.{seed_method}(…)` value escapes opaque \
                 work-partitioning: {what} inside a spawned worker"
            ),
            witness: vec![
                WitnessStep {
                    what: w.what().to_string(),
                    file: f.file.clone(),
                    line: w.line,
                },
                WitnessStep {
                    what: format!("`.{seed_method}(Ordering::Relaxed)` work cursor"),
                    file: f.file.clone(),
                    line: seed_line,
                },
                WitnessStep {
                    what,
                    file: f.file.clone(),
                    line,
                },
            ],
        });
    }
}

// ---------------------------------------------------------------------------
// KL-X04: join discipline
// ---------------------------------------------------------------------------

/// Flags `thread::spawn` calls whose `JoinHandle` is discarded: statement
/// position (not the block's value) or a binding-free `let _ = …`.
fn discarded_spawns(f: &FnNode<'_>, body: &Expr, diags: &mut Vec<Diagnostic>) {
    body.walk(&mut |e| {
        let Expr::Block { stmts, .. } = e else {
            return;
        };
        for (i, s) in stmts.iter().enumerate() {
            let (target, line, bound) = match s {
                Expr::Let {
                    pat_idents,
                    init: Some(init),
                    line,
                    ..
                } => (peel(init), *line, !pat_idents.is_empty()),
                _ => (peel(s), s.line(), false),
            };
            if bound {
                continue;
            }
            let is_spawn = matches!(target, Expr::Call { callee, .. }
                if matches!(peel(callee), Expr::Path { segments, .. } if is_thread_spawn(segments)));
            if !is_spawn {
                continue;
            }
            // The last statement may be the block's value flowing to a
            // caller that joins; only a `let _ =` discard is certain there.
            if i + 1 == stmts.len() && !matches!(s, Expr::Let { .. }) {
                continue;
            }
            diags.push(Diagnostic {
                rule: "KL-X04",
                file: f.file.clone(),
                line,
                symbol: f.symbol(),
                message: "`thread::spawn` handle discarded: the thread is detached and \
                          outlives every join point"
                    .to_string(),
                witness: vec![
                    WitnessStep {
                        what: "`thread::spawn` worker".to_string(),
                        file: f.file.clone(),
                        line,
                    },
                    WitnessStep {
                        what: "`JoinHandle` discarded in statement position".to_string(),
                        file: f.file.clone(),
                        line,
                    },
                    WitnessStep {
                        what: format!("`{}` never joins the thread", f.display()),
                        file: f.file.clone(),
                        line: f.line,
                    },
                ],
            });
        }
    });
}

/// Whether a body contains a `.join()` call (closures included: draining
/// handles through an iterator adapter still joins).
fn contains_join(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::MethodCall { method, .. } = x {
            if method == "join" {
                found = true;
            }
        }
    });
    found
}

/// Per-function "may transitively reach `.join()`" fixed point.
fn join_summaries(graph: &CallGraph<'_>) -> Vec<bool> {
    let n = graph.fns.len();
    let mut may: Vec<bool> = graph
        .fns
        .iter()
        .map(|f| f.body.is_some_and(contains_join))
        .collect();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for i in 0..n {
            if may[i] {
                continue;
            }
            let Some(body) = graph.fns[i].body else {
                continue;
            };
            let mut reach = false;
            body.walk(&mut |e| {
                if reach {
                    return;
                }
                match e {
                    Expr::Call { callee, .. } => {
                        if let Expr::Path { segments, .. } = peel(callee) {
                            if graph.resolve_path(i, segments).iter().any(|&j| may[j]) {
                                reach = true;
                            }
                        }
                    }
                    Expr::MethodCall { method, .. }
                        if graph.resolve_method(method).iter().any(|&j| may[j]) =>
                    {
                        reach = true;
                    }
                    _ => {}
                }
            });
            if reach {
                may[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    may
}

/// Verifies the persistent-pool join contract: every `JoinHandle`-holding
/// struct needs a `Drop` impl that transitively reaches `.join()`.
fn pool_join_contracts(graph: &CallGraph<'_>, types: &[TypeDef], diags: &mut Vec<Diagnostic>) {
    let may_join = join_summaries(graph);
    for td in types {
        let Some((fname, fline)) = td
            .fields
            .iter()
            .find(|(_, _, tids)| tids.iter().any(|t| t == "JoinHandle"))
            .map(|(n, l, _)| (n.clone(), *l))
        else {
            continue;
        };
        let struct_step = WitnessStep {
            what: format!("persistent pool struct `{}`", td.name),
            file: td.file.clone(),
            line: td.line,
        };
        let field_step = WitnessStep {
            what: format!("field `{fname}` holds `JoinHandle`s"),
            file: td.file.clone(),
            line: fline,
        };
        let drop_idx = graph.fns.iter().position(|g| {
            g.name == "drop" && g.owner.as_deref() == Some(td.name.as_str()) && g.file == td.file
        });
        match drop_idx {
            None => diags.push(Diagnostic {
                rule: "KL-X04",
                file: td.file.clone(),
                line: td.line,
                symbol: format!("{}::{}", crate::crate_label(&td.file), td.name),
                message: format!(
                    "persistent pool `{}` stores `JoinHandle`s but has no `Drop` impl: \
                     dropping it leaks running workers",
                    td.name
                ),
                witness: vec![
                    struct_step,
                    field_step,
                    WitnessStep {
                        what: "no `Drop` impl joins the stored handles".to_string(),
                        file: td.file.clone(),
                        line: td.line,
                    },
                ],
            }),
            Some(i) if !may_join[i] => {
                let f = &graph.fns[i];
                diags.push(Diagnostic {
                    rule: "KL-X04",
                    file: f.file.clone(),
                    line: f.line,
                    symbol: f.symbol(),
                    message: format!(
                        "`Drop for {}` never reaches `.join()`: dropping the pool leaks \
                         running workers",
                        td.name
                    ),
                    witness: vec![
                        struct_step,
                        field_step,
                        WitnessStep {
                            what: "`Drop::drop` never joins".to_string(),
                            file: f.file.clone(),
                            line: f.line,
                        },
                    ],
                });
            }
            Some(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Analyzes the whole workspace for concurrency-protocol violations
/// (KL-X01…X04). See the module docs for the rule semantics.
pub fn protocol_pass(graph: &CallGraph<'_>, types: &[TypeDef]) -> Vec<Diagnostic> {
    let lock_sums = lock_summaries(graph);
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(body) = f.body else { continue };
        let workers = discover_workers(body);
        channel_pass(f, body, &workers, &mut diags);
        let mut held = Vec::new();
        LockScan {
            graph,
            sums: &lock_sums,
            me: i,
            edges: &mut edges,
            diags: &mut diags,
        }
        .scan(body, &mut held);
        for w in &workers {
            relaxed_pass(f, w, &mut diags);
        }
        discarded_spawns(f, body, &mut diags);
    }
    cycle_diags(edges, &mut diags);
    pool_join_contracts(graph, types, &mut diags);
    // One diagnostic per (rule, site, message); dedup repeated walks.
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });
    diags
}
