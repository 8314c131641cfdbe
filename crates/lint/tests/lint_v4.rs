//! v4 corpus: exact-output witness chains for the whole-program
//! concurrency-protocol pass (KL-X01..X04), a clean mirror of the live
//! pool protocol as the sanitizer negative, live-pool mutation tests
//! proving today's `runner.rs` is analyzed (deleting the `(slot, record)`
//! rendezvous or the `Drop` join fires KL-X), schema_version-4 JSON
//! byte-stability, seeded totality fuzzing of the new pass, and a guard
//! that `runner.rs` holds the workspace's only thread code.
//!
//! Fixtures live under `crates/lint/fixtures/` (a `fixtures` path component
//! keeps them out of `scan::classify`).

use kelp_lint::callgraph::{CallGraph, SourceUnit};
use kelp_lint::concurrency;
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

fn workspace_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the v4 pass over a single source, labelled as `file` in crate
/// `core` — the same wiring `lint_workspace` uses, minus the scan.
fn protocol_diags(file: &'static str, src: &str) -> Vec<Diagnostic> {
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
    concurrency::protocol_pass(&graph, &types)
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

/// The acceptance-criterion format for the concurrency family: every
/// seeded protocol defect fires exactly once, byte-for-byte.
#[test]
fn kl_x_witness_chains_exact_output() {
    let diags = protocol_diags(
        "crates/core/src/pool_protocol_bad.rs",
        &fixture("pool_protocol_bad.rs"),
    );
    assert_eq!(
        flat(&diags),
        vec![
            (
                18,
                "KL-X01",
                "core::gather",
                "cross-thread results from `rx` consumed without an index-keyed or \
                 sort rendezvous: received binding `v` is used in scheduler order",
            ),
            (
                32,
                "KL-X02",
                "core::Locks::order_ab",
                "lock-order cycle `jobs` -> `done` -> `jobs` is deadlock-capable: \
                 `done` acquired while `jobs` guard is held, and the reverse order exists",
            ),
            (
                39,
                "KL-X02",
                "core::Locks::order_ba",
                "lock-order cycle `done` -> `jobs` -> `done` is deadlock-capable: \
                 `jobs` acquired while `done` guard is held, and the reverse order exists",
            ),
            (
                50,
                "KL-X02",
                "core::Locks::reenter",
                "`Mutex` `jobs` re-acquired while its guard is live (std `Mutex` is \
                 not reentrant): call to `Locks::audit` acquires `jobs` \
                 (crates/core/src/pool_protocol_bad.rs:44)",
            ),
            (
                61,
                "KL-X03",
                "core::relaxed_fold",
                "`Ordering::Relaxed` `.fetch_add(…)` value escapes opaque \
                 work-partitioning: `.push(…)` fold of a `Relaxed`-derived value \
                 inside a spawned worker",
            ),
            (
                66,
                "KL-X04",
                "core::Pool",
                "persistent pool `Pool` stores `JoinHandle`s but has no `Drop` impl: \
                 dropping it leaks running workers",
            ),
            (
                77,
                "KL-X04",
                "core::LazyPool::drop",
                "`Drop for LazyPool` never reaches `.join()`: dropping the pool leaks \
                 running workers",
            ),
            (
                85,
                "KL-X04",
                "core::fire_and_forget",
                "`thread::spawn` handle discarded: the thread is detached and \
                 outlives every join point",
            ),
            (
                101,
                "KL-X03",
                "core::scoped_gather",
                "`Ordering::Relaxed` `.fetch_add(…)` value escapes opaque \
                 work-partitioning: `.push(…)` fold of a `Relaxed`-derived value \
                 inside a spawned worker",
            ),
        ],
        "concurrency witness chains drifted: {diags:?}"
    );
    // The chain is structured, not just prose: each step carries its line.
    assert_eq!(
        chain(&diags[0]),
        vec![
            (12, "sender `tx` captured by spawned worker"),
            (17, "`rx.recv()` merges worker results"),
            (18, "`v` consumed without rendezvous"),
        ],
        "structured X01 witness drifted: {:?}",
        diags[0].witness
    );
    assert_eq!(
        chain(&diags[1]),
        vec![
            (31, "`Mutex` guard `jobs` held"),
            (32, "`done.lock()` acquired under it"),
            (39, "counter-order acquisition of `jobs` closes the cycle"),
        ],
        "structured X02 witness drifted: {:?}",
        diags[1].witness
    );
    assert_eq!(
        chain(&diags[4]),
        vec![
            (56, "`thread::spawn` worker"),
            (57, "`.fetch_add(Ordering::Relaxed)` work cursor"),
            (61, "`.push(…)` fold of a `Relaxed`-derived value"),
        ],
        "structured X03 witness drifted: {:?}",
        diags[4].witness
    );
    assert_eq!(
        chain(&diags[6]),
        vec![
            (71, "persistent pool struct `LazyPool`"),
            (73, "field `handles` holds `JoinHandle`s"),
            (77, "`Drop::drop` never joins"),
        ],
        "structured X04 witness drifted: {:?}",
        diags[6].witness
    );
    assert_eq!(
        chain(&diags[8]),
        vec![
            (98, "`.spawn(…)` scoped worker"),
            (99, "`.fetch_add(Ordering::Relaxed)` work cursor"),
            (101, "`.push(…)` fold of a `Relaxed`-derived value"),
        ],
        "structured scoped X03 witness drifted: {:?}",
        diags[8].witness
    );
}

/// Negative corpus: the live pool protocol in miniature — the
/// `(slot, record)` rendezvous, block-scoped guards, a partition-only
/// Relaxed cursor, and a joining `Drop` silence every KL-X rule.
#[test]
fn kl_x_clean_pool_protocol_stays_silent() {
    let diags = protocol_diags(
        "crates/core/src/pool_protocol_clean.rs",
        &fixture("pool_protocol_clean.rs"),
    );
    assert_eq!(
        flat(&diags),
        vec![],
        "clean pool protocol produced findings"
    );
}

/// The live persistent pool in `runner.rs` is demonstrably analyzed:
/// unmutated it is silent — and deleting only the `records[pending[i]]`
/// placement rendezvous makes KL-X01 fire in `run_batch`, proving the
/// silence comes from the rendezvous, not from the pool being skipped.
#[test]
fn live_pool_rendezvous_deletion_fires_kl_x01() {
    let src = workspace_file("crates/core/src/runner.rs");
    let clean = protocol_diags("crates/core/src/runner.rs", &src);
    assert_eq!(clean, vec![], "live runner pool fired: {clean:?}");

    let mutated = src.replace("records[pending[i]] = Some(record);", "let _ = record;");
    assert_ne!(src, mutated, "rendezvous mutation was a no-op");
    let fired = protocol_diags("crates/core/src/runner.rs", &mutated);
    let x01: Vec<&Diagnostic> = fired.iter().filter(|d| d.rule == "KL-X01").collect();
    assert!(
        !x01.is_empty(),
        "removing the rendezvous should fire KL-X01 in run_batch: {fired:?}"
    );
    for d in &x01 {
        assert!(
            d.symbol.ends_with("run_batch"),
            "rendezvous mutation leaked outside run_batch: {d:?}"
        );
        assert_eq!(
            d.witness.len(),
            3,
            "X01 witness must be escape→recv→use: {d:?}"
        );
    }
}

/// The other half of the live-pool guarantee: deleting the `Drop` join in
/// today's `WorkerPool` fires KL-X04 — the pool's shutdown contract is
/// verified, not assumed.
#[test]
fn live_pool_drop_join_deletion_fires_kl_x04() {
    let src = workspace_file("crates/core/src/runner.rs");
    let mutated = src.replace("let _ = handle.join();", "let _ = handle;");
    assert_ne!(src, mutated, "drop-join mutation was a no-op");
    let fired = protocol_diags("crates/core/src/runner.rs", &mutated);
    let x04: Vec<&Diagnostic> = fired.iter().filter(|d| d.rule == "KL-X04").collect();
    assert!(
        x04.iter()
            .any(|d| d.message.contains("Drop for WorkerPool")),
        "removing the Drop join should fire KL-X04 on WorkerPool: {fired:?}"
    );
}

/// `Runner`'s pool is the workspace's one parallel mechanism: outside the
/// analyzer's own sources, no Rust file opens a `thread::scope` region, and
/// only `crates/core/src/runner.rs` calls `thread::spawn`.
#[test]
fn runner_pool_is_the_only_thread_code() {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(&root.join(dir), &mut files);
    }
    let mut offenders = Vec::new();
    let mut runner_spawns = false;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = std::fs::read_to_string(path).unwrap_or_default();
        if src.contains("thread::scope") {
            offenders.push(format!("{rel}: thread::scope"));
        }
        if src.contains("thread::spawn") {
            if rel == "crates/core/src/runner.rs" {
                runner_spawns = true;
            } else {
                offenders.push(format!("{rel}: thread::spawn"));
            }
        }
    }
    assert!(
        files.len() > 50,
        "workspace walk found only {} files",
        files.len()
    );
    assert!(
        offenders.is_empty(),
        "thread code outside runner.rs: {offenders:?}"
    );
    assert!(runner_spawns, "runner.rs no longer spawns its pool");
}

/// Satellite: the `--json` report at schema_version 4 is byte-stable —
/// two renders of the same KL-X corpus serialize identically, and the
/// version bump (3 → 4, the KL-X family addition) is pinned.
#[test]
fn schema_version_4_json_is_byte_stable() {
    assert_eq!(
        report::SCHEMA_VERSION,
        4,
        "KL-X shipped in schema_version 4; bumping further needs a new history note"
    );
    let render = || {
        let diags = protocol_diags(
            "crates/core/src/pool_protocol_bad.rs",
            &fixture("pool_protocol_bad.rs"),
        );
        report::json(&diags, 1)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "schema_version 4 JSON rendering is not byte-stable");
    assert!(
        a.starts_with("{\"schema_version\":4,\"diagnostics\":["),
        "v4 preamble drifted: {}",
        &a[..a.len().min(80)]
    );
    assert!(
        a.contains("\"rule\":\"KL-X01\"") && a.contains("\"witness\":[{\"what\":"),
        "KL-X diagnostics must render structured witness chains: {a}"
    );
}

/// The v4 pass must be total on arbitrary token soup, exactly like the
/// layers below it: 500 seeded streams of Rust-ish fragments — biased
/// toward spawn/channel/lock shapes — run through `protocol_pass` without
/// panicking, hanging, or recursing unboundedly.
#[test]
fn protocol_pass_is_total_on_random_token_streams() {
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
        "impl Drop for P ",
        "struct P",
        "handles: Vec<std::thread::JoinHandle<()>>,",
        "match x ",
        "=> ",
        "-> ",
        ":: ",
        "| ",
        "let x = ",
        "let (tx, rx) = ",
        "if let ",
        "while let Ok((i, r)) = ",
        "else ",
        "loop ",
        "for i in ",
        "return ",
        "move ",
        "std::thread::spawn",
        "(|| ",
        "mpsc::channel()",
        "mpsc::sync_channel(4)",
        ".recv()",
        ".try_recv()",
        ".send((i, r))",
        ".fetch_add(1, Ordering::Relaxed)",
        ".load(Ordering::SeqCst)",
        ".lock().unwrap()",
        ".lock().unwrap_or_else(|p| p.into_inner())",
        "drop(guard)",
        ".push(x)",
        ".sort()",
        ".insert(k, v)",
        ".join()",
        ".drain(..)",
        ".clone()",
        "Arc::new(",
        "Mutex::new(Vec::new())",
        "AtomicUsize::new(0)",
        "records[pending[i]] = ",
        "records[i] = ",
        "x += 1",
        "x.y = ",
        "self.",
        "scope.spawn",
        "PoolTask { out: tx }",
        "\"str\" ",
        "; ",
        ", ",
        "= ",
        "&mut ",
        "? ",
        ".unwrap()",
        "// line\n",
        "$ ",
        "\\ ",
    ];
    let mut rng = SimRng::seed_from(0xC0_4C_42_17);
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
        let _ = protocol_diags("crates/core/src/fuzz.rs", &src);
    }
}
