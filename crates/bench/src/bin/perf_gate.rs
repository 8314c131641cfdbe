//! Perf-regression gate over the checked-in benchmark artifacts (ISSUE 9).
//!
//! Reads `results/bench_repro_wallclock.json`,
//! `results/bench_fleet_batch.json`, and `results/bench_solver_hot.json`,
//! compares the headline wall-clock numbers against `perf-baseline.json` at
//! the repo root, and exits nonzero when a metric regressed past its
//! per-host relative threshold.
//!
//! Baselines are keyed by a host fingerprint (`{os}-{cpus}cpu`) because raw
//! wall-clock is meaningless across machines: on a host whose fingerprint
//! has a recorded baseline the gate **denies** (exit 1) on violation; on an
//! unknown host it only prints an advisory and exits 0, so CI donors with
//! different hardware do not spuriously fail tier-1.
//!
//! Every run appends a trend row to `results/perf-trend.jsonl` (skipped when
//! identical to the previous row, so re-running the gate is idempotent).

use serde_json::Value;
use std::path::{Path, PathBuf};

/// Looks up `key` in a JSON object value.
fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric coercion across the vendored `Value`'s three number variants.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(n) => Some(*n),
        _ => None,
    }
}

/// `get` + `as_f64`, walking a dotted path like `after.jobs1_no_cache_s`.
fn get_f64(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for key in path.split('.') {
        cur = get(cur, key)?;
    }
    as_f64(cur)
}

fn load_json(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// One measured metric extracted from the benchmark artifacts.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
}

/// Pulls the gated metrics out of the two benchmark artifacts. Missing
/// artifacts or fields simply yield fewer metrics — the gate only judges
/// what it can see, and `tier-1` regenerates both artifacts on demand.
fn collect_metrics(results: &Path) -> Vec<Metric> {
    let mut metrics = Vec::new();
    if let Some(repro) = load_json(&results.join("bench_repro_wallclock.json")) {
        if let Some(v) = get_f64(&repro, "after.jobs1_no_cache_s") {
            metrics.push(Metric {
                name: "repro_jobs1_no_cache_s",
                value: v,
            });
        }
    }
    if let Some(fleet) = load_json(&results.join("bench_fleet_batch.json")) {
        if let Some(v) = batched_wall_s(&fleet, 1) {
            metrics.push(Metric {
                name: "fleet_batched_jobs1_s",
                value: v,
            });
        }
    }
    if let Some(solver) = load_json(&results.join("bench_solver_hot.json")) {
        for (workload, name) in [
            ("timeline", "solver_hot_timeline_opt_s"),
            ("overall", "solver_hot_overall_opt_s"),
        ] {
            if let Some(v) = solver_hot_wall_s(&solver, workload) {
                metrics.push(Metric { name, value: v });
            }
        }
    }
    metrics
}

/// Wall seconds of the *optimized* solver-hot mode for a workload, if
/// recorded — the steady-state memoized path whose regression would mean
/// the scratch-reuse/memo engine silently stopped paying off.
fn solver_hot_wall_s(solver: &Value, workload: &str) -> Option<f64> {
    let Some(Value::Seq(modes)) = get(solver, "modes") else {
        return None;
    };
    modes
        .iter()
        .find(|m| {
            get(m, "workload").map(|v| matches!(v, Value::Str(s) if s == workload)) == Some(true)
                && get(m, "mode").map(|v| matches!(v, Value::Str(s) if s == "optimized"))
                    == Some(true)
        })
        .and_then(|m| get(m, "wall_s"))
        .and_then(as_f64)
}

/// Wall seconds of the batched mode with the given job count, if recorded.
fn batched_wall_s(fleet: &Value, jobs: u64) -> Option<f64> {
    let Some(Value::Seq(modes)) = get(fleet, "modes") else {
        return None;
    };
    modes
        .iter()
        .find(|m| {
            get(m, "mode").map(|v| matches!(v, Value::Str(s) if s == "batched")) == Some(true)
                && get(m, "jobs").and_then(as_f64) == Some(jobs as f64)
        })
        .and_then(|m| get(m, "wall_s"))
        .and_then(as_f64)
}

/// Appends `row` to `perf-trend.jsonl` unless it matches the current last
/// line byte-for-byte (idempotent re-runs).
fn append_trend(results: &Path, row: &str) {
    let path = results.join("perf-trend.jsonl");
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if existing.lines().next_back() == Some(row) {
        return;
    }
    let mut out = existing;
    out.push_str(row);
    out.push('\n');
    let _ = std::fs::write(&path, out);
}

fn main() {
    let repo_root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let results = repo_root.join("results");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = format!("{}-{}cpu", std::env::consts::OS, cpus);

    let baseline = load_json(&repo_root.join("perf-baseline.json"));
    let Some(baseline) = baseline else {
        eprintln!("perf_gate: perf-baseline.json missing or unparsable; advisory mode");
        std::process::exit(0);
    };

    let metrics = collect_metrics(&results);
    if metrics.is_empty() {
        eprintln!(
            "perf_gate: no benchmark artifacts under {}",
            results.display()
        );
        std::process::exit(0);
    }

    let host_table = get(&baseline, "hosts").and_then(|h| get(h, &fingerprint));
    let known = host_table.is_some();

    let mut violations: Vec<String> = Vec::new();
    for m in &metrics {
        let Some(entry) = host_table.and_then(|t| get(t, m.name)) else {
            println!(
                "perf_gate: {:<28} {:>9.3}s  (no baseline for {fingerprint})",
                m.name, m.value
            );
            continue;
        };
        let (Some(base), Some(max_ratio)) =
            (get_f64(entry, "baseline"), get_f64(entry, "max_ratio"))
        else {
            continue;
        };
        let ratio = if base > 0.0 {
            m.value / base
        } else {
            f64::INFINITY
        };
        let verdict = if ratio <= max_ratio {
            "ok"
        } else {
            "REGRESSED"
        };
        println!(
            "perf_gate: {:<28} {:>9.3}s  baseline {:>8.3}s  ratio {:.3} (limit {:.3})  {verdict}",
            m.name, m.value, base, ratio, max_ratio
        );
        if ratio > max_ratio {
            violations.push(format!(
                "{} regressed: {:.3}s vs baseline {:.3}s ({:.3}x > {:.3}x)",
                m.name, m.value, base, ratio, max_ratio
            ));
        }
    }

    let mut row = format!("{{\"fingerprint\":\"{fingerprint}\"");
    for m in &metrics {
        row.push_str(&format!(",\"{}\":{}", m.name, m.value));
    }
    row.push('}');
    append_trend(&results, &row);

    if violations.is_empty() {
        println!(
            "perf_gate: PASS ({fingerprint}, {} metric(s))",
            metrics.len()
        );
        return;
    }
    for v in &violations {
        eprintln!("perf_gate: {v}");
    }
    if known {
        eprintln!("perf_gate: FAIL on known host {fingerprint}");
        std::process::exit(1);
    }
    eprintln!("perf_gate: advisory only — host {fingerprint} has no recorded baseline");
}
