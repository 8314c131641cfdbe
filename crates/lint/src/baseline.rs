//! Baseline pinning: a checked-in `lint-baseline.json` records accepted
//! pre-existing findings so `--deny --baseline <file>` fails only on *new*
//! violations.
//!
//! Entries are keyed by `(rule, file, symbol)` — the symbol is a stable
//! path like `mem::SolverScratch::solve` or `RunMeta::cached`, so pinned
//! findings survive unrelated line drift. Rules that carry no symbol
//! (token-level v1 rules) fall back to the line number. Stale entries
//! (pinning nothing) are reported as notes, never as failures: deleting
//! them is housekeeping, not a gate.

use crate::jsonmini::{self, Value};
use crate::rules::Diagnostic;

/// The baseline file format version.
pub const SCHEMA_VERSION: u32 = 1;

/// One pinned finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub rule: String,
    pub file: String,
    pub symbol: String,
    /// Fallback match key for symbol-less diagnostics.
    pub line: u32,
}

impl Entry {
    fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule
            && self.file == d.file
            && if self.symbol.is_empty() && d.symbol.is_empty() {
                self.line == d.line
            } else {
                self.symbol == d.symbol
            }
    }
}

/// The result of applying a baseline.
pub struct Applied {
    /// Diagnostics not pinned by the baseline — these still fail `--deny`.
    pub fresh: Vec<Diagnostic>,
    /// How many diagnostics the baseline absorbed.
    pub pinned: usize,
    /// Baseline entries that matched nothing (housekeeping notes).
    pub stale: Vec<Entry>,
}

/// Parses a baseline document. `None` on malformed input (the caller treats
/// that as a hard error: a broken baseline must not silently pin nothing).
pub fn parse(text: &str) -> Option<Vec<Entry>> {
    let doc = jsonmini::parse(text)?;
    let findings = doc.get("findings")?.as_arr()?;
    let mut entries = Vec::with_capacity(findings.len());
    for f in findings {
        entries.push(Entry {
            rule: f.get("rule")?.as_str()?.to_string(),
            file: f.get("file")?.as_str()?.to_string(),
            symbol: f
                .get("symbol")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            line: match f.get("line") {
                Some(Value::Num(n)) => *n as u32,
                _ => 0,
            },
        });
    }
    Some(entries)
}

/// Splits diagnostics into fresh vs pinned under the baseline. Each entry
/// can pin any number of matching diagnostics (a symbol-keyed entry covers
/// the finding wherever its line moves).
pub fn apply(diags: Vec<Diagnostic>, entries: &[Entry]) -> Applied {
    let mut used = vec![false; entries.len()];
    let mut fresh = Vec::new();
    let mut pinned = 0usize;
    for d in diags {
        match entries.iter().position(|e| e.matches(&d)) {
            Some(i) => {
                used[i] = true;
                pinned += 1;
            }
            None => fresh.push(d),
        }
    }
    let stale = entries
        .iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    Applied {
        fresh,
        pinned,
        stale,
    }
}

/// Renders a deterministic baseline document for the given diagnostics
/// (sorted, deduplicated by match key).
pub fn render(diags: &[Diagnostic]) -> String {
    let entries: Vec<Entry> = diags
        .iter()
        .map(|d| Entry {
            rule: d.rule.to_string(),
            file: d.file.clone(),
            symbol: d.symbol.clone(),
            line: if d.symbol.is_empty() { d.line } else { 0 },
        })
        .collect();
    render_entries(entries)
}

/// Renders a deterministic baseline document from existing entries (the
/// `--prune-stale` path: the surviving entries are re-rendered verbatim, so
/// pruning is a pure subtraction — it never rewrites or re-keys pins).
pub fn render_entries(mut entries: Vec<Entry>) -> String {
    entries.sort();
    entries.dedup();
    let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"findings\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"symbol\": {}, \"line\": {}}}{}\n",
            escape(&e.rule),
            escape(&e.file),
            escape(&e.symbol),
            e.line,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: u32, symbol: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            symbol: symbol.into(),
            message: "m".into(),
            witness: Vec::new(),
        }
    }

    #[test]
    fn round_trip_pins_by_symbol_across_line_drift() {
        let original = vec![
            diag(
                "KL-R02",
                "crates/mem/src/solver.rs",
                100,
                "mem::Solver::solve",
            ),
            diag("KL-D01", "crates/core/src/x.rs", 5, ""),
        ];
        let entries = parse(&render(&original)).expect("round trip");
        // The symbol-keyed finding drifted 40 lines; still pinned.
        let drifted = vec![
            diag(
                "KL-R02",
                "crates/mem/src/solver.rs",
                140,
                "mem::Solver::solve",
            ),
            diag("KL-D01", "crates/core/src/x.rs", 5, ""),
            diag("KL-R01", "crates/mem/src/solver.rs", 7, "mem::fresh_fn"),
        ];
        let applied = apply(drifted, &entries);
        assert_eq!(applied.pinned, 2);
        assert_eq!(applied.fresh.len(), 1);
        assert_eq!(applied.fresh[0].rule, "KL-R01");
        assert!(applied.stale.is_empty());
    }

    #[test]
    fn line_keyed_entry_does_not_pin_after_line_moves() {
        let entries = parse(&render(&[diag("KL-D01", "a.rs", 5, "")])).expect("valid");
        let applied = apply(vec![diag("KL-D01", "a.rs", 6, "")], &entries);
        assert_eq!(applied.fresh.len(), 1);
        assert_eq!(applied.stale.len(), 1);
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(parse("not json").is_none());
        assert!(parse("{\"findings\": 3}").is_none());
        assert!(parse("{}").is_none());
    }

    #[test]
    fn prune_round_trip_removes_only_stale_entries() {
        let live_sym = diag("KL-R02", "a.rs", 100, "core::f");
        let live_line = diag("KL-D01", "b.rs", 5, "");
        let stale = diag("KL-R01", "gone.rs", 9, "core::deleted");
        let doc = render(&[live_sym.clone(), live_line.clone(), stale]);
        let entries = parse(&doc).expect("valid");
        assert_eq!(entries.len(), 3);

        // Current diagnostics no longer include the stale finding.
        let applied = apply(vec![live_sym, live_line], &entries);
        assert_eq!(applied.stale.len(), 1);
        let kept: Vec<Entry> = entries
            .into_iter()
            .filter(|e| !applied.stale.contains(e))
            .collect();
        let pruned_doc = render_entries(kept);
        let pruned = parse(&pruned_doc).expect("pruned doc parses");
        assert_eq!(pruned.len(), 2);
        assert!(pruned.iter().all(|e| e.file != "gone.rs"));

        // Pruning is idempotent: a second pass removes nothing and the
        // document round-trips byte-identically.
        let applied2 = apply(
            vec![
                diag("KL-R02", "a.rs", 100, "core::f"),
                diag("KL-D01", "b.rs", 5, ""),
            ],
            &pruned,
        );
        assert!(applied2.stale.is_empty());
        let kept2: Vec<Entry> = pruned
            .iter()
            .filter(|e| !applied2.stale.contains(e))
            .cloned()
            .collect();
        assert_eq!(render_entries(kept2), pruned_doc);
    }

    #[test]
    fn render_is_sorted_and_deduplicated() {
        let a = diag("KL-R01", "b.rs", 9, "core::b");
        let b = diag("KL-R01", "a.rs", 1, "core::a");
        let doc1 = render(&[a.clone(), b.clone(), a.clone()]);
        let doc2 = render(&[b, a]);
        assert_eq!(doc1, doc2);
        assert!(doc1.find("core::a").unwrap() < doc1.find("core::b").unwrap());
    }
}
