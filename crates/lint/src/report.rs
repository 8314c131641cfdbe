//! Diagnostic rendering: human-readable lines and a machine-readable JSON
//! document (hand-rolled — the lint stays dependency-free so it can never
//! be broken by the code it checks).

use crate::rules::Diagnostic;

/// Renders diagnostics as `file:line: RULE message` lines plus a summary.
pub fn human(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    out.push_str(&format!(
        "kelp-lint: {} diagnostic{} across {} file{}\n",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" },
        files_scanned,
        if files_scanned == 1 { "" } else { "s" },
    ));
    out
}

/// The JSON report format version. History: 2 added the `symbol` field and
/// the total (file, line, rule, symbol, message) sort order; 3 added the
/// per-diagnostic `witness` array (source→…→sink provenance for the KL-T
/// taint-flow family; empty for other rules); 4 added the KL-X
/// concurrency-protocol family (same shape — new `rule` values only,
/// witness chains populated like KL-T). Deleting KL-X and the KL-R
/// indexing rule later removed `rule` values only; the document shape did
/// not change, so the version stays 4.
pub const SCHEMA_VERSION: u32 = 4;

/// Renders diagnostics as a byte-stable JSON document:
/// `{"schema_version":4,"diagnostics":[{"rule":…,"file":…,"line":…,
/// "symbol":…,"message":…,"witness":[{"what":…,"file":…,"line":…},…]}],
/// "count":N,"files_scanned":M}`.
pub fn json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = format!("{{\"schema_version\":{SCHEMA_VERSION},\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"symbol\":{},\"message\":{},\"witness\":[",
            escape(d.rule),
            escape(&d.file),
            d.line,
            escape(&d.symbol),
            escape(&d.message)
        ));
        for (j, w) in d.witness.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"what\":{},\"file\":{},\"line\":{}}}",
                escape(&w.what),
                escape(&w.file),
                w.line
            ));
        }
        out.push_str("]}");
    }
    out.push_str(&format!(
        "],\"count\":{},\"files_scanned\":{}}}",
        diags.len(),
        files_scanned
    ));
    out
}

/// Minimal JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            rule: "KL-D01",
            file: "a\"b.rs".into(),
            line: 7,
            symbol: "core::f".into(),
            message: "x\ny".into(),
            witness: Vec::new(),
        }];
        let doc = json(&diags, 3);
        assert!(doc.starts_with("{\"schema_version\":4,"));
        assert!(doc.contains("\"a\\\"b.rs\""));
        assert!(doc.contains("\"symbol\":\"core::f\""));
        assert!(doc.contains("\"x\\ny\""));
        assert!(doc.contains("\"witness\":[]"));
        assert!(doc.ends_with("\"count\":1,\"files_scanned\":3}"));
    }

    #[test]
    fn json_renders_witness_chain_as_structured_array() {
        use crate::rules::WitnessStep;
        let diags = vec![Diagnostic {
            rule: "KL-T01",
            file: "b.rs".into(),
            line: 9,
            symbol: "RunMeta::wall_ms".into(),
            message: "clock taint reaches …".into(),
            witness: vec![
                WitnessStep {
                    what: "`Instant::now`".into(),
                    file: "a.rs".into(),
                    line: 3,
                },
                WitnessStep {
                    what: "let `wall`".into(),
                    file: "a.rs".into(),
                    line: 4,
                },
            ],
        }];
        let doc = json(&diags, 1);
        assert!(doc.contains(
            "\"witness\":[{\"what\":\"`Instant::now`\",\"file\":\"a.rs\",\"line\":3},\
             {\"what\":\"let `wall`\",\"file\":\"a.rs\",\"line\":4}]"
        ));
    }
}
