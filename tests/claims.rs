//! The committed paper scorecard holds: `results/scorecard.json` carries
//! all 11 headline claims and every measurement sits inside its band.
//! `cargo run --release -p kelp-bench --bin repro_all` regenerates the
//! file; a regenerated golden that drops a claim out of band fails here.

use kelp::experiments::scorecard::Scorecard;
use std::path::Path;

const CLAIMS: usize = 11;

#[test]
fn committed_scorecard_keeps_every_claim_in_band() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/scorecard.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let card: Scorecard =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()));

    let listing: String = card
        .claims
        .iter()
        .map(|c| {
            format!(
                "\n  {} ({}): measured {} in band [{}, {}]: {}",
                c.source,
                c.paper,
                c.measured,
                c.band.0,
                c.band.1,
                if c.passes() { "pass" } else { "FAIL" }
            )
        })
        .collect();
    assert!(
        card.claims.len() == CLAIMS && card.passed() == CLAIMS,
        "{}/{} claims in band, expected {CLAIMS}/{CLAIMS}:{listing}",
        card.passed(),
        card.claims.len()
    );
}
