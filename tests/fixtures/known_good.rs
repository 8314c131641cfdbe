//! Lint corpus: hazard-shaped code that must produce no finding.
//! `lint_corpus.rs` lints this file as a library crate root; it is not a
//! target of any package.

use std::collections::BTreeMap;

/// Doc comments may say unwrap(), HashMap or Instant::now(): prose about
/// code is not code.
pub fn strings_and_comments_are_inert() -> usize {
    let msg = "call .unwrap() on a HashMap while Instant::now() ticks";
    let re = r#"panic!("{}", std::env::var("X"))"#;
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    map.insert(msg, re);
    map.len()
}

pub fn suppressed(xs: &[u64]) -> u64 {
    #[expect(clippy::unwrap_used, reason = "corpus check that a reasoned expectation suppresses")]
    let first = xs.first().unwrap();
    *first
}

fn fallback() -> u64 {
    3
}

pub fn unwrap_or_else_is_not_unwrap(x: Option<u64>, y: Option<u64>) -> u64 {
    x.unwrap_or_else(fallback) + y.unwrap_or_default()
}

pub fn not_ambient_env() -> usize {
    // env::args is explicit input, not ambient configuration.
    std::env::args().count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let parsed: Option<u8> = "1".parse().ok();
        assert_eq!(parsed.unwrap(), 1);
        assert_eq!(parsed.expect("parsed"), 1);
    }
}
