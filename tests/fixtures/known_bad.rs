//! Lint corpus: every rule family firing at a known line. `lint_corpus.rs`
//! lints this file as a crate root under the workspace's clippy
//! configuration; it is not a target of any package.

use std::collections::HashMap; // line 5: disallowed_types
use std::time::Instant; // line 6: disallowed_types

pub fn determinism_hazards() -> usize {
    let started = Instant::now(); // line 9: disallowed_types
    let mut map: HashMap<String, u64> = HashMap::new(); // line 10: disallowed_types x2
    map.insert(format!("{started:?}"), 0);
    let _ = std::env::var("SOME_KNOB"); // line 12: disallowed_methods
    let _ = std::thread::available_parallelism(); // line 13: disallowed_methods
    map.len()
}

pub fn panic_hazards(xs: &[u64]) -> u64 {
    let first = xs.first().unwrap(); // line 18: unwrap_used
    let second = xs.get(1).expect("second"); // line 19: expect_used
    if *first > *second {
        panic!("inverted"); // line 21: panic
    }
    unsafe { *xs.get_unchecked(2) } // line 23: unsafe_code
}

pub fn unfinished(n: u8) -> u8 {
    match n {
        0 => todo!(), // line 28: todo
        1 => unimplemented!(), // line 29: unimplemented
        _ => unreachable!(), // line 30: unreachable
    }
}

pub fn hygiene_hazards() -> u64 {
    println!("progress"); // line 35: print_stdout
    eprintln!("warning"); // line 36: print_stderr
    dbg!(21 + 21) // line 37: dbg_macro
}

#[allow(clippy::unwrap_used)] // line 40: allow_attributes, and no reason
pub fn bare_allow() {}

#[expect(clippy::unwrap_used)] // line 43: no reason, and nothing to expect
pub fn unreasoned_stale_expectation() {}
