//! The workspace's static rules, tested through the gate that enforces
//! them: clippy, configured by `clippy.toml`, the root `[workspace.lints]`
//! table and the restriction header at each library crate root
//! (DESIGN.md §6b). Each test lints a small crate with [`probe::lint`];
//! `tests/lint_corpus.rs` runs the fixture corpus through the same probe.

pub(crate) mod probe;

#[cfg(test)]
mod tests {
    use super::probe::{lint, Case};

    /// Lints one library crate root.
    fn library(name: &str, src: &str) -> Vec<String> {
        lint(&[Case {
            name,
            library_root: true,
            src,
        }])
        .remove(0)
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   let x: Option<u8> = \"1\".parse().ok();\n        \
                   assert_eq!(x.unwrap(), 1);\n    }\n}\n";
        assert_eq!(library("test_module", src), ["2: clippy::unwrap_used"]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(library("not_test", src), ["3: clippy::unwrap_used"]);
    }

    #[test]
    fn allow_with_justification_suppresses_and_unused_allow_fires() {
        let found = lint(&[
            Case {
                name: "reasoned",
                library_root: true,
                src: "#[expect(clippy::unwrap_used, reason = \"setup contract\")]\n\
                      pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            },
            Case {
                name: "stale",
                library_root: true,
                src: "#[expect(clippy::unwrap_used, reason = \"nothing here\")]\npub fn f() {}\n",
            },
        ]);
        assert!(
            found[0].is_empty(),
            "a reasoned expectation suppresses: {:?}",
            found[0]
        );
        assert_eq!(found[1], ["1: unfulfilled_lint_expectations"]);
    }

    #[test]
    fn allow_requires_justification_and_known_rule() {
        let found = lint(&[
            Case {
                name: "unreasoned",
                library_root: true,
                src: "#[expect(clippy::unwrap_used)]\n\
                      pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            },
            Case {
                name: "bare_allow",
                library_root: true,
                src: "#[allow(clippy::unwrap_used, reason = \"an allow never goes stale\")]\n\
                      pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            },
            Case {
                name: "unknown_lint",
                library_root: true,
                src: "#[expect(clippy::no_such_lint, reason = \"whatever\")]\npub fn f() {}\n",
            },
        ]);
        assert_eq!(found[0], ["1: clippy::allow_attributes_without_reason"]);
        assert_eq!(found[1], ["1: clippy::allow_attributes"]);
        assert_eq!(found[2], ["1: unknown_lints"]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn three() -> u8 {\n    3\n}\n\n\
                   pub fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n    \
                   x.unwrap_or_else(three) + y.unwrap_or_default()\n}\n";
        let found = library("fallbacks", src);
        assert!(found.is_empty(), "unexpected findings: {found:?}");
    }

    #[test]
    fn env_read_detected_through_paths() {
        let src = "use std::env;\nuse std::env::var_os as ambient;\n\n\
                   pub fn reads() -> bool {\n    \
                   std::env::var(\"X\").is_ok()\n        \
                   || env::vars().count() > 0\n        \
                   || ambient(\"Y\").is_some()\n}\n\n\
                   /// `env::args` is explicit input, not ambient configuration.\n\
                   pub fn args() -> usize {\n    std::env::args().count()\n}\n";
        assert_eq!(
            library("env_reads", src),
            [
                "5: clippy::disallowed_methods",
                "6: clippy::disallowed_methods",
                "7: clippy::disallowed_methods",
            ]
        );
    }

    #[test]
    fn crate_root_requires_forbid() {
        // The crate root inherits `forbid(unsafe_code)` from the workspace
        // table, with or without the restriction header, and no attribute
        // lifts a forbid.
        let unsafe_read = "pub fn first(xs: &[u8]) -> u8 {\n    \
                           unsafe { *xs.get_unchecked(0) }\n}\n";
        let lifted = format!("#![expect(unsafe_code, reason = \"try to lift it\")]\n{unsafe_read}");
        let found = lint(&[
            Case {
                name: "library_unsafe",
                library_root: true,
                src: unsafe_read,
            },
            Case {
                name: "plain_unsafe",
                library_root: false,
                src: unsafe_read,
            },
            Case {
                name: "lifted_unsafe",
                library_root: false,
                src: &lifted,
            },
        ]);
        assert_eq!(found[0], ["2: unsafe_code"]);
        assert_eq!(found[1], ["2: unsafe_code"]);
        assert!(
            found[2].contains(&"1: E0453".to_string()),
            "an expectation cannot override the forbid: {:?}",
            found[2]
        );
    }
}
