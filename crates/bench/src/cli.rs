//! Argument parsing for the `kelp-sim` command-line interface.
//!
//! Kept dependency-free (plain `std::env`) and separated from the binary so
//! the parser is unit-testable.

use kelp::policy::PolicyKind;
use kelp_workloads::{BatchKind, MlWorkloadKind};
use std::ops::RangeBounds;

/// A parsed `kelp-sim` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `kelp-sim list` — show available workloads and policies.
    List,
    /// `kelp-sim run …` — run one colocation experiment.
    Run(RunArgs),
    /// `kelp-sim counters …` — run and print the four Kelp measurements.
    Counters(RunArgs),
    /// `kelp-sim profiles [--save PATH]` — print/save the profile library.
    Profiles {
        /// Destination path for the JSON dump (stdout when absent).
        save: Option<String>,
    },
    /// `kelp-sim cache [--prune]` — report (and optionally prune) the
    /// content-addressed result cache.
    Cache {
        /// Delete entries no current sweep would touch.
        prune: bool,
    },
    /// `kelp-sim help`.
    Help,
}

/// Arguments shared by `run` and `counters`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The ML workload (None = CPU-only host).
    pub ml: Option<MlWorkloadKind>,
    /// The runtime policy.
    pub policy: PolicyKind,
    /// Colocated CPU workloads as `(kind, threads)`.
    pub cpu: Vec<(BatchKind, usize)>,
    /// Use the quick timing configuration.
    pub quick: bool,
}

/// A structured CLI error: a user-facing message plus the usage line of the
/// subcommand it concerns, so the binary can show targeted help instead of
/// the full text.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    message: String,
    usage: Option<&'static str>,
}

/// Usage line shown for `run`/`counters` argument errors.
pub const USAGE_RUN: &str =
    "kelp-sim run|counters [--ml ML] [--policy P] [--cpu KIND[:THREADS]]... [--quick]";
/// Usage line shown for `profiles` argument errors.
pub const USAGE_PROFILES: &str = "kelp-sim profiles [--save PATH]";
/// Usage line shown for `cache` argument errors.
pub const USAGE_CACHE: &str = "kelp-sim cache [--prune]";

impl CliError {
    /// Creates an error with no usage hint.
    pub fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: None,
        }
    }

    /// Attaches the usage line of the subcommand being parsed.
    pub fn with_usage(mut self, usage: &'static str) -> Self {
        self.usage = Some(usage);
        self
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The usage hint, when the error concerns a specific subcommand.
    pub fn usage(&self) -> Option<&'static str> {
        self.usage
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parses an ML workload name (case-insensitive).
pub fn parse_ml(name: &str) -> Result<MlWorkloadKind, CliError> {
    match name.to_ascii_uppercase().as_str() {
        "RNN1" => Ok(MlWorkloadKind::Rnn1),
        "CNN1" => Ok(MlWorkloadKind::Cnn1),
        "CNN2" => Ok(MlWorkloadKind::Cnn2),
        "CNN3" => Ok(MlWorkloadKind::Cnn3),
        other => Err(CliError::new(format!(
            "unknown ML workload '{other}' (expected RNN1|CNN1|CNN2|CNN3)"
        ))),
    }
}

/// Parses a policy label (paper abbreviation, case-insensitive).
pub fn parse_policy(name: &str) -> Result<PolicyKind, CliError> {
    match name.to_ascii_uppercase().as_str() {
        "BL" | "BASELINE" => Ok(PolicyKind::Baseline),
        "CT" | "CORETHROTTLE" => Ok(PolicyKind::CoreThrottle),
        "KP-SD" | "KPSD" | "SUBDOMAIN" => Ok(PolicyKind::KelpSubdomain),
        "KP" | "KELP" => Ok(PolicyKind::Kelp),
        "KP-H" | "KPH" | "HARDENED" => Ok(PolicyKind::KelpHardened),
        "FG" | "FINEGRAINED" => Ok(PolicyKind::FineGrained),
        "MCP" | "CHANNEL" => Ok(PolicyKind::Mcp),
        other => Err(CliError::new(format!(
            "unknown policy '{other}' (expected BL|CT|KP-SD|KP|KP-H|FG|MCP)"
        ))),
    }
}

/// Parses a CPU workload spec `KIND[:THREADS]` (default 8 threads).
pub fn parse_cpu(spec: &str) -> Result<(BatchKind, usize), CliError> {
    let (name, threads) = match spec.split_once(':') {
        Some((n, t)) => {
            let threads: usize = t
                .parse()
                .map_err(|_| CliError::new(format!("bad thread count in '{spec}'")))?;
            if threads == 0 {
                return Err(CliError::new(format!(
                    "thread count must be > 0 in '{spec}'"
                )));
            }
            (n, threads)
        }
        None => (spec, 8),
    };
    let kind = match name.to_ascii_lowercase().as_str() {
        "stream" => BatchKind::Stream,
        "stitch" => BatchKind::Stitch,
        "cpuml" => BatchKind::CpuMl,
        "llc" => BatchKind::LlcAggressor,
        "dram" => BatchKind::DramAggressor,
        "remote-dram" | "remotedram" => BatchKind::RemoteDramAggressor,
        other => Err(CliError::new(format!(
            "unknown CPU workload '{other}' (expected stream|stitch|cpuml|llc|dram|remote-dram)"
        )))?,
    };
    Ok((kind, threads))
}

/// Parses the value of a `FLAG VALUE` pair anywhere in an argument vector:
/// `None` when the flag is absent, an error when its value is missing or
/// does not parse as `T`.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, CliError> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let v = args
        .get(pos + 1)
        .ok_or_else(|| CliError::new(format!("{flag} needs a value")))?;
    v.parse()
        .map(Some)
        .map_err(|_| CliError::new(format!("bad {flag} value '{v}'")))
}

/// [`parse_flag`] for a value that must also lie in `range`: a value
/// outside it (NaN included) is an error naming the flag and the range.
pub fn parse_flag_in<T>(
    args: &[String],
    flag: &str,
    range: impl RangeBounds<T> + std::fmt::Debug,
) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match parse_flag::<T>(args, flag)? {
        Some(v) if !range.contains(&v) => Err(CliError::new(format!(
            "bad {flag} value '{v}' (must be in {range:?})"
        ))),
        parsed => Ok(parsed),
    }
}

/// Rejects an argument vector (program name first) that holds anything
/// but a binary's known flags: each of `switches` stands alone, each of
/// `valued` takes the next argument as its value. The error names the
/// first unknown argument and lists the known flags.
pub fn check_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), CliError> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            let known: Vec<&str> = switches.iter().chain(valued).copied().collect();
            return Err(CliError::new(format!(
                "unknown flag '{arg}' (expected {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parses a `--jobs N` flag anywhere in an argument vector. Absent flag
/// means serial (`1`); `--jobs 0` is rejected.
pub fn parse_jobs(args: &[String]) -> Result<usize, CliError> {
    Ok(parse_flag_in(args, "--jobs", 1..)?.unwrap_or(1))
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profiles" => {
            let save = match args.get(1).map(String::as_str) {
                Some("--save") => Some(
                    args.get(2)
                        .ok_or_else(|| {
                            CliError::new("--save needs a path").with_usage(USAGE_PROFILES)
                        })?
                        .clone(),
                ),
                Some(other) => {
                    return Err(
                        CliError::new(format!("unknown flag '{other}'")).with_usage(USAGE_PROFILES)
                    )
                }
                None => None,
            };
            Ok(Command::Profiles { save })
        }
        "cache" => {
            let mut prune = false;
            for flag in &args[1..] {
                match flag.as_str() {
                    "--prune" => prune = true,
                    other => {
                        return Err(CliError::new(format!("unknown flag '{other}'"))
                            .with_usage(USAGE_CACHE))
                    }
                }
            }
            Ok(Command::Cache { prune })
        }
        "run" | "counters" => {
            let mut run = RunArgs {
                ml: None,
                policy: PolicyKind::Baseline,
                cpu: Vec::new(),
                quick: false,
            };
            let hint = |e: CliError| e.with_usage(USAGE_RUN);
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--ml" => {
                        let v = it
                            .next()
                            .ok_or_else(|| hint(CliError::new("--ml needs a value")))?;
                        run.ml = Some(parse_ml(v).map_err(hint)?);
                    }
                    "--policy" => {
                        let v = it
                            .next()
                            .ok_or_else(|| hint(CliError::new("--policy needs a value")))?;
                        run.policy = parse_policy(v).map_err(hint)?;
                    }
                    "--cpu" => {
                        let v = it
                            .next()
                            .ok_or_else(|| hint(CliError::new("--cpu needs a value")))?;
                        run.cpu.push(parse_cpu(v).map_err(hint)?);
                    }
                    "--quick" => run.quick = true,
                    other => return Err(hint(CliError::new(format!("unknown flag '{other}'")))),
                }
            }
            if cmd == "run" {
                Ok(Command::Run(run))
            } else {
                Ok(Command::Counters(run))
            }
        }
        other => Err(CliError::new(format!(
            "unknown command '{other}' (expected list|run|counters|profiles|cache|help)"
        ))),
    }
}

/// The help text.
pub const HELP: &str = "\
kelp-sim — drive the Kelp reproduction from the command line

USAGE:
  kelp-sim list
      Show the available ML workloads, CPU workloads and policies.
  kelp-sim run [--ml ML] [--policy P] [--cpu KIND[:THREADS]]... [--quick]
      Run one colocation experiment and print the outcome.
  kelp-sim counters [--ml ML] [--policy P] [--cpu ...] [--quick]
      Run and print the four Kelp runtime measurements.
  kelp-sim profiles [--save PATH]
      Print (or save as JSON) the default per-application profile library.
  kelp-sim cache [--prune]
      Report the result cache's entry count and size; with --prune, delete
      entries that no standard sweep (default or quick config) would touch.

EXAMPLES:
  kelp-sim run --ml CNN1 --policy KP --cpu stream:16
  kelp-sim run --ml RNN1 --policy BL --cpu cpuml:8 --cpu stitch:4 --quick
  kelp-sim counters --ml CNN2 --policy KP-SD --cpu dram:14
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_everything() {
        let cmd = parse(&argv(&[
            "run",
            "--ml",
            "cnn1",
            "--policy",
            "kp",
            "--cpu",
            "stream:16",
            "--cpu",
            "stitch",
            "--quick",
        ]))
        .unwrap();
        let Command::Run(r) = cmd else {
            panic!("expected run");
        };
        assert_eq!(r.ml, Some(MlWorkloadKind::Cnn1));
        assert_eq!(r.policy, PolicyKind::Kelp);
        assert_eq!(r.cpu, vec![(BatchKind::Stream, 16), (BatchKind::Stitch, 8)]);
        assert!(r.quick);
    }

    #[test]
    fn parses_counters_and_defaults() {
        let cmd = parse(&argv(&["counters"])).unwrap();
        let Command::Counters(r) = cmd else {
            panic!("expected counters");
        };
        assert_eq!(r.ml, None);
        assert_eq!(r.policy, PolicyKind::Baseline);
        assert!(r.cpu.is_empty());
        assert!(!r.quick);
    }

    #[test]
    fn policy_aliases() {
        assert_eq!(parse_policy("kelp").unwrap(), PolicyKind::Kelp);
        assert_eq!(parse_policy("KP-SD").unwrap(), PolicyKind::KelpSubdomain);
        assert_eq!(parse_policy("KP-H").unwrap(), PolicyKind::KelpHardened);
        assert_eq!(parse_policy("hardened").unwrap(), PolicyKind::KelpHardened);
        assert_eq!(parse_policy("fg").unwrap(), PolicyKind::FineGrained);
        assert_eq!(parse_policy("mcp").unwrap(), PolicyKind::Mcp);
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn cpu_spec_errors() {
        assert!(parse_cpu("stream:abc").is_err());
        assert!(parse_cpu("stream:0").is_err());
        assert!(parse_cpu("bogus:4").is_err());
        assert_eq!(
            parse_cpu("dram:14").unwrap(),
            (BatchKind::DramAggressor, 14)
        );
    }

    #[test]
    fn value_flags() {
        let args = argv(&[
            "bin",
            "--ticks",
            "12",
            "--churn",
            "0.5",
            "--machines",
            "nope",
        ]);
        assert_eq!(parse_flag::<usize>(&args, "--ticks").unwrap(), Some(12));
        assert_eq!(parse_flag::<f64>(&args, "--churn").unwrap(), Some(0.5));
        assert_eq!(parse_flag::<usize>(&args, "--jobs").unwrap(), None);
        let err = parse_flag::<usize>(&args, "--machines").unwrap_err();
        assert_eq!(err.message(), "bad --machines value 'nope'");
        assert!(parse_flag::<usize>(&argv(&["--ticks"]), "--ticks").is_err());
        assert!(parse_flag::<usize>(&argv(&["--ticks", "-3"]), "--ticks").is_err());
    }

    #[test]
    fn ranged_value_flags() {
        let args = argv(&["bin", "--churn", "0.25", "--ticks", "0", "--rate", "NaN"]);
        assert_eq!(
            parse_flag_in::<f64>(&args, "--churn", 0.0..=1.0).unwrap(),
            Some(0.25)
        );
        assert_eq!(parse_flag_in::<usize>(&args, "--jobs", 1..).unwrap(), None);
        let err = parse_flag_in::<usize>(&args, "--ticks", 1..).unwrap_err();
        assert_eq!(err.message(), "bad --ticks value '0' (must be in 1..)");
        assert!(parse_flag_in::<f64>(&args, "--rate", 0.0..=1.0).is_err());
        let over = argv(&["bin", "--churn", "7"]);
        assert!(parse_flag_in::<f64>(&over, "--churn", 0.0..=1.0).is_err());
    }

    #[test]
    fn unknown_flags_are_named() {
        let known = |args: &[&str]| check_flags(&argv(args), &["--quick"], &["--ticks"]);
        assert!(known(&["bin"]).is_ok());
        assert!(known(&["bin", "--quick", "--ticks", "4"]).is_ok());
        // A value is skipped even when it looks like a flag.
        assert!(known(&["bin", "--ticks", "--quik"]).is_ok());
        let err = known(&["bin", "--quik"]).unwrap_err();
        assert_eq!(
            err.message(),
            "unknown flag '--quik' (expected --quick, --ticks)"
        );
        assert!(known(&["bin", "--quick", "8"]).is_err());
    }

    #[test]
    fn jobs_flag() {
        assert_eq!(parse_jobs(&argv(&["run"])).unwrap(), 1);
        assert_eq!(parse_jobs(&argv(&["repro", "--jobs", "4"])).unwrap(), 4);
        assert!(parse_jobs(&argv(&["--jobs"])).is_err());
        assert!(parse_jobs(&argv(&["--jobs", "0"])).is_err());
        assert!(parse_jobs(&argv(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn top_level_commands() {
        assert_eq!(parse(&argv(&["list"])).unwrap(), Command::List);
        assert_eq!(parse(&argv(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["--help"])).unwrap(), Command::Help);
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert_eq!(
            parse(&argv(&["profiles", "--save", "x.json"])).unwrap(),
            Command::Profiles {
                save: Some("x.json".into())
            }
        );
        assert!(parse(&argv(&["profiles", "--save"])).is_err());
    }

    #[test]
    fn errors_carry_subcommand_usage_hints() {
        let err = parse(&argv(&["run", "--ml", "nope"])).unwrap_err();
        assert_eq!(err.usage(), Some(USAGE_RUN));
        let err = parse(&argv(&["run", "--bogus"])).unwrap_err();
        assert_eq!(err.usage(), Some(USAGE_RUN));
        let err = parse(&argv(&["profiles", "--save"])).unwrap_err();
        assert_eq!(err.usage(), Some(USAGE_PROFILES));
        let err = parse(&argv(&["cache", "--bogus"])).unwrap_err();
        assert_eq!(err.usage(), Some(USAGE_CACHE));
        // A mistyped top-level command has no single subcommand to hint at.
        let err = parse(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(err.usage(), None);
        assert!(err.message().contains("unknown command"));
    }

    #[test]
    fn cache_command() {
        assert_eq!(
            parse(&argv(&["cache"])).unwrap(),
            Command::Cache { prune: false }
        );
        assert_eq!(
            parse(&argv(&["cache", "--prune"])).unwrap(),
            Command::Cache { prune: true }
        );
        assert!(parse(&argv(&["cache", "--bogus"])).is_err());
    }
}
