//! `kelp_benchmark`: the live end-to-end and per-layer benchmark of the Kelp
//! reproduction. One invocation measures one workload:
//!
//! ```text
//! kelp_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run plays one untimed warm-up round, then timed rounds until the next
//! one would end past `--seconds`, then checks every output. Each round
//! starts from fresh state. Building that state is the set-up, timed on its
//! own: once per round and [`EXTRA_SETUPS`] more times, and `setup_s` is the
//! median. The run prints each metric
//! as `workload metric value unit` and, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced rounds with rounds that record spans around every public call
//! into a layer, runs the per-layer probes, reports the per-layer metrics,
//! prints per-span and per-layer self times and writes them, with every
//! span, to `target/kelp_benchmark/trace-<workload>.json` under the
//! repository root.
//!
//! Exit status: 0 when every output check passed, 1 when a check failed or
//! the run could not complete, 2 on a usage error. See `README.md` beside
//! this package for the workloads, metrics and bounds.

#![forbid(unsafe_code)]

mod probes;
mod sim;
mod stats;
mod sweep;
mod trace;

use serde::Value;
use stats::{median, Stopwatch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "sweep_cold",
    "sweep_warm",
    "solver_cold",
    "fleet_steady",
    "fleet_faults",
];

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("host_steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups a run times beyond the one each round needs, so that `setup_s`
/// is a median over many samples even when rounds are few.
const EXTRA_SETUPS: usize = 10;

/// Worker threads for every parallel call: the reference host has two CPUs.
pub const JOBS: usize = 2;

const USAGE: &str =
    "usage: kelp_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: sweep_cold sweep_warm solver_cold fleet_steady fleet_faults";

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Output checks: each is one attempted operation, failing ones are
/// reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    run: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `failure` describes it when `ok` is false.
    pub fn require(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// What one round did, rendered outside the timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Unit operations: records returned, spec runs, fleet ticks.
    pub ops: u64,
    /// Operations that failed: error records, specs that did not build.
    /// Each is also reported on stderr.
    pub failed_ops: u64,
    /// Simulated host-steps the round delivered.
    pub host_steps: u64,
    /// Canonical rendering (or digest) of the round's outputs. Every round
    /// of a run must produce the same one.
    pub output: String,
}

/// One benchmark workload.
pub trait Bench {
    /// Fresh state one round consumes.
    type State;
    /// What a round returns, before it is rendered.
    type Output;

    /// Builds fresh state for one round: the set-up time.
    fn set_up(&mut self) -> Self::State;

    /// Runs one round: the timed window.
    fn run_round(&mut self, state: &mut Self::State, tracer: &mut Tracer) -> Self::Output;

    /// Renders and checks one round's output, and releases its state.
    fn finish_round(
        &mut self,
        state: Self::State,
        output: Self::Output,
        checks: &mut Checks,
    ) -> Result<Round, String>;

    /// Checks that need the whole run, after the last round; `warm_up` is
    /// what every round reproduced.
    fn check_run(&mut self, _warm_up: &Round, _checks: &mut Checks) -> Result<(), String> {
        Ok(())
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (expected 0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: this package sits five directories below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    round_s: Vec<f64>,
    traced_round_s: Vec<f64>,
    host_steps: u64,
    ops: u64,
    failed_ops: u64,
    checks: Checks,
}

/// Builds fresh state and plays one round on it: (set-up seconds, round
/// seconds, the rendered round).
fn play<B: Bench>(
    bench: &mut B,
    tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) -> Result<(f64, f64, Round), String> {
    let clock = Stopwatch::start();
    let mut state = bench.set_up();
    let setup = clock.secs();
    let clock = Stopwatch::start();
    let output = match tracer {
        Some(tracer) => tracer.span("round", |t| bench.run_round(&mut state, t)),
        None => bench.run_round(&mut state, &mut Tracer::off()),
    };
    let secs = clock.secs();
    Ok((setup, secs, bench.finish_round(state, output, checks)?))
}

/// Runs one untimed warm-up round, then timed rounds until the next would
/// end past `--seconds`, then the checks of one workload. A traced run
/// alternates untraced and traced rounds.
fn measure<B: Bench>(bench: &mut B, args: &Args, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured {
        setup_s: Vec::new(),
        round_s: Vec::new(),
        traced_round_s: Vec::new(),
        host_steps: 0,
        ops: 0,
        failed_ops: 0,
        checks: Checks::default(),
    };
    let (setup, _, warm_up) = play(bench, None, &mut m.checks)?;
    m.setup_s.push(setup);
    for _ in 0..EXTRA_SETUPS {
        let clock = Stopwatch::start();
        let state = bench.set_up();
        m.setup_s.push(clock.secs());
        drop(state);
    }
    let window = Stopwatch::start();
    let min_rounds = if args.trace { 2 } else { 1 };
    for n in 1.. {
        let traced = args.trace && n % 2 == 0;
        let (setup, secs, round) = play(bench, traced.then_some(&mut *tracer), &mut m.checks)?;
        m.setup_s.push(setup);
        m.checks.require(round.output == warm_up.output, || {
            "a round's outputs differ from the warm-up round's".to_string()
        });
        if traced {
            m.traced_round_s.push(secs);
        } else {
            m.round_s.push(secs);
            m.host_steps += round.host_steps;
            m.ops += round.ops;
            m.failed_ops += round.failed_ops;
        }
        if n >= min_rounds && window.secs() + secs > args.seconds {
            break;
        }
    }
    bench.check_run(&warm_up, &mut m.checks)?;
    Ok(m)
}

/// Peak resident set size of this process in MB (`VmHWM`, Linux).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A finished run: the metrics to report and the check tally.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Runs one workload with its scratch directory under
/// `target/kelp_benchmark/`, which is deleted afterwards.
fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let scratch = root.join("target/kelp_benchmark").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let outcome = run_in(args, root, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(args: &Args, root: &Path, scratch: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::on();
    let measured = match args.workload {
        "sweep_cold" => measure(
            &mut sweep::Sweep::new(root, scratch, args.seed, false)?,
            args,
            &mut tracer,
        ),
        "sweep_warm" => measure(
            &mut sweep::Sweep::new(root, scratch, args.seed, true)?,
            args,
            &mut tracer,
        ),
        "solver_cold" => measure(&mut sim::SolverCold::new(args.seed), args, &mut tracer),
        "fleet_steady" => measure(&mut sim::FleetSteady::new(args.seed), args, &mut tracer),
        _ => measure(
            &mut sim::FleetFaults::new(root, args.seed)?,
            args,
            &mut tracer,
        ),
    }?;
    let metrics = if args.trace {
        let mut metrics = probes::run(scratch, args.seed)?;
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            median(&measured.traced_round_s) / median(&measured.round_s) - 1.0,
            "ratio",
        ));
        write_trace(root, args, &measured, &tracer, &metrics)?;
        metrics
    } else {
        let timed: f64 = measured.round_s.iter().sum();
        let values = [
            median(&measured.setup_s),
            median(&measured.round_s),
            measured.host_steps as f64 / timed,
            peak_rss_mb()?,
        ];
        END_TO_END
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| Metric::new(name, value, unit))
            .collect()
    };
    let checks = measured.checks;
    Ok(Outcome {
        metrics,
        attempted: measured.ops + checks.run,
        failed: measured.failed_ops + checks.failures.len() as u64,
        failures: checks.failures,
    })
}

/// Prints the per-span and per-layer self times of the traced rounds, and
/// writes them with the per-layer metrics and every span to
/// `target/kelp_benchmark/trace-<workload>.json`.
fn write_trace(
    root: &Path,
    args: &Args,
    m: &Measured,
    tracer: &Tracer,
    metrics: &[Metric],
) -> Result<(), String> {
    let rounds = m.traced_round_s.len().max(1) as u64;
    let per_round = |ns: u64| ns as f64 / 1e9 / rounds as f64;
    let names = trace::totals_by_name(tracer.spans());
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_name = Vec::new();
    for (name, t) in &names {
        *layers.entry(trace::layer(name)).or_default() += t.self_ns;
        println!(
            "span {} {name} calls {} total {:.6} s self {:.6} s per round",
            args.workload,
            t.calls / rounds,
            per_round(t.total_ns),
            per_round(t.self_ns)
        );
        by_name.push(Value::Map(vec![
            ("name".into(), Value::Str((*name).into())),
            ("calls_per_round".into(), Value::UInt(t.calls / rounds)),
            (
                "total_s_per_round".into(),
                Value::Float(per_round(t.total_ns)),
            ),
            (
                "self_s_per_round".into(),
                Value::Float(per_round(t.self_ns)),
            ),
        ]));
    }
    let sum_of_self = per_round(layers.values().sum());
    let mut waterfall = Vec::new();
    for (layer, ns) in &layers {
        let self_s = per_round(*ns);
        println!(
            "layer {} {layer} self {self_s:.6} s per round ({:.1}%)",
            args.workload,
            100.0 * self_s / sum_of_self
        );
        waterfall.push(Value::Map(vec![
            ("layer".into(), Value::Str((*layer).into())),
            ("self_s_per_round".into(), Value::Float(self_s)),
        ]));
    }
    let untraced = median(&m.round_s);
    println!(
        "layer {} sum of self times {sum_of_self:.6} s per round, untraced round_s {untraced:.6} s ({:+.1}%)",
        args.workload,
        100.0 * (sum_of_self / untraced - 1.0)
    );
    let metrics = metrics
        .iter()
        .map(|m| (m.name.to_string(), Value::Float(m.value)))
        .collect();
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("round_s_untraced".into(), Value::Float(untraced)),
        (
            "round_s_traced".into(),
            Value::Float(median(&m.traced_round_s)),
        ),
        ("sum_of_self_s_per_round".into(), Value::Float(sum_of_self)),
        ("layers".into(), Value::Seq(waterfall)),
        ("spans_by_name".into(), Value::Seq(by_name)),
        ("metrics".into(), Value::Map(metrics)),
        ("spans".into(), serde::Serialize::to_value(tracer.spans())),
    ]);
    let dir = root.join("target/kelp_benchmark");
    let path = dir.join(format!("trace-{}.json", args.workload));
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir)
        // kelp-lint: allow(KL-T02): the trace file holds host wall-clock spans by design; it is benchmark output, never a results/ artifact.
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The last output line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let doc = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kelp_benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args, &repo_root()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("kelp_benchmark: {e}");
            std::process::exit(1);
        }
    };
    for failure in &outcome.failures {
        eprintln!("kelp_benchmark: check failed: {failure}");
    }
    for m in &outcome.metrics {
        println!("{} {} {} {}", args.workload, m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// The entries of one list in `BENCHMARK.json`, as field lists.
    fn entries(key: &str) -> Vec<Vec<(String, Value)>> {
        let doc: Value = serde_json::from_str(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let Value::Map(top) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some((_, Value::Seq(list))) = top.into_iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no `{key}` list")
        };
        list.into_iter()
            .map(|entry| match entry {
                Value::Map(fields) => fields,
                _ => panic!("a `{key}` entry is not an object"),
            })
            .collect()
    }

    fn field(entry: &[(String, Value)], name: &str) -> String {
        match entry.iter().find(|(k, _)| k == name) {
            Some((_, Value::Str(s))) => s.clone(),
            _ => panic!("entry lacks `{name}`"),
        }
    }

    fn names_and_units(key: &str) -> Vec<(String, String)> {
        entries(key)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn owned(
        pairs: impl IntoIterator<Item = (&'static str, &'static str)>,
    ) -> Vec<(String, String)> {
        pairs
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_both_ways() {
        assert_eq!(names_and_units("end_to_end"), owned(END_TO_END));
        let mut per_layer = owned(probes::METRICS);
        per_layer.push(("trace.overhead_ratio".into(), "ratio".into()));
        assert_eq!(names_and_units("per_layer"), per_layer);
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Whether `name` is a valid metric name: 1–64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_metric_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "round_s",
            "host_batch.step_us_p50",
            "serde_json.parse_mb_per_s",
            "a-1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "tick_µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_name_follows_the_grammar() {
        let names = END_TO_END
            .iter()
            .chain(probes::METRICS.iter())
            .map(|(n, _)| *n)
            .chain(["trace.overhead_ratio"]);
        for name in names {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(&[
            "--workload",
            "fleet_steady",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet_steady",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv(&[])).is_err());
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--workload", "sweep_cold", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--workload", "sweep_cold", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--workload", "sweep_cold", "--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(&Outcome {
            metrics: vec![Metric::new("round_s", 1.25, "s")],
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
        });
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"round_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
