//! Randomized identity and self-healing property tests for the resilient
//! fleet (ISSUE 7).
//!
//! The fault and control layers are only safe if they are path-invariant:
//! a faulty, self-healing fleet stepped serially must be bit-identical to
//! the same fleet stepped through the batched SoA path at any worker-shard
//! count — including the ticks where machines crash, answer safe-state
//! reports, and restart cold. On top of that, the kill-restart property:
//! the healing loop may move high-priority jobs around, but it must never
//! lose one, duplicate one, or leak placement cores.

use kelp::driver::ExperimentConfig;
use kelp::policy::PolicyKind;
use kelp::runner::{RunSpec, Runner};
use kelp_simcore::fault::FaultKind;
use kelp_simcore::rng::SimRng;
use kelp_workloads::{MlWorkloadKind, ResilientFleet, ResilientFleetConfig};
use serde_json::Value;

const CASES: usize = 24;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG stream.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut root = SimRng::seed_from(seed);
    for case in 0..CASES {
        let mut rng = root.fork(case as u64);
        body(&mut rng);
    }
}

fn arb_config(rng: &mut SimRng) -> ResilientFleetConfig {
    let kinds = FaultKind::machine_level();
    let kind = kinds[rng.below(kinds.len() as u64) as usize];
    ResilientFleetConfig {
        machines: 4 + rng.below(8) as usize,
        seed: rng.below(u64::MAX),
        ticks: 48,
        failure_domains: 1 + rng.below(4) as usize,
        kind,
        magnitude: match kind {
            FaultKind::MachineCrash => rng.uniform(0.5, 1.5),
            FaultKind::MachineBrownout => rng.uniform(0.3, 0.7),
            _ => rng.uniform(0.9, 1.0),
        },
        fault_probability: rng.uniform(0.3, 0.8),
        outage_fraction: rng.uniform(0.1, 0.3),
        self_healing: rng.below(4) != 0,
        ..ResilientFleetConfig::default()
    }
}

/// (a) A faulty fleet is invariant in the step path and worker-shard
/// count: serial vs batched `--jobs 2` vs `--jobs 4`, report streams and
/// final metrics bit-identical, crash/restart ticks included.
#[test]
fn faulty_fleet_is_invariant_across_step_paths_and_shards() {
    let mut total_onsets = 0u64;
    let mut crash_ticks = 0u64;
    for_cases(0x0FA1_1701, |rng| {
        let config = arb_config(rng);
        let mut serial = ResilientFleet::new(config);
        let mut two = ResilientFleet::new(config);
        let mut four = ResilientFleet::new(config);
        for tick in 0..config.ticks {
            let reference = serial.tick_serial();
            assert_eq!(two.tick_batched(2), reference, "jobs=2 diverged @ {tick}");
            assert_eq!(four.tick_batched(4), reference, "jobs=4 diverged @ {tick}");
            crash_ticks += serial
                .machines()
                .iter()
                .filter(|m| !m.lifecycle().is_serving())
                .count() as u64;
        }
        assert_eq!(serial.metrics(), two.metrics());
        assert_eq!(serial.metrics(), four.metrics());
        total_onsets += serial.metrics().fault_onsets;
    });
    // The sweep must actually exercise the interesting ticks, not vacuously
    // agree on fault-free fleets.
    assert!(total_onsets > 0, "no case injected a fault window");
    assert!(crash_ticks > 0, "no case stepped a non-serving machine");
}

/// (b) Kill-restart property: under each machine-level fault kind with
/// self-healing on, every displaced high-priority job is rescheduled
/// within the backoff cap's reach, none is lost or duplicated, and
/// placement bookkeeping conserves cores on every tick. Crashes displace
/// jobs directly; a wedged solver (`SolverStress`) displaces them once
/// its machine keeps answering safe-state reports; a brownout keeps its
/// jobs and parks its batch tenants. Stress and brownout reach the
/// machine through its memory system, so every onset and clear also
/// empties the solve memo and starts a new epoch.
#[test]
fn kill_restart_never_loses_or_duplicates_jobs() {
    let kinds = [
        (FaultKind::MachineCrash, 0x0FA1_1702),
        (FaultKind::SolverStress, 0x0FA1_1703),
        (FaultKind::MachineBrownout, 0x0FA1_1704),
    ];
    for (kind, seed) in kinds {
        let mut total_displaced = 0u64;
        let mut total_onsets = 0u64;
        for_cases(seed, |rng| {
            let config = ResilientFleetConfig {
                machines: 6 + rng.below(8) as usize,
                seed: rng.below(u64::MAX),
                // Long enough that every fault window closes and every
                // machine restarts before the run ends.
                ticks: 96,
                failure_domains: 1 + rng.below(4) as usize,
                kind,
                magnitude: match kind {
                    FaultKind::MachineCrash => rng.uniform(0.5, 1.5),
                    // Severity 1 wedges the solver past its rescue, so its
                    // machines answer safe-state reports and are drained;
                    // milder severities exercise the rescue rung instead.
                    FaultKind::SolverStress if rng.chance(0.5) => 1.0,
                    FaultKind::SolverStress => rng.uniform(0.9, 1.0),
                    _ => rng.uniform(0.3, 0.7),
                },
                fault_probability: rng.uniform(0.3, 0.7),
                outage_fraction: rng.uniform(0.1, 0.25),
                self_healing: true,
                ..ResilientFleetConfig::default()
            };
            let n = config.machines;
            let total_cores = 24 * n;
            let mut fleet = ResilientFleet::new(config);
            for _ in 0..config.ticks {
                fleet.tick_serial();
                // Core conservation: every live placement's cores plus the
                // free pool equals the fleet total, fault ticks included.
                let placer = fleet.placer();
                let free: usize = (0..placer.machine_count())
                    .map(|m| placer.free_cores(m))
                    .sum();
                assert_eq!(free + placer.placed_cores(), total_cores, "{kind:?}");
                // No duplicates: at most one live placement per job.
                assert!(placer.live_placements() <= n, "{kind:?}");
                assert_eq!(placer.live_placements(), fleet.jobs_placed(), "{kind:?}");
            }
            let m = fleet.metrics();
            // None lost: every displacement was eventually rescheduled and
            // the run ends with every job placed.
            assert_eq!(m.lost_jobs, 0, "{kind:?}: jobs still pending at end: {m:?}");
            assert_eq!(fleet.jobs_placed(), n, "{kind:?}");
            assert_eq!(m.reschedules, m.displaced_jobs, "{kind:?}");
            // Within the backoff cap's reach: retry gaps never exceed the
            // cap, so the longest a displacement can wait is bounded by the
            // physics of the schedule — capacity can be absent for at most
            // one fault window plus the longest restart delay (1.5x the
            // window, scaled by the magnitude), after which at most one
            // capped retry interval passes before the job lands.
            let window_ticks = (config.outage_fraction * config.ticks as f64).ceil();
            let restart_ticks = (1.5 * config.magnitude * window_ticks).ceil();
            let bound = (window_ticks + restart_ticks) as u64 + config.backoff_cap;
            assert!(
                m.max_pending_ticks <= bound,
                "{kind:?}: a job waited {} ticks (bound {bound}, cap {})",
                m.max_pending_ticks,
                config.backoff_cap
            );
            total_displaced += m.displaced_jobs;
            total_onsets += m.fault_onsets;
        });
        assert!(
            total_onsets > 0,
            "{kind:?}: no case injected a fault window"
        );
        if kind != FaultKind::MachineBrownout {
            assert!(total_displaced > 0, "{kind:?}: no case displaced a job");
        }
    }
}

/// (c) The new solve-health counters surface in the run artifact schema:
/// `RunRecord.meta.solve` carries `non_converged`, `rescues` and
/// `safe_states` for every engine run.
#[test]
fn run_records_expose_solve_health_counters() {
    let config = ExperimentConfig::quick();
    let record = Runner::serial().run_one(&RunSpec::new(
        MlWorkloadKind::Cnn1,
        PolicyKind::Kelp,
        &config,
    ));
    let text = serde_json::to_string(&record).expect("record serializes");
    let json: Value = serde_json::from_str(&text).expect("record round-trips");
    fn lookup<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        match v {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let solve = lookup(&json, "meta")
        .and_then(|m| lookup(m, "solve"))
        .expect("meta.solve present");
    for key in ["non_converged", "rescues", "safe_states"] {
        assert!(
            matches!(lookup(solve, key), Some(Value::UInt(_) | Value::Int(_))),
            "meta.solve.{key} missing from the run-record schema"
        );
    }
}
