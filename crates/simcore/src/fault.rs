//! Deterministic, schedulable fault injection.
//!
//! On real hardware the Kelp runtime's sensor/actuator loop is imperfect:
//! uncore counter reads drop or go stale, a thermal event throttles a DIMM
//! channel, an MSR write or cpuset migration silently fails, and batch
//! workloads churn. This module models those failure classes as a
//! [`FaultPlan`] — a list of timed [`FaultEvent`] windows — interpreted by a
//! [`FaultInjector`] whose every decision is a *pure function* of the plan,
//! the run seed, and the simulated time. Nothing depends on call order or
//! call count, so faulty runs stay bit-identical between serial and parallel
//! execution and remain content-addressable in the results cache.
//!
//! ## Example
//!
//! ```
//! use kelp_simcore::fault::{FaultEvent, FaultKind, FaultPlan};
//! use kelp_simcore::time::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new().with(FaultEvent::new(
//!     FaultKind::ChannelThrottle,
//!     SimDuration::from_millis(10),
//!     SimDuration::from_millis(5),
//!     0.5,
//! ));
//! let inj = plan.injector(42);
//! assert_eq!(inj.channel_derate(SimTime::from_millis(12)), 0.5);
//! assert_eq!(inj.channel_derate(SimTime::from_millis(20)), 1.0);
//! ```

use crate::rng::{derive_seed, SimRng};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The class of disturbance a [`FaultEvent`] injects while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Uncore counter reads fail: the runtime sees zeroed measurements.
    CounterDropout,
    /// Counter reads return the last pre-window snapshot instead of fresh
    /// data (a wedged collection daemon).
    CounterStale,
    /// Individual counter reads spike by `magnitude`× with a fixed per-read
    /// chance ([`SPIKE_STEP_CHANCE`]) — transient measurement outliers.
    MeasurementSpike,
    /// Actuations (prefetcher MSR writes, cpuset migrations) issued during
    /// the window are silently dropped with probability `magnitude`.
    ActuationNoop,
    /// Channel bandwidth loss à la DIMM thermal throttling: peak memory
    /// bandwidth is multiplied by `1 - magnitude` while active.
    ChannelThrottle,
    /// A workload churn burst: an extra best-effort traffic flow of
    /// `magnitude` GB/s appears on the low-priority subdomain.
    WorkloadChurn,
    /// The whole machine crashes: it serves nothing while the window is
    /// active and then restarts after a seeded delay of
    /// `duration × magnitude × u` with `u ∈ [0.5, 1.5)` (`magnitude` is the
    /// mean restart delay as a multiple of the outage length). See
    /// [`FaultInjector::machine_phase`].
    MachineCrash,
    /// A machine-wide brownout (failing PSU rail, thermal capping): every
    /// memory channel's peak bandwidth is multiplied by `1 - magnitude`
    /// while active. Overlapping windows compound multiplicatively.
    MachineBrownout,
    /// A pathologically hard solver environment: the fixed-point iteration
    /// budget is cut to a `1 - magnitude` fraction while active, forcing
    /// non-converged solves that exercise the rescue/safe-state ladder.
    SolverStress,
}

impl FaultKind {
    /// The six runtime fault classes, in a stable order (the PR 2
    /// fault-matrix grid order). Machine-lifecycle kinds are deliberately
    /// excluded — see [`FaultKind::machine_level`].
    pub fn all() -> [FaultKind; 6] {
        [
            FaultKind::CounterDropout,
            FaultKind::CounterStale,
            FaultKind::MeasurementSpike,
            FaultKind::ActuationNoop,
            FaultKind::ChannelThrottle,
            FaultKind::WorkloadChurn,
        ]
    }

    /// The machine-lifecycle fault classes, in the fleet fault-matrix grid
    /// order.
    pub fn machine_level() -> [FaultKind; 3] {
        [
            FaultKind::MachineCrash,
            FaultKind::MachineBrownout,
            FaultKind::SolverStress,
        ]
    }

    /// Short stable name used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CounterDropout => "counter-dropout",
            FaultKind::CounterStale => "counter-stale",
            FaultKind::MeasurementSpike => "measurement-spike",
            FaultKind::ActuationNoop => "actuation-noop",
            FaultKind::ChannelThrottle => "channel-throttle",
            FaultKind::WorkloadChurn => "workload-churn",
            FaultKind::MachineCrash => "machine-crash",
            FaultKind::MachineBrownout => "machine-brownout",
            FaultKind::SolverStress => "solver-stress",
        }
    }

    /// Decorrelation salt so the same (seed, time) pair draws independent
    /// coins for different fault classes.
    fn salt(&self) -> u64 {
        match self {
            FaultKind::CounterDropout => 0x11,
            FaultKind::CounterStale => 0x22,
            FaultKind::MeasurementSpike => 0x33,
            FaultKind::ActuationNoop => 0x44,
            FaultKind::ChannelThrottle => 0x55,
            FaultKind::WorkloadChurn => 0x66,
            FaultKind::MachineCrash => 0x77,
            FaultKind::MachineBrownout => 0x88,
            FaultKind::SolverStress => 0x99,
        }
    }
}

/// Per-read chance that a [`FaultKind::MeasurementSpike`] window corrupts a
/// given counter read. Sparse by design: spikes must look like outliers
/// against the surrounding window, not like a level shift.
pub const SPIKE_STEP_CHANCE: f64 = 0.12;

/// One timed fault window: `kind` is active on `[start, start + duration)`,
/// with a kind-specific `magnitude` (multiplier, probability, fraction, or
/// GB/s — see [`FaultKind`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Which disturbance this window injects.
    pub kind: FaultKind,
    /// Window start, as an offset from simulation start.
    pub start: SimDuration,
    /// Window length.
    pub duration: SimDuration,
    /// Kind-specific intensity (see [`FaultKind`] variant docs).
    pub magnitude: f64,
}

impl FaultEvent {
    /// Creates a fault window.
    pub fn new(kind: FaultKind, start: SimDuration, duration: SimDuration, magnitude: f64) -> Self {
        FaultEvent {
            kind,
            start,
            duration,
            magnitude,
        }
    }

    /// Whether the window covers simulated time `t` (half-open interval).
    pub fn active_at(&self, t: SimTime) -> bool {
        let t = t.as_nanos();
        let start = self.start.as_nanos();
        t >= start && t - start < self.duration.as_nanos()
    }
}

/// A schedule of fault windows, carried alongside a run's spec. An empty
/// plan injects nothing and is the default.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The fault windows, in no particular order; overlaps are allowed.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault window (builder style).
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the plan contains at least one window of `kind`.
    pub fn has(&self, kind: FaultKind) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// Binds the plan to a run seed, yielding the pure query interface.
    pub fn injector(&self, seed: u64) -> FaultInjector {
        let mut injector = FaultInjector {
            plan: self.clone(),
            seed,
            crashes: Vec::new(),
        };
        injector.crashes = self
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::MachineCrash)
            .map(|e| CrashWindow {
                start: e.start.as_nanos(),
                duration: e.duration.as_nanos(),
                delay: injector.restart_delay(e).as_nanos(),
            })
            .collect();
        injector
    }
}

/// What a counter read returns under the active fault windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterFault {
    /// Counters are healthy; use the live values.
    Live,
    /// The read failed; the runtime sees zeros.
    Dropped,
    /// The read returned the last pre-window snapshot.
    Stale,
    /// The read came back multiplied by this factor.
    Spiked(f64),
}

/// A machine's lifecycle phase as dictated by [`FaultKind::MachineCrash`]
/// windows. See [`FaultInjector::machine_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MachinePhase {
    /// No crash window covers `t`: the machine serves normally.
    Up,
    /// A crash window is active: the machine serves nothing.
    Down,
    /// The outage window has ended but the seeded restart delay has not
    /// elapsed: the machine is rebooting and still serves nothing.
    Recovering,
}

/// Interprets a [`FaultPlan`] for one run. Every query is a pure function of
/// `(plan, seed, t)`: querying the same time twice, or in a different order,
/// always yields the same answer.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    /// The plan's [`FaultKind::MachineCrash`] windows in plan order, each
    /// with its restart delay drawn once, when the injector is built.
    crashes: Vec<CrashWindow>,
}

/// A crash window in nanoseconds, with its seeded restart delay.
#[derive(Debug, Clone, Copy)]
struct CrashWindow {
    start: u64,
    duration: u64,
    delay: u64,
}

impl FaultInjector {
    /// The bound plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A Bernoulli draw keyed purely on (seed, kind, t).
    fn coin(&self, kind: FaultKind, t: SimTime, p: f64) -> bool {
        let stream = derive_seed(self.seed ^ kind.salt(), t.as_nanos());
        SimRng::seed_from(stream).chance(p)
    }

    /// First window of `kind` active at `t`, if any.
    fn active(&self, kind: FaultKind, t: SimTime) -> Option<&FaultEvent> {
        self.plan
            .events
            .iter()
            .find(|e| e.kind == kind && e.active_at(t))
    }

    /// What a counter read at `t` returns. Dropout shadows staleness, which
    /// shadows spikes (a dead read can't also be stale).
    pub fn counter_fault(&self, t: SimTime) -> CounterFault {
        if self.active(FaultKind::CounterDropout, t).is_some() {
            return CounterFault::Dropped;
        }
        if self.active(FaultKind::CounterStale, t).is_some() {
            return CounterFault::Stale;
        }
        if let Some(e) = self.active(FaultKind::MeasurementSpike, t) {
            if self.coin(FaultKind::MeasurementSpike, t, SPIKE_STEP_CHANCE) {
                return CounterFault::Spiked(e.magnitude.max(0.0));
            }
        }
        CounterFault::Live
    }

    /// Whether an actuation issued at `t` is silently dropped.
    pub fn actuation_noop(&self, t: SimTime) -> bool {
        match self.active(FaultKind::ActuationNoop, t) {
            Some(e) => self.coin(FaultKind::ActuationNoop, t, e.magnitude),
            None => false,
        }
    }

    /// Retained fraction of peak channel bandwidth at `t` (1.0 = no
    /// throttling). Overlapping windows compound multiplicatively.
    pub fn channel_derate(&self, t: SimTime) -> f64 {
        self.plan
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::ChannelThrottle && e.active_at(t))
            .fold(1.0, |acc, e| acc * (1.0 - e.magnitude.clamp(0.0, 1.0)))
    }

    /// Extra churn-burst traffic (GB/s) active at `t`; overlapping bursts
    /// add up.
    pub fn churn_gbps(&self, t: SimTime) -> f64 {
        self.plan
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::WorkloadChurn && e.active_at(t))
            .map(|e| e.magnitude.max(0.0))
            .sum()
    }

    /// The seeded restart delay of a [`FaultKind::MachineCrash`] window:
    /// `duration × magnitude × u` with `u ∈ [0.5, 1.5)` drawn purely from
    /// `(seed, window start)`, so the delay is a property of the plan, not
    /// of when it is queried.
    pub fn restart_delay(&self, event: &FaultEvent) -> SimDuration {
        let stream = derive_seed(
            self.seed ^ FaultKind::MachineCrash.salt(),
            event.start.as_nanos(),
        );
        let u = SimRng::seed_from(stream).uniform(0.5, 1.5);
        SimDuration::from_nanos_f64(event.duration.as_nanos_f64() * event.magnitude.max(0.0) * u)
    }

    /// The machine's lifecycle phase at `t` under the plan's
    /// [`FaultKind::MachineCrash`] windows. An active outage window means
    /// [`MachinePhase::Down`]; the seeded restart delay that follows each
    /// window means [`MachinePhase::Recovering`] (an overlapping outage
    /// shadows another window's recovery). Otherwise the machine is
    /// [`MachinePhase::Up`].
    pub fn machine_phase(&self, t: SimTime) -> MachinePhase {
        let t = t.as_nanos();
        if self
            .crashes
            .iter()
            .any(|c| t >= c.start && t - c.start < c.duration)
        {
            return MachinePhase::Down;
        }
        let rebooting = self.crashes.iter().any(|c| {
            let end = c.start + c.duration;
            t >= end && t - end < c.delay
        });
        if rebooting {
            MachinePhase::Recovering
        } else {
            MachinePhase::Up
        }
    }

    /// Retained fraction of machine-wide peak bandwidth at `t` under
    /// [`FaultKind::MachineBrownout`] windows (1.0 = healthy). Overlapping
    /// windows compound multiplicatively, mirroring
    /// [`FaultInjector::channel_derate`].
    pub fn brownout_derate(&self, t: SimTime) -> f64 {
        self.plan
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::MachineBrownout && e.active_at(t))
            .fold(1.0, |acc, e| acc * (1.0 - e.magnitude.clamp(0.0, 1.0)))
    }

    /// Severity of the worst active [`FaultKind::SolverStress`] window at
    /// `t`, in `(0, 1]`, or `None` when the solver environment is healthy.
    pub fn solver_stress(&self, t: SimTime) -> Option<f64> {
        self.plan
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::SolverStress && e.active_at(t))
            .map(|e| e.magnitude.clamp(0.0, 1.0))
            .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
            .filter(|&m| m > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(kind: FaultKind, start_ms: u64, len_ms: u64, magnitude: f64) -> FaultEvent {
        FaultEvent::new(
            kind,
            SimDuration::from_millis(start_ms),
            SimDuration::from_millis(len_ms),
            magnitude,
        )
    }

    #[test]
    fn windows_are_half_open() {
        let e = window(FaultKind::CounterDropout, 10, 5, 1.0);
        assert!(!e.active_at(SimTime::from_millis(9)));
        assert!(e.active_at(SimTime::from_millis(10)));
        assert!(e.active_at(SimTime::from_nanos(14_999_999)));
        assert!(!e.active_at(SimTime::from_millis(15)));
    }

    #[test]
    fn empty_plan_is_inert() {
        let inj = FaultPlan::new().injector(7);
        let t = SimTime::from_millis(3);
        assert_eq!(inj.counter_fault(t), CounterFault::Live);
        assert!(!inj.actuation_noop(t));
        assert_eq!(inj.channel_derate(t), 1.0);
        assert_eq!(inj.churn_gbps(t), 0.0);
    }

    #[test]
    fn queries_are_pure_and_order_independent() {
        let plan = FaultPlan::new()
            .with(window(FaultKind::MeasurementSpike, 0, 100, 8.0))
            .with(window(FaultKind::ActuationNoop, 0, 100, 0.5));
        let inj = plan.injector(99);
        // Collect answers forwards then backwards; they must agree exactly.
        let times: Vec<SimTime> = (0..50).map(SimTime::from_millis).collect();
        let fwd: Vec<_> = times
            .iter()
            .map(|&t| (inj.counter_fault(t), inj.actuation_noop(t)))
            .collect();
        let bwd: Vec<_> = times
            .iter()
            .rev()
            .map(|&t| (inj.counter_fault(t), inj.actuation_noop(t)))
            .collect();
        let bwd: Vec<_> = bwd.into_iter().rev().collect();
        assert_eq!(fwd, bwd);
        // And a second injector with the same seed agrees too.
        let inj2 = inj.plan().clone().injector(99);
        let again: Vec<_> = times
            .iter()
            .map(|&t| (inj2.counter_fault(t), inj2.actuation_noop(t)))
            .collect();
        assert_eq!(fwd, again);
    }

    #[test]
    fn different_seeds_draw_different_coins() {
        let plan = FaultPlan::new().with(window(FaultKind::ActuationNoop, 0, 1000, 0.5));
        let a = plan.injector(1);
        let b = plan.injector(2);
        let diverged = (0..200)
            .map(SimTime::from_millis)
            .any(|t| a.actuation_noop(t) != b.actuation_noop(t));
        assert!(diverged, "seeds must decorrelate the coins");
    }

    #[test]
    fn dropout_shadows_staleness_and_spikes() {
        let plan = FaultPlan::new()
            .with(window(FaultKind::CounterDropout, 0, 10, 1.0))
            .with(window(FaultKind::CounterStale, 0, 20, 1.0))
            .with(window(FaultKind::MeasurementSpike, 0, 30, 4.0));
        let inj = plan.injector(5);
        assert_eq!(
            inj.counter_fault(SimTime::from_millis(5)),
            CounterFault::Dropped
        );
        assert_eq!(
            inj.counter_fault(SimTime::from_millis(15)),
            CounterFault::Stale
        );
    }

    #[test]
    fn spike_rate_tracks_step_chance() {
        let plan = FaultPlan::new().with(window(FaultKind::MeasurementSpike, 0, 10_000, 6.0));
        let inj = plan.injector(21);
        let n = 5_000;
        let spiked = (0..n)
            .map(|i| SimTime::from_micros(i as u64))
            .filter(|&t| matches!(inj.counter_fault(t), CounterFault::Spiked(_)))
            .count();
        let rate = spiked as f64 / n as f64;
        assert!(
            (rate - SPIKE_STEP_CHANCE).abs() < 0.03,
            "spike rate {rate} vs {SPIKE_STEP_CHANCE}"
        );
    }

    #[test]
    fn derates_compound_and_churn_adds() {
        let plan = FaultPlan::new()
            .with(window(FaultKind::ChannelThrottle, 0, 10, 0.5))
            .with(window(FaultKind::ChannelThrottle, 5, 10, 0.2))
            .with(window(FaultKind::WorkloadChurn, 0, 10, 4.0))
            .with(window(FaultKind::WorkloadChurn, 5, 10, 2.0));
        let inj = plan.injector(3);
        assert!((inj.channel_derate(SimTime::from_millis(2)) - 0.5).abs() < 1e-12);
        assert!((inj.channel_derate(SimTime::from_millis(7)) - 0.4).abs() < 1e-12);
        assert!((inj.channel_derate(SimTime::from_millis(12)) - 0.8).abs() < 1e-12);
        assert_eq!(inj.churn_gbps(SimTime::from_millis(2)), 4.0);
        assert_eq!(inj.churn_gbps(SimTime::from_millis(7)), 6.0);
        assert_eq!(inj.churn_gbps(SimTime::from_millis(20)), 0.0);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new()
            .with(window(FaultKind::CounterDropout, 1, 2, 1.0))
            .with(window(FaultKind::WorkloadChurn, 3, 4, 8.5))
            .with(window(FaultKind::MachineCrash, 5, 6, 0.5))
            .with(window(FaultKind::MachineBrownout, 7, 8, 0.3))
            .with(window(FaultKind::SolverStress, 9, 10, 0.9));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn crash_phase_timeline_is_down_then_recovering_then_up() {
        let plan = FaultPlan::new().with(window(FaultKind::MachineCrash, 10, 5, 1.0));
        let inj = plan.injector(17);
        let e = &inj.plan().events[0];
        let delay = inj.restart_delay(e);
        // magnitude 1.0 × window 5ms × u ∈ [0.5, 1.5) → delay ∈ [2.5ms, 7.5ms).
        assert!(delay >= SimDuration::from_micros(2_500));
        assert!(delay < SimDuration::from_micros(7_500));
        assert!(!delay.is_zero());

        assert_eq!(inj.machine_phase(SimTime::from_millis(9)), MachinePhase::Up);
        assert_eq!(
            inj.machine_phase(SimTime::from_millis(10)),
            MachinePhase::Down
        );
        assert_eq!(
            inj.machine_phase(SimTime::from_millis(14)),
            MachinePhase::Down
        );
        // First instant past the outage is Recovering (delay > 0).
        assert_eq!(
            inj.machine_phase(SimTime::from_millis(15)),
            MachinePhase::Recovering
        );
        // Exactly at outage end + delay the machine is back Up (half-open).
        let back_up = SimTime::from_millis(15) + delay;
        assert_eq!(inj.machine_phase(back_up), MachinePhase::Up);
        assert_eq!(
            inj.machine_phase(SimTime::from_millis(30)),
            MachinePhase::Up
        );
    }

    #[test]
    fn restart_delay_is_pure_and_seed_dependent() {
        let plan = FaultPlan::new().with(window(FaultKind::MachineCrash, 3, 4, 2.0));
        let a = plan.injector(1);
        let e = plan.events[0].clone();
        assert_eq!(a.restart_delay(&e), a.restart_delay(&e));
        // Another seed draws a different u for most plans (not guaranteed for
        // any single pair, so probe a few seeds).
        let diverged = (2..10).any(|s| plan.injector(s).restart_delay(&e) != a.restart_delay(&e));
        assert!(diverged, "restart delays must depend on the run seed");
    }

    #[test]
    fn brownout_compounds_and_stress_takes_worst_window() {
        let plan = FaultPlan::new()
            .with(window(FaultKind::MachineBrownout, 0, 10, 0.5))
            .with(window(FaultKind::MachineBrownout, 5, 10, 0.2))
            .with(window(FaultKind::SolverStress, 0, 10, 0.4))
            .with(window(FaultKind::SolverStress, 5, 10, 0.9));
        let inj = plan.injector(11);
        assert!((inj.brownout_derate(SimTime::from_millis(2)) - 0.5).abs() < 1e-12);
        assert!((inj.brownout_derate(SimTime::from_millis(7)) - 0.4).abs() < 1e-12);
        assert_eq!(inj.brownout_derate(SimTime::from_millis(20)), 1.0);
        assert_eq!(inj.solver_stress(SimTime::from_millis(2)), Some(0.4));
        assert_eq!(inj.solver_stress(SimTime::from_millis(7)), Some(0.9));
        assert_eq!(inj.solver_stress(SimTime::from_millis(20)), None);
    }

    #[test]
    fn machine_level_kinds_stay_out_of_the_runtime_grid() {
        for kind in FaultKind::machine_level() {
            assert!(!FaultKind::all().contains(&kind));
        }
    }
}
