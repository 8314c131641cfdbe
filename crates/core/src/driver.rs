//! The experiment driver.
//!
//! Composes a simulated host (topology chosen by the ML workload's
//! platform), one optional accelerated ML workload, any number of
//! low-priority CPU workloads, and a runtime policy; steps the simulation;
//! samples the policy at its period; and reports per-workload performance
//! over the post-warmup measurement window — the exact structure of every
//! evaluation run in the paper.

use crate::measure::{MeasurementAvg, Measurements};
use crate::policy::{Policy, PolicyCtx, PolicyKind, PolicySnapshot};
use kelp_host::{HostMachine, HostTaskId, StepScratch};
use kelp_mem::solver::{FixedFlow, SolveStats, SolverTuning};
use kelp_mem::topology::{MachineSpec, SocketId};
use kelp_mem::MemCounters;
use kelp_simcore::fault::{CounterFault, FaultInjector, FaultKind, FaultPlan};
use kelp_simcore::time::SimTime;
use kelp_workloads::model::{InstallCtx, PerfSnapshot, Workload, WorkloadKind};
use kelp_workloads::MlWorkloadKind;

pub use crate::config::ExperimentConfig;

/// Result of one experiment run.
pub struct ExperimentResult {
    /// Which policy ran.
    pub policy: PolicyKind,
    /// ML workload name, if one was present.
    pub ml_name: Option<String>,
    /// ML workload performance over the measurement window.
    pub ml_performance: PerfSnapshot,
    /// Per-CPU-workload performance `(name, snapshot)`.
    pub cpu_performance: Vec<(String, PerfSnapshot)>,
    /// Policy actuator timeline, one entry per sample.
    pub policy_series: Vec<(SimTime, PolicySnapshot)>,
    /// Average of the four measurements over the measurement window.
    pub avg_measurements: Measurements,
    /// Modeling cost of the run: solves, fixed-point iterations and
    /// evaluations, memo/warm-start hits, and solver-health counters.
    pub solve: SolveStats,
    /// The ML workload (for trace extraction after the run).
    pub ml_workload: Option<Box<dyn Workload>>,
}

impl std::fmt::Debug for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentResult")
            .field("policy", &self.policy)
            .field("ml_name", &self.ml_name)
            .field("ml_performance", &self.ml_performance)
            .field("cpu_performance", &self.cpu_performance)
            .finish_non_exhaustive()
    }
}

impl ExperimentResult {
    /// Sum of CPU workload throughputs.
    pub fn cpu_total_throughput(&self) -> f64 {
        self.cpu_performance.iter().map(|(_, p)| p.throughput).sum()
    }

    /// The final policy snapshot (zeros when no samples were taken).
    pub fn final_policy_snapshot(&self) -> PolicySnapshot {
        self.policy_series
            .last()
            .map(|&(_, s)| s)
            .unwrap_or_default()
    }
}

/// A one-shot memory-system configuration hook.
type MemTweak = Box<dyn FnOnce(&mut kelp_mem::MemSystem)>;

/// Reusable per-worker execution state threaded through
/// [`ExperimentBuilder::run_with`]: the machine's step workspace (solver
/// arenas and lowering buffer) survives from one experiment to the next,
/// so a worker sweeping many specs stops rebuilding them per spec. The
/// workspace's warm-start state is reset before each adoption
/// ([`StepScratch::reset_warm_state`]), which is bit-identical to a fresh
/// scratch — the scratch-reuse ≡ fresh contract `tests/solver_hot.rs` pins.
#[derive(Debug)]
pub struct ExecScratch {
    /// Step workspace handed machine-to-machine across specs.
    solver: StepScratch,
}

impl ExecScratch {
    /// A fresh workspace (arenas grow on first use).
    pub fn new() -> Self {
        ExecScratch {
            solver: StepScratch::default(),
        }
    }
}

impl Default for ExecScratch {
    fn default() -> Self {
        ExecScratch::new()
    }
}

/// Builder for an experiment.
pub struct ExperimentBuilder {
    ml: Option<Box<dyn Workload>>,
    machine_spec: MachineSpec,
    cpu: Vec<Box<dyn Workload>>,
    policy: Box<dyn Policy>,
    config: ExperimentConfig,
    mem_tweak: Option<MemTweak>,
    faults: Option<FaultInjector>,
    solver_tuning: SolverTuning,
}

impl std::fmt::Debug for ExperimentBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentBuilder")
            .field("policy", &self.policy.kind())
            .field("cpu_workloads", &self.cpu.len())
            .finish_non_exhaustive()
    }
}

/// Namespace for building and running experiments.
#[derive(Debug)]
pub struct Experiment;

impl Experiment {
    /// Starts a builder for one of the Table I ML workloads under a policy.
    pub fn builder(ml: MlWorkloadKind, policy: PolicyKind) -> ExperimentBuilder {
        ExperimentBuilder {
            machine_spec: ml.platform().host_machine(),
            ml: Some(ml.build()),
            cpu: Vec::new(),
            policy: policy.build(),
            config: ExperimentConfig::default(),
            mem_tweak: None,
            faults: None,
            solver_tuning: SolverTuning::default(),
        }
    }

    /// Starts a builder with a custom ML workload (e.g. a traced serial
    /// RNN1 for the Figure 3 timeline).
    pub fn builder_with_ml(
        ml: Box<dyn Workload>,
        machine_spec: MachineSpec,
        policy: PolicyKind,
    ) -> ExperimentBuilder {
        ExperimentBuilder {
            machine_spec,
            ml: Some(ml),
            cpu: Vec::new(),
            policy: policy.build(),
            config: ExperimentConfig::default(),
            mem_tweak: None,
            faults: None,
            solver_tuning: SolverTuning::default(),
        }
    }

    /// Starts a builder with no ML workload (CPU tasks only).
    pub fn builder_cpu_only(policy: PolicyKind) -> ExperimentBuilder {
        ExperimentBuilder {
            machine_spec: MachineSpec::dual_socket(),
            ml: None,
            cpu: Vec::new(),
            policy: policy.build(),
            config: ExperimentConfig::default(),
            mem_tweak: None,
            faults: None,
            solver_tuning: SolverTuning::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Adds a low-priority CPU workload.
    pub fn add_cpu_workload(mut self, w: impl Workload + 'static) -> Self {
        self.cpu.push(Box::new(w));
        self
    }

    /// Adds an already-boxed CPU workload.
    pub fn add_cpu_workload_boxed(mut self, w: Box<dyn Workload>) -> Self {
        self.cpu.push(w);
        self
    }

    /// Overrides the timing configuration.
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the policy with a custom implementation (used by the
    /// Figure 7 harness to pin prefetcher fractions).
    pub fn custom_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the machine spec (topology sweeps).
    pub fn machine_spec(mut self, spec: MachineSpec) -> Self {
        self.machine_spec = spec;
        self
    }

    /// Applies a one-shot tweak to the memory system after construction —
    /// used by the hardware-extension harnesses to enable §VI-B adaptive
    /// prefetching or §VI-C per-domain distress delivery.
    pub fn tweak_mem(mut self, f: impl FnOnce(&mut kelp_mem::MemSystem) + 'static) -> Self {
        self.mem_tweak = Some(Box::new(f));
        self
    }

    /// Injects a fault plan, deterministically bound to `seed`. An empty
    /// plan is a no-op: the run is bit-identical to one with no plan at all.
    pub fn fault_plan(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(plan.injector(seed))
        };
        self
    }

    /// Overrides the solver performance toggles (steady-state memoization
    /// and warm starts; both default on). The `ext_solver_hot` benchmark
    /// uses [`SolverTuning::baseline`] to measure the cold-solve path.
    pub fn solver_tuning(mut self, tuning: SolverTuning) -> Self {
        self.solver_tuning = tuning;
        self
    }

    /// Runs the experiment to completion.
    pub fn run(self) -> ExperimentResult {
        self.run_with(&mut ExecScratch::new())
    }

    /// Runs the experiment to completion against a reusable workspace.
    /// Bit-identical to [`ExperimentBuilder::run`]; the workspace only
    /// recycles the solver arenas between specs.
    pub fn run_with(self, scratch: &mut ExecScratch) -> ExperimentResult {
        let ExperimentBuilder {
            mut ml,
            machine_spec,
            mut cpu,
            mut policy,
            config,
            mem_tweak,
            faults,
            solver_tuning,
        } = self;

        let socket = SocketId(0);
        let snc = policy.snc_mode();
        let (hp_domain, lp_domain) = policy.domains(socket);
        let mut machine = HostMachine::new(machine_spec, snc);
        if let Some(tweak) = mem_tweak {
            tweak(machine.mem_mut());
        }
        machine.set_solver_tuning(solver_tuning);
        // Machine reuse across specs: adopt the previous run's solver
        // workspace with its warm state reset (≡ fresh), so the arena
        // allocations amortize over a whole sweep.
        let mut warm = std::mem::take(&mut scratch.solver);
        warm.reset_warm_state();
        machine.adopt_scratch(warm);
        let install_ctx = InstallCtx {
            hp_domain,
            lp_domain,
        };

        if let Some(w) = ml.as_mut() {
            debug_assert_eq!(w.kind(), WorkloadKind::MlAccelerated);
            w.install(&mut machine, install_ctx);
        }
        for w in cpu.iter_mut() {
            w.install(&mut machine, install_ctx);
        }

        let hp_task = ml.as_ref().and_then(|w| w.primary_task());
        let lp_tasks: Vec<(HostTaskId, usize)> = cpu
            .iter()
            .flat_map(|w| w.task_ids())
            .map(|id| (id, machine.task_spec(id).desired_threads))
            .collect();
        let ctx = PolicyCtx {
            socket,
            ml_name: ml.as_ref().map(|w| w.name().to_string()),
            hp_domain,
            lp_domain,
            hp_task,
            lp_tasks,
        };
        policy.setup(&mut machine, &ctx);

        let mut now = SimTime::ZERO;
        let end = SimTime::ZERO + config.warmup + config.duration;
        let warmup_end = SimTime::ZERO + config.warmup;
        let mut next_sample = SimTime::ZERO + config.sample_period;
        let mut sample_avg = MeasurementAvg::new();
        let mut window_avg = MeasurementAvg::new();
        let mut policy_series = Vec::new();
        let mut warmed_up = false;

        // Fault-injection state. All of it is driven by pure functions of
        // (plan, seed, now), so the faulty trajectory is as deterministic as
        // the healthy one.
        let churn_flow = faults
            .as_ref()
            .filter(|inj| inj.plan().has(FaultKind::WorkloadChurn))
            .map(|_| {
                machine.add_flow(FixedFlow {
                    target: lp_domain,
                    source_socket: None,
                    gbps: 0.0,
                    weight: 1.0,
                })
            });
        let track_stale = faults
            .as_ref()
            .is_some_and(|inj| inj.plan().has(FaultKind::CounterStale));
        let mut last_churn = 0.0_f64;
        let mut last_derate = 1.0_f64;
        let mut last_live: Option<MemCounters> = None;
        let mut frozen: Option<MemCounters> = None;

        while now < end {
            for w in ml.iter_mut().chain(cpu.iter_mut()) {
                w.pre_step(now, &mut machine);
            }
            if let Some(inj) = &faults {
                // Physical faults first: they change what the solver sees.
                let derate = inj.channel_derate(now);
                if derate != last_derate {
                    machine.mem_mut().set_channel_derate(socket, derate);
                    last_derate = derate;
                }
                if let Some(flow) = churn_flow {
                    let gbps = inj.churn_gbps(now);
                    if gbps != last_churn {
                        machine.set_flow_gbps(flow, gbps);
                        last_churn = gbps;
                    }
                }
            }
            // The machine lends its report for the measurement and the
            // workloads' accounting; a replayed step copies nothing.
            let report = machine.step();
            // What the memory system actually did this step (reporting).
            let true_m =
                Measurements::from_counters(&report.counters, socket, hp_domain, lp_domain);
            // What the runtime's counter read returned (policy input).
            match faults.as_ref().map(|inj| inj.counter_fault(now)) {
                None | Some(CounterFault::Live) => {
                    if track_stale {
                        last_live = Some(report.counters.clone());
                        frozen = None;
                    }
                    sample_avg.add(true_m);
                }
                Some(CounterFault::Dropped) => {
                    frozen = None;
                    sample_avg.add_invalid(Measurements::default());
                }
                Some(CounterFault::Stale) => {
                    // Freeze by *moving* the last live snapshot: the live
                    // branch repopulates it on recovery, so nothing needs
                    // the moved-out value, and a stale tick clones at most
                    // once (the no-live-sample-yet fallback).
                    let snap = frozen.get_or_insert_with(|| {
                        last_live.take().unwrap_or_else(|| report.counters.clone())
                    });
                    let m = Measurements::from_counters(snap, socket, hp_domain, lp_domain);
                    sample_avg.add_stale(m);
                }
                Some(CounterFault::Spiked(factor)) => {
                    if track_stale {
                        last_live = Some(report.counters.clone());
                        frozen = None;
                    }
                    let m = Measurements::from_counters(
                        &report.counters.scaled(factor),
                        socket,
                        hp_domain,
                        lp_domain,
                    );
                    sample_avg.add(m);
                }
            }
            if now >= warmup_end {
                window_avg.add(true_m);
            }
            for w in ml.iter_mut().chain(cpu.iter_mut()) {
                w.post_step(now, config.dt, &report);
            }
            // Release the loan before the policy actuates the machine.
            drop(report);
            now += config.dt;

            if !warmed_up && now >= warmup_end {
                warmed_up = true;
                for w in ml.iter_mut().chain(cpu.iter_mut()) {
                    w.reset_metrics();
                }
            }
            if now >= next_sample {
                let sample = sample_avg.take_sample();
                if let Some(inj) = &faults {
                    // The silent-actuation coin is drawn once per sampling
                    // period, keyed on the period boundary.
                    machine.set_actuation_fault(inj.actuation_noop(now));
                    policy.on_sample_checked(&sample, &mut machine, &ctx);
                    machine.set_actuation_fault(false);
                } else {
                    policy.on_sample_checked(&sample, &mut machine, &ctx);
                }
                policy_series.push((now, policy.snapshot()));
                next_sample += config.sample_period;
            }
        }

        let solve = machine.solve_stats();
        // Hand the solver workspace back for the next spec.
        scratch.solver = machine.take_scratch();

        ExperimentResult {
            policy: policy.kind(),
            ml_name: ml.as_ref().map(|w| w.name().to_string()),
            ml_performance: ml
                .as_ref()
                .map(|w| w.performance())
                .unwrap_or(PerfSnapshot::zero()),
            cpu_performance: cpu
                .iter()
                .map(|w| (w.name().to_string(), w.performance()))
                .collect(),
            policy_series,
            avg_measurements: window_avg.take(),
            solve,
            ml_workload: ml,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelp_workloads::{BatchKind, BatchWorkload};

    #[test]
    fn standalone_ml_run_reports_throughput() {
        let r = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Baseline)
            .config(ExperimentConfig::quick())
            .run();
        assert!(r.ml_performance.throughput > 0.0);
        assert_eq!(r.ml_name.as_deref(), Some("CNN1"));
        assert!(r.cpu_performance.is_empty());
        assert!(!r.policy_series.is_empty());
    }

    #[test]
    fn colocation_degrades_baseline_ml_performance() {
        let standalone = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Baseline)
            .config(ExperimentConfig::quick())
            .run();
        let colocated = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Baseline)
            .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 20))
            .config(ExperimentConfig::quick())
            .run();
        assert!(
            colocated.ml_performance.throughput < 0.9 * standalone.ml_performance.throughput,
            "colocated {} standalone {}",
            colocated.ml_performance.throughput,
            standalone.ml_performance.throughput
        );
        assert!(colocated.cpu_total_throughput() > 0.0);
    }

    #[test]
    fn kelp_protects_better_than_baseline() {
        let mk = |policy| {
            Experiment::builder(MlWorkloadKind::Cnn1, policy)
                .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 20))
                .config(ExperimentConfig::quick())
                .run()
        };
        let bl = mk(PolicyKind::Baseline);
        let kp = mk(PolicyKind::Kelp);
        assert!(
            kp.ml_performance.throughput > bl.ml_performance.throughput,
            "kp {} bl {}",
            kp.ml_performance.throughput,
            bl.ml_performance.throughput
        );
    }

    #[test]
    fn cpu_only_run_works() {
        let r = Experiment::builder_cpu_only(PolicyKind::Baseline)
            .add_cpu_workload(BatchWorkload::new(BatchKind::Stream, 8))
            .config(ExperimentConfig::quick())
            .run();
        assert!(r.ml_name.is_none());
        assert_eq!(r.ml_performance.throughput, 0.0);
        assert!(r.cpu_total_throughput() > 0.0);
    }

    #[test]
    fn policy_series_has_one_entry_per_sample() {
        let cfg = ExperimentConfig::quick();
        let total = cfg.warmup + cfg.duration;
        let expected = total.div_duration(cfg.sample_period);
        let r = Experiment::builder(MlWorkloadKind::Cnn2, PolicyKind::CoreThrottle)
            .config(cfg)
            .run();
        let n = r.policy_series.len() as u64;
        assert!(n >= expected - 1 && n <= expected + 1, "{n} vs {expected}");
    }

    #[test]
    fn run_reports_solve_stats_with_memo_hits() {
        let r = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Kelp)
            .add_cpu_workload(BatchWorkload::new(BatchKind::Stream, 8))
            .config(ExperimentConfig::quick())
            .run();
        assert!(r.solve.solves >= 1, "one solve per tick");
        assert!(
            r.solve.memo_hits > 0,
            "steady phases must hit the memo: {:?}",
            r.solve
        );
        assert!(r.solve.evaluations >= r.solve.iterations);
    }

    #[test]
    fn baseline_solver_tuning_matches_default_results() {
        let mk = |tuning: Option<SolverTuning>| {
            let mut b = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Kelp)
                .add_cpu_workload(BatchWorkload::new(BatchKind::DramAggressor, 12))
                .config(ExperimentConfig::quick());
            if let Some(t) = tuning {
                b = b.solver_tuning(t);
            }
            b.run()
        };
        let fast = mk(None);
        let cold = mk(Some(SolverTuning::baseline()));
        // Memoization is exact; warm starts converge to the same answer
        // within the fixed-point tolerance.
        let rel = (fast.ml_performance.throughput - cold.ml_performance.throughput).abs()
            / cold.ml_performance.throughput.max(1e-9);
        assert!(rel < 1e-2, "tuning moved the physics: {rel}");
        assert!(cold.solve.memo_hits == 0 && cold.solve.warm_hits == 0);
        assert!(fast.solve.evaluations < cold.solve.evaluations);
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let mk = || {
            Experiment::builder(MlWorkloadKind::Rnn1, PolicyKind::Kelp)
                .add_cpu_workload(BatchWorkload::new(BatchKind::Stitch, 12))
                .config(ExperimentConfig::quick())
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.ml_performance.throughput, b.ml_performance.throughput);
        assert_eq!(a.cpu_total_throughput(), b.cpu_total_throughput());
    }
}
