//! The host machine: task table + memory system + actuation surface.
//!
//! [`HostMachine`] is the simulated analogue of one production server. The
//! experiment driver registers tasks, accelerator DMA flows, and then calls
//! [`HostMachine::step`] once per simulation step to learn how fast every
//! task progressed. Runtime policies manipulate the machine through the
//! [`Actuator`] trait — the same four levers Kelp has on real hardware:
//! cpusets (core allocations), L2 prefetcher MSRs, CAT masks, and (for the
//! fine-grained extension) MBA-style bandwidth caps.

use crate::placement::{CpuAllocation, SmtModel};
use crate::task::{HostTaskId, TaskSpec};
use kelp_mem::llc::CatAllocation;
use kelp_mem::prefetch::PrefetchSetting;
use kelp_mem::solver::{
    FixedFlow, MemSystem, SolveStats, SolverInput, SolverOutput, SolverScratch, SolverTask,
    SolverTuning, TaskKey,
};
use kelp_mem::topology::{DomainId, SncMode};
use kelp_mem::MemCounters;
use std::cell::{Ref, RefMut};
use std::fmt;
use std::sync::Arc;

/// Contract check at the machine's public API boundary: an invalid spec is a
/// bug in the calling experiment code, not a runtime condition, so failing
/// loudly and immediately is deliberate.
#[expect(
    clippy::panic,
    reason = "API-boundary contract; an invalid spec is a caller bug"
)]
fn assert_valid(result: Result<(), String>, what: &str) {
    if let Err(e) = result {
        panic!("{what}: {e}");
    }
}

/// Rejects a NaN or infinite value: `<` and `>` checks, and `f64::clamp`,
/// let a NaN through.
fn check_finite(value: f64) -> Result<(), String> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(format!("{value} is not finite"))
    }
}

/// Identifier of a registered fixed flow (accelerator DMA / PCIe in-feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

/// A machine's lifecycle state (the fleet robustness layer's state
/// machine). Transitions are driven externally — by the fleet simulation's
/// fault injector — through [`HostMachine::crash`],
/// [`HostMachine::begin_recovery`], [`HostMachine::restore`] and
/// [`HostMachine::set_brownout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineLifecycle {
    /// Serving normally.
    Up,
    /// Serving, but browned out: machine-wide bandwidth is capped.
    Degraded,
    /// Crashed: serves nothing, every step yields the safe-state report.
    Down,
    /// Rebooting after an outage: still serves nothing.
    Recovering,
}

impl MachineLifecycle {
    /// Whether the machine runs solves in this state. `Down` and
    /// `Recovering` machines answer every step with the deterministic
    /// safe-state report instead.
    pub fn is_serving(self) -> bool {
        matches!(self, MachineLifecycle::Up | MachineLifecycle::Degraded)
    }
}

/// Which rung of the fallback ladder produced a [`MachineReport`].
///
/// The ladder: a primary solve that converges with finite rates is
/// `Healthy`; a diverged or non-finite primary is re-solved cold under the
/// high-budget rescue configuration (`Rescued`); if the rescue also fails —
/// or the machine is down — the deterministic zero-rate safe-state report
/// ships instead (`SafeState`). Never silently the damped estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveHealth {
    /// The primary solve converged with finite rates.
    Healthy,
    /// The primary solve failed; the cold rescue solve produced this report.
    Rescued,
    /// Both solves failed, or the machine is down: zero-rate safe state.
    SafeState,
}

/// Per-task result of one solved step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskStepResult {
    /// Aggregate work rate across all the task's threads, in units/s.
    pub units_per_sec: f64,
    /// Consumed memory bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Thread-weighted average memory latency in ns.
    pub latency_ns: f64,
    /// Worst distress speed factor over the task's allocations.
    pub speed_factor: f64,
    /// Thread-weighted LLC hit ratio.
    pub llc_hit_ratio: f64,
    /// Threads that actually ran (after core caps and intensity).
    pub effective_threads: f64,
}

impl TaskStepResult {
    fn zero() -> Self {
        TaskStepResult {
            units_per_sec: 0.0,
            bw_gbps: 0.0,
            latency_ns: 0.0,
            speed_factor: 1.0,
            llc_hit_ratio: 0.0,
            effective_threads: 0.0,
        }
    }
}

/// The rows of one solved step for the whole machine: what a
/// [`MachineReport`] shares. Built once per solved step and never changed
/// after.
#[derive(Debug, PartialEq)]
pub struct ReportRows {
    /// Per-task results: the live tasks, in id order.
    pub tasks: Vec<(HostTaskId, TaskStepResult)>,
    /// Achieved rate per registered fixed flow in GB/s, indexed by flow id.
    pub flows: Vec<f64>,
    /// Counter snapshot (what the runtime's PMU sampling sees).
    pub counters: MemCounters,
    /// Whether the memory solve converged.
    pub converged: bool,
    /// Which rung of the fallback ladder produced this report.
    pub health: SolveHealth,
}

impl ReportRows {
    /// The result for a task (zeros if unknown).
    pub fn task(&self, id: HostTaskId) -> TaskStepResult {
        self.tasks
            .iter()
            .find(|(task, _)| *task == id)
            .map_or(TaskStepResult::zero(), |&(_, result)| result)
    }
}

/// Result of one solved step for the whole machine: an immutable, shared
/// [`ReportRows`], read through `Deref` (`report.counters`,
/// `report.task(id)`).
///
/// Rows never change once built, so two reports that share them are
/// equal: `clone` shares the rows, and [`Clone::clone_from`] onto a slot
/// that already shares the source's rows is one pointer check. The rows
/// sit behind an `Arc`, not an `Rc`, so a machine stays `Send`.
#[derive(PartialEq)]
pub struct MachineReport {
    rows: Arc<ReportRows>,
}

// A machine, report included, stays `Send`, so a thread can hand one to
// another (DESIGN.md §3e): an `Rc` in the report fails the build here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<HostMachine>();
    assert_send::<MachineReport>();
};

impl Clone for MachineReport {
    fn clone(&self) -> Self {
        MachineReport {
            rows: Arc::clone(&self.rows),
        }
    }

    /// Re-points `self` at `source`'s rows, unless it already shares them.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.rows, &source.rows) {
            self.rows = Arc::clone(&source.rows);
        }
    }
}

impl std::ops::Deref for MachineReport {
    type Target = ReportRows;

    fn deref(&self) -> &ReportRows {
        &self.rows
    }
}

impl fmt::Debug for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.rows, f)
    }
}

impl From<ReportRows> for MachineReport {
    fn from(rows: ReportRows) -> Self {
        MachineReport {
            rows: Arc::new(rows),
        }
    }
}

impl MachineReport {
    /// An empty report: no tasks or flows, zero counters, not converged.
    /// Useful as a placeholder slot for in-place stepping
    /// ([`crate::HostBatch::step_into`]); the first real step replaces it.
    pub fn empty() -> Self {
        ReportRows {
            tasks: Vec::new(),
            flows: Vec::new(),
            counters: MemCounters::default(),
            converged: false,
            health: SolveHealth::SafeState,
        }
        .into()
    }
}

/// Runtime actuation surface (cpusets, prefetcher MSRs, CAT, MBA).
pub trait Actuator {
    /// Replaces a task's core allocations (its cpuset).
    fn set_allocations(&mut self, task: HostTaskId, allocations: Vec<CpuAllocation>);
    /// Sets the fraction of a task's L2 prefetchers that are enabled.
    fn set_prefetchers(&mut self, task: HostTaskId, setting: PrefetchSetting);
    /// Sets or clears an MBA-style memory bandwidth cap.
    fn set_bw_cap(&mut self, task: HostTaskId, cap_gbps: Option<f64>);
    /// Reprograms the LLC way partition.
    fn set_cat(&mut self, cat: CatAllocation);
    /// Reads back a task's current allocations.
    fn allocations(&self, task: HostTaskId) -> &[CpuAllocation];
    /// Reads back a task's current prefetcher setting.
    fn prefetchers(&self, task: HostTaskId) -> PrefetchSetting;
}

#[derive(Debug, Clone)]
struct TaskEntry {
    spec: TaskSpec,
    allocations: Vec<CpuAllocation>,
    prefetch: PrefetchSetting,
    bw_cap: Option<f64>,
    intensity: f64,
    alive: bool,
}

/// One simulated server.
///
/// # Example
///
/// ```
/// use kelp_host::{HostMachine, TaskSpec, Priority, ThreadProfile, CpuAllocation};
/// use kelp_mem::topology::{DomainId, MachineSpec, SncMode};
///
/// let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
/// let id = m.add_task(
///     TaskSpec::new("batch", Priority::Low, ThreadProfile::streaming(1e9), 4),
///     vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
/// );
/// let report = m.solve();
/// assert!(report.task(id).units_per_sec > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct HostMachine {
    mem: MemSystem,
    smt: SmtModel,
    tasks: Vec<TaskEntry>,
    flows: Vec<FixedFlow>,
    /// Memoized solves in FIFO order: workload phases alternate among a
    /// small set of configurations, so most steps hit this cache.
    cache: std::cell::RefCell<Vec<MemoEntry>>,
    /// Configuration epoch: bumped by every mutation that can change the
    /// lowered input, except the two phase setters, whose values a memo
    /// tag records instead. See [`MemoEntry`].
    epoch: u64,
    /// Reused step workspace: the solver's (which carries warm-start state
    /// between ticks) and the buffer a scalar step lowers into.
    scratch: std::cell::RefCell<StepScratch>,
    /// Cumulative solve cost over this machine's lifetime.
    stats: std::cell::RefCell<SolveStats>,
    /// Memoization / warm-start toggles.
    tuning: SolverTuning,
    /// While true, actuation writes (cpuset moves, prefetcher MSR writes,
    /// bandwidth caps) are silently dropped — the fault injector's model of
    /// a failed migration or MSR write. Read-backs still report the true
    /// state, so a policy that verifies can detect the failure.
    actuation_fault: bool,
    /// Set by every mutation that can change the solver input or its
    /// meaning; cleared by each solved step. While clear (and memoization
    /// is on), the machine's configuration is unchanged since its last
    /// step, so a step may replay its guaranteed memo hit without lowering
    /// or solving at all.
    dirty: std::cell::Cell<bool>,
    /// The last step's report, lent out by [`HostMachine::step`]. Every
    /// step leaves its report here; a served step shares its rows with
    /// the memo entry it came from.
    report: std::cell::RefCell<MachineReport>,
    /// Whether `report` came from a serving step (solve or memo hit) and so
    /// is the adaptive-skip replay value. A down machine's safe-state
    /// report is not.
    replayable: std::cell::Cell<bool>,
    /// Lifecycle state (fleet robustness layer); `Up` at construction.
    lifecycle: MachineLifecycle,
}

/// Capacity of the solve memoization cache.
const SOLVE_CACHE_CAPACITY: usize = 24;

/// One memoized solve, with two keys.
///
/// The exact key is the lowered `input`, matched by equality. The fast key
/// is the *tag* — the machine's epoch and phase values when the entry was
/// last matched — which serves a step without lowering. A tag match is
/// exact: lowering is a pure function of the configuration, an equal epoch
/// means no mutation outside the phase setters since the tag was written,
/// and phase values equal under `==` lower to equal inputs (a ±0
/// intensity is filtered out either way, and ±0 rates compare equal).
#[derive(Debug, Clone)]
struct MemoEntry {
    /// The lowered solver input this report solved.
    input: SolverInput,
    /// The report; a served step shares its rows.
    report: MachineReport,
    /// The machine's epoch when this entry was last matched.
    epoch: u64,
    /// Every task's intensity, then every flow's rate, when this entry was
    /// last matched. `None` when `input` holds a NaN: such an input never
    /// equals itself, so the scan never serves it and neither may its tag.
    phase: Option<Box<[f64]>>,
}

impl HostMachine {
    /// Creates a machine with the given topology and SNC mode.
    ///
    /// # Panics
    ///
    /// Panics if the machine spec is invalid (`MemSystem::new`'s contract).
    pub fn new(machine: kelp_mem::topology::MachineSpec, snc: SncMode) -> Self {
        HostMachine {
            mem: MemSystem::new(machine, snc),
            smt: SmtModel::default(),
            tasks: Vec::new(),
            flows: Vec::new(),
            cache: std::cell::RefCell::new(Vec::new()),
            epoch: 0,
            scratch: std::cell::RefCell::new(StepScratch::default()),
            stats: std::cell::RefCell::new(SolveStats::default()),
            tuning: SolverTuning::default(),
            actuation_fault: false,
            dirty: std::cell::Cell::new(true),
            report: std::cell::RefCell::new(MachineReport::empty()),
            replayable: std::cell::Cell::new(false),
            lifecycle: MachineLifecycle::Up,
        }
    }

    /// The machine's lifecycle state.
    pub fn lifecycle(&self) -> MachineLifecycle {
        self.lifecycle
    }

    /// Crashes the machine: it enters `Down` and answers every step with
    /// the deterministic safe-state report until restored. Safe-state
    /// entry drops the adaptive-skip replay value — a dead machine has no
    /// last report to replay — but keeps the actuation surface (it models
    /// persisted firmware/BIOS-level settings).
    pub fn crash(&mut self) {
        self.lifecycle = MachineLifecycle::Down;
        self.replayable.set(false);
        self.mark_dirty();
    }

    /// Moves a `Down` machine into `Recovering` (rebooting — still not
    /// serving). No-op in any other state.
    pub fn begin_recovery(&mut self) {
        if self.lifecycle == MachineLifecycle::Down {
            self.lifecycle = MachineLifecycle::Recovering;
        }
    }

    /// Brings the machine back into service after an outage, with
    /// warm-state invalidation: a restarted machine boots cold, so the
    /// solve memo and the scratch's warm-start rates are discarded. Lands
    /// in `Degraded` if a brownout is still active, otherwise `Up`.
    pub fn restore(&mut self) {
        self.lifecycle = if self.mem.machine_derate() < 1.0 {
            MachineLifecycle::Degraded
        } else {
            MachineLifecycle::Up
        };
        self.cache.borrow_mut().clear();
        self.scratch.borrow_mut().reset_warm_state();
        self.mark_dirty();
    }

    /// Applies a machine-wide brownout: `retained` is the fraction of peak
    /// memory bandwidth still available (clamped to `[0, 1]`; 1.0 clears
    /// the brownout). Value-aware — re-asserting the same derate keeps the
    /// machine clean — and flips the lifecycle between `Up` and `Degraded`
    /// (a `Down`/`Recovering` machine keeps its state; `restore` picks the
    /// right one on the way back).
    ///
    /// # Panics
    ///
    /// Panics if `retained` is NaN or infinite.
    pub fn set_brownout(&mut self, retained: f64) {
        assert_valid(check_finite(retained), "invalid brownout");
        let retained = retained.clamp(0.0, 1.0);
        if self.mem.machine_derate() != retained {
            self.mem_mut().set_machine_derate(retained);
        }
        match self.lifecycle {
            MachineLifecycle::Up if retained < 1.0 => self.lifecycle = MachineLifecycle::Degraded,
            MachineLifecycle::Degraded if retained >= 1.0 => self.lifecycle = MachineLifecycle::Up,
            _ => {}
        }
    }

    /// Applies (or clears) solver stress — see
    /// [`MemSystem::set_solver_stress`]. Value-aware: re-asserting the
    /// same severity keeps the machine clean.
    pub fn set_solver_stress(&mut self, severity: Option<f64>) {
        let clamped = severity.map(|s| s.clamp(0.0, 1.0)).filter(|&s| s > 0.0);
        if self.mem.solver_stress() != clamped {
            self.mem_mut().set_solver_stress(clamped);
            // Stress models pathological solver inputs: warm-start rates
            // carried over from the other regime do not describe them, so
            // every stress transition solves cold (in both directions —
            // rates left behind by a starved solve are just as useless to
            // the healthy fixed point).
            self.scratch.borrow_mut().reset_warm_state();
        }
    }

    /// Marks the machine's configuration as changed since its last step
    /// and starts a new epoch, so no memo tag written before matches until
    /// a scan re-tags its entry. Every mutation that can change the lowered
    /// input goes through here, except [`HostMachine::set_intensity`] and
    /// [`HostMachine::set_flow_gbps`], whose values the tag records.
    fn mark_dirty(&mut self) {
        self.dirty.set(true);
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Whether any input-affecting mutation happened since the last solved
    /// step. A fresh machine is dirty.
    pub fn is_dirty(&self) -> bool {
        self.dirty.get()
    }

    /// Sets the solver performance toggles (steady-state memoization and
    /// warm starts). Clears the memo cache and the warm-start state so a
    /// tuning change takes effect from a clean slate; cumulative
    /// [`HostMachine::solve_stats`] are preserved.
    pub fn set_solver_tuning(&mut self, tuning: SolverTuning) {
        self.tuning = tuning;
        self.mem.set_warm_start(tuning.warm_start);
        self.cache.borrow_mut().clear();
        self.scratch.borrow_mut().reset_warm_state();
        self.mark_dirty();
    }

    /// The current solver tuning.
    pub fn solver_tuning(&self) -> SolverTuning {
        self.tuning
    }

    /// Cumulative solve cost counters since construction (or the last
    /// [`HostMachine::reset_solve_stats`]): every [`HostMachine::solve`]
    /// call counts one solve, memo hits included.
    pub fn solve_stats(&self) -> SolveStats {
        *self.stats.borrow()
    }

    /// Zeroes the cumulative solve-cost counters.
    pub fn reset_solve_stats(&self) {
        *self.stats.borrow_mut() = SolveStats::default();
    }

    /// Arms or clears the actuation fault: while armed, task-level actuation
    /// writes ([`Actuator::set_allocations`], [`Actuator::set_prefetchers`],
    /// [`Actuator::set_bw_cap`]) are silently dropped.
    pub fn set_actuation_fault(&mut self, dropped: bool) {
        self.actuation_fault = dropped;
    }

    /// Whether actuation writes are currently being dropped.
    pub fn actuation_fault(&self) -> bool {
        self.actuation_fault
    }

    /// Mutable access to the memory system (calibration hooks, SNC, CAT).
    ///
    /// Invalidates the solve cache, since memory-system settings change
    /// results without changing the solver input.
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        self.cache.borrow_mut().clear();
        self.mark_dirty();
        &mut self.mem
    }

    /// The memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Overrides the SMT model.
    ///
    /// # Panics
    ///
    /// Panics if the two-thread penalty is NaN or infinite.
    pub fn set_smt(&mut self, smt: SmtModel) {
        assert_valid(check_finite(smt.two_thread_penalty), "invalid SMT model");
        self.smt = smt;
        self.mark_dirty();
    }

    /// Registers a task with initial core allocations; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the thread profile or an allocation's memory policy is
    /// invalid, a NaN or infinite field included, or if the memory weight
    /// is NaN or infinite.
    pub fn add_task(&mut self, spec: TaskSpec, allocations: Vec<CpuAllocation>) -> HostTaskId {
        assert_valid(spec.profile.validate(), "invalid thread profile");
        assert_valid(check_finite(spec.mem_weight), "invalid memory weight");
        for a in &allocations {
            assert_valid(a.policy.validate(), "invalid memory policy");
        }
        self.tasks.push(TaskEntry {
            spec,
            allocations,
            prefetch: PrefetchSetting::all_on(),
            bw_cap: None,
            intensity: 1.0,
            alive: true,
        });
        self.mark_dirty();
        HostTaskId(self.tasks.len() - 1)
    }

    /// Removes a task (its id stays allocated but inert).
    pub fn remove_task(&mut self, id: HostTaskId) {
        if let Some(t) = self.tasks.get_mut(id.0) {
            if t.alive {
                t.alive = false;
                self.mark_dirty();
            }
        }
    }

    /// True if the task exists and is alive.
    pub fn is_alive(&self, id: HostTaskId) -> bool {
        self.tasks.get(id.0).is_some_and(|t| t.alive)
    }

    /// Sets a task's activity level, clamped to `[0, 1]` (workload phase
    /// duty). A phase setter: it marks the machine dirty but keeps its
    /// epoch, so a step that returns to a memoized phase skips lowering.
    ///
    /// The ML workload models use this to reflect which fraction of the step
    /// their host threads are actually runnable.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is NaN or infinite.
    pub fn set_intensity(&mut self, id: HostTaskId, intensity: f64) {
        assert_valid(check_finite(intensity), "invalid intensity");
        if let Some(t) = self.tasks.get_mut(id.0) {
            let clamped = intensity.clamp(0.0, 1.0);
            // Value-aware: a write that changes nothing keeps the machine
            // clean, so fleet churn that re-asserts the same phase still
            // takes the adaptive-skip fast path.
            if t.intensity != clamped {
                t.intensity = clamped;
                self.dirty.set(true);
            }
        }
    }

    /// Updates a task's desired thread count (e.g. a sweep parameter).
    pub fn set_desired_threads(&mut self, id: HostTaskId, threads: usize) {
        if let Some(t) = self.tasks.get_mut(id.0) {
            if t.spec.desired_threads != threads {
                t.spec.desired_threads = threads;
                self.mark_dirty();
            }
        }
    }

    /// The task's spec (panics on unknown id).
    pub fn task_spec(&self, id: HostTaskId) -> &TaskSpec {
        &self.tasks[id.0].spec
    }

    /// Ids of all live tasks.
    pub fn live_tasks(&self) -> Vec<HostTaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.alive)
            .map(|(i, _)| HostTaskId(i))
            .collect()
    }

    /// Registers a fixed flow; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the flow's rate or weight is NaN or infinite.
    pub fn add_flow(&mut self, flow: FixedFlow) -> FlowId {
        assert_valid(check_finite(flow.gbps), "invalid flow rate");
        assert_valid(check_finite(flow.weight), "invalid flow weight");
        self.flows.push(flow);
        self.mark_dirty();
        FlowId(self.flows.len() - 1)
    }

    /// Updates a fixed flow's demand in GB/s (negative clamps to 0). A
    /// phase setter, like [`HostMachine::set_intensity`].
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is NaN or infinite.
    pub fn set_flow_gbps(&mut self, id: FlowId, gbps: f64) {
        assert_valid(check_finite(gbps), "invalid flow rate");
        if let Some(f) = self.flows.get_mut(id.0) {
            let clamped = gbps.max(0.0);
            if f.gbps != clamped {
                f.gbps = clamped;
                self.dirty.set(true);
            }
        }
    }

    /// Cores available in one domain under the current SNC mode.
    pub fn domain_cores(&self, domain: DomainId) -> usize {
        let spec = self.mem.machine().socket(domain.socket);
        spec.cores / self.mem.snc().domains_per_socket() as usize
    }

    /// Solves the memory system for the current configuration and returns
    /// the report, which shares its rows with the machine's. A `Down` or
    /// `Recovering` machine answers with the deterministic safe-state
    /// report instead of solving; a failed solve walks the rescue /
    /// safe-state ladder (see [`SolveHealth`]).
    pub fn solve(&self) -> MachineReport {
        self.step().clone()
    }

    /// [`HostMachine::solve`] refreshing a caller-owned report in place:
    /// same report, stats, memo and replay state. `out` ends up sharing the
    /// machine's rows; when it already does (a replay), nothing is written.
    pub fn step_into(&self, out: &mut MachineReport) {
        out.clone_from(&self.step());
    }

    /// Advances the machine one step and lends out its report, which the
    /// machine keeps until the next step. No rows are copied: a clean
    /// machine replays its last report by bumping a counter, a memoized
    /// input shares the memo entry's rows, and a solve moves its report in
    /// (sharing it with the new memo entry).
    ///
    /// # Panics
    ///
    /// Panics if a report borrowed from an earlier step is still alive
    /// when this step has to rewrite the report: drop each loan before
    /// the next step.
    pub fn step(&self) -> Ref<'_, MachineReport> {
        if self.serve_unchanged().is_none() {
            let mut scratch = self.scratch.borrow_mut();
            let StepScratch { solver, lowered } = &mut *scratch;
            let lowered = lowered.get_or_insert_with(Box::default);
            if self.serve_changed(lowered) == Served::Solve {
                let output = self.mem.solve_with(&lowered.input, solver);
                self.finish_solve(lowered, output);
            }
        }
        self.last_report()
    }

    /// The report of the last step (the empty report before the first).
    pub(crate) fn last_report(&self) -> Ref<'_, MachineReport> {
        self.report.borrow()
    }

    /// Serves the step from state the machine already has, without
    /// lowering — the safe state of a down machine or the replay of a clean
    /// one — and counts it; `None` when the configuration changed, for
    /// [`HostMachine::serve_changed`]. The two are the calls the scalar and
    /// batch paths both make, so their reports, stats and memo contents
    /// (tags included) stay bit-identical.
    pub(crate) fn serve_unchanged(&self) -> Option<Served> {
        if !self.lifecycle.is_serving() {
            self.safe_step();
            return Some(Served::SafeState);
        }
        // Clean machine: the lowered input would be bit-identical to the
        // previous step's, whose report is still memoized (FIFO eviction
        // only happens on insert), so the memo hit is guaranteed — and its
        // report is the one the machine already holds.
        if self.tuning.memo && !self.is_dirty() && self.replayable.get() {
            self.note_memo_hit();
            return Some(Served::Replay);
        }
        None
    }

    /// Serves a changed configuration from the memo — by tag, or after
    /// lowering into `lowered`, by input — and counts it; otherwise leaves
    /// the configuration lowered for a solve that
    /// [`HostMachine::finish_solve`] completes. Kept out of line, so the
    /// replay branch, most steps of a sweep, stays small.
    #[inline(never)]
    pub(crate) fn serve_changed(&self, lowered: &mut LoweredStep) -> Served {
        if self.tuning.memo && self.tag_hit() {
            return Served::MemoHit;
        }
        self.lower_into(lowered);
        if self.tuning.memo && self.memo_hit(&lowered.input) {
            return Served::MemoHit;
        }
        Served::Solve
    }

    /// One non-serving (`Down`/`Recovering`) step: counts a safe-state
    /// solve and stores the zero-rate report. It deliberately records no
    /// replay value — a dead machine stays dirty for its first
    /// post-restore solve.
    fn safe_step(&self) {
        {
            let mut stats = self.stats.borrow_mut();
            stats.solves = stats.solves.saturating_add(1);
            stats.safe_states = stats.safe_states.saturating_add(1);
        }
        *self.report.borrow_mut() = self.safe_report(true);
    }

    /// The deterministic safe-state report: every live task at zero rate,
    /// every flow at zero, zero counters. `converged` is vacuously true for
    /// a down machine (nothing was solved) and false when the ladder
    /// exhausted both solve attempts.
    fn safe_report(&self, converged: bool) -> MachineReport {
        ReportRows {
            tasks: self.zero_task_rows(),
            flows: vec![0.0; self.flows.len()],
            counters: MemCounters::default(),
            converged,
            health: SolveHealth::SafeState,
        }
        .into()
    }

    /// One zero row per live task, in id order.
    fn zero_task_rows(&self) -> Vec<(HostTaskId, TaskStepResult)> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.alive)
            .map(|(ti, _)| (HostTaskId(ti), TaskStepResult::zero()))
            .collect()
    }

    /// Turns a primary solver output into the step's report by walking the
    /// fallback ladder: a healthy output assembles directly; a diverged or
    /// non-finite one is re-solved cold under the rescue configuration; if
    /// the rescue fails too, the safe-state report ships. Absorbs all solve
    /// costs and ladder counters into the machine's stats — the scalar path
    /// and the batch path both resolve through here, so stats and reports
    /// are identical no matter which path ran the primary solve.
    fn resolve_output(&self, lowered: &LoweredStep, output: SolverOutput) -> MachineReport {
        self.absorb_stats(&output.stats);
        if output_is_healthy(&output) {
            return self.assemble(lowered, output).into();
        }
        let rescue = self.mem.solve_rescue(&lowered.input);
        self.absorb_stats(&rescue.stats);
        {
            let mut stats = self.stats.borrow_mut();
            stats.rescues = stats.rescues.saturating_add(1);
        }
        // The rescue is rung two: its careful configuration (4x budget,
        // heavy damping) converges on anything recoverable, so unlike the
        // primary it must actually converge to ship — a starved or still
        // diverging rescue falls through to the safe state rather than
        // shipping a one-iteration estimate.
        if rescue.converged && finite_rates(&rescue) {
            let mut rows = self.assemble(lowered, rescue);
            rows.health = SolveHealth::Rescued;
            return rows.into();
        }
        {
            let mut stats = self.stats.borrow_mut();
            stats.safe_states = stats.safe_states.saturating_add(1);
        }
        self.safe_report(false)
    }

    /// Lowers the current configuration into a fresh [`LoweredStep`].
    fn lower(&self) -> LoweredStep {
        let mut lowered = LoweredStep::default();
        self.lower_into(&mut lowered);
        lowered
    }

    /// Lowers the current configuration to a solver input (steps 1–3 of a
    /// solve: thread distribution, SMT fitting, solver-task construction),
    /// rewriting `out` in place: once its buffers have grown, lowering
    /// allocates nothing.
    pub(crate) fn lower_into(&self, out: &mut LoweredStep) {
        let LoweredStep {
            input,
            owners,
            sub,
            domains,
            spare_data,
        } = out;
        let machine = self.mem.machine();
        let smt_ways = |d: DomainId| machine.socket(d.socket).smt_ways;
        let capacity = |a: &CpuAllocation| (a.cores * smt_ways(a.domain)) as f64;

        // 1. Distribute each task's desired threads over its allocations,
        //    proportional to allocation capacity.
        sub.clear();
        for (ti, t) in self.tasks.iter().enumerate() {
            if !t.alive || t.intensity <= 0.0 || t.spec.desired_threads == 0 {
                continue;
            }
            let total_cap: f64 = t.allocations.iter().map(capacity).sum();
            if total_cap <= 0.0 {
                continue;
            }
            let want = (t.spec.desired_threads as f64).min(total_cap);
            for (ai, a) in t.allocations.iter().enumerate() {
                let threads = want * capacity(a) / total_cap;
                if threads > 0.0 {
                    sub.push((ti, ai, threads));
                }
            }
        }

        // 2. Per-domain SMT fitting over the *sum* of threads in the domain,
        //    in a dense table over the canonical domains.
        domains.clear();
        domains.resize(2 * machine.socket_count(), DomainFit::default());
        for &(ti, ai, threads) in sub.iter() {
            let d = self
                .mem
                .canonical_domain(self.tasks[ti].allocations[ai].domain);
            domains[domain_slot(d)].threads += threads;
        }
        for (slot, fit) in domains.iter_mut().enumerate() {
            if fit.threads > 0.0 {
                let d = DomainId::new(slot / 2, (slot % 2) as u8);
                let out = self.smt.fit(fit.threads, self.domain_cores(d), smt_ways(d));
                fit.scale = out.effective_threads / fit.threads;
                fit.multiplier = out.compute_multiplier;
            }
        }

        // 3. Lower to solver tasks, reusing the previous tasks' placement
        //    buffers.
        spare_data.extend(input.tasks.drain(..).map(|t| t.data));
        owners.clear();
        for (k, &(ti, ai, threads)) in sub.iter().enumerate() {
            let t = &self.tasks[ti];
            let a = &t.allocations[ai];
            let home = self.mem.canonical_domain(a.domain);
            let DomainFit {
                scale,
                multiplier: domain_mult,
                ..
            } = domains[domain_slot(home)];
            // A task oversubscribing its own cpuset SMT-pairs with itself
            // even when the domain has idle cores elsewhere.
            let alloc_mult = if a.cores > 0 {
                self.smt
                    .fit(threads, a.cores, smt_ways(a.domain))
                    .compute_multiplier
            } else {
                1.0
            };
            let smt_mult = domain_mult.max(alloc_mult);
            let p = &t.spec.profile;
            let mut data = spare_data.pop().unwrap_or_default();
            data.clear();
            data.extend(
                a.policy
                    .data_fractions(a.domain)
                    .map(|(d, f)| (self.mem.canonical_domain(d), f)),
            );
            input.tasks.push(SolverTask {
                key: TaskKey(k),
                threads: threads * scale * t.intensity,
                home,
                data,
                compute_ns_per_unit: p.compute_ns_per_unit * smt_mult,
                accesses_per_unit: p.accesses_per_unit,
                bytes_per_access: p.bytes_per_access,
                mlp: p.mlp,
                working_set_bytes: p.working_set_bytes,
                hit_max: p.hit_max,
                cache_class: t.spec.cache_class(),
                prefetch_profile: p.prefetch,
                prefetch_setting: t.prefetch,
                weight: t.spec.mem_weight,
                bw_cap_gbps: t.bw_cap,
                distress_exempt: false,
            });
            owners.push(ti);
        }
        input.fixed_flows.clear();
        input.fixed_flows.extend_from_slice(&self.flows);
    }

    /// The phase values: every task's intensity, then every flow's rate.
    fn phase_values(&self) -> impl Iterator<Item = f64> + '_ {
        let intensities = self.tasks.iter().map(|t| t.intensity);
        intensities.chain(self.flows.iter().map(|f| f.gbps))
    }

    /// Serves a memoized step without lowering, from the entry tagged with
    /// the current epoch and phase values (see [`MemoEntry`]). Tags are
    /// unique: an entry is tagged only on a miss of that tag. Returns
    /// `false` — and does nothing — when no entry carries the tag.
    fn tag_hit(&self) -> bool {
        let cache = self.cache.borrow();
        let Some(entry) = cache.iter().find(|e| {
            e.epoch == self.epoch
                && e.phase
                    .as_deref()
                    .is_some_and(|p| p.iter().copied().eq(self.phase_values()))
        }) else {
            return false;
        };
        debug_assert!(
            entry.input == self.lower().input,
            "a memo tag matched a configuration that lowers to another input: \
             a mutator changed the input without starting a new epoch"
        );
        self.serve_memoized(&entry.report);
        true
    }

    /// Serves a memoized step for `input`, found by equality, and re-tags
    /// the entry with the current epoch and phase values. Returns `false` —
    /// and does nothing — when `input` is not memoized.
    fn memo_hit(&self, input: &SolverInput) -> bool {
        let mut cache = self.cache.borrow_mut();
        let Some(entry) = cache.iter_mut().find(|e| e.input == *input) else {
            return false;
        };
        entry.epoch = self.epoch;
        entry.phase = Some(self.phase_values().collect());
        self.serve_memoized(&entry.report);
        true
    }

    /// Ends a memo-hit step: the machine's report shares the entry's rows,
    /// the hit is counted and the step marked replayable.
    fn serve_memoized(&self, report: &MachineReport) {
        self.report.borrow_mut().clone_from(report);
        self.note_memo_hit();
        self.mark_replayable();
    }

    /// Counts one memo-served solve (a memo hit or a replay).
    fn note_memo_hit(&self) {
        let mut stats = self.stats.borrow_mut();
        stats.solves = stats.solves.saturating_add(1);
        stats.memo_hits = stats.memo_hits.saturating_add(1);
    }

    /// Accumulates a computed solve's cost counters.
    fn absorb_stats(&self, stats: &SolveStats) {
        self.stats.borrow_mut().absorb(stats);
    }

    /// This machine's solver workspace (warm-start state included), for the
    /// batch path to thread through [`MemSystem::solve_batch_with`].
    pub(crate) fn scratch_mut(&self) -> RefMut<'_, SolverScratch> {
        RefMut::map(self.scratch.borrow_mut(), |s| &mut s.solver)
    }

    /// Inserts a computed report into the memo cache (FIFO eviction),
    /// tagged with the epoch and phase values it was lowered under; the
    /// entry shares the report's rows.
    fn memo_put(&self, input: &SolverInput, report: &MachineReport) {
        if self.tuning.memo {
            let mut cache = self.cache.borrow_mut();
            if cache.len() >= SOLVE_CACHE_CAPACITY {
                cache.remove(0);
            }
            cache.push(MemoEntry {
                input: input.clone(),
                report: report.clone(),
                epoch: self.epoch,
                phase: equals_itself(input).then(|| self.phase_values().collect()),
            });
        }
    }

    /// Snapshot of the memo cache contents in FIFO order (testing hook for
    /// the batch ≡ serial identity property tests).
    pub fn memo_snapshot(&self) -> Vec<(SolverInput, MachineReport)> {
        let cache = self.cache.borrow();
        cache
            .iter()
            .map(|e| (e.input.clone(), e.report.clone()))
            .collect()
    }

    /// Completes a step that [`HostMachine::serve_changed`] could not
    /// serve: walks the solver output through the fallback ladder,
    /// memoizes the result and moves it into the machine's report. The
    /// scalar and batch paths both finish through here, so a solved step
    /// is path-invariant.
    pub(crate) fn finish_solve(&self, lowered: &LoweredStep, output: SolverOutput) {
        let report = self.resolve_output(lowered, output);
        self.memo_put(&lowered.input, &report);
        *self.report.borrow_mut() = report;
        self.mark_replayable();
    }

    /// Ends a serving step: the machine's report is now the replay value
    /// and its configuration is clean.
    fn mark_replayable(&self) {
        self.replayable.set(true);
        self.dirty.set(false);
    }

    /// Replaces the machine's step workspace with `scratch` — the
    /// cross-spec machine-reuse hook: a worker that retires one experiment
    /// hands the (warm-state-reset) arenas to the next machine it builds,
    /// so the solver's and the lowering's allocations amortize across
    /// specs. Callers must [`StepScratch::reset_warm_state`] first; every
    /// other table in the scratch is rebuilt per step, so a reset
    /// transplanted scratch is bit-identical to a fresh one.
    pub fn adopt_scratch(&mut self, scratch: StepScratch) {
        *self.scratch.borrow_mut() = scratch;
    }

    /// Takes the machine's step workspace, leaving a default in place (the
    /// other half of the [`HostMachine::adopt_scratch`] reuse cycle).
    pub fn take_scratch(&mut self) -> StepScratch {
        std::mem::take(&mut *self.scratch.borrow_mut())
    }

    /// Aggregates a solver output into the per-task report rows (step 4 of
    /// a solve), moving the output's flow rates and counters into them.
    fn assemble(&self, lowered: &LoweredStep, output: SolverOutput) -> ReportRows {
        let SolverOutput {
            tasks: results,
            fixed_flow_gbps,
            counters,
            converged,
            ..
        } = output;
        // 4. Aggregate sub-task results per task. Lowering emits the
        //    sub-tasks of live tasks only, grouped by task in id order, so
        //    one walk over the tasks consumes them all.
        let mut subs = results.iter().zip(&lowered.owners).peekable();
        let mut rows = Vec::new();
        for (ti, t) in self.tasks.iter().enumerate() {
            if !t.alive {
                continue;
            }
            let mut row = TaskStepResult::zero();
            while let Some((res, _)) = subs.next_if(|&(_, &owner)| owner == ti) {
                // Threads the solver actually ran for this sub-task (after
                // SMT scaling and intensity).
                let w = lowered.input.tasks[res.key.0].threads;
                row.units_per_sec += res.rate_per_thread * w;
                row.bw_gbps += res.bw_gbps;
                row.latency_ns += res.latency_ns * w;
                row.llc_hit_ratio += res.llc_hit_ratio * w;
                row.effective_threads += w;
                if res.speed_factor < row.speed_factor {
                    row.speed_factor = res.speed_factor;
                }
            }
            if row.effective_threads > 0.0 {
                row.latency_ns /= row.effective_threads;
                row.llc_hit_ratio /= row.effective_threads;
            }
            rows.push((HostTaskId(ti), row));
        }
        debug_assert!(subs.next().is_none(), "a sub-task without a live task");

        ReportRows {
            tasks: rows,
            flows: fixed_flow_gbps,
            counters,
            converged,
            health: SolveHealth::Healthy,
        }
    }
}

/// Relative residual above which a non-converged solve counts as
/// *diverged* rather than merely truncated. The fixed-point tolerance is
/// 1e-4, and heavily contended experiment mixes routinely exhaust the
/// budget with residuals up to a few 1e-2 while their damped estimates
/// remain usable — those ship as before (counted in
/// [`kelp_mem::solver::SolveStats::non_converged`], but not sick). An
/// iterate still moving by a quarter of its magnitude per step, though,
/// has not settled at all; only those enter the rescue ladder.
pub const DIVERGED_RESIDUAL: f64 = 0.25;

/// Whether a solver output may ship as-is: finite rates, bandwidths,
/// latencies and flow rates, and either converged or within
/// [`DIVERGED_RESIDUAL`] of settling. Anything else enters the rescue /
/// safe-state ladder instead of silently shipping the damped estimate.
/// (A NaN residual fails the `<=` comparison, so it lands in the ladder.)
fn output_is_healthy(o: &SolverOutput) -> bool {
    (o.converged || o.residual <= DIVERGED_RESIDUAL) && finite_rates(o)
}

/// Whether `input` equals itself: false exactly when it holds a NaN.
#[expect(
    clippy::eq_op,
    reason = "self-equality is the NaN test for a whole input"
)]
fn equals_itself(input: &SolverInput) -> bool {
    input == input
}

/// Every user-visible quantity in the output is finite.
fn finite_rates(o: &SolverOutput) -> bool {
    o.tasks.iter().all(|t| {
        t.rate_per_thread.is_finite()
            && t.bw_gbps.is_finite()
            && t.latency_ns.is_finite()
            && t.speed_factor.is_finite()
    }) && o.fixed_flow_gbps.iter().all(|g| g.is_finite())
}

/// A lowered solver input plus the sub-task bookkeeping needed to aggregate
/// the solver's output back into a [`MachineReport`], and the lowering's
/// working buffers. Lowering rewrites it in place, so a reused one makes
/// lowering allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoweredStep {
    /// The solver input (also the memo entry's exact key).
    pub(crate) input: SolverInput,
    /// Owning task index per solver task (non-decreasing).
    owners: Vec<usize>,
    /// Sub-tasks: `(task index, allocation index, threads)`.
    sub: Vec<(usize, usize, f64)>,
    /// Per canonical domain, at [`domain_slot`]: summed threads and fit.
    domains: Vec<DomainFit>,
    /// Placement buffers of earlier solver tasks, for reuse.
    spare_data: Vec<Vec<(DomainId, f64)>>,
}

/// One canonical domain's SMT fit during lowering.
#[derive(Debug, Clone, Copy, Default)]
struct DomainFit {
    /// Sub-task threads homed in the domain.
    threads: f64,
    /// Effective over requested threads.
    scale: f64,
    /// Per-thread compute-time multiplier.
    multiplier: f64,
}

/// Dense index of a canonical domain: `socket * 2 + sub`, as the solver's
/// domain lookup table.
fn domain_slot(d: DomainId) -> usize {
    d.socket.0 * 2 + usize::from(d.sub)
}

/// A machine's reusable step workspace: the solver's scratch, with its
/// warm-start state, and the buffer a scalar step lowers into. A worker
/// that retires one machine hands it to the next
/// ([`HostMachine::take_scratch`], [`HostMachine::adopt_scratch`]).
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    solver: SolverScratch,
    /// Made by the first scalar step, so a machine stepped only through a
    /// [`crate::HostBatch`], which lowers into its own pool, holds none.
    lowered: Option<Box<LoweredStep>>,
}

impl StepScratch {
    /// Forgets the solver's warm-start state (see
    /// [`SolverScratch::reset_warm_state`]).
    pub fn reset_warm_state(&mut self) {
        self.solver.reset_warm_state();
    }
}

/// How a step was served ([`HostMachine::serve_unchanged`],
/// [`HostMachine::serve_changed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// `Down`/`Recovering`: the safe-state report.
    SafeState,
    /// Clean machine: its last report, replayed.
    Replay,
    /// A changed configuration found in the memo cache.
    MemoHit,
    /// Needs a solve of the input it lowered.
    Solve,
}

impl Actuator for HostMachine {
    fn set_allocations(&mut self, task: HostTaskId, allocations: Vec<CpuAllocation>) {
        for a in &allocations {
            assert_valid(a.policy.validate(), "invalid memory policy");
        }
        if self.actuation_fault {
            return;
        }
        if let Some(t) = self.tasks.get_mut(task.0) {
            t.allocations = allocations;
            self.mark_dirty();
        }
    }

    fn set_prefetchers(&mut self, task: HostTaskId, setting: PrefetchSetting) {
        assert_valid(
            check_finite(setting.enabled_fraction),
            "invalid prefetcher setting",
        );
        if self.actuation_fault {
            return;
        }
        if let Some(t) = self.tasks.get_mut(task.0) {
            t.prefetch = setting;
            self.mark_dirty();
        }
    }

    fn set_bw_cap(&mut self, task: HostTaskId, cap_gbps: Option<f64>) {
        if let Some(cap) = cap_gbps {
            assert_valid(check_finite(cap), "invalid bandwidth cap");
        }
        if self.actuation_fault {
            return;
        }
        if let Some(t) = self.tasks.get_mut(task.0) {
            t.bw_cap = cap_gbps;
            self.mark_dirty();
        }
    }

    fn set_cat(&mut self, cat: CatAllocation) {
        self.cache.borrow_mut().clear();
        self.mark_dirty();
        self.mem.set_cat(cat);
    }

    fn allocations(&self, task: HostTaskId) -> &[CpuAllocation] {
        self.tasks
            .get(task.0)
            .map(|t| t.allocations.as_slice())
            .unwrap_or(&[])
    }

    fn prefetchers(&self, task: HostTaskId) -> PrefetchSetting {
        self.tasks
            .get(task.0)
            .map(|t| t.prefetch)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, ThreadProfile};
    use kelp_mem::topology::{MachineSpec, SocketId};

    fn machine(snc: SncMode) -> HostMachine {
        HostMachine::new(MachineSpec::dual_socket(), snc)
    }

    fn stream_spec(threads: usize) -> TaskSpec {
        TaskSpec::new(
            "stream",
            Priority::Low,
            ThreadProfile::streaming(2e9),
            threads,
        )
    }

    #[test]
    fn single_task_progresses() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let rep = m.solve();
        let r = rep.task(id);
        assert!(r.units_per_sec > 0.0);
        assert!(r.bw_gbps > 0.0);
        assert!((r.effective_threads - 4.0).abs() < 1e-9);
        assert!(rep.converged);
    }

    #[test]
    fn removed_task_is_inert() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        m.remove_task(id);
        assert!(!m.is_alive(id));
        let rep = m.solve();
        assert_eq!(rep.task(id).units_per_sec, 0.0);
        assert!(rep.counters.socket_bw(SocketId(0)) < 1e-9);
    }

    #[test]
    fn intensity_scales_demand() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(8),
            vec![CpuAllocation::local(DomainId::new(0, 0), 8)],
        );
        let full = m.solve().task(id).bw_gbps;
        m.set_intensity(id, 0.25);
        let quarter = m.solve().task(id).bw_gbps;
        assert!(quarter < 0.5 * full, "{quarter} vs {full}");
    }

    #[test]
    fn threads_capped_by_allocation() {
        let mut m = machine(SncMode::Disabled);
        // Wants 16 threads but only 2 cores (4 hw threads).
        let id = m.add_task(
            stream_spec(16),
            vec![CpuAllocation::local(DomainId::new(0, 0), 2)],
        );
        let rep = m.solve();
        assert!(rep.task(id).effective_threads <= 4.0 + 1e-9);
    }

    #[test]
    fn smt_oversubscription_slows_per_thread_rate() {
        let mut m = machine(SncMode::Disabled);
        let profile = ThreadProfile::compute_bound(100.0);
        // 12 threads on a 12-core cpuset: no SMT sharing.
        let a = m.add_task(
            TaskSpec::new("c", Priority::Low, profile, 12),
            vec![CpuAllocation::local(DomainId::new(0, 0), 12)],
        );
        let light = m.solve().task(a).units_per_sec;
        // 24 threads on the same 12-core cpuset: everything pairs up even
        // though the domain has idle cores.
        m.set_desired_threads(a, 24);
        let heavy = m.solve().task(a).units_per_sec;
        assert!(heavy > light * 1.1, "SMT should still add throughput");
        assert!(
            heavy < light * 1.6,
            "but far less than 2x: {heavy} vs {light}"
        );
    }

    #[test]
    fn backfill_allocation_spans_domains() {
        let mut m = machine(SncMode::Enabled);
        let id = m.add_task(
            stream_spec(8),
            vec![
                CpuAllocation::local(DomainId::new(0, 1), 4),
                CpuAllocation::local(DomainId::new(0, 0), 4),
            ],
        );
        let rep = m.solve();
        // Both subdomains see traffic.
        assert!(rep.counters.domain_bw(DomainId::new(0, 0)) > 0.1);
        assert!(rep.counters.domain_bw(DomainId::new(0, 1)) > 0.1);
        assert!((rep.task(id).effective_threads - 8.0).abs() < 1e-6);
    }

    #[test]
    fn actuator_roundtrip() {
        let mut m = machine(SncMode::Enabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 1), 4)],
        );
        m.set_prefetchers(id, PrefetchSetting::fraction(0.5));
        assert_eq!(m.prefetchers(id).enabled_fraction, 0.5);
        m.set_allocations(id, vec![CpuAllocation::local(DomainId::new(0, 1), 2)]);
        assert_eq!(m.allocations(id)[0].cores, 2);
        m.set_bw_cap(id, Some(3.0));
        let rep = m.solve();
        assert!(rep.task(id).bw_gbps <= 3.3);
    }

    #[test]
    fn prefetcher_toggle_lowers_task_bw() {
        let mut m = machine(SncMode::Enabled);
        let id = m.add_task(
            stream_spec(8),
            vec![CpuAllocation::local(DomainId::new(0, 1), 8)],
        );
        let on = m.solve().task(id).bw_gbps;
        m.set_prefetchers(id, PrefetchSetting::all_off());
        let off = m.solve().task(id).bw_gbps;
        assert!(off < on, "off {off} on {on}");
    }

    #[test]
    fn flow_registration_and_update() {
        let mut m = machine(SncMode::Disabled);
        let f = m.add_flow(FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: 5.0,
            weight: 1.0,
        });
        let rep = m.solve();
        assert!((rep.flows[0] - 5.0).abs() < 1e-6);
        m.set_flow_gbps(f, 9.0);
        let rep = m.solve();
        assert!((rep.flows[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn report_clone_from_matches_clone_across_shape_changes() {
        let flow = FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: 5.0,
            weight: 1.0,
        };
        let mut m = machine(SncMode::Disabled);
        let a = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let one_task = m.solve();
        m.add_task(
            stream_spec(2),
            vec![CpuAllocation::local(DomainId::new(1, 0), 2)],
        );
        let task_added = m.solve();
        m.add_flow(flow);
        let flow_added = m.solve();
        m.remove_task(a);
        let task_removed = m.solve();
        // Twice the counter rows: SNC splits each socket into two domains.
        let mut snc = machine(SncMode::Enabled);
        snc.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 1), 4)],
        );
        snc.add_flow(flow);
        let subdomains = snc.solve();
        assert_eq!(flow_added.flows.len(), 1);
        assert_eq!(task_removed.tasks.len(), 1);
        assert!(subdomains.counters.domains.len() > one_task.counters.domains.len());

        let shapes = [
            MachineReport::empty(),
            one_task,
            task_added,
            flow_added,
            task_removed,
            subdomains,
        ];
        for (i, dst) in shapes.iter().enumerate() {
            for (j, src) in shapes.iter().enumerate() {
                let mut refreshed = dst.clone();
                refreshed.clone_from(src);
                assert_eq!(refreshed, src.clone(), "clone_from {j} into {i}");
                assert!(
                    std::ptr::eq::<ReportRows>(&*refreshed, &**src),
                    "clone_from {j} into {i} must share the source's rows"
                );
            }
        }
        for (i, src) in shapes.iter().enumerate() {
            let mut shared = src.clone();
            let before: *const ReportRows = &*shared;
            shared.clone_from(src);
            assert!(
                std::ptr::eq(before, &*shared),
                "clone_from onto its own clone moved report {i}"
            );
        }
    }

    #[test]
    fn solves_and_memo_hits_share_the_memo_entry_rows() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        // The rows of `m`'s report, and of the memo entry for its current
        // configuration.
        let rows_and_entry = |m: &HostMachine| {
            let report: *const ReportRows = &**m.step();
            let input = m.lower().input;
            let memo = m.memo_snapshot();
            let (_, entry) = memo
                .iter()
                .find(|(key, _)| *key == input)
                .expect("a served configuration is memoized");
            (report, &**entry as *const ReportRows)
        };
        // A computed solve shares its rows with the entry it memoizes.
        let (solved, entry) = rows_and_entry(&m);
        assert!(std::ptr::eq(solved, entry));
        m.set_intensity(id, 0.5);
        let (other, _) = rows_and_entry(&m);
        assert!(!std::ptr::eq(other, solved));
        // Back to the first configuration: a memo hit, served by sharing
        // the entry's rows rather than copying them.
        m.set_intensity(id, 1.0);
        let hits = m.solve_stats().memo_hits;
        let (hit, entry) = rows_and_entry(&m);
        assert_eq!(
            m.solve_stats().memo_hits,
            hits + 1,
            "the step was a memo hit"
        );
        assert!(std::ptr::eq(hit, entry));
        assert!(std::ptr::eq(hit, solved));
    }

    #[test]
    fn solve_cache_returns_identical_reports() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let a = m.solve();
        let b = m.solve();
        assert_eq!(a, b, "second solve must come from the cache unchanged");
        assert!(a.task(id).units_per_sec > 0.0);
    }

    #[test]
    fn mem_mut_invalidates_the_solve_cache() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(8),
            vec![CpuAllocation::local(DomainId::new(0, 0), 8)],
        );
        let before = m.solve().task(id).units_per_sec;
        // A memory-system change that alters results without changing the
        // solver input: a much slower latency curve.
        m.mem_mut()
            .set_latency_curve(kelp_mem::latency::LatencyCurve {
                amplitude: 5.0,
                exponent: 1.0,
                rho_cap: 0.9,
            });
        let after = m.solve().task(id).units_per_sec;
        assert!(
            after < before,
            "stale cache served after mem_mut: {after} vs {before}"
        );
    }

    #[test]
    fn remote_memory_policy_allocation() {
        let mut m = machine(SncMode::Disabled);
        let alloc = CpuAllocation {
            domain: DomainId::new(0, 0),
            cores: 8,
            policy: crate::placement::MemPolicy::Split(vec![
                (DomainId::new(0, 0), 0.25),
                (DomainId::new(1, 0), 0.75),
            ]),
        };
        let id = m.add_task(stream_spec(8), vec![alloc]);
        let rep = m.solve();
        // Most of the traffic crosses to socket 1 and rides UPI.
        assert!(rep.counters.upi_gbps > 1.0, "upi {}", rep.counters.upi_gbps);
        assert!(rep.counters.socket_bw(SocketId(1)) > rep.counters.socket_bw(SocketId(0)));
        assert!(rep.task(id).units_per_sec > 0.0);
    }

    #[test]
    fn solve_stats_count_memo_and_warm_hits() {
        let mut m = machine(SncMode::Disabled);
        m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let _ = m.solve();
        let cold = m.solve_stats();
        assert_eq!(cold.solves, 1);
        assert_eq!(cold.memo_hits, 0);
        assert!(cold.iterations >= 1);
        assert_eq!(cold.evaluations, cold.iterations + 1);

        // Identical configuration: answered from the memo.
        let _ = m.solve();
        let memo = m.solve_stats();
        assert_eq!(memo.solves, 2);
        assert_eq!(memo.memo_hits, 1);
        assert_eq!(memo.evaluations, cold.evaluations);

        // Changed configuration: computed, but warm-started.
        m.set_intensity(HostTaskId(0), 0.5);
        let _ = m.solve();
        let warm = m.solve_stats();
        assert_eq!(warm.solves, 3);
        assert_eq!(warm.memo_hits, 1);
        assert_eq!(warm.warm_hits, 1);

        m.reset_solve_stats();
        assert_eq!(m.solve_stats(), SolveStats::default());
    }

    #[test]
    fn baseline_tuning_disables_memoization() {
        let mut a = machine(SncMode::Disabled);
        a.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let mut b = a.clone();
        b.set_solver_tuning(SolverTuning::baseline());
        for _ in 0..3 {
            let ra = a.solve();
            let rb = b.solve();
            assert_eq!(ra, rb, "memoized and cold reports must match exactly");
        }
        assert_eq!(a.solve_stats().memo_hits, 2);
        assert_eq!(b.solve_stats().memo_hits, 0);
        assert_eq!(b.solve_stats().warm_hits, 0);
        assert_eq!(b.solver_tuning(), SolverTuning::baseline());
    }

    #[test]
    fn lifecycle_crash_recover_restore_roundtrip() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let healthy = m.solve();
        assert_eq!(healthy.health, SolveHealth::Healthy);
        assert_eq!(m.lifecycle(), MachineLifecycle::Up);

        m.crash();
        assert_eq!(m.lifecycle(), MachineLifecycle::Down);
        let down = m.solve();
        assert_eq!(down.health, SolveHealth::SafeState);
        assert_eq!(down.task(id).units_per_sec, 0.0);
        assert!(down.converged, "a down machine solves nothing");
        m.begin_recovery();
        assert_eq!(m.lifecycle(), MachineLifecycle::Recovering);
        let rec = m.solve();
        assert_eq!(rec.health, SolveHealth::SafeState);
        let stats = m.solve_stats();
        assert_eq!(stats.safe_states, 2);

        m.restore();
        assert_eq!(m.lifecycle(), MachineLifecycle::Up);
        // Warm-state invalidation: the memo is empty, so the first
        // post-restore solve recomputes (and matches the pre-crash report).
        assert!(m.memo_snapshot().is_empty());
        let back = m.solve();
        assert_eq!(back, healthy);
        assert_eq!(m.solve_stats().memo_hits, 0, "no memo hit after restore");
    }

    #[test]
    fn brownout_degrades_and_compounds_with_restore() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(8),
            vec![CpuAllocation::local(DomainId::new(0, 0), 8)],
        );
        let full = m.solve().task(id).bw_gbps;
        m.set_brownout(0.3);
        assert_eq!(m.lifecycle(), MachineLifecycle::Degraded);
        let browned = m.solve();
        assert_eq!(
            browned.health,
            SolveHealth::Healthy,
            "degraded still serves"
        );
        assert!(browned.task(id).bw_gbps < full);
        // A crash during the brownout restores to Degraded, not Up.
        m.crash();
        m.restore();
        assert_eq!(m.lifecycle(), MachineLifecycle::Degraded);
        m.set_brownout(1.0);
        assert_eq!(m.lifecycle(), MachineLifecycle::Up);
        // Value-aware: re-asserting clears nothing.
        let _ = m.solve();
        m.set_brownout(1.0);
        assert!(!m.is_dirty());
    }

    #[test]
    fn solver_stress_walks_the_fallback_ladder() {
        // A heavily oversubscribed domain: the fixed point is contention-
        // limited, so the undamped stressed iteration oscillates (rates
        // collapse, latency falls, rates rebound) instead of settling —
        // the pathological regime the SolverStress fault models.
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            TaskSpec::new("hog", Priority::Low, ThreadProfile::streaming(50e9), 16),
            vec![CpuAllocation::local(DomainId::new(0, 0), 16)],
        );
        let healthy = m.solve();
        assert_eq!(healthy.health, SolveHealth::Healthy);

        // Moderate stress: primary starves, rescue recovers. The crash /
        // restore pair resets the warm state so the starved primary runs
        // from a cold start (a warm iterate would converge in one step and
        // mask the ladder).
        m.crash();
        m.restore();
        m.set_solver_stress(Some(0.97));
        let rescued = m.solve();
        assert_eq!(rescued.health, SolveHealth::Rescued);
        assert!(rescued.converged, "the rescue solve converged");
        assert!(rescued.task(id).units_per_sec > 0.0);
        let stats = m.solve_stats();
        assert_eq!(stats.rescues, 1);
        assert!(stats.non_converged >= 1);
        assert_eq!(stats.safe_states, 0);

        // Full wedge: rescue starves too; the safe state ships.
        m.crash();
        m.restore();
        m.set_solver_stress(Some(1.0));
        let safe = m.solve();
        assert_eq!(safe.health, SolveHealth::SafeState);
        assert!(!safe.converged);
        assert_eq!(safe.task(id).units_per_sec, 0.0);
        assert_eq!(m.solve_stats().safe_states, 1);

        // A repeated wedged step is a memo hit on the safe report — the
        // ladder does not re-run for an unchanged configuration.
        let again = m.solve();
        assert_eq!(again, safe);
        assert_eq!(m.solve_stats().safe_states, 1);

        m.set_solver_stress(None);
        m.crash();
        m.restore();
        let recovered = m.solve();
        assert_eq!(recovered.health, SolveHealth::Healthy);
        assert_eq!(
            recovered, healthy,
            "cold restart reproduces the pre-fault report"
        );
    }

    /// The tags of `m`'s memo entries, in FIFO order.
    fn tags(m: &HostMachine) -> Vec<(u64, Option<Vec<f64>>)> {
        let cache = m.cache.borrow();
        cache
            .iter()
            .map(|e| (e.epoch, e.phase.as_deref().map(<[f64]>::to_vec)))
            .collect()
    }

    #[test]
    fn phase_revisits_match_by_tag_and_other_revisits_by_scan() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        let f = m.add_flow(FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: 5.0,
            weight: 1.0,
        });
        let epoch = m.epoch;
        let first = m.solve();
        m.set_intensity(id, 0.0);
        m.set_flow_gbps(f, 0.0);
        let idle = m.solve();
        assert_eq!(m.epoch, epoch, "the phase setters keep the epoch");
        assert_eq!(
            tags(&m),
            [(epoch, Some(vec![1.0, 5.0])), (epoch, Some(vec![0.0, 0.0]))]
        );

        // Back to the first phase: served by its tag, nothing re-tagged.
        m.set_intensity(id, 1.0);
        m.set_flow_gbps(f, 5.0);
        assert_eq!(m.solve(), first);
        assert_eq!(m.solve_stats().memo_hits, 1);
        assert_eq!(m.solve_stats().solves, 3);

        // A −0 intensity is the same phase as +0: the tag still matches.
        m.set_intensity(id, -0.0);
        m.set_flow_gbps(f, -0.0);
        assert!(m.tasks[id.0].intensity.is_sign_negative());
        assert_eq!(m.solve(), idle);
        assert_eq!(m.solve_stats().memo_hits, 2);
        assert_eq!(m.memo_snapshot().len(), 2);

        // KP's revisit: prefetchers off and back on start two epochs, so
        // the old tag misses and the scan finds the entry and re-tags it.
        m.set_intensity(id, 1.0);
        m.set_flow_gbps(f, 5.0);
        m.set_prefetchers(id, PrefetchSetting::all_off());
        let _ = m.solve();
        m.set_prefetchers(id, PrefetchSetting::all_on());
        assert_eq!(m.epoch, epoch + 2);
        assert_eq!(m.solve(), first);
        assert_eq!(m.solve_stats().memo_hits, 3);
        assert_eq!(m.solve_stats().solves, 6);
        assert_eq!(
            tags(&m),
            [
                (epoch + 2, Some(vec![1.0, 5.0])),
                (epoch, Some(vec![0.0, 0.0])),
                (epoch + 1, Some(vec![1.0, 5.0])),
            ]
        );
    }

    #[test]
    fn an_input_holding_a_nan_is_never_served_from_the_memo() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(
            stream_spec(4),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        );
        // The entry points reject a NaN, so plant one behind them: the tag
        // must stay exact whatever reaches the input.
        m.tasks[id.0].spec.mem_weight = f64::NAN;
        let _ = m.solve();
        m.set_intensity(id, 0.5);
        let _ = m.solve();
        m.set_intensity(id, 1.0);
        let _ = m.solve();
        // Neither the scan nor the tag matches a NaN: every dirty step
        // solves and memoizes a new, untagged entry.
        assert_eq!(m.solve_stats().memo_hits, 0);
        assert_eq!(m.solve_stats().solves, 3);
        assert_eq!(
            tags(&m),
            [(m.epoch, None), (m.epoch, None), (m.epoch, None)]
        );
    }

    #[test]
    #[should_panic(expected = "invalid thread profile: non-finite MLP")]
    fn add_task_rejects_a_nan_profile() {
        let mut spec = stream_spec(4);
        spec.profile.mlp = f64::NAN;
        machine(SncMode::Disabled).add_task(spec, vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid memory policy: non-finite placement fraction")]
    fn add_task_rejects_a_nan_placement() {
        let alloc = CpuAllocation {
            domain: DomainId::new(0, 0),
            cores: 4,
            policy: crate::placement::MemPolicy::Split(vec![(DomainId::new(0, 0), f64::NAN)]),
        };
        machine(SncMode::Disabled).add_task(stream_spec(4), vec![alloc]);
    }

    #[test]
    #[should_panic(expected = "invalid memory weight: NaN is not finite")]
    fn add_task_rejects_a_nan_memory_weight() {
        let mut spec = stream_spec(4);
        spec.mem_weight = f64::NAN;
        machine(SncMode::Disabled).add_task(spec, vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid intensity: NaN is not finite")]
    fn set_intensity_rejects_nan() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(stream_spec(4), vec![]);
        m.set_intensity(id, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid flow rate: NaN is not finite")]
    fn add_flow_rejects_a_nan_rate() {
        machine(SncMode::Disabled).add_flow(FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: f64::NAN,
            weight: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "invalid flow rate: inf is not finite")]
    fn set_flow_gbps_rejects_infinity() {
        let mut m = machine(SncMode::Disabled);
        let f = m.add_flow(FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: 5.0,
            weight: 1.0,
        });
        m.set_flow_gbps(f, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid prefetcher setting: NaN is not finite")]
    fn set_prefetchers_rejects_nan() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(stream_spec(4), vec![]);
        m.set_prefetchers(
            id,
            PrefetchSetting {
                enabled_fraction: f64::NAN,
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth cap: NaN is not finite")]
    fn set_bw_cap_rejects_nan() {
        let mut m = machine(SncMode::Disabled);
        let id = m.add_task(stream_spec(4), vec![]);
        m.set_bw_cap(id, Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "invalid SMT model: NaN is not finite")]
    fn set_smt_rejects_a_nan_penalty() {
        machine(SncMode::Disabled).set_smt(SmtModel {
            two_thread_penalty: f64::NAN,
        });
    }

    #[test]
    #[should_panic(expected = "invalid brownout: NaN is not finite")]
    fn set_brownout_rejects_nan() {
        machine(SncMode::Disabled).set_brownout(f64::NAN);
    }

    #[test]
    fn domain_cores_halve_under_snc() {
        let m = machine(SncMode::Disabled);
        assert_eq!(m.domain_cores(DomainId::new(0, 0)), 24);
        let m = machine(SncMode::Enabled);
        assert_eq!(m.domain_cores(DomainId::new(0, 0)), 12);
    }
}
