//! The coupled memory-system solver.
//!
//! Each simulation step, the host hands the solver a set of *tasks* (thread
//! groups with an execution profile) and *fixed flows* (accelerator DMA /
//! PCIe in-feed traffic). The solver resolves the circular dependencies
//!
//! ```text
//! task rate -> LLC access rate -> occupancy & hit ratio -> miss traffic
//!           -> max-min bandwidth allocation -> utilization -> latency &
//!              distress throttling -> task rate
//! ```
//!
//! by damped fixed-point iteration on the per-task rate vector, and reports
//! achieved rates, consumed bandwidth, effective latencies and the counter
//! snapshot the Kelp runtime samples.
//!
//! The hot path is built around a reusable [`SolverScratch`]: every
//! per-solve table (domain indices, capacities, LLC models, per-task
//! invariants, the flow template) is computed once per [`MemSystem::solve_with`]
//! call, and the fixed-point loop itself reuses flat buffers so iterating
//! allocates nothing. The full output — counters, per-task results — is
//! built exactly once after convergence.

use crate::counters::{DomainCounters, MemCounters, SocketCounters};
use crate::distress::{DistressModel, DistressScope};
use crate::latency::LatencyCurve;
use crate::llc::{CacheClass, CacheShare, CacheTask, CatAllocation, LlcModel};
use crate::maxmin::{self, AllocScratch, FlatFlow};
use crate::prefetch::{self, PrefetchEffect, PrefetchProfile, PrefetchSetting};
use crate::topology::{DomainId, MachineSpec, SncMode, SocketId};
use kelp_simcore::fixedpoint::{solve_fixed_point_into, FixedPointConfig, FixedPointStats};
use serde::{Deserialize, Serialize};

/// Caller-assigned identifier for a solver task, echoed back in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskKey(pub usize);

/// A thread group participating in the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverTask {
    /// Caller identifier.
    pub key: TaskKey,
    /// Active thread count (may be fractional after core masking).
    pub threads: f64,
    /// Domain whose cores run the threads (determines the LLC used and the
    /// socket whose distress signal throttles it).
    pub home: DomainId,
    /// Data placement: `(domain, fraction)` pairs summing to ~1.
    pub data: Vec<(DomainId, f64)>,
    /// Compute time per work unit per thread in ns, at full speed (the host
    /// already folds in SMT and frequency effects).
    pub compute_ns_per_unit: f64,
    /// LLC accesses per work unit.
    pub accesses_per_unit: f64,
    /// Bytes transferred per memory access (cache line).
    pub bytes_per_access: f64,
    /// Memory-level parallelism: outstanding misses that overlap.
    pub mlp: f64,
    /// Working-set size in bytes.
    pub working_set_bytes: f64,
    /// Best-case LLC hit ratio.
    pub hit_max: f64,
    /// CAT class.
    pub cache_class: CacheClass,
    /// Prefetch friendliness of the access pattern.
    pub prefetch_profile: PrefetchProfile,
    /// Current prefetcher setting (the Kelp actuator).
    pub prefetch_setting: PrefetchSetting,
    /// Memory arbitration weight.
    pub weight: f64,
    /// Optional MBA-style bandwidth cap in GB/s (FineGrained extension).
    pub bw_cap_gbps: Option<f64>,
    /// True for requestors not subject to the distress core throttle
    /// (accelerator DMA engines).
    pub distress_exempt: bool,
}

impl SolverTask {
    /// A task entirely local to its home domain.
    pub fn local(key: TaskKey, home: DomainId, threads: f64) -> Self {
        SolverTask {
            key,
            threads,
            home,
            data: vec![(home, 1.0)],
            compute_ns_per_unit: 100.0,
            accesses_per_unit: 1.0,
            bytes_per_access: 64.0,
            mlp: 4.0,
            working_set_bytes: 0.0,
            hit_max: 0.0,
            cache_class: CacheClass::Shared,
            prefetch_profile: PrefetchProfile::none(),
            prefetch_setting: PrefetchSetting::all_on(),
            weight: 1.0,
            bw_cap_gbps: None,
            distress_exempt: false,
        }
    }
}

/// A constant-rate bandwidth consumer (accelerator DMA, PCIe in-feed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedFlow {
    /// The domain whose memory the flow targets.
    pub target: DomainId,
    /// Socket originating the traffic (crosses UPI if it differs from the
    /// target's socket); `None` for I/O devices attached to the target
    /// socket.
    pub source_socket: Option<SocketId>,
    /// Desired rate in GB/s.
    pub gbps: f64,
    /// Arbitration weight.
    pub weight: f64,
}

/// Solver input: the tasks and fixed flows active this step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverInput {
    /// Thread-group tasks.
    pub tasks: Vec<SolverTask>,
    /// Constant-rate flows.
    pub fixed_flows: Vec<FixedFlow>,
}

/// Per-task solver result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    /// Echo of the task key.
    pub key: TaskKey,
    /// Achieved work rate in units/s *per thread*.
    pub rate_per_thread: f64,
    /// Consumed memory bandwidth in GB/s (all threads).
    pub bw_gbps: f64,
    /// Effective average memory latency seen by the task in ns.
    pub latency_ns: f64,
    /// LLC hit ratio.
    pub llc_hit_ratio: f64,
    /// Core speed factor applied by distress backpressure.
    pub speed_factor: f64,
}

/// Cumulative cost counters for the solver hot path.
///
/// A single [`MemSystem::solve_with`] call reports its own cost (one solve,
/// its iterations/evaluations, whether it warm-started); callers that sit in
/// front of the solver — the host's memoizing `solve()`, the experiment
/// driver — accumulate these with [`SolveStats::absorb`] and fill in the
/// fields the pure solver cannot know (`memo_hits`, `rescues`,
/// `safe_states`). Every field is a count, so the stats of a run are a pure
/// function of its spec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Solve requests, whether memoized or computed.
    pub solves: u64,
    /// Fixed-point iterations across all computed solves.
    pub iterations: u64,
    /// Model evaluations: iterations plus one final full evaluation per
    /// computed solve.
    pub evaluations: u64,
    /// Solves answered verbatim from a steady-state memo, with no
    /// evaluation at all.
    pub memo_hits: u64,
    /// Computed solves whose fixed point started from a previous call's
    /// converged rates instead of the zero-load estimate.
    pub warm_hits: u64,
    /// Computed solves whose fixed point exhausted its iteration budget
    /// without meeting tolerance (non-convergence is a first-class outcome,
    /// not a silent flag on the output).
    #[serde(default)]
    pub non_converged: u64,
    /// Solves re-run through the cold high-budget rescue configuration
    /// after the primary solve diverged or went non-finite. The pure solver
    /// leaves this zero; the host's fallback ladder fills it in.
    #[serde(default)]
    pub rescues: u64,
    /// Steps answered with a deterministic safe-state report — the machine
    /// was down, or both the primary and rescue solves failed. The pure
    /// solver leaves this zero; the host fills it in.
    #[serde(default)]
    pub safe_states: u64,
}

impl SolveStats {
    /// Accumulates `other` into `self`, field by field.
    ///
    /// Saturating: a fleet-scale campaign (thousands of hosts × millions of
    /// ticks) accumulates counters through many absorb layers — per-machine,
    /// per-worker, per-fleet — and an overflow panic in bookkeeping must
    /// never take down a simulation. Counters pin at `u64::MAX` instead.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.solves = self.solves.saturating_add(other.solves);
        self.iterations = self.iterations.saturating_add(other.iterations);
        self.evaluations = self.evaluations.saturating_add(other.evaluations);
        self.memo_hits = self.memo_hits.saturating_add(other.memo_hits);
        self.warm_hits = self.warm_hits.saturating_add(other.warm_hits);
        self.non_converged = self.non_converged.saturating_add(other.non_converged);
        self.rescues = self.rescues.saturating_add(other.rescues);
        self.safe_states = self.safe_states.saturating_add(other.safe_states);
    }
}

/// Toggles for the solver-side performance machinery.
///
/// Both default on. `memo` gates the host's steady-state memoization
/// (replaying a previous [`SolverOutput`] when the input repeats — exactly
/// deterministic, since the solver is a pure function). `warm_start` gates
/// seeding the fixed point from the previous solve's converged rates; warm
/// starts change only the starting guess, so they may shift low-order bits
/// of the converged answer. Identity tests and baseline benchmarks disable
/// one or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverTuning {
    /// Replay memoized outputs for repeated inputs.
    pub memo: bool,
    /// Warm-start the fixed point from the previous converged rates.
    pub warm_start: bool,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            memo: true,
            warm_start: true,
        }
    }
}

impl SolverTuning {
    /// Everything off: every tick pays a full cold solve. The `ext_solver_hot`
    /// benchmark uses this as the pre-optimization baseline.
    pub fn baseline() -> Self {
        SolverTuning {
            memo: false,
            warm_start: false,
        }
    }
}

/// Full solver output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverOutput {
    /// Per-task results in input order.
    pub tasks: Vec<TaskResult>,
    /// Achieved rate of each fixed flow in GB/s, in input order.
    pub fixed_flow_gbps: Vec<f64>,
    /// Counter snapshot.
    pub counters: MemCounters,
    /// Whether the fixed point converged within budget.
    pub converged: bool,
    /// Final relative residual of the fixed point (infinity norm). A
    /// non-converged solve with a residual near the tolerance is a
    /// truncated-but-settling estimate; a residual orders of magnitude
    /// above it marks a genuinely diverged solve.
    #[serde(default)]
    pub residual: f64,
    /// Cost of producing this output (one solve's worth).
    pub stats: SolveStats,
}

impl SolverOutput {
    /// The result for a task key, if present.
    pub fn task(&self, key: TaskKey) -> Option<&TaskResult> {
        self.tasks.iter().find(|t| t.key == key)
    }
}

/// Per-task invariants precomputed once per solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskPre {
    /// Dense index of the task's canonical home domain.
    home_index: usize,
    /// Socket index of the canonical home.
    home_socket: usize,
    /// Range into [`SolverScratch::data_pre`] for this task's placements.
    data_start: usize,
    data_end: usize,
    /// Sum of the positive placement fractions.
    frac_sum: f64,
    /// Prefetch effect at the task's own setting (iteration-invariant; the
    /// adaptive pre-pass may override per evaluation).
    base_effect: PrefetchEffect,
}

/// One positive-fraction data placement, resolved to dense domain indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataPre {
    /// Dense index of the canonical target domain.
    di: usize,
    /// Placement fraction.
    frac: f64,
    /// Unloaded home→target path latency in ns.
    base_path: f64,
    /// Whether the path crosses UPI (home and target on different sockets).
    crosses: bool,
}

/// Where one bandwidth flow's allocation is credited.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowRef {
    task: Option<usize>,
    fixed: Option<usize>,
    target_domain: usize,
    crosses_upi: bool,
    /// Placement fraction for task flows (`demand = task total × frac`);
    /// unused for fixed flows, whose demand is constant.
    frac: f64,
}

/// Reusable workspace for [`MemSystem::solve_with`].
///
/// Holds the per-solve tables (rebuilt by every call) and the per-iteration
/// buffers (resized in place), so a caller that solves repeatedly — the host
/// runs one solve per simulated tick — amortizes all hot-path allocation
/// into the first call. Also carries the previous solve's converged rates
/// for warm starts; see [`MemSystem::set_warm_start`] for the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// System-derived tables (identical for every solve against one
    /// [`MemSystem`]).
    pub(crate) shared: DomainTables,
    /// Input-derived tables for the one lane this scratch solves.
    pub(crate) lane: LaneTables,
    /// Counting-sort cursor for membership construction.
    pub(crate) member_cursor: Vec<usize>,
    /// Per-iteration evaluation buffers.
    pub(crate) bufs: EvalBufs,
    /// Current rate vector (the fixed-point state).
    pub(crate) rates: Vec<f64>,
    /// Scratch for the fixed-point map image.
    pub(crate) fx: Vec<f64>,
    // Warm-start state.
    prev_rates: Vec<f64>,
    has_prev: bool,
}

impl SolverScratch {
    /// Forgets the previous solve's converged rates, so the next
    /// [`MemSystem::solve_with`] call starts cold even with warm starts
    /// enabled.
    pub fn reset_warm_state(&mut self) {
        self.prev_rates.clear();
        self.has_prev = false;
    }

    /// The previous solve's converged rates, if any (warm-start seed).
    pub(crate) fn warm_seed(&self) -> Option<&[f64]> {
        if self.has_prev {
            Some(&self.prev_rates)
        } else {
            None
        }
    }

    /// Records `rates` as the previous converged rates for warm starts.
    pub(crate) fn store_warm(&mut self, rates: &[f64]) {
        self.prev_rates.clear();
        self.prev_rates.extend_from_slice(rates);
        self.has_prev = true;
    }
}

/// Tables derived from the [`MemSystem`] configuration alone — identical
/// for every lane of a batch solved against one system, so the batch path
/// builds them once and shares them across lanes.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomainTables {
    pub(crate) domains: Vec<DomainId>,
    pub(crate) domain_lut: Vec<usize>,
    pub(crate) capacities: Vec<f64>,
    pub(crate) llc: Vec<LlcModel>,
    pub(crate) domain_base: Vec<f64>,
}

/// Input-derived per-solve tables, appended lane by lane with *lane-local*
/// indices: `TaskPre::data_start`, membership slots, `FlowRef::task` /
/// `FlowRef::fixed` all index within their own lane's ranges. A scalar
/// scratch holds exactly one lane; the batch arena appends many lanes back
/// to back into the same flat vectors (structure-of-arrays packing).
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneTables {
    /// Per lane: `n_domains + 1` prefix-sum entries (lane-local slots).
    pub(crate) member_start: Vec<usize>,
    /// Per lane: one lane-local task index per task, grouped by home domain.
    pub(crate) member_idx: Vec<usize>,
    pub(crate) task_pre: Vec<TaskPre>,
    pub(crate) data_pre: Vec<DataPre>,
    pub(crate) flows: Vec<FlatFlow>,
    /// Per lane: every flow's `(resource, coefficient)` pairs, addressed by
    /// the flows' lane-local ranges.
    pub(crate) usage: Vec<(usize, f64)>,
    pub(crate) flow_refs: Vec<FlowRef>,
}

impl LaneTables {
    /// Drops every lane.
    pub(crate) fn clear(&mut self) {
        self.member_start.clear();
        self.member_idx.clear();
        self.task_pre.clear();
        self.data_pre.clear();
        self.flows.clear();
        self.usage.clear();
        self.flow_refs.clear();
    }

    /// A view over the whole buffers — correct when the tables hold exactly
    /// one lane (the scalar scratch case).
    pub(crate) fn view(&mut self) -> LaneView<'_> {
        LaneView {
            task_pre: &self.task_pre,
            data_pre: &self.data_pre,
            member_start: &self.member_start,
            member_idx: &self.member_idx,
            flows: &mut self.flows,
            usage: &self.usage,
            flow_refs: &self.flow_refs,
        }
    }
}

/// Per-evaluation buffers, every one cleared or fully overwritten at the
/// start of the evaluation that reads it. Because nothing survives an
/// evaluation, one `EvalBufs` is safely shared across all lanes of a batch
/// evaluated serially.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalBufs {
    pub(crate) next_rates: Vec<f64>,
    pub(crate) task_hit: Vec<f64>,
    pub(crate) task_effects: Vec<PrefetchEffect>,
    pub(crate) task_gbps: Vec<f64>,
    pub(crate) task_traffic: Vec<f64>,
    pub(crate) task_bw: Vec<f64>,
    pub(crate) task_constrained: Vec<bool>,
    pub(crate) task_latency: Vec<f64>,
    pub(crate) domain_util: Vec<f64>,
    pub(crate) inbound_upi: Vec<f64>,
    pub(crate) domain_latency: Vec<f64>,
    pub(crate) cache_tasks: Vec<CacheTask>,
    pub(crate) cache_shares: Vec<CacheShare>,
    pub(crate) alloc_rates: Vec<f64>,
    pub(crate) alloc_used: Vec<f64>,
    pub(crate) alloc_scratch: AllocScratch,
    pub(crate) pre_rates: Vec<f64>,
    pub(crate) pre_used: Vec<f64>,
    pub(crate) pre_scratch: AllocScratch,
    pub(crate) domain_duty: Vec<f64>,
    pub(crate) sockets: Vec<SocketTerms>,
}

/// One socket's terms in the final evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SocketTerms {
    /// Worst distress duty over the socket's domains.
    duty: f64,
    /// Core slowdown from inbound cross-socket traffic.
    snoop: f64,
    /// Core speed factor: the duty's throttle times `snoop`.
    speed: f64,
}

/// Borrowed view of one lane's tables during evaluation: subslices of a
/// scalar scratch (the whole buffers) or of a batch arena (one lane's
/// ranges). All indices inside are lane-local, so the evaluation code is
/// byte-for-byte the same arithmetic either way.
pub(crate) struct LaneView<'a> {
    pub(crate) task_pre: &'a [TaskPre],
    pub(crate) data_pre: &'a [DataPre],
    pub(crate) member_start: &'a [usize],
    pub(crate) member_idx: &'a [usize],
    pub(crate) flows: &'a mut [FlatFlow],
    pub(crate) usage: &'a [(usize, f64)],
    pub(crate) flow_refs: &'a [FlowRef],
}

/// The configured memory system.
///
/// # Example
///
/// ```
/// use kelp_mem::solver::{MemSystem, SolverInput, SolverTask, TaskKey};
/// use kelp_mem::topology::{DomainId, MachineSpec, SncMode};
///
/// let sys = MemSystem::new(MachineSpec::dual_socket(), SncMode::Disabled);
/// let mut task = SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0);
/// task.accesses_per_unit = 2.0;
/// let out = sys.solve(&SolverInput { tasks: vec![task], fixed_flows: vec![] });
/// assert!(out.converged);
/// assert!(out.tasks[0].rate_per_thread > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemSystem {
    machine: MachineSpec,
    snc: SncMode,
    latency_curve: LatencyCurve,
    distress: DistressModel,
    distress_scope: DistressScope,
    adaptive_prefetch: Option<AdaptivePrefetch>,
    cat: CatAllocation,
    fp_config: FixedPointConfig,
    /// Per-socket retained fraction of peak channel bandwidth (DIMM thermal
    /// throttling / fault injection). 1.0 everywhere when healthy.
    channel_derate: Vec<f64>,
    /// Machine-wide retained fraction of peak memory bandwidth (brownout:
    /// failing PSU rail, thermal capping). Compounds multiplicatively with
    /// the per-socket channel derates. 1.0 when healthy.
    machine_derate: f64,
    /// Active solver-stress severity in `(0, 1]`, shrinking the fixed-point
    /// iteration budget (see [`MemSystem::set_solver_stress`]). `None` when
    /// the solver environment is healthy.
    solver_stress: Option<f64>,
    /// Warm-start the fixed point from a reused scratch's previous rates.
    warm_start: bool,
}

/// Hardware QoS-aware prefetch throttling (paper §VI-B).
///
/// A feedback-directed prefetcher (Srinath et al.) scales its aggressiveness
/// with the local controller's utilization: full coverage below
/// `start_util`, ramping linearly down to `min_fraction` at saturation.
/// With this enabled the hardware does by itself what Kelp does by toggling
/// prefetchers in software — the `ext_qos_prefetch` harness compares the
/// two.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePrefetch {
    /// Utilization below which prefetchers run at full aggressiveness.
    pub start_util: f64,
    /// Fraction of aggressiveness retained at full saturation.
    pub min_fraction: f64,
}

impl Default for AdaptivePrefetch {
    fn default() -> Self {
        AdaptivePrefetch {
            start_util: 0.70,
            min_fraction: 0.10,
        }
    }
}

impl AdaptivePrefetch {
    /// Hardware aggressiveness factor at controller utilization `rho`.
    pub fn factor(&self, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 1.0);
        if rho <= self.start_util {
            return 1.0;
        }
        let span = (1.0 - self.start_util).max(1e-9);
        let t = (rho - self.start_util) / span;
        1.0 - t * (1.0 - self.min_fraction.clamp(0.0, 1.0))
    }
}

impl MemSystem {
    /// Creates a memory system with default latency/distress models and CAT
    /// disabled.
    pub fn new(machine: MachineSpec, snc: SncMode) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract; an invalid spec is a caller bug"
        )]
        machine.validate().expect("invalid machine spec");
        let ways = machine.sockets[0].llc_ways;
        MemSystem {
            machine,
            snc,
            latency_curve: LatencyCurve::default(),
            distress: DistressModel::default(),
            distress_scope: DistressScope::default(),
            adaptive_prefetch: None,
            cat: CatAllocation::disabled(ways),
            fp_config: FixedPointConfig {
                max_iters: 80,
                tolerance: 5e-4,
                damping: 0.45,
            },
            channel_derate: Vec::new(),
            machine_derate: 1.0,
            solver_stress: None,
            warm_start: true,
        }
    }

    /// The machine spec.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The SNC mode.
    pub fn snc(&self) -> SncMode {
        self.snc
    }

    /// Enables or disables SNC.
    pub fn set_snc(&mut self, snc: SncMode) {
        self.snc = snc;
    }

    /// Sets the CAT allocation (applies to every cache domain).
    pub fn set_cat(&mut self, cat: CatAllocation) {
        self.cat = cat;
    }

    /// The current CAT allocation.
    pub fn cat(&self) -> CatAllocation {
        self.cat
    }

    /// Replaces the latency curve (calibration hook).
    pub fn set_latency_curve(&mut self, curve: LatencyCurve) {
        self.latency_curve = curve;
    }

    /// Replaces the distress model (calibration hook).
    pub fn set_distress(&mut self, model: DistressModel) {
        self.distress = model;
    }

    /// The distress model in use.
    pub fn distress(&self) -> DistressModel {
        self.distress
    }

    /// Selects who receives distress backpressure (default: the whole
    /// socket, as on shipping hardware; `PerDomain` models the §VI-C
    /// proposal).
    pub fn set_distress_scope(&mut self, scope: DistressScope) {
        self.distress_scope = scope;
    }

    /// The distress delivery scope.
    pub fn distress_scope(&self) -> DistressScope {
        self.distress_scope
    }

    /// Enables or disables hardware QoS-aware prefetch throttling (§VI-B).
    pub fn set_adaptive_prefetch(&mut self, model: Option<AdaptivePrefetch>) {
        self.adaptive_prefetch = model;
    }

    /// The adaptive-prefetch model, if enabled.
    pub fn adaptive_prefetch(&self) -> Option<AdaptivePrefetch> {
        self.adaptive_prefetch
    }

    /// Sets the retained fraction of `socket`'s peak channel bandwidth
    /// (clamped to `[0, 1]`; 1.0 restores full speed). Models transient
    /// channel-bandwidth loss such as DIMM thermal throttling.
    pub fn set_channel_derate(&mut self, socket: SocketId, retained: f64) {
        let n = self.machine.socket_count();
        if socket.0 >= n {
            return;
        }
        if self.channel_derate.len() < n {
            self.channel_derate.resize(n, 1.0);
        }
        self.channel_derate[socket.0] = retained.clamp(0.0, 1.0);
    }

    /// The retained channel-bandwidth fraction for `socket`.
    pub fn channel_derate(&self, socket: SocketId) -> f64 {
        self.channel_derate.get(socket.0).copied().unwrap_or(1.0)
    }

    /// Sets the machine-wide retained fraction of peak memory bandwidth
    /// (clamped to `[0, 1]`; 1.0 restores full speed). Models whole-machine
    /// brownouts; compounds multiplicatively with per-socket channel
    /// derates.
    pub fn set_machine_derate(&mut self, retained: f64) {
        self.machine_derate = retained.clamp(0.0, 1.0);
    }

    /// The machine-wide retained bandwidth fraction.
    pub fn machine_derate(&self) -> f64 {
        self.machine_derate
    }

    /// Applies (or clears, with `None`) a solver-stress severity in
    /// `(0, 1]`: the fixed-point iteration budget shrinks to a
    /// `1 - severity` fraction of the configured maximum (at least one
    /// iteration) and the damping escalates toward 1.0 (undamped), which
    /// makes contended fixed points oscillate instead of settling —
    /// deterministically forcing diverged solves at high severity so
    /// callers' rescue/safe-state ladders get exercised. The rescue
    /// configuration keeps its own budget and heavy damping below
    /// [`RESCUE_DEFEAT_SEVERITY`] and is starved like the primary at or
    /// above it.
    pub fn set_solver_stress(&mut self, severity: Option<f64>) {
        self.solver_stress = severity.map(|s| s.clamp(0.0, 1.0)).filter(|&s| s > 0.0);
    }

    /// The active solver-stress severity, if any.
    pub fn solver_stress(&self) -> Option<f64> {
        self.solver_stress
    }

    /// Enables or disables warm-starting [`MemSystem::solve_with`] from a
    /// reused scratch's previous converged rates (default on).
    ///
    /// Warm starts change only the fixed point's starting guess — the map
    /// and tolerance are untouched — so the iteration converges to the same
    /// answer up to the tolerance, but possibly with different low-order
    /// bits and fewer iterations. Bit-identity tests against the fresh-solve
    /// path therefore disable warm starts; with them disabled, a reused
    /// scratch is bit-for-bit equivalent to a fresh one.
    pub fn set_warm_start(&mut self, on: bool) {
        self.warm_start = on;
    }

    /// Whether warm starts are enabled.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// All allocation domains under the current SNC mode.
    pub fn domains(&self) -> Vec<DomainId> {
        self.machine.domains(self.snc)
    }

    /// Resolves a requested domain to a valid one under the current SNC
    /// mode.
    ///
    /// This is a *total* function: the socket index is clamped into the
    /// machine's socket range and the sub index into the mode's enumerated
    /// set (0 when SNC is off, {0, 1} otherwise), so every `DomainId` —
    /// including out-of-range ids from a misconfigured caller — maps to an
    /// enumerated domain instead of panicking deep inside a run.
    pub fn canonical_domain(&self, d: DomainId) -> DomainId {
        let socket = SocketId(
            d.socket
                .0
                .min(self.machine.socket_count().saturating_sub(1)),
        );
        match self.snc {
            SncMode::Disabled => DomainId { socket, sub: 0 },
            SncMode::Enabled | SncMode::ChannelPartition => DomainId {
                socket,
                sub: d.sub.min(1),
            },
        }
    }

    /// The fixed-point configuration this system solves under (shared with
    /// the batch path so both drive identical iteration arithmetic), with
    /// any active solver stress applied to the iteration budget.
    pub(crate) fn fp_config(&self) -> FixedPointConfig {
        let mut config = self.fp_config;
        if let Some(s) = self.solver_stress {
            config.max_iters = stressed_budget(config.max_iters, Some(s));
            // Stress also pushes the damping toward 1.0 (undamped): on a
            // contended system the undamped iteration oscillates instead of
            // settling, which is exactly the pathological solver behaviour
            // the fault models. The rescue configuration keeps its own
            // heavy damping, so the fault is recoverable below
            // [`RESCUE_DEFEAT_SEVERITY`].
            config.damping = (config.damping + (1.0 - config.damping) * s).min(1.0);
        }
        config
    }

    /// The high-budget, heavily-damped configuration the rescue ladder
    /// re-solves under after a primary solve diverges: 4× the configured
    /// iteration budget at damping 0.25, same tolerance. Stress below
    /// [`RESCUE_DEFEAT_SEVERITY`] leaves the rescue budget intact (the
    /// retry usually recovers); at or above it the environment is treated
    /// as fully wedged and the rescue runs under the same starved budget as
    /// the primary, forcing safe-state entry.
    pub(crate) fn rescue_config(&self) -> FixedPointConfig {
        let base = self.fp_config;
        let max_iters = match self.solver_stress {
            Some(s) if s >= RESCUE_DEFEAT_SEVERITY => stressed_budget(base.max_iters, Some(s)),
            _ => base.max_iters.saturating_mul(4),
        };
        FixedPointConfig {
            max_iters,
            tolerance: base.tolerance,
            damping: 0.25,
        }
    }

    /// Re-solves `input` cold under [`MemSystem::rescue_config`]: a fresh
    /// scratch (no warm seed) and a private rate buffer, so the rescue is a
    /// pure function of `(system, input)` — identical no matter which path
    /// (scalar or batched) triggered it.
    pub fn solve_rescue(&self, input: &SolverInput) -> SolverOutput {
        self.solve_with_config(input, &mut SolverScratch::default(), self.rescue_config())
    }

    /// Whether warm starts are enabled (see [`MemSystem::set_warm_start`]).
    pub(crate) fn warm_start_enabled(&self) -> bool {
        self.warm_start
    }

    /// Solves the memory system for one step with a private scratch.
    ///
    /// Equivalent to [`MemSystem::solve_with`] on a fresh [`SolverScratch`]
    /// (so never warm-started); callers on the hot path should hold a
    /// scratch across calls and use `solve_with` directly.
    pub fn solve(&self, input: &SolverInput) -> SolverOutput {
        self.solve_with(input, &mut SolverScratch::default())
    }

    /// Solves the memory system for one step, reusing `scratch` for every
    /// intermediate table and buffer.
    ///
    /// The first call on a scratch allocates its buffers; subsequent calls
    /// reuse them, leaving the fixed-point loop allocation-free. Results
    /// are bit-identical to [`MemSystem::solve`] unless warm starts are
    /// enabled (the default) *and* the scratch carries converged rates from
    /// a previous call — see [`MemSystem::set_warm_start`].
    pub fn solve_with(&self, input: &SolverInput, scratch: &mut SolverScratch) -> SolverOutput {
        self.solve_with_config(input, scratch, self.fp_config())
    }

    /// [`MemSystem::solve_with`] under an explicit fixed-point
    /// configuration (the rescue ladder's entry point).
    fn solve_with_config(
        &self,
        input: &SolverInput,
        scratch: &mut SolverScratch,
        config: FixedPointConfig,
    ) -> SolverOutput {
        self.prepare(input, scratch);

        // Warm start: replace the zero-load initial guess with the previous
        // call's converged rates when the task-vector shape matches. Only
        // the starting point moves; the map and tolerance are untouched.
        let n_tasks = input.tasks.len();
        let warm = self.warm_start
            && scratch.has_prev
            && scratch.prev_rates.len() == n_tasks
            && n_tasks > 0;
        if warm {
            scratch.rates.clear();
            scratch.rates.extend_from_slice(&scratch.prev_rates);
        }

        let mut rates = std::mem::take(&mut scratch.rates);
        let mut fx = std::mem::take(&mut scratch.fx);
        let output = {
            let SolverScratch {
                shared, lane, bufs, ..
            } = &mut *scratch;
            let fp = solve_fixed_point_into(
                &mut rates,
                &mut fx,
                |x, out| {
                    self.eval_lean_view(x, input, shared, &mut lane.view(), bufs);
                    out.extend_from_slice(&bufs.next_rates);
                },
                config,
            );

            // One final full evaluation at the converged rates.
            self.eval_full_view(
                &rates,
                input,
                shared,
                &mut lane.view(),
                bufs,
                SolveOutcome { fp, warm },
            )
        };

        scratch.store_warm(&rates);
        scratch.rates = rates;
        scratch.fx = fx;
        output
    }

    /// Rebuilds the per-solve tables in `s` — the system-derived
    /// [`DomainTables`] plus one freshly-appended lane — validating the
    /// input and seeding `s.rates` with the zero-load initial guess.
    fn prepare(&self, input: &SolverInput, s: &mut SolverScratch) {
        self.build_domain_tables(&mut s.shared);
        s.lane.clear();
        s.rates.clear();
        self.append_lane(
            input,
            &s.shared,
            &mut s.lane,
            &mut s.member_cursor,
            &mut s.rates,
        );
    }

    /// Rebuilds the tables that depend only on this system's configuration:
    /// domains, the dense domain-index table, capacities, LLC models and
    /// base latencies. The dense canonical-domain table's rows are sockets,
    /// columns the raw sub index clamped to {0, 1}; entries index into
    /// `domains` (replacing a per-lookup linear position() scan).
    pub(crate) fn build_domain_tables(&self, t: &mut DomainTables) {
        let subs = self.snc.domains_per_socket();
        let per = usize::from(subs);
        let n_sockets = self.machine.socket_count();
        t.domains.clear();
        for socket in 0..n_sockets {
            for sub in 0..subs {
                t.domains.push(DomainId::new(socket, sub));
            }
        }

        t.domain_lut.clear();
        for socket in 0..n_sockets {
            for sub in 0..2u8 {
                let c = self.canonical_domain(DomainId {
                    socket: SocketId(socket),
                    sub,
                });
                t.domain_lut.push(c.socket.0 * per + c.sub as usize);
            }
        }

        t.capacities.clear();
        for &d in &t.domains {
            t.capacities.push(
                self.machine.domain_peak_gbps(d, self.snc)
                    * self.channel_derate(d.socket)
                    * self.machine_derate,
            );
        }
        let n_pairs = n_sockets * (n_sockets.saturating_sub(1)) / 2;
        for _ in 0..n_pairs {
            t.capacities.push(self.machine.upi_gbps);
        }

        t.llc.clear();
        t.domain_base.clear();
        for &d in &t.domains {
            t.llc.push(LlcModel::new(
                self.machine.domain_llc_mib(d, self.snc),
                self.cat,
            ));
            t.domain_base
                .push(self.machine.base_latency_ns(d, d, self.snc));
        }
    }

    /// Validates `input` and appends one lane's tables — per-task
    /// invariants, flattened data placements, per-domain membership, the
    /// flow template — to `lane`, pushing the lane's zero-load initial
    /// rates onto `rates`. Every stored index is lane-local, so the scalar
    /// scratch (which clears first) and the batch arena (which appends lane
    /// after lane) produce identical per-lane table contents.
    pub(crate) fn append_lane(
        &self,
        input: &SolverInput,
        shared: &DomainTables,
        lane: &mut LaneTables,
        cursor: &mut Vec<usize>,
        rates: &mut Vec<f64>,
    ) {
        let n_sockets = self.machine.socket_count();
        let n_domains = shared.domains.len();
        let tasks = &input.tasks;
        for t in tasks {
            assert!(t.threads >= 0.0, "negative thread count");
            assert!(t.mlp > 0.0, "mlp must be positive");
            assert!(t.compute_ns_per_unit >= 0.0, "negative compute time");
        }

        let task_base = lane.task_pre.len();
        let data_base = lane.data_pre.len();
        let member_base = lane.member_start.len();
        let idx_base = lane.member_idx.len();
        let usage_base = lane.usage.len();

        // Per-task invariants, flattened data placements, initial rates.
        for t in tasks {
            let home = self.canonical_domain(t.home);
            let home_index = lut_index(&shared.domain_lut, n_sockets, home);
            let data_start = lane.data_pre.len() - data_base;
            let mut frac_sum = 0.0;
            for &(data_domain, frac) in &t.data {
                if frac <= 0.0 {
                    continue;
                }
                let dd = self.canonical_domain(data_domain);
                lane.data_pre.push(DataPre {
                    di: lut_index(&shared.domain_lut, n_sockets, dd),
                    frac,
                    base_path: self.machine.base_latency_ns(home, dd, self.snc),
                    crosses: dd.socket != home.socket,
                });
                frac_sum += frac;
            }
            // Zero-load latency estimate as the cold initial rate.
            let base = shared.domain_base[home_index];
            let stall = t.accesses_per_unit * (1.0 - t.hit_max.clamp(0.0, 1.0)) * base / t.mlp;
            rates.push(1e9 / (t.compute_ns_per_unit + stall).max(1e-3));
            lane.task_pre.push(TaskPre {
                home_index,
                home_socket: home.socket.0,
                data_start,
                data_end: lane.data_pre.len() - data_base,
                frac_sum,
                base_effect: prefetch::effect(t.prefetch_profile, t.prefetch_setting),
            });
        }

        // Per-domain membership lists (tasks grouped by home domain, in
        // input order within each group), as lane-local ranges into this
        // lane's member_idx segment.
        lane.member_start.resize(member_base + n_domains + 1, 0);
        for p in &lane.task_pre[task_base..] {
            lane.member_start[member_base + p.home_index + 1] += 1;
        }
        for di in 0..n_domains {
            lane.member_start[member_base + di + 1] += lane.member_start[member_base + di];
        }
        cursor.clear();
        cursor.extend_from_slice(&lane.member_start[member_base..member_base + n_domains]);
        lane.member_idx.resize(idx_base + tasks.len(), 0);
        for i in 0..tasks.len() {
            let home_index = lane.task_pre[task_base + i].home_index;
            let slot = cursor[home_index];
            lane.member_idx[idx_base + slot] = i;
            cursor[home_index] += 1;
        }

        // Flow template: one flow per (task, placement entry), then fixed
        // flows. Task-flow demands are rewritten every evaluation; weights,
        // usage and fixed-flow demands never change within a solve.
        for (i, t) in tasks.iter().enumerate() {
            let p = lane.task_pre[task_base + i];
            for k in p.data_start..p.data_end {
                let e = lane.data_pre[data_base + k];
                let start = lane.usage.len() - usage_base;
                lane.usage.push((
                    e.di,
                    if e.crosses {
                        1.0 + self.machine.remote_snoop_overhead
                    } else {
                        1.0
                    },
                ));
                if e.crosses {
                    lane.usage.push((
                        n_domains
                            + upi_pair(p.home_socket, shared.domains[e.di].socket.0, n_sockets),
                        1.0,
                    ));
                }
                lane.flows.push(FlatFlow {
                    demand: 0.0,
                    weight: t.weight.max(1e-6) * e.frac.max(1e-6),
                    start,
                    end: lane.usage.len() - usage_base,
                });
                lane.flow_refs.push(FlowRef {
                    task: Some(i),
                    fixed: None,
                    target_domain: e.di,
                    crosses_upi: e.crosses,
                    frac: e.frac,
                });
            }
        }
        for (j, f) in input.fixed_flows.iter().enumerate() {
            let dd = self.canonical_domain(f.target);
            let di = lut_index(&shared.domain_lut, n_sockets, dd);
            // A fixed flow crosses UPI only when it names a source socket
            // different from its target's socket.
            let cross_src = f.source_socket.filter(|&src| src != dd.socket);
            let crosses = cross_src.is_some();
            let start = lane.usage.len() - usage_base;
            lane.usage.push((
                di,
                if crosses {
                    1.0 + self.machine.remote_snoop_overhead
                } else {
                    1.0
                },
            ));
            if let Some(src) = cross_src {
                lane.usage
                    .push((n_domains + upi_pair(src.0, dd.socket.0, n_sockets), 1.0));
            }
            lane.flows.push(FlatFlow {
                demand: f.gbps.max(0.0),
                weight: f.weight.max(1e-6),
                start,
                end: lane.usage.len() - usage_base,
            });
            lane.flow_refs.push(FlowRef {
                task: None,
                fixed: Some(j),
                target_domain: di,
                crosses_upi: crosses,
                frac: 0.0,
            });
        }
    }

    /// Writes miss traffic per unit and per-flow demands at `rates` into the
    /// lane's flow template.
    fn fill_demands_view(
        &self,
        rates: &[f64],
        tasks: &[SolverTask],
        lane: &mut LaneView<'_>,
        bufs: &mut EvalBufs,
    ) {
        bufs.task_traffic.clear();
        bufs.task_gbps.clear();
        for (i, t) in tasks.iter().enumerate() {
            let pf = bufs.task_effects[i];
            let miss_per_unit = t.accesses_per_unit * (1.0 - bufs.task_hit[i]);
            let traffic_bytes = miss_per_unit * t.bytes_per_access * pf.traffic_multiplier;
            bufs.task_traffic.push(traffic_bytes);
            let total_gbps_raw = t.threads * rates[i].max(0.0) * traffic_bytes / 1e9;
            bufs.task_gbps.push(match t.bw_cap_gbps {
                Some(cap) => total_gbps_raw.min(cap.max(0.0)),
                None => total_gbps_raw,
            });
        }
        for (flow, fr) in lane.flows.iter_mut().zip(lane.flow_refs.iter()) {
            if let Some(i) = fr.task {
                flow.demand = bufs.task_gbps[i] * fr.frac;
            }
        }
    }

    /// The lean per-iteration evaluation: recomputes hit ratios, flow
    /// demands, the max-min allocation and latencies at `rates`, leaving
    /// `bufs.next_rates` as the fixed-point image. Everything lives in
    /// reused buffers, so a warmed-up solve iterates without allocating.
    /// The arithmetic is order-identical to the pre-split `evaluate`, so
    /// iterates are bit-for-bit unchanged — and because `lane` is a borrowed
    /// view with lane-local indices, the scalar path (whole scratch) and the
    /// batch path (one arena lane) run the exact same code.
    pub(crate) fn eval_lean_view(
        &self,
        rates: &[f64],
        input: &SolverInput,
        shared: &DomainTables,
        lane: &mut LaneView<'_>,
        bufs: &mut EvalBufs,
    ) {
        let tasks = &input.tasks;
        let n_tasks = tasks.len();
        let n_domains = shared.domains.len();
        let n_sockets = self.machine.socket_count();

        // --- LLC occupancy & hit ratios, per cache domain -----------------
        bufs.task_hit.clear();
        bufs.task_hit.resize(n_tasks, 0.0);
        for di in 0..n_domains {
            let (lo, hi) = (lane.member_start[di], lane.member_start[di + 1]);
            if lo == hi {
                continue;
            }
            bufs.cache_tasks.clear();
            for k in lo..hi {
                let i = lane.member_idx[k];
                let t = &tasks[i];
                bufs.cache_tasks.push(CacheTask {
                    working_set: t.working_set_bytes,
                    access_rate: t.threads * t.accesses_per_unit * rates[i].max(0.0),
                    hit_max: t.hit_max,
                    class: t.cache_class,
                });
            }
            shared.llc[di].shares_into(&bufs.cache_tasks, &mut bufs.cache_shares);
            for k in lo..hi {
                bufs.task_hit[lane.member_idx[k]] = bufs.cache_shares[k - lo].hit_ratio;
            }
        }

        // --- Flow demands (prefetch effects, miss traffic) ----------------
        bufs.task_effects.clear();
        for p in lane.task_pre {
            bufs.task_effects.push(p.base_effect);
        }
        self.fill_demands_view(rates, tasks, lane, bufs);

        // §VI-B hardware QoS-aware prefetching: a pre-pass measures each
        // controller's pressure at full aggressiveness, then the hardware
        // scales every task's prefetchers by its home controller's factor
        // and the demands are rewritten.
        if let Some(ap) = self.adaptive_prefetch {
            maxmin::allocate_into(
                lane.flows,
                lane.usage,
                &shared.capacities,
                &mut bufs.pre_rates,
                &mut bufs.pre_used,
                &mut bufs.pre_scratch,
            );
            for (i, t) in tasks.iter().enumerate() {
                let di = lane.task_pre[i].home_index;
                let factor = ap.factor(util_of(bufs.pre_used[di], shared.capacities[di]));
                if factor < 1.0 {
                    let scaled =
                        PrefetchSetting::fraction(t.prefetch_setting.enabled_fraction * factor);
                    bufs.task_effects[i] = prefetch::effect(t.prefetch_profile, scaled);
                }
            }
            self.fill_demands_view(rates, tasks, lane, bufs);
        }

        maxmin::allocate_into(
            lane.flows,
            lane.usage,
            &shared.capacities,
            &mut bufs.alloc_rates,
            &mut bufs.alloc_used,
            &mut bufs.alloc_scratch,
        );

        // --- Utilization, inbound UPI, loaded latency ---------------------
        bufs.domain_util.clear();
        for di in 0..n_domains {
            bufs.domain_util
                .push(util_of(bufs.alloc_used[di], shared.capacities[di]));
        }
        bufs.inbound_upi.clear();
        bufs.inbound_upi.resize(n_sockets, 0.0);
        for (fr, &rate) in lane.flow_refs.iter().zip(&bufs.alloc_rates) {
            if fr.crosses_upi {
                bufs.inbound_upi[shared.domains[fr.target_domain].socket.0] += rate;
            }
        }
        bufs.domain_latency.clear();
        for di in 0..n_domains {
            let d = shared.domains[di];
            bufs.domain_latency.push(
                self.latency_curve
                    .loaded_ns(shared.domain_base[di], bufs.domain_util[di])
                    + self.machine.coherence_tax_ns_per_gbps * bufs.inbound_upi[d.socket.0],
            );
        }

        // --- Per-task bandwidth, constraint flags, effective latency ------
        bufs.task_bw.clear();
        bufs.task_bw.resize(n_tasks, 0.0);
        bufs.task_constrained.clear();
        bufs.task_constrained.resize(n_tasks, false);
        for ((fr, flow), &rate) in lane
            .flow_refs
            .iter()
            .zip(lane.flows.iter())
            .zip(&bufs.alloc_rates)
        {
            if let Some(i) = fr.task {
                bufs.task_bw[i] += rate;
                if rate < flow.demand - 1e-9 {
                    bufs.task_constrained[i] = true;
                }
            }
        }
        bufs.task_latency.clear();
        for p in lane.task_pre {
            let mut lat = 0.0;
            for e in &lane.data_pre[p.data_start..p.data_end] {
                // Path latency: unloaded path base scaled by target-domain
                // queueing, plus the victim-socket coherence tax (already in
                // the loaded domain latency).
                let queueing = bufs.domain_latency[e.di] - shared.domain_base[e.di];
                lat += e.frac * (e.base_path + queueing.max(0.0));
            }
            bufs.task_latency.push(if p.frac_sum > 0.0 {
                lat / p.frac_sum
            } else {
                0.0
            });
        }

        // --- Next rates (the fixed-point image) ---------------------------
        bufs.next_rates.clear();
        for (i, t) in tasks.iter().enumerate() {
            let pf = bufs.task_effects[i];
            let miss_per_unit = t.accesses_per_unit * (1.0 - bufs.task_hit[i]);
            let stall_misses = miss_per_unit * (1.0 - pf.coverage);
            let stall = stall_misses * bufs.task_latency[i] / (t.mlp * pf.mlp_multiplier);
            // The fixed point iterates on *demand* rates, which exclude the
            // distress core throttle: a throttled core's prefetchers keep the
            // memory pipeline full, so bandwidth demand does not relax when
            // the distress signal slows instruction issue. (Iterating on
            // throttled rates would oscillate: throttle -> demand drops ->
            // saturation clears -> throttle lifts -> saturation returns.)
            let rate_demand = 1e9 / (t.compute_ns_per_unit + stall).max(1e-3);
            bufs.next_rates.push(if t.threads > 0.0 {
                cap_rate(
                    rate_demand,
                    bufs.task_constrained[i],
                    bufs.task_bw[i],
                    bufs.task_traffic[i],
                    t,
                )
            } else {
                0.0
            });
        }
    }

    /// The full final-path evaluation at the converged `rates`: runs the
    /// lean pass, then builds the per-task results, fixed-flow rates and
    /// the counter snapshot exactly once per solve.
    pub(crate) fn eval_full_view(
        &self,
        rates: &[f64],
        input: &SolverInput,
        shared: &DomainTables,
        lane: &mut LaneView<'_>,
        bufs: &mut EvalBufs,
        outcome: SolveOutcome,
    ) -> SolverOutput {
        let SolveOutcome { fp, warm } = outcome;
        self.eval_lean_view(rates, input, shared, lane, bufs);
        let tasks = &input.tasks;
        let n_domains = shared.domains.len();
        let n_sockets = self.machine.socket_count();

        // Distress duty per domain, and duty & core speed per socket.
        {
            let EvalBufs {
                domain_util,
                inbound_upi,
                domain_duty,
                sockets,
                ..
            } = &mut *bufs;
            domain_duty.clear();
            domain_duty.extend(domain_util.iter().map(|&u| self.distress.duty_cycle(u)));
            sockets.clear();
            sockets.resize(n_sockets, SocketTerms::default());
            for (&d, &duty) in shared.domains.iter().zip(domain_duty.iter()) {
                if duty > sockets[d.socket.0].duty {
                    sockets[d.socket.0].duty = duty;
                }
            }
            for (socket, &inb) in sockets.iter_mut().zip(inbound_upi.iter()) {
                // Coherence/snoop stalls from inbound cross-socket traffic.
                socket.snoop =
                    1.0 / (1.0 + self.machine.remote_inbound_core_penalty_per_gbps * inb.max(0.0));
                socket.speed = self.distress.core_speed_factor(socket.duty) * socket.snoop;
            }
        }
        let sockets = &bufs.sockets;

        let mut fixed_flow_gbps = vec![0.0f64; input.fixed_flows.len()];
        for (fr, &rate) in lane.flow_refs.iter().zip(&bufs.alloc_rates) {
            if let Some(j) = fr.fixed {
                fixed_flow_gbps[j] += rate;
            }
        }

        let mut per_task = Vec::with_capacity(tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            let p = lane.task_pre[i];
            let pf = bufs.task_effects[i];
            let speed = if t.distress_exempt {
                1.0
            } else {
                let duty = match self.distress_scope {
                    // Real hardware: the worst controller on the socket
                    // throttles everyone.
                    DistressScope::GlobalSocket => sockets[p.home_socket].duty,
                    // §VI-C proposal: only the saturating domain's cores pay.
                    DistressScope::PerDomain => bufs.domain_duty[p.home_index],
                };
                self.distress.core_speed_factor(duty) * sockets[p.home_socket].snoop
            };
            let miss_per_unit = t.accesses_per_unit * (1.0 - bufs.task_hit[i]);
            let stall_misses = miss_per_unit * (1.0 - pf.coverage);
            let stall = stall_misses * bufs.task_latency[i] / (t.mlp * pf.mlp_multiplier);
            // Progress (achieved work) pays the distress throttle the demand
            // iterate deliberately excludes.
            let rate_progress = 1e9 / (t.compute_ns_per_unit / speed.max(1e-3) + stall).max(1e-3);
            let progress = if t.threads > 0.0 {
                cap_rate(
                    rate_progress,
                    bufs.task_constrained[i],
                    bufs.task_bw[i],
                    bufs.task_traffic[i],
                    t,
                )
            } else {
                0.0
            };
            per_task.push(TaskResult {
                key: t.key,
                rate_per_thread: progress,
                bw_gbps: bufs.task_bw[i],
                latency_ns: bufs.task_latency[i],
                llc_hit_ratio: bufs.task_hit[i],
                speed_factor: speed,
            });
        }

        // --- Counters -----------------------------------------------------
        let mut domain_counters = Vec::with_capacity(n_domains);
        for (di, &d) in shared.domains.iter().enumerate() {
            domain_counters.push(DomainCounters {
                domain: d,
                bw_gbps: bufs.alloc_used[di].min(shared.capacities[di]),
                utilization: bufs.domain_util[di],
                latency_ns: bufs.domain_latency[di],
                distress_duty: bufs.domain_duty[di],
            });
        }
        let mut socket_counters = Vec::with_capacity(n_sockets);
        for (sck, terms) in sockets.iter().enumerate() {
            let (mut bw, mut lat_weighted) = (0.0, 0.0);
            for (di, &d) in shared.domains.iter().enumerate() {
                if d.socket.0 == sck {
                    bw += bufs.alloc_used[di].min(shared.capacities[di]);
                    lat_weighted += bufs.alloc_used[di] * bufs.domain_latency[di];
                }
            }
            let avg_latency = if bw > 0.0 {
                lat_weighted / bw
            } else {
                // Unloaded: report the base latency.
                self.machine.sockets[sck].base_latency_ns
            };
            socket_counters.push(SocketCounters {
                socket: SocketId(sck),
                bw_gbps: bw,
                avg_latency_ns: avg_latency,
                distress_duty: terms.duty,
                core_speed_factor: terms.speed,
            });
        }
        let upi_bw: f64 = bufs.alloc_used[n_domains..].iter().sum();
        let upi_util = if self.machine.upi_gbps > 0.0 && shared.capacities.len() > n_domains {
            (bufs.alloc_used[n_domains..]
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
                / self.machine.upi_gbps)
                .min(1.0)
        } else {
            0.0
        };

        SolverOutput {
            tasks: per_task,
            fixed_flow_gbps,
            counters: MemCounters {
                domains: domain_counters,
                sockets: socket_counters,
                upi_gbps: upi_bw,
                upi_utilization: upi_util,
            },
            converged: fp.converged,
            residual: fp.residual,
            stats: SolveStats {
                solves: 1,
                iterations: fp.iterations as u64,
                evaluations: fp.iterations as u64 + 1,
                memo_hits: 0,
                warm_hits: u64::from(warm),
                non_converged: u64::from(!fp.converged),
                rescues: 0,
                safe_states: 0,
            },
        }
    }
}

/// Per-solve fixed-point outcome threaded into the final full evaluation
/// (bundled so the evaluation entry point stays within the workspace's
/// argument-count lint).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveOutcome {
    /// The fixed-point driver's iteration/convergence record for this lane.
    pub(crate) fp: FixedPointStats,
    /// Whether the solve started from a warm seed.
    pub(crate) warm: bool,
}

/// Solver-stress severity at or above which the rescue ladder's retry
/// budget is starved like the primary's: the environment is fully wedged
/// and safe-state entry is the only remaining fallback.
pub const RESCUE_DEFEAT_SEVERITY: f64 = 0.995;

/// Fixed-point iteration budget after applying solver stress: a
/// `1 - severity` fraction of `base`, never below one iteration.
fn stressed_budget(base: usize, stress: Option<f64>) -> usize {
    match stress {
        Some(s) => (((base as f64) * (1.0 - s)).round() as usize).max(1),
        None => base,
    }
}

/// Dense domain index of `d` via the table built in `prepare` (same
/// clamping as [`MemSystem::canonical_domain`]).
fn lut_index(lut: &[usize], n_sockets: usize, d: DomainId) -> usize {
    let socket = d.socket.0.min(n_sockets.saturating_sub(1));
    lut[socket * 2 + d.sub.min(1) as usize]
}

/// UPI resource offset (within the pair block) for sockets `a` and `b`.
fn upi_pair(a: usize, b: usize, n: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    pair_index(lo, hi, n)
}

/// Utilization of a resource given its consumed and total capacity; mirrors
/// `maxmin::Allocation::utilization` for the `allocate_into` path.
fn util_of(used: f64, capacity: f64) -> f64 {
    if capacity <= 0.0 {
        if used > 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        (used / capacity).min(1.0)
    }
}

/// Caps a candidate rate by the achieved allocation (when the max-min pass
/// could not meet demand) and by the task's MBA-style bandwidth cap, which
/// binds even when the channels have headroom.
fn cap_rate(
    rate: f64,
    constrained: bool,
    bw_gbps: f64,
    traffic_per_unit: f64,
    t: &SolverTask,
) -> f64 {
    let mut r = rate;
    if constrained && t.threads > 0.0 {
        let bytes = traffic_per_unit.max(1e-9);
        r = r.min(bw_gbps * 1e9 / (bytes * t.threads));
    }
    if let Some(cap) = t.bw_cap_gbps {
        let bytes = traffic_per_unit.max(1e-9);
        if t.threads > 0.0 {
            r = r.min(cap.max(0.0) * 1e9 / (bytes * t.threads));
        }
    }
    r
}

/// Index of an unordered socket pair `(lo, hi)` in upper-triangular order.
fn pair_index(lo: usize, hi: usize, n: usize) -> usize {
    debug_assert!(lo < hi && hi < n);
    // Offset of row `lo` = lo*n - lo*(lo+1)/2 - lo (elements before this row),
    // then column offset (hi - lo - 1).
    lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec::dual_socket()
    }

    fn streaming_task(key: usize, home: DomainId, threads: f64) -> SolverTask {
        SolverTask {
            compute_ns_per_unit: 40.0,
            accesses_per_unit: 8.0,
            mlp: 3.0,
            working_set_bytes: 1e9,
            hit_max: 0.05,
            prefetch_profile: PrefetchProfile::streaming(),
            ..SolverTask::local(TaskKey(key), home, threads)
        }
    }

    /// `SolveStats::absorb` saturates instead of overflowing: counters near
    /// `u64::MAX` pin at the ceiling while untouched fields still add.
    #[test]
    fn solve_stats_absorb_saturates() {
        let mut acc = SolveStats {
            solves: u64::MAX - 1,
            iterations: u64::MAX,
            evaluations: 10,
            memo_hits: 0,
            warm_hits: u64::MAX - 5,
            non_converged: u64::MAX,
            ..Default::default()
        };
        acc.absorb(&SolveStats {
            solves: 5,
            iterations: 1,
            evaluations: 3,
            memo_hits: 2,
            warm_hits: 5,
            non_converged: 1,
            rescues: 2,
            safe_states: 3,
        });
        assert_eq!(acc.solves, u64::MAX);
        assert_eq!(acc.iterations, u64::MAX);
        assert_eq!(acc.evaluations, 13);
        assert_eq!(acc.memo_hits, 2);
        assert_eq!(acc.warm_hits, u64::MAX);
        assert_eq!(acc.non_converged, u64::MAX);
        assert_eq!(acc.rescues, 2);
        assert_eq!(acc.safe_states, 3);
    }

    #[test]
    fn pair_index_is_dense_and_unique() {
        let n = 4;
        let mut seen = std::collections::BTreeSet::new();
        for lo in 0..n {
            for hi in (lo + 1)..n {
                assert!(seen.insert(pair_index(lo, hi, n)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert!(seen.iter().all(|&i| i < n * (n - 1) / 2));
    }

    #[test]
    fn lone_light_task_runs_at_zero_load_speed() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let mut t = SolverTask::local(TaskKey(0), DomainId::new(0, 0), 1.0);
        t.compute_ns_per_unit = 100.0;
        t.accesses_per_unit = 0.0;
        let out = sys.solve(&SolverInput {
            tasks: vec![t],
            fixed_flows: vec![],
        });
        assert!(out.converged);
        let r = &out.tasks[0];
        assert!(
            (r.rate_per_thread - 1e7).abs() / 1e7 < 1e-3,
            "{}",
            r.rate_per_thread
        );
        assert_eq!(r.bw_gbps, 0.0);
        assert_eq!(r.speed_factor, 1.0);
    }

    #[test]
    fn streaming_tasks_saturate_the_socket() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let tasks: Vec<SolverTask> = (0..12)
            .map(|i| streaming_task(i, DomainId::new(0, 0), 2.0))
            .collect();
        let out = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        let peak = machine().sockets[0].peak_gbps();
        let bw = out.counters.socket_bw(SocketId(0));
        assert!(bw > 0.85 * peak, "bw {bw} vs peak {peak}");
        assert!(bw <= peak + 1e-6);
        assert!(out.counters.socket_saturation(SocketId(0)) > 0.3);
    }

    #[test]
    fn victim_slows_under_contention_without_snc() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let victim = || SolverTask {
            compute_ns_per_unit: 120.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 4e6,
            hit_max: 0.7,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        };
        let alone = sys.solve(&SolverInput {
            tasks: vec![victim()],
            fixed_flows: vec![],
        });
        let mut tasks = vec![victim()];
        for i in 0..10 {
            tasks.push(streaming_task(i + 1, DomainId::new(0, 0), 2.0));
        }
        let loaded = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        let r_alone = alone.tasks[0].rate_per_thread;
        let r_loaded = loaded.tasks[0].rate_per_thread;
        assert!(
            r_loaded < 0.8 * r_alone,
            "victim should slow: {r_loaded} vs {r_alone}"
        );
        assert!(loaded.tasks[0].latency_ns > alone.tasks[0].latency_ns * 1.5);
    }

    #[test]
    fn snc_isolates_channel_contention_but_leaks_distress() {
        let mut sys = MemSystem::new(machine(), SncMode::Enabled);
        let victim = || SolverTask {
            compute_ns_per_unit: 120.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 4e6,
            hit_max: 0.7,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        };
        let aggressors = |n: usize| -> Vec<SolverTask> {
            (0..n)
                .map(|i| streaming_task(i + 1, DomainId::new(0, 1), 2.0))
                .collect()
        };
        let alone = sys.solve(&SolverInput {
            tasks: vec![victim()],
            fixed_flows: vec![],
        });
        let mut tasks = vec![victim()];
        tasks.extend(aggressors(10));
        let loaded = sys.solve(&SolverInput {
            tasks: tasks.clone(),
            fixed_flows: vec![],
        });
        // Victim latency stays near standalone (own subdomain channels)...
        assert!(loaded.tasks[0].latency_ns < alone.tasks[0].latency_ns * 1.25);
        // ...but distress from the other subdomain throttles its cores.
        assert!(loaded.tasks[0].speed_factor < 0.95);

        // With a gentler distress model the leak disappears.
        sys.set_distress(DistressModel {
            threshold: 1.1,
            ..DistressModel::default()
        });
        let gentle = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        assert!(gentle.tasks[0].speed_factor > 0.999);
    }

    #[test]
    fn disabling_prefetchers_reduces_pressure() {
        let sys = MemSystem::new(machine(), SncMode::Enabled);
        let mut tasks: Vec<SolverTask> = (0..10)
            .map(|i| streaming_task(i, DomainId::new(0, 1), 2.0))
            .collect();
        let on = sys.solve(&SolverInput {
            tasks: tasks.clone(),
            fixed_flows: vec![],
        });
        for t in tasks.iter_mut() {
            t.prefetch_setting = PrefetchSetting::all_off();
        }
        let off = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        let d = DomainId::new(0, 1);
        assert!(
            off.counters.domain_bw(d) < on.counters.domain_bw(d),
            "prefetch off must lower traffic: {} vs {}",
            off.counters.domain_bw(d),
            on.counters.domain_bw(d)
        );
        assert!(
            off.counters.socket_saturation(SocketId(0))
                <= on.counters.socket_saturation(SocketId(0))
        );
        // And the aggressors themselves slow down.
        assert!(off.tasks[0].rate_per_thread < on.tasks[0].rate_per_thread);
    }

    #[test]
    fn remote_traffic_consumes_upi_and_taxes_victim() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let victim = || SolverTask {
            compute_ns_per_unit: 120.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 4e6,
            hit_max: 0.7,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        };
        // Aggressors run on socket 1 but their data lives on socket 0.
        let mut remote_aggr: Vec<SolverTask> = (0..10)
            .map(|i| {
                let mut t = streaming_task(i + 1, DomainId::new(1, 0), 2.0);
                t.data = vec![(DomainId::new(0, 0), 1.0)];
                t
            })
            .collect();
        let out = sys.solve(&SolverInput {
            tasks: {
                let mut v = vec![victim()];
                v.append(&mut remote_aggr);
                v
            },
            fixed_flows: vec![],
        });
        assert!(out.counters.upi_gbps > 1.0, "upi {}", out.counters.upi_gbps);
        assert!(out.counters.upi_gbps <= machine().upi_gbps + 1e-6);
        // Victim pays the coherence tax on top of queueing.
        let alone = sys.solve(&SolverInput {
            tasks: vec![victim()],
            fixed_flows: vec![],
        });
        assert!(out.tasks[0].latency_ns > alone.tasks[0].latency_ns + 10.0);
    }

    #[test]
    fn fixed_flows_consume_bandwidth() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let out = sys.solve(&SolverInput {
            tasks: vec![],
            fixed_flows: vec![FixedFlow {
                target: DomainId::new(0, 0),
                source_socket: None,
                gbps: 10.0,
                weight: 1.0,
            }],
        });
        assert!((out.fixed_flow_gbps[0] - 10.0).abs() < 1e-6);
        assert!((out.counters.socket_bw(SocketId(0)) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn mba_cap_binds_even_with_headroom() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let mut t = streaming_task(0, DomainId::new(0, 0), 4.0);
        t.bw_cap_gbps = Some(5.0);
        let out = sys.solve(&SolverInput {
            tasks: vec![t],
            fixed_flows: vec![],
        });
        assert!(
            out.tasks[0].bw_gbps <= 5.0 + 0.25,
            "bw {}",
            out.tasks[0].bw_gbps
        );
    }

    #[test]
    fn canonical_domain_collapses_when_snc_off() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        assert_eq!(
            sys.canonical_domain(DomainId::new(0, 1)),
            DomainId::new(0, 0)
        );
        let sys = MemSystem::new(machine(), SncMode::Enabled);
        assert_eq!(
            sys.canonical_domain(DomainId::new(0, 1)),
            DomainId::new(0, 1)
        );
    }

    #[test]
    fn canonical_domain_clamps_out_of_range_socket() {
        // canonical_domain is total: socket ids beyond the machine clamp to
        // the last socket, sub indices clamp into the mode's set, and a
        // solve with such a task completes instead of panicking.
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        assert_eq!(
            sys.canonical_domain(DomainId::new(99, 7)),
            DomainId::new(1, 0)
        );
        let snc = MemSystem::new(machine(), SncMode::Enabled);
        assert_eq!(
            snc.canonical_domain(DomainId::new(99, 7)),
            DomainId::new(1, 1)
        );
        let mut t = streaming_task(0, DomainId::new(99, 7), 2.0);
        t.data = vec![(DomainId::new(42, 3), 1.0)];
        let out = sys.solve(&SolverInput {
            tasks: vec![t],
            fixed_flows: vec![],
        });
        assert!(out.converged);
        assert!(out.tasks[0].rate_per_thread > 0.0);
    }

    #[test]
    fn zero_thread_task_is_inert() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let t = streaming_task(0, DomainId::new(0, 0), 0.0);
        let out = sys.solve(&SolverInput {
            tasks: vec![t],
            fixed_flows: vec![],
        });
        assert_eq!(out.tasks[0].rate_per_thread, 0.0);
        assert_eq!(out.tasks[0].bw_gbps, 0.0);
    }

    #[test]
    fn output_lookup_by_key() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let t = streaming_task(7, DomainId::new(0, 0), 1.0);
        let out = sys.solve(&SolverInput {
            tasks: vec![t],
            fixed_flows: vec![],
        });
        assert!(out.task(TaskKey(7)).is_some());
        assert!(out.task(TaskKey(8)).is_none());
    }

    #[test]
    fn per_domain_distress_removes_the_cross_subdomain_leak() {
        // SNC on, victim in subdomain 0, saturating aggressors in subdomain 1.
        let mut sys = MemSystem::new(machine(), SncMode::Enabled);
        let victim = || SolverTask {
            compute_ns_per_unit: 120.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 4e6,
            hit_max: 0.7,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        };
        let mut tasks = vec![victim()];
        for i in 0..10 {
            tasks.push(streaming_task(i + 1, DomainId::new(0, 1), 2.0));
        }
        let global = sys.solve(&SolverInput {
            tasks: tasks.clone(),
            fixed_flows: vec![],
        });
        assert!(
            global.tasks[0].speed_factor < 0.95,
            "global distress must leak: {}",
            global.tasks[0].speed_factor
        );

        sys.set_distress_scope(DistressScope::PerDomain);
        assert_eq!(sys.distress_scope(), DistressScope::PerDomain);
        let targeted = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        assert!(
            targeted.tasks[0].speed_factor > 0.999,
            "targeted distress must spare the victim: {}",
            targeted.tasks[0].speed_factor
        );
        // The offenders still pay.
        assert!(targeted.tasks[1].speed_factor < 0.95);
    }

    #[test]
    fn adaptive_prefetch_relieves_saturation() {
        let mut sys = MemSystem::new(machine(), SncMode::Enabled);
        let tasks: Vec<SolverTask> = (0..10)
            .map(|i| streaming_task(i, DomainId::new(0, 1), 2.0))
            .collect();
        let plain = sys.solve(&SolverInput {
            tasks: tasks.clone(),
            fixed_flows: vec![],
        });
        assert!(plain.counters.socket_saturation(SocketId(0)) > 0.5);

        sys.set_adaptive_prefetch(Some(AdaptivePrefetch::default()));
        assert!(sys.adaptive_prefetch().is_some());
        let adaptive = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        assert!(
            adaptive.counters.socket_saturation(SocketId(0))
                < plain.counters.socket_saturation(SocketId(0)),
            "hardware throttling must lower saturation: {} vs {}",
            adaptive.counters.socket_saturation(SocketId(0)),
            plain.counters.socket_saturation(SocketId(0))
        );
    }

    #[test]
    fn adaptive_prefetch_factor_shape() {
        let ap = AdaptivePrefetch::default();
        assert_eq!(ap.factor(0.0), 1.0);
        assert_eq!(ap.factor(ap.start_util), 1.0);
        assert!((ap.factor(1.0) - ap.min_fraction).abs() < 1e-12);
        let mid = ap.factor((ap.start_util + 1.0) / 2.0);
        assert!(mid < 1.0 && mid > ap.min_fraction);
        // Clamped outside [0, 1].
        assert_eq!(ap.factor(-1.0), 1.0);
        assert!((ap.factor(2.0) - ap.min_fraction).abs() < 1e-12);
    }

    #[test]
    fn snc_low_pressure_is_faster_than_flat() {
        // The paper notes slightly-better-than-standalone performance under
        // SNC at low pressure, from the shorter local path.
        let flat = MemSystem::new(machine(), SncMode::Disabled);
        let snc = MemSystem::new(machine(), SncMode::Enabled);
        let t = || SolverTask {
            compute_ns_per_unit: 80.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 10e6,
            hit_max: 0.5,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        };
        let r_flat = flat
            .solve(&SolverInput {
                tasks: vec![t()],
                fixed_flows: vec![],
            })
            .tasks[0]
            .rate_per_thread;
        let r_snc = snc
            .solve(&SolverInput {
                tasks: vec![t()],
                fixed_flows: vec![],
            })
            .tasks[0]
            .rate_per_thread;
        assert!(r_snc > r_flat, "snc {r_snc} flat {r_flat}");
    }

    fn mixed_input(n_streams: usize) -> SolverInput {
        let mut tasks = vec![SolverTask {
            compute_ns_per_unit: 120.0,
            accesses_per_unit: 2.0,
            mlp: 3.0,
            working_set_bytes: 4e6,
            hit_max: 0.7,
            ..SolverTask::local(TaskKey(0), DomainId::new(0, 0), 4.0)
        }];
        for i in 0..n_streams {
            let mut t = streaming_task(i + 1, DomainId::new(1, 0), 2.0);
            t.data = vec![(DomainId::new(0, 0), 0.3), (DomainId::new(1, 0), 0.7)];
            tasks.push(t);
        }
        SolverInput {
            tasks,
            fixed_flows: vec![FixedFlow {
                target: DomainId::new(0, 0),
                source_socket: Some(SocketId(1)),
                gbps: 6.0,
                weight: 1.0,
            }],
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_solves() {
        // With warm starts off, one scratch reused across differently-shaped
        // inputs must reproduce the fresh-solve path exactly.
        let mut sys = MemSystem::new(machine(), SncMode::Enabled);
        sys.set_warm_start(false);
        let mut scratch = SolverScratch::default();
        for n in [0, 3, 8, 1, 5] {
            let input = mixed_input(n);
            let reused = sys.solve_with(&input, &mut scratch);
            let fresh = sys.solve(&input);
            assert_eq!(reused, fresh, "scratch reuse diverged at n={n}");
        }
    }

    #[test]
    fn warm_start_reports_hits_and_converges_to_the_same_answer() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        assert!(sys.warm_start());
        let input = mixed_input(6);
        let mut scratch = SolverScratch::default();
        let cold = sys.solve_with(&input, &mut scratch);
        assert_eq!(cold.stats.warm_hits, 0);
        let warm = sys.solve_with(&input, &mut scratch);
        assert_eq!(warm.stats.warm_hits, 1);
        assert!(warm.converged);
        // Starting at the previous fixed point, the first residual check
        // passes almost immediately.
        assert!(warm.stats.iterations <= cold.stats.iterations);
        for (a, b) in cold.tasks.iter().zip(&warm.tasks) {
            let rel =
                (a.rate_per_thread - b.rate_per_thread).abs() / a.rate_per_thread.abs().max(1e-9);
            assert!(rel < 1e-2, "warm start moved the answer: {rel}");
        }
        // reset_warm_state restores the cold path bit-for-bit.
        scratch.reset_warm_state();
        let recold = sys.solve_with(&input, &mut scratch);
        assert_eq!(recold, cold);
    }

    #[test]
    fn solver_output_reports_costs() {
        let sys = MemSystem::new(machine(), SncMode::Disabled);
        let out = sys.solve(&mixed_input(4));
        assert_eq!(out.stats.solves, 1);
        assert!(out.stats.iterations >= 1);
        assert_eq!(out.stats.evaluations, out.stats.iterations + 1);
        assert_eq!(out.stats.memo_hits, 0);
        assert_eq!(out.stats.warm_hits, 0);
    }

    #[test]
    fn solve_stats_absorb_sums_fields() {
        let mut a = SolveStats {
            solves: 1,
            iterations: 10,
            evaluations: 11,
            memo_hits: 0,
            warm_hits: 1,
            non_converged: 1,
            rescues: 0,
            safe_states: 1,
        };
        let b = SolveStats {
            solves: 2,
            iterations: 5,
            evaluations: 7,
            memo_hits: 1,
            warm_hits: 0,
            non_converged: 2,
            rescues: 1,
            safe_states: 0,
        };
        a.absorb(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.iterations, 15);
        assert_eq!(a.evaluations, 18);
        assert_eq!(a.memo_hits, 1);
        assert_eq!(a.warm_hits, 1);
        assert_eq!(a.non_converged, 3);
        assert_eq!(a.rescues, 1);
        assert_eq!(a.safe_states, 1);
    }

    #[test]
    fn solver_tuning_defaults_on_baseline_off() {
        let t = SolverTuning::default();
        assert!(t.memo && t.warm_start);
        let b = SolverTuning::baseline();
        assert!(!b.memo && !b.warm_start);
    }

    /// A machine-wide brownout caps every domain's effective capacity and
    /// compounds with per-socket channel derates.
    #[test]
    fn machine_derate_caps_capacity_and_compounds() {
        let mut sys = MemSystem::new(machine(), SncMode::Disabled);
        let healthy = sys.solve(&mixed_input(6));
        sys.set_machine_derate(0.5);
        sys.set_channel_derate(SocketId(0), 0.8);
        let mut tables = DomainTables::default();
        sys.build_domain_tables(&mut tables);
        let spec = sys.machine().clone();
        for (i, &d) in tables.domains.iter().enumerate() {
            let peak = spec.domain_peak_gbps(d, sys.snc());
            let expect = peak * 0.5 * if d.socket.0 == 0 { 0.8 } else { 1.0 };
            assert!((tables.capacities[i] - expect).abs() < 1e-9);
        }
        let browned = sys.solve(&mixed_input(6));
        let bw = |o: &SolverOutput| -> f64 { o.tasks.iter().map(|t| t.bw_gbps).sum() };
        assert!(bw(&browned) < bw(&healthy));
        sys.set_machine_derate(1.0);
        assert_eq!(sys.machine_derate(), 1.0);
    }

    /// High solver stress deterministically exhausts the iteration budget
    /// (`non_converged` counts it); the rescue path — full 4× budget,
    /// heavier damping, cold start — still converges below the defeat
    /// severity and is starved like the primary at severity 1.
    #[test]
    fn solver_stress_forces_non_convergence_and_rescue_recovers() {
        let mut sys = MemSystem::new(machine(), SncMode::Disabled);
        let input = mixed_input(6);
        assert!(sys.solve(&input).converged);

        sys.set_solver_stress(Some(0.97));
        assert_eq!(sys.fp_config().max_iters, 2);
        let stressed = sys.solve(&input);
        assert!(!stressed.converged);
        assert_eq!(stressed.stats.non_converged, 1);
        assert_eq!(sys.rescue_config().max_iters, 320);
        let rescued = sys.solve_rescue(&input);
        assert!(rescued.converged);
        assert_eq!(rescued.stats.non_converged, 0);

        sys.set_solver_stress(Some(1.0));
        assert_eq!(sys.fp_config().max_iters, 1);
        assert_eq!(sys.rescue_config().max_iters, 1);
        assert!(!sys.solve_rescue(&input).converged);

        sys.set_solver_stress(None);
        assert!(sys.solve(&input).converged);
        assert_eq!(sys.solver_stress(), None);
    }
}
