//! Declarative run specifications and the parallel, memoizing run engine.
//!
//! Every experiment harness in [`crate::experiments`] describes its runs as
//! a batch of [`RunSpec`]s — plain serializable data naming the ML workload,
//! the colocated CPU workloads, the policy, the timing configuration, and a
//! seed — and folds the resulting [`RunRecord`]s into its figure struct.
//! The [`Runner`] executes batches:
//!
//! * **in parallel** on a persistent chunk-claiming worker pool (`--jobs N`)
//!   spawned once per engine and reused across batches, bit-identical to
//!   serial execution because every run is a pure function of its spec
//!   (seeds are derived per-spec, never shared). `jobs = 1` — and batches
//!   below the spawn threshold — run inline with zero thread machinery,
//!   and every path reuses one [`ExecScratch`] per worker across specs;
//! * **memoized** through an optional content-addressed cache: each spec's
//!   canonical JSON encoding is hashed (FNV-1a 64, streamed straight from
//!   the renderer without materializing the bytes) to
//!   `results/cache/<hash>.json`. One directory scan per engine builds an
//!   in-memory hash index, so a cold spec costs a set probe instead of a
//!   file open, and fresh records are flushed in one batched pass.
//!
//! The engine never reads the host clock: a record is a pure function of
//! its spec, apart from [`RunMeta::cached`]. Wall-clock profiling lives
//! outside the records, in the benchmark harnesses.

use crate::config::ExperimentConfig;
use crate::driver::{ExecScratch, Experiment, ExperimentBuilder, ExperimentResult, MemHardware};
use crate::experiments::backpressure::FixedPrefetchPolicy;
use crate::measure::Measurements;
use crate::policy::{KelpPolicy, PolicyKind, PolicySnapshot};
use crate::profile::{ApplicationProfile, ProfileLibrary, Watermark, WatermarkProfile};
use kelp_mem::solver::SolveStats;
use kelp_mem::topology::{SncMode, SocketId};
use kelp_simcore::fault::FaultPlan;
use kelp_simcore::rng::derive_seed;
use kelp_simcore::time::SimTime;
use kelp_simcore::trace::PhaseTrace;
use kelp_workloads::model::PerfSnapshot;
use kelp_workloads::MlWorkloadKind;
use kelp_workloads::{calib, BatchKind, BatchWorkload, InferenceParams, InferenceServer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Salt decorrelating the fault-injection RNG stream from the workload
/// seed streams derived from the same spec seed.
const FAULT_STREAM: u64 = 0xFA17_C0DE;

/// The accelerated ML side of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MlSpec {
    /// No ML workload (CPU tasks only).
    None,
    /// One of the Table I workloads with its calibrated parameters.
    Standard(MlWorkloadKind),
    /// RNN1 in closed-loop serial mode with phase tracing enabled
    /// (the Figure 3 timeline).
    TracedSerialRnn1,
    /// RNN1 at a custom offered load in QPS (the knee sweep).
    Rnn1AtLoad(f64),
}

impl MlSpec {
    /// The machine topology this ML spec runs on.
    fn machine_spec(&self) -> kelp_mem::topology::MachineSpec {
        match self {
            MlSpec::None => kelp_mem::topology::MachineSpec::dual_socket(),
            MlSpec::Standard(kind) => kind.platform().host_machine(),
            MlSpec::TracedSerialRnn1 | MlSpec::Rnn1AtLoad(_) => {
                MlWorkloadKind::Rnn1.platform().host_machine()
            }
        }
    }
}

/// One colocated low-priority CPU workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Workload shape.
    pub kind: BatchKind,
    /// Thread count.
    pub threads: usize,
    /// Display-label override (e.g. `"Stitch#2"` for multi-instance mixes).
    pub label: Option<String>,
    /// Fraction of data placed on the local socket (§VI-A remote sweeps).
    pub local_data_fraction: Option<f64>,
    /// Fraction of threads placed on the local socket (§VI-A remote sweeps).
    pub local_thread_fraction: Option<f64>,
}

impl CpuSpec {
    /// A plain workload of `kind` with `threads` threads.
    pub fn new(kind: BatchKind, threads: usize) -> Self {
        CpuSpec {
            kind,
            threads,
            label: None,
            local_data_fraction: None,
            local_thread_fraction: None,
        }
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the local-socket data fraction.
    pub fn with_local_data_fraction(mut self, local: f64) -> Self {
        self.local_data_fraction = Some(local);
        self
    }

    /// Sets the local-socket thread fraction.
    pub fn with_local_thread_fraction(mut self, local: f64) -> Self {
        self.local_thread_fraction = Some(local);
        self
    }

    fn build(&self) -> BatchWorkload {
        let mut w = BatchWorkload::new(self.kind, self.threads);
        if let Some(label) = &self.label {
            w = w.with_label(label.clone());
        }
        if let Some(f) = self.local_data_fraction {
            w = w.with_local_data_fraction(f);
        }
        if let Some(f) = self.local_thread_fraction {
            w = w.with_local_thread_fraction(f);
        }
        w
    }
}

/// The policy side of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// One of the named runtime configurations.
    Kind(PolicyKind),
    /// Subdomains with a *fixed* fraction of LP prefetchers disabled
    /// (Figure 7's backpressure sweep). The payload is the disabled
    /// fraction in `[0, 1]`.
    FixedPrefetch(f64),
    /// Full Kelp with the saturation high-watermark overridden and the
    /// bandwidth/latency watermarks neutralized (the watermark ablation).
    KelpSatWatermark(f64),
    /// Subdomains with every LP prefetcher left on (Figure 7's
    /// `FixedPrefetch(0.0)`), run on proposed QoS hardware: the §VI-B and
    /// §VI-C studies. A new variant rather than a `RunSpec` field, so the
    /// JSON, and with it the cache key, of every other spec is unchanged.
    ProposedHardware(MemHardware),
}

impl From<PolicyKind> for PolicySpec {
    fn from(kind: PolicyKind) -> Self {
        PolicySpec::Kind(kind)
    }
}

/// A declarative, serializable, hashable description of one experiment run.
///
/// Two specs that compare equal produce bit-identical [`RunRecord`]s; the
/// cache and the parallel engine both rely on this.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// The accelerated ML workload (or none).
    pub ml: MlSpec,
    /// Colocated CPU workloads, installed in order.
    pub cpu: Vec<CpuSpec>,
    /// The runtime policy.
    pub policy: PolicySpec,
    /// Timing parameters.
    pub config: ExperimentConfig,
    /// Seed selector: `0` keeps every workload's calibrated default seed
    /// (the paper-reproduction setting); any other value decorrelates the
    /// stochastic workloads via [`derive_seed`].
    pub seed: u64,
    /// Scheduled fault-injection plan. The empty plan (the default) leaves
    /// the run bit-identical to a fault-free one.
    pub faults: FaultPlan,
}

impl RunSpec {
    /// A run of a Table I workload under a named policy, no CPU workloads.
    pub fn new(ml: MlWorkloadKind, policy: PolicyKind, config: &ExperimentConfig) -> Self {
        RunSpec {
            ml: MlSpec::Standard(ml),
            cpu: Vec::new(),
            policy: PolicySpec::Kind(policy),
            config: config.clone(),
            seed: 0,
            faults: FaultPlan::new(),
        }
    }

    /// A CPU-only run (no ML workload).
    pub fn cpu_only(policy: PolicyKind, config: &ExperimentConfig) -> Self {
        RunSpec {
            ml: MlSpec::None,
            cpu: Vec::new(),
            policy: PolicySpec::Kind(policy),
            config: config.clone(),
            seed: 0,
            faults: FaultPlan::new(),
        }
    }

    /// Replaces the ML workload spec.
    pub fn with_ml(mut self, ml: MlSpec) -> Self {
        self.ml = ml;
        self
    }

    /// Adds a colocated CPU workload.
    pub fn with_cpu(mut self, cpu: CpuSpec) -> Self {
        // Grids hold hundreds of specs, nearly all with one CPU workload:
        // grow by one rather than to `Vec`'s first capacity of four.
        self.cpu.reserve_exact(1);
        self.cpu.push(cpu);
        self
    }

    /// Replaces the policy spec.
    pub fn with_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Sets the seed selector.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Checks the spec for combinations the engine cannot materialize,
    /// returning a structured error instead of panicking mid-batch.
    pub fn validate(&self) -> Result<(), RunError> {
        match &self.policy {
            PolicySpec::KelpSatWatermark(_) if !matches!(self.ml, MlSpec::Standard(_)) => Err(
                RunError::invalid("KelpSatWatermark requires a standard ML workload"),
            ),
            _ => Ok(()),
        }
    }

    /// The content hash identifying this spec in the result cache: FNV-1a 64
    /// over the spec's canonical (compact) JSON encoding. The renderer
    /// streams its output fragments straight into the hasher, so no byte
    /// buffer is materialized, and the hash equals
    /// `fnv1a64(&serde_json::to_vec(self))` byte for byte (the randomized
    /// property suite pins the two paths together).
    pub fn hash(&self) -> u64 {
        // Rendering a plain data struct cannot fail with the vendored
        // serde; if it ever did, the partial-stream hash degrades to a
        // cache *miss* (lookups verify stored-spec equality before trusting
        // an entry), never to a wrong result or a panic.
        let mut sink = FnvSink(FNV_OFFSET);
        let _ = serde_json::to_sink(self, &mut sink);
        sink.0
    }

    /// RNN1 inference parameters with this spec's seed applied.
    fn seeded_rnn1(&self, mut params: InferenceParams) -> InferenceParams {
        if self.seed != 0 {
            params.seed = derive_seed(params.seed, self.seed);
        }
        params
    }

    /// Materializes the spec into a ready-to-run experiment builder, or a
    /// structured error when [`RunSpec::validate`] would reject it.
    pub fn build(&self) -> Result<ExperimentBuilder, RunError> {
        let policy_kind = match &self.policy {
            PolicySpec::Kind(k) => *k,
            PolicySpec::FixedPrefetch(_) | PolicySpec::ProposedHardware(_) => {
                PolicyKind::KelpSubdomain
            }
            PolicySpec::KelpSatWatermark(_) => PolicyKind::Kelp,
        };
        let mut builder = match &self.ml {
            MlSpec::None => Experiment::builder_cpu_only(policy_kind),
            MlSpec::Standard(kind) => {
                if self.seed != 0 && *kind == MlWorkloadKind::Rnn1 {
                    Experiment::builder_with_ml(
                        Box::new(InferenceServer::new(self.seeded_rnn1(calib::rnn1_params()))),
                        self.ml.machine_spec(),
                        policy_kind,
                    )
                } else {
                    Experiment::builder(*kind, policy_kind)
                }
            }
            MlSpec::TracedSerialRnn1 => {
                let mut server =
                    InferenceServer::new(self.seeded_rnn1(calib::rnn1_serial_params()));
                server.enable_trace();
                Experiment::builder_with_ml(Box::new(server), self.ml.machine_spec(), policy_kind)
            }
            MlSpec::Rnn1AtLoad(qps) => {
                let params = InferenceParams {
                    target_qps: *qps,
                    ..self.seeded_rnn1(calib::rnn1_params())
                };
                Experiment::builder_with_ml(
                    Box::new(InferenceServer::new(params)),
                    self.ml.machine_spec(),
                    policy_kind,
                )
            }
        };
        builder = match &self.policy {
            PolicySpec::Kind(_) => builder,
            PolicySpec::FixedPrefetch(disabled) => builder.custom_policy(Box::new(
                FixedPrefetchPolicy::with_disabled_fraction(*disabled),
            )),
            PolicySpec::ProposedHardware(hardware) => builder
                .custom_policy(Box::new(FixedPrefetchPolicy::with_disabled_fraction(0.0)))
                .hardware(*hardware),
            PolicySpec::KelpSatWatermark(sat_high) => {
                let MlSpec::Standard(ml) = &self.ml else {
                    return Err(RunError::invalid(
                        "KelpSatWatermark requires a standard ML workload",
                    ));
                };
                let machine = ml.platform().host_machine();
                let base = WatermarkProfile::for_machine(&machine, SncMode::Enabled, SocketId(0));
                let mut lib = ProfileLibrary::new();
                lib.insert(ApplicationProfile {
                    workload: ml.name().to_string(),
                    // Neutralize the bandwidth/latency signals so the sweep
                    // isolates the saturation watermark (otherwise hi_lat_s
                    // triggers the same throttle path and masks it).
                    watermarks: WatermarkProfile {
                        socket_saturation: Watermark::new((sat_high / 5.0).min(0.9), *sat_high),
                        socket_bw: Watermark::new(0.0, f64::MAX),
                        socket_latency: Watermark::new(0.0, f64::MAX),
                        ..base
                    },
                    notes: format!("ablation point sat_high={sat_high}"),
                });
                builder.custom_policy(Box::new(KelpPolicy::full().with_profile_library(lib)))
            }
        };
        for cpu in &self.cpu {
            builder = builder.add_cpu_workload(cpu.build());
        }
        builder = builder.fault_plan(self.faults.clone(), derive_seed(self.seed, FAULT_STREAM));
        Ok(builder.config(self.config.clone()))
    }

    /// Runs the spec to completion.
    ///
    /// Never panics: validation failures and caught simulation panics both
    /// produce an error-carrying record (see [`RunRecord::error`]) so one
    /// bad spec cannot take down a batch or poison the worker pool.
    pub fn execute(&self) -> RunRecord {
        self.execute_with(&mut ExecScratch::new())
    }

    /// [`RunSpec::execute`] reusing a caller-owned [`ExecScratch`] —
    /// bit-identical to a fresh-scratch run (the workspace resets its
    /// warm state on adoption), but the solver arenas amortize across the
    /// specs a worker retires. A caught panic may leave the scratch's
    /// arenas defaulted; the next run simply regrows them.
    pub fn execute_with(&self, scratch: &mut ExecScratch) -> RunRecord {
        if let Err(error) = self.validate() {
            return RunRecord::from_error(error);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.build().map(|b| b.run_with(scratch))
        }));
        match outcome {
            Ok(Ok(result)) => RunRecord::from_result(&result, &self.config),
            Ok(Err(error)) => RunRecord::from_error(error),
            Err(payload) => {
                RunRecord::from_error(RunError::panicked(panic_message(payload.as_ref())))
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A structured failure carried by a [`RunRecord`] instead of crashing the
/// batch: either the spec was rejected by [`RunSpec::validate`] before
/// execution, or the simulation panicked and the engine caught it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunError {
    /// Human-readable description (validation message or panic payload).
    pub message: String,
    /// `true` when the error was a caught panic, `false` for pre-execution
    /// validation failures.
    pub panicked: bool,
}

impl RunError {
    /// A pre-execution spec validation error.
    pub fn invalid(message: impl Into<String>) -> Self {
        RunError {
            message: message.into(),
            panicked: false,
        }
    }

    /// A caught simulation panic.
    pub fn panicked(message: impl Into<String>) -> Self {
        RunError {
            message: message.into(),
            panicked: true,
        }
    }

    /// An engine-internal invariant failure (a batch slot with no record, a
    /// fold consuming past its batch) surfaced as data instead of a panic.
    pub fn internal(message: impl Into<String>) -> Self {
        RunError {
            message: message.into(),
            panicked: false,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.panicked {
            "panicked"
        } else {
            "invalid spec"
        };
        write!(f, "{kind}: {}", self.message)
    }
}

/// Actuator-movement statistics extracted from the per-sample policy
/// timeline. The fault matrix's oscillation band is expressed in these
/// terms: a hardened controller must not reverse an actuator's direction
/// more than twice per ten sampling periods.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActuatorStats {
    /// Number of policy samples in the timeline.
    pub samples: u64,
    /// Direction reversals of the total LP core allocation (LP domain plus
    /// HP backfill).
    pub core_reversals: u64,
    /// Direction reversals of the LP prefetcher count.
    pub prefetch_reversals: u64,
}

impl ActuatorStats {
    /// Extracts movement statistics from a policy timeline.
    pub fn from_series(series: &[(SimTime, PolicySnapshot)]) -> Self {
        ActuatorStats {
            samples: series.len() as u64,
            core_reversals: reversals(
                series
                    .iter()
                    .map(|(_, s)| i64::from(s.lp_cores) + i64::from(s.hp_backfill_cores)),
            ),
            prefetch_reversals: reversals(series.iter().map(|(_, s)| i64::from(s.lp_prefetchers))),
        }
    }

    /// The worse of the two reversal counts, normalized to a ten-sample
    /// window (the unit of the oscillation acceptance band).
    pub fn reversals_per_10(&self) -> f64 {
        let worst = self.core_reversals.max(self.prefetch_reversals) as f64;
        worst * 10.0 / self.samples.max(1) as f64
    }
}

/// Counts direction reversals in a value sequence: zero deltas are skipped,
/// and a reversal is a nonzero delta whose sign differs from the previous
/// nonzero delta's.
fn reversals(values: impl Iterator<Item = i64>) -> u64 {
    let mut prev: Option<i64> = None;
    let mut last_dir = 0i64;
    let mut count = 0;
    for v in values {
        if let Some(p) = prev {
            let d = (v - p).signum();
            if d != 0 {
                if last_dir != 0 && d != last_dir {
                    count += 1;
                }
                last_dir = d;
            }
        }
        prev = Some(v);
    }
    count
}

/// Execution metadata recorded by the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Number of simulation steps ((warmup + duration) / dt).
    pub sim_steps: u64,
    /// Whether the record was loaded from the result cache.
    pub cached: bool,
    /// Solver cost counters for the run (solves, fixed-point iterations,
    /// evaluations, memo/warm-start hits, solver-health counters).
    #[serde(default)]
    pub solve: SolveStats,
}

/// The serializable outcome of one run: everything the figure folds consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// ML workload name, if one was present.
    pub ml_name: Option<String>,
    /// ML workload performance over the measurement window.
    pub ml_performance: PerfSnapshot,
    /// Per-CPU-workload performance `(name, snapshot)`.
    pub cpu_performance: Vec<(String, PerfSnapshot)>,
    /// Average of the four measurements over the measurement window.
    pub avg_measurements: Measurements,
    /// The final policy snapshot.
    pub final_policy: PolicySnapshot,
    /// The ML workload's phase trace, when tracing was enabled.
    pub trace: Option<PhaseTrace>,
    /// Actuator-movement statistics over the policy timeline.
    pub actuators: ActuatorStats,
    /// Present when the run failed (validation rejection or caught panic);
    /// every performance field is zeroed in that case.
    pub error: Option<RunError>,
    /// Engine metadata (simulated steps, cache status, solver counters).
    /// Everything but `meta.cached` is a pure function of the spec, so two
    /// executions of one spec produce equal records.
    pub meta: RunMeta,
}

impl RunRecord {
    /// Extracts the serializable subset of an [`ExperimentResult`].
    pub fn from_result(result: &ExperimentResult, config: &ExperimentConfig) -> Self {
        RunRecord {
            ml_name: result.ml_name.clone(),
            ml_performance: result.ml_performance,
            cpu_performance: result.cpu_performance.clone(),
            avg_measurements: result.avg_measurements,
            final_policy: result.final_policy_snapshot(),
            trace: result.ml_workload.as_ref().and_then(|w| w.trace()).cloned(),
            actuators: ActuatorStats::from_series(&result.policy_series),
            error: None,
            meta: RunMeta {
                sim_steps: (config.warmup + config.duration).div_duration(config.dt),
                cached: false,
                solve: result.solve,
            },
        }
    }

    /// A record carrying a structured error in place of results.
    pub fn from_error(error: RunError) -> Self {
        RunRecord {
            ml_name: None,
            ml_performance: PerfSnapshot::zero(),
            cpu_performance: Vec::new(),
            avg_measurements: Measurements::default(),
            final_policy: PolicySnapshot::default(),
            trace: None,
            actuators: ActuatorStats::default(),
            error: Some(error),
            meta: RunMeta {
                sim_steps: 0,
                cached: false,
                solve: SolveStats::default(),
            },
        }
    }

    /// Whether this record carries an error instead of results.
    pub fn is_error(&self) -> bool {
        self.error.is_some()
    }

    /// Sum of CPU workload throughputs.
    pub fn cpu_total_throughput(&self) -> f64 {
        self.cpu_performance.iter().map(|(_, p)| p.throughput).sum()
    }
}

/// Panic-free sequential consumer for `fold()` implementations.
///
/// Every experiment fold walks its batch's records in `specs()` order. With
/// a plain iterator a miscounted batch panics mid-fold (`.expect("…
/// record")`), unwinding through `repro_all`; the cursor instead yields a
/// shared error record — zeroed performance plus a [`RunError::internal`] —
/// so a length mismatch degrades to visibly-zero figure rows and an error
/// count, in keeping with the engine's error-record path.
#[derive(Debug)]
pub struct RecordCursor<'a> {
    iter: std::slice::Iter<'a, RunRecord>,
    missing: u64,
}

/// The record yielded when a cursor is over-consumed. Built once, shared by
/// every fold (it is immutable and identical everywhere).
static MISSING_RECORD: std::sync::OnceLock<RunRecord> = std::sync::OnceLock::new();

impl<'a> RecordCursor<'a> {
    /// Wraps a batch's records for in-order consumption.
    pub fn new(records: &'a [RunRecord]) -> Self {
        RecordCursor {
            iter: records.iter(),
            missing: 0,
        }
    }

    /// The next record, or the shared missing-record error sentinel when the
    /// batch is exhausted.
    pub fn take(&mut self) -> &'a RunRecord {
        self.iter.next().unwrap_or_else(|| {
            self.missing += 1;
            MISSING_RECORD.get_or_init(|| {
                RunRecord::from_error(RunError::internal(
                    "fold consumed more records than the batch produced",
                ))
            })
        })
    }

    /// How many takes ran past the end of the batch.
    pub fn missing(&self) -> u64 {
        self.missing
    }
}

/// FNV-1a 64-bit offset basis (the hash of the empty byte string).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Folds `bytes` into an in-progress FNV-1a 64 hash. Seeding with
/// [`FNV_OFFSET`] and feeding fragments in order produces exactly
/// [`fnv1a64`] of their concatenation — the property the streaming cache
/// key relies on.
pub fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET, bytes)
}

/// Hashing sink for [`serde_json::to_sink`]: folds the renderer's UTF-8
/// fragments into an FNV-1a 64 accumulator as they are produced, hashing
/// the exact [`serde_json::to_vec`] byte stream without allocating it.
struct FnvSink(u64);

impl serde_json::JsonSink for FnvSink {
    fn write_str(&mut self, s: &str) {
        self.0 = fnv1a64_continue(self.0, s.as_bytes());
    }
}

/// On-disk cache entry: the spec is stored alongside the record so a hash
/// collision (or a stale file from an older spec schema) is detected by
/// equality instead of silently returning the wrong result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    spec: RunSpec,
    record: RunRecord,
}

/// Batches smaller than this run inline even at `jobs > 1`: dispatching a
/// handful of specs to the pool costs more in channel traffic and wake-ups
/// than the parallelism returns.
const POOL_SPAWN_THRESHOLD: usize = 4;

/// One batch's worth of work broadcast to every pool worker. Workers claim
/// chunks of `specs` by racing `next` and send `(index, record)` pairs back
/// through `out`; dropping the last clone (all workers done) disconnects
/// the channel and releases the collecting thread.
#[derive(Clone)]
struct PoolTask {
    specs: Arc<Vec<RunSpec>>,
    next: Arc<AtomicUsize>,
    chunk: usize,
    out: mpsc::Sender<(usize, RunRecord)>,
}

/// The persistent worker pool: spawned once per engine on the first batch
/// that warrants threads, then reused — each worker keeps its
/// [`ExecScratch`] across batches, so solver arenas amortize across the
/// whole campaign, not just one batch.
struct WorkerPool {
    txs: Vec<mpsc::Sender<PoolTask>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.txs.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads, each owning a task receiver and a
    /// persistent scratch.
    fn spawn(workers: usize) -> Self {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<PoolTask>();
            txs.push(tx);
            handles.push(std::thread::spawn(move || {
                let mut scratch = ExecScratch::new();
                while let Ok(task) = rx.recv() {
                    let n = task.specs.len();
                    loop {
                        let start = task.next.fetch_add(task.chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + task.chunk).min(n) {
                            let record = task.specs[i].execute_with(&mut scratch);
                            // A disconnected collector means the batch was
                            // abandoned; stop claiming work for it.
                            if task.out.send((i, record)).is_err() {
                                return;
                            }
                        }
                    }
                }
            }));
        }
        WorkerPool { txs, handles }
    }

    /// Broadcasts one batch to every worker. A send to a dead worker fails
    /// silently — the surviving workers' chunk claims cover its share, so a
    /// poisoned thread degrades throughput, never results.
    fn dispatch(&self, task: PoolTask) {
        for tx in &self.txs {
            let _ = tx.send(task.clone());
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect every task channel first so workers fall out of their
        // recv loops, then reap the threads.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The batch execution engine.
#[derive(Debug, Clone)]
pub struct Runner {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    /// Lazily built hash index over `cache_dir` (`None` = not scanned yet).
    /// Shared across clones, which share the same directory.
    cache_index: Arc<Mutex<Option<BTreeSet<u64>>>>,
    /// Lazily spawned persistent worker pool (`None` until the first batch
    /// that warrants threads). Shared across clones.
    pool: Arc<Mutex<Option<WorkerPool>>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::serial()
    }
}

impl Runner {
    /// A serial engine with no cache — semantically the seed's inline loops.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// An engine with `jobs` worker threads (clamped to at least 1). The
    /// pool itself is spawned lazily, so a `jobs > 1` engine that only ever
    /// sees tiny batches never pays the thread spawn cost.
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            cache_dir: None,
            cache_index: Arc::new(Mutex::new(None)),
            pool: Arc::new(Mutex::new(None)),
        }
    }

    /// Enables the content-addressed result cache rooted at `dir`.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        // The index describes the previous directory (if any); rebuild it
        // on the next batch.
        self.cache_index = Arc::new(Mutex::new(None));
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one spec (through the cache when enabled).
    pub fn run_one(&self, spec: &RunSpec) -> RunRecord {
        self.run_batch(std::slice::from_ref(spec))
            .pop()
            .unwrap_or_else(|| {
                RunRecord::from_error(RunError::internal(
                    "run_batch returned no record for a one-spec batch",
                ))
            })
    }

    /// Runs a batch of specs and returns their records in batch order.
    ///
    /// Identical specs within the batch are executed once and their record
    /// cloned. Output order — and content — is independent of `jobs`.
    pub fn run_batch(&self, specs: &[RunSpec]) -> Vec<RunRecord> {
        // Dedup by content hash, verified by spec equality so a hash
        // collision costs a duplicate execution, never a wrong record.
        // Each spec is hashed exactly once; the hash is reused for the
        // cache probe, the cache write and the dedup bucket.
        let mut unique: Vec<usize> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new(); // parallel to `unique`
        let mut assignment: Vec<usize> = Vec::with_capacity(specs.len());
        let mut buckets: BTreeMap<u64, Vec<usize>> = BTreeMap::new(); // hash → slots
        for (i, spec) in specs.iter().enumerate() {
            let hash = spec.hash();
            let bucket = buckets.entry(hash).or_default();
            match bucket
                .iter()
                .copied()
                .find(|&slot| specs[unique[slot]] == *spec)
            {
                Some(slot) => assignment.push(slot),
                None => {
                    unique.push(i);
                    hashes.push(hash);
                    let slot = unique.len() - 1;
                    bucket.push(slot);
                    assignment.push(slot);
                }
            }
        }

        // Resolve cache hits up front; collect the rest for execution. The
        // index turns a cold spec into a set probe (no file open); only
        // probable hits touch the filesystem, and a stale index entry
        // (file deleted underneath us, or a hash collision) degrades to a
        // miss and re-execution.
        let mut records: Vec<Option<RunRecord>> = vec![None; unique.len()];
        let mut pending: Vec<usize> = Vec::new(); // indices into `unique`
        if let Some(dir) = self.cache_dir.as_deref() {
            let mut index = self
                .cache_index
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let known = index.get_or_insert_with(|| Self::scan_cache_dir(dir));
            for (slot, &spec_idx) in unique.iter().enumerate() {
                let hit = known
                    .contains(&hashes[slot])
                    .then(|| Self::cache_read(dir, hashes[slot], &specs[spec_idx]))
                    .flatten();
                match hit {
                    Some(record) => records[slot] = Some(record),
                    None => pending.push(slot),
                }
            }
        } else {
            pending.extend(0..unique.len());
        }

        // Execute what remains: inline below the spawn threshold (one
        // scratch reused across the whole batch), otherwise on the
        // persistent pool with `records[slot]` as the rendezvous — output
        // is bit-identical at any jobs count because every record lands in
        // its slot no matter which worker produced it.
        let workers = self.jobs.min(pending.len());
        if workers <= 1 || pending.len() < POOL_SPAWN_THRESHOLD {
            let mut scratch = ExecScratch::new();
            for &slot in &pending {
                records[slot] = Some(specs[unique[slot]].execute_with(&mut scratch));
            }
        } else {
            let task_specs: Arc<Vec<RunSpec>> = Arc::new(
                pending
                    .iter()
                    .map(|&slot| specs[unique[slot]].clone())
                    .collect(),
            );
            let (out_tx, out_rx) = mpsc::channel();
            let task = PoolTask {
                specs: task_specs,
                next: Arc::new(AtomicUsize::new(0)),
                chunk: pending.len().div_ceil(workers * 4).max(1),
                out: out_tx,
            };
            {
                let mut pool = self
                    .pool
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                pool.get_or_insert_with(|| WorkerPool::spawn(self.jobs))
                    .dispatch(task);
            }
            // Drain until every worker has dropped its task (and with it
            // its sender clone). A slot no worker delivered — a worker
            // death mid-chunk — falls through to the internal-error record
            // in the assignment pass below.
            while let Ok((i, record)) = out_rx.recv() {
                records[pending[i]] = Some(record);
            }
        }

        // Persist freshly executed records in one batched pass: serialize
        // everything first, then one directory creation, one index lock,
        // one write per record. Error records are never cached: a fixed
        // spec should re-execute, not replay its failure.
        if let Some(dir) = self.cache_dir.as_deref() {
            let mut writes: Vec<(u64, String)> = Vec::new();
            for &slot in &pending {
                let Some(record) = &records[slot] else {
                    continue;
                };
                if record.error.is_some() {
                    continue;
                }
                let entry = CacheEntry {
                    spec: specs[unique[slot]].clone(),
                    record: record.clone(),
                };
                if let Ok(text) = serde_json::to_string(&entry) {
                    writes.push((hashes[slot], text));
                }
            }
            // Cache writes are best-effort: an unwritable directory
            // degrades to re-execution, never to failure.
            if !writes.is_empty() && std::fs::create_dir_all(dir).is_ok() {
                let mut index = self
                    .cache_index
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let known = index.get_or_insert_with(|| Self::scan_cache_dir(dir));
                for (hash, text) in writes {
                    if std::fs::write(Self::hash_path(dir, hash), text).is_ok() {
                        known.insert(hash);
                    }
                }
            }
        }

        assignment
            .into_iter()
            .map(|slot| {
                records.get(slot).cloned().flatten().unwrap_or_else(|| {
                    RunRecord::from_error(RunError::internal(
                        "worker pool left a batch slot unexecuted",
                    ))
                })
            })
            .collect()
    }

    /// The cache file for a spec hash.
    fn hash_path(dir: &Path, hash: u64) -> PathBuf {
        dir.join(format!("{hash:016x}.json"))
    }

    /// One directory scan building the hash index: every `<16-hex>.json`
    /// entry contributes its hash. A missing or unreadable directory yields
    /// an empty index (every lookup misses, every store backfills).
    fn scan_cache_dir(dir: &Path) -> BTreeSet<u64> {
        let mut known = BTreeSet::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return known;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let Some(hex) = name.strip_suffix(".json") else {
                continue;
            };
            if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                if let Ok(hash) = u64::from_str_radix(hex, 16) {
                    known.insert(hash);
                }
            }
        }
        known
    }

    /// Loads the cached record stored under `hash`, verifying the stored
    /// spec matches. Stale entries (hash collision or schema drift) are
    /// treated as misses so the spec re-executes.
    fn cache_read(dir: &Path, hash: u64, spec: &RunSpec) -> Option<RunRecord> {
        let text = std::fs::read_to_string(Self::hash_path(dir, hash)).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        if entry.spec != *spec {
            return None;
        }
        let mut record = entry.record;
        record.meta.cached = true;
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec::new(
            MlWorkloadKind::Cnn1,
            PolicyKind::Baseline,
            &ExperimentConfig::quick(),
        )
    }

    /// A §VI proposed-hardware spec with both proposals switched on.
    fn proposed_hardware() -> PolicySpec {
        PolicySpec::ProposedHardware(MemHardware {
            distress: kelp_mem::DistressScope::PerDomain,
            adaptive_prefetch: Some(kelp_mem::AdaptivePrefetch::default()),
        })
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let fixed = quick_spec()
            .with_cpu(CpuSpec::new(BatchKind::Stitch, 4).with_label("Stitch#1"))
            .with_policy(PolicySpec::FixedPrefetch(0.5))
            .with_seed(3);
        let proposed = fixed.clone().with_policy(proposed_hardware());
        for spec in [fixed, proposed] {
            let text = serde_json::to_string(&spec).unwrap();
            let back: RunSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.hash(), spec.hash());
        }
    }

    #[test]
    fn streaming_hash_matches_buffered_hash() {
        use kelp_simcore::fault::{FaultEvent, FaultKind};
        use kelp_simcore::time::SimDuration;
        let specs = [
            quick_spec(),
            quick_spec()
                .with_cpu(CpuSpec::new(BatchKind::Stitch, 4).with_label("St\"itch\n#1"))
                .with_policy(PolicySpec::FixedPrefetch(0.125))
                .with_seed(u64::MAX),
            RunSpec::cpu_only(PolicyKind::Baseline, &ExperimentConfig::quick())
                .with_ml(MlSpec::Rnn1AtLoad(123.456)),
            quick_spec().with_faults(FaultPlan::new().with(FaultEvent::new(
                FaultKind::CounterDropout,
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
                1.0,
            ))),
        ];
        for spec in &specs {
            assert_eq!(
                spec.hash(),
                fnv1a64(&serde_json::to_vec(spec).unwrap()),
                "streaming hash diverged from the buffered path for {spec:?}"
            );
        }
    }

    #[test]
    fn hash_distinguishes_specs() {
        let a = quick_spec();
        let b = quick_spec().with_seed(1);
        let c = quick_spec().with_cpu(CpuSpec::new(BatchKind::Stream, 16));
        let d = quick_spec().with_policy(proposed_hardware());
        let e = quick_spec().with_policy(PolicySpec::FixedPrefetch(0.0));
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_ne!(d.hash(), e.hash());
        assert_ne!(d.hash(), a.hash());
    }

    #[test]
    fn spec_run_matches_builder_run() {
        let spec = quick_spec().with_cpu(CpuSpec::new(BatchKind::Stream, 8));
        let via_spec = spec.execute();
        let via_builder = Experiment::builder(MlWorkloadKind::Cnn1, PolicyKind::Baseline)
            .add_cpu_workload(BatchWorkload::new(BatchKind::Stream, 8))
            .config(ExperimentConfig::quick())
            .run();
        assert_eq!(
            via_spec.ml_performance.throughput,
            via_builder.ml_performance.throughput
        );
        assert_eq!(
            via_spec.cpu_total_throughput(),
            via_builder.cpu_total_throughput()
        );
    }

    #[test]
    fn batch_dedupes_identical_specs() {
        let spec = quick_spec();
        let records = Runner::serial().run_batch(&[spec.clone(), spec.clone()]);
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].ml_performance.throughput,
            records[1].ml_performance.throughput
        );
    }

    #[test]
    fn seed_zero_keeps_calibrated_params_and_nonzero_perturbs_rnn1() {
        let base = RunSpec::new(
            MlWorkloadKind::Rnn1,
            PolicyKind::Baseline,
            &ExperimentConfig::quick(),
        );
        let a = base.clone().execute();
        let b = base.clone().execute();
        assert_eq!(a.ml_performance.throughput, b.ml_performance.throughput);
        let c = base.with_seed(99).execute();
        // A different arrival-process seed produces a different (but still
        // valid) trajectory.
        assert_ne!(
            a.ml_performance.tail_latency_ms,
            c.ml_performance.tail_latency_ms
        );
        assert!(c.ml_performance.throughput > 0.0);
    }

    #[test]
    fn validate_rejects_sat_watermark_without_standard_ml() {
        let spec = RunSpec::cpu_only(PolicyKind::Baseline, &ExperimentConfig::quick())
            .with_policy(PolicySpec::KelpSatWatermark(0.5));
        let err = spec.validate().unwrap_err();
        assert!(!err.panicked);
        assert!(err.message.contains("standard ML workload"));
        // Execution surfaces the same error as a record, not a panic.
        let record = spec.execute();
        let error = record.error.expect("validation error should be recorded");
        assert!(!error.panicked);
        assert_eq!(record.ml_performance.throughput, 0.0);
        assert_eq!(record.meta.sim_steps, 0);
    }

    #[test]
    fn caught_panic_becomes_error_record() {
        // An inverted saturation watermark (low > high) trips the Watermark
        // constructor's assertion during policy setup; the engine must turn
        // that into an error record instead of unwinding through the batch.
        let spec = quick_spec().with_policy(PolicySpec::KelpSatWatermark(-1.0));
        let record = spec.execute();
        let error = record.error.expect("panic should be caught");
        assert!(error.panicked);
        assert!(error.message.contains("watermark"));
    }

    #[test]
    fn fault_plan_changes_spec_hash() {
        use kelp_simcore::fault::{FaultEvent, FaultKind};
        use kelp_simcore::time::SimDuration;
        let base = quick_spec();
        let faulty = quick_spec().with_faults(FaultPlan::new().with(FaultEvent::new(
            FaultKind::CounterDropout,
            SimDuration::from_millis(100),
            SimDuration::from_millis(50),
            1.0,
        )));
        assert_ne!(base.hash(), faulty.hash());
        // An explicitly empty plan is the same spec as the default.
        assert_eq!(
            base.hash(),
            quick_spec().with_faults(FaultPlan::new()).hash()
        );
    }

    #[test]
    fn reversal_counter_ignores_monotone_motion() {
        let mk = |vals: &[i64]| reversals(vals.iter().copied());
        assert_eq!(mk(&[0, 1, 2, 3, 4]), 0);
        assert_eq!(mk(&[4, 3, 3, 2, 2]), 0);
        assert_eq!(mk(&[0, 2, 1, 3, 0]), 3);
        assert_eq!(mk(&[1, 1, 1, 1]), 0);
        assert_eq!(mk(&[0, 3, 3, 1]), 1);
    }

    #[test]
    fn meta_records_steps_and_is_reproducible() {
        let record = quick_spec().execute();
        let cfg = ExperimentConfig::quick();
        assert_eq!(
            record.meta.sim_steps,
            (cfg.warmup + cfg.duration).div_duration(cfg.dt)
        );
        assert!(!record.meta.cached);
        assert_eq!(
            record,
            quick_spec().execute(),
            "a record is a function of its spec"
        );
    }

    #[test]
    fn clones_run_overlapping_batches_from_two_threads() {
        // Clones share `pool` and `cache_index`: two threads released
        // together run pool-sized batches at once, contend for both
        // mutexes, and both execute and cache seeds 2..6.
        let dir = std::env::temp_dir().join(format!("kelp-runner-clones-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = |seeds: std::ops::Range<u64>| -> Vec<RunSpec> {
            seeds.map(|seed| quick_spec().with_seed(seed)).collect()
        };
        let uncached = |record: &RunRecord| {
            let mut record = record.clone();
            record.meta.cached = false;
            record
        };
        let serial = Runner::serial().run_batch(&specs(0..8));

        let runner = Runner::new(2).with_cache(&dir);
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles = [specs(0..6), specs(2..8)].map(|batch| {
            assert!(batch.len() > POOL_SPAWN_THRESHOLD);
            let (runner, start) = (runner.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                (batch[0].seed, runner.run_batch(&batch))
            })
        });
        for handle in handles {
            let (first, records) = handle.join().expect("batch thread panicked");
            for (seed, record) in (first..).zip(&records) {
                assert_eq!(
                    uncached(record),
                    serial[seed as usize],
                    "seed {seed} diverged from serial"
                );
            }
        }

        let warm = Runner::new(2).with_cache(&dir).run_batch(&specs(0..8));
        let _ = std::fs::remove_dir_all(&dir);
        for (seed, record) in warm.iter().enumerate() {
            assert!(record.meta.cached, "seed {seed} missed the cache");
            assert_eq!(uncached(record), serial[seed], "seed {seed} cached wrong");
        }
    }
}
