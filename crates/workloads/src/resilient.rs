//! Fleet-scale fault injection and self-healing placement (ISSUE 7).
//!
//! [`ResilientFleet`] extends the stepped host fleet of [`crate::fleet`]
//! with machine-lifecycle faults and a Borg-like control loop that reacts
//! to them. Every machine carries a seeded [`FaultPlan`] of machine-level
//! fault windows ([`FaultKind::MachineCrash`],
//! [`FaultKind::MachineBrownout`], [`FaultKind::SolverStress`]); each tick
//! the fleet
//!
//! 1. applies the plans' lifecycle transitions (crash, begin-recovery,
//!    restore, brownout derate, solver stress) to the [`HostMachine`]s,
//! 2. — with self-healing on — drains distressed machines (crashed, or
//!    persistently answering safe-state reports), evicts their
//!    high-priority placements and reschedules the displaced jobs across
//!    *other* failure domains under capped exponential backoff, throttles
//!    batch tenants on browned-out machines, and backfills recovered
//!    capacity, then
//! 3. steps every machine through either the scalar solve path
//!    ([`ResilientFleet::tick_serial`]) or the batched SoA path
//!    ([`ResilientFleet::tick_batched`]); the two are bit-identical,
//!    including across crash and restart ticks.
//!
//! The static baseline (`self_healing: false`) suffers the identical fault
//! schedule but leaves every job bound to its home machine, so the
//! experiment in `kelp::experiments::fleet_faults` can attribute the SLO
//! difference purely to the placement loop.
//!
//! All control decisions are pure functions of `(config, seed, tick)` plus
//! the (path-invariant) machine reports, so a serial and a batched run of
//! the same config never diverge.

use kelp_host::placement::{FleetPlacer, PlacementId};
use kelp_host::{
    CpuAllocation, HostBatch, HostMachine, HostTaskId, MachineLifecycle, MachineReport, Priority,
    SolveHealth, TaskSpec, ThreadProfile,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode};
use kelp_simcore::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, MachinePhase};
use kelp_simcore::rng::SimRng;
use kelp_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One simulated tick is one millisecond of fault-plan time.
const TICK: SimDuration = SimDuration::from_millis(1);

/// Consecutive safe-state reports after which a *serving* machine counts
/// as distressed and is drained (crashed machines are drained on the crash
/// tick itself). Two ticks filters the occasional one-off rescue without
/// letting a wedged solver hold high-priority work hostage.
const DISTRESS_TICKS: u32 = 2;

/// Batch-tenant intensity on a browned-out (Degraded) machine while
/// self-healing: a hard pause. Anything softer is a no-op at saturation —
/// a duty-cycled streaming tenant still demands more than its equal
/// bandwidth share, so only parking it returns bandwidth to the
/// co-resident high-priority job (the same hard-throttle Kelp applies to
/// antagonists when the ML job falls behind).
const DEGRADED_BATCH_LEVEL: f64 = 0.0;

/// Fleet SLO attainment below which a tick counts as degraded (used for
/// the time-to-recover style `degraded_ticks` metric).
const DEGRADED_ATTAINMENT: f64 = 0.95;

/// Configuration of a [`ResilientFleet`] run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilientFleetConfig {
    /// Number of simulated hosts.
    pub machines: usize,
    /// Root seed: population build, fault plans and restart delays all
    /// derive from it.
    pub seed: u64,
    /// Ticks the run lasts (fault windows are scheduled inside this span).
    pub ticks: u64,
    /// Failure domains; machine `m` belongs to domain `m % failure_domains`.
    /// Displaced jobs are rescheduled strictly outside the domain that
    /// dropped them (no restriction when there is only one domain).
    pub failure_domains: usize,
    /// The machine-level fault class this run injects (one of
    /// [`FaultKind::machine_level`]).
    pub kind: FaultKind,
    /// Fault magnitude (class-specific units, see [`FaultKind`]).
    pub magnitude: f64,
    /// Per-machine probability of being afflicted with a fault window.
    pub fault_probability: f64,
    /// Length of each fault window as a fraction of the run.
    pub outage_fraction: f64,
    /// Whether the self-healing control loop runs (`false` = static
    /// baseline: same faults, no reaction).
    pub self_healing: bool,
    /// Cap on the exponential reschedule backoff, in ticks.
    pub backoff_cap: u64,
    /// Cores per high-priority job (one job homed on each machine).
    pub hp_cores: usize,
    /// Low-priority batch tasks added to every machine.
    pub batch_tasks_per_machine: usize,
}

impl Default for ResilientFleetConfig {
    fn default() -> Self {
        ResilientFleetConfig {
            machines: 24,
            seed: 0xFA_117,
            ticks: 96,
            failure_domains: 4,
            kind: FaultKind::MachineCrash,
            magnitude: 1.0,
            fault_probability: 0.25,
            outage_fraction: 0.15,
            self_healing: true,
            backoff_cap: 8,
            hp_cores: 4,
            batch_tasks_per_machine: 1,
        }
    }
}

/// Where a high-priority job currently lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    /// Running on `machine` as `task`, reserved through `placement`.
    Placed {
        machine: usize,
        task: HostTaskId,
        placement: PlacementId,
    },
    /// Displaced from `from_domain`; the next placement attempt happens at
    /// `retry_at` with the current `backoff` (ticks, doubled per failure up
    /// to the configured cap).
    Pending {
        from_domain: usize,
        retry_at: u64,
        backoff: u64,
    },
}

/// One high-priority job: identity survives displacement and rescheduling.
#[derive(Debug, Clone)]
struct HpJob {
    /// Stable name (task specs re-created on reschedule are identical).
    name: String,
    /// The machine the job was born on; a recovered home machine takes its
    /// job back (backfill), undoing the doubling-up a rescue placement
    /// causes elsewhere.
    home: usize,
    /// Cores the job needs.
    cores: usize,
    /// Streaming work rate (units/s at full speed).
    rate: f64,
    /// Achieved rate on the first healthy placed tick; the job's SLO
    /// reference.
    baseline: Option<f64>,
    /// Tick the current displacement started (while pending).
    displaced_at: Option<u64>,
    state: JobState,
}

/// Aggregate outcome of a [`ResilientFleet`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientRunMetrics {
    /// Ticks observed.
    pub ticks: u64,
    /// Fault-window onsets observed across the fleet (crash, brownout or
    /// stress windows opening).
    pub fault_onsets: u64,
    /// Mean over ticks of the fraction of machines in distress (not
    /// serving, or answering non-healthy reports).
    pub mean_distress_fraction: f64,
    /// Mean over ticks of fleet SLO attainment: achieved high-priority
    /// work rate over the jobs' baseline rates (pending jobs contribute
    /// zero achieved).
    pub slo_attainment: f64,
    /// Ticks with attainment below 95 % — the time-to-recover proxy both
    /// policies are compared on.
    pub degraded_ticks: u64,
    /// High-priority job displacement events.
    pub displaced_jobs: u64,
    /// Successful reschedules of displaced jobs.
    pub reschedules: u64,
    /// Jobs migrated back to their recovered home machine (backfill).
    pub rehomes: u64,
    /// Jobs still pending when the run ended (self-healing aims for 0).
    pub lost_jobs: u64,
    /// Longest any displacement waited before rescheduling, in ticks.
    pub max_pending_ticks: u64,
    /// Mean ticks from displacement to reschedule (0 when none happened).
    pub mean_time_to_recover: f64,
    /// Machine-steps answered with the safe-state report.
    pub safe_state_steps: u64,
    /// Machine-steps rescued by the cold high-budget re-solve.
    pub rescued_steps: u64,
}

/// A stepped host fleet under machine-lifecycle fault injection, with an
/// optional self-healing placement loop. See the module docs for the tick
/// structure; construct with [`ResilientFleet::new`], drive with
/// [`ResilientFleet::tick_serial`] or [`ResilientFleet::tick_batched`],
/// and read the outcome from [`ResilientFleet::metrics`].
#[derive(Debug)]
pub struct ResilientFleet {
    config: ResilientFleetConfig,
    machines: Vec<HostMachine>,
    /// Per-machine fault injector (plan + seed), index-aligned.
    injectors: Vec<FaultInjector>,
    /// Batch tasks per machine (machine-bound; they ride out faults).
    batch_tasks: Vec<Vec<HostTaskId>>,
    placer: FleetPlacer,
    jobs: Vec<HpJob>,
    /// Whether we marked this machine unavailable in the placer.
    placer_down: Vec<bool>,
    /// Consecutive safe-state reports per machine (distress detector).
    sick_streak: Vec<u32>,
    /// Previous tick's "any window active" per machine (onset counting).
    fault_active: Vec<bool>,
    /// The batch workspace, reused across ticks.
    batch: HostBatch,
    /// Reused report buffer for the batched path.
    reports_buf: Vec<MachineReport>,
    tick: u64,
    // --- metric accumulators ---
    fault_onsets: u64,
    distress_sum: f64,
    slo_sum: f64,
    degraded_ticks: u64,
    displaced_jobs: u64,
    reschedules: u64,
    rehomes: u64,
    max_pending_ticks: u64,
    ttr_sum: u64,
    safe_state_steps: u64,
    rescued_steps: u64,
}

impl ResilientFleet {
    /// Builds the fleet: one high-priority job homed on each machine, the
    /// configured batch tasks, and a seeded fault plan per machine (a
    /// `fault_probability` coin per machine; afflicted machines get one
    /// mid-run window and, with 30 % probability, a second late window).
    pub fn new(config: ResilientFleetConfig) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let n = config.machines;
        let mut machines = Vec::with_capacity(n);
        let mut batch_tasks = Vec::with_capacity(n);
        let mut placer = FleetPlacer::new(vec![24; n]);
        let mut jobs = Vec::with_capacity(n);

        for i in 0..n {
            let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let rate = rng.uniform(1e9, 3e9);
            let name = format!("hp-{i}");
            #[expect(
                clippy::expect_used,
                reason = "a fresh placer has room on machine i for i's own job"
            )]
            let (placement, machine) = placer
                .place_where(config.hp_cores, |cand| cand == i)
                .expect("home machine has room for its own job");
            debug_assert_eq!(machine, i);
            let task = m.add_task(
                TaskSpec::new(&name, Priority::High, ThreadProfile::streaming(rate), 4),
                vec![CpuAllocation::local(DomainId::new(0, 0), config.hp_cores)],
            );
            jobs.push(HpJob {
                name,
                home: i,
                cores: config.hp_cores,
                rate,
                baseline: None,
                displaced_at: None,
                state: JobState::Placed {
                    machine: i,
                    task,
                    placement,
                },
            });
            // Batch tenants share the high-priority job's socket and are
            // deliberately bandwidth-hungry (deep MLP, short compute): the
            // contention is what gives brownout throttling something to
            // reclaim and solver stress a genuinely coupled fixed point.
            let mut tasks = Vec::new();
            for b in 0..config.batch_tasks_per_machine {
                let cores = 12 + 2 * (rng.below(3) as usize);
                let mut profile = ThreadProfile::streaming(rng.uniform(4e9, 9e9));
                profile.compute_ns_per_unit = 10.0;
                profile.mlp = 8.0;
                tasks.push(m.add_task(
                    TaskSpec::new(format!("batch-{i}-{b}"), Priority::Low, profile, cores),
                    vec![CpuAllocation::local(DomainId::new(0, 0), cores)],
                ));
            }
            batch_tasks.push(tasks);
            machines.push(m);
        }

        // Fault plans. Windows are scheduled strictly after tick 1 so the
        // first tick measures every job's healthy baseline.
        let total = TICK.as_nanos_f64() * config.ticks as f64;
        let window = SimDuration::from_nanos_f64(total * config.outage_fraction);
        let mut injectors = Vec::with_capacity(n);
        for i in 0..n {
            let mut frng = rng.fork(i as u64);
            let mut plan = FaultPlan::new();
            if frng.chance(config.fault_probability) {
                let start = SimDuration::from_nanos_f64(total * frng.uniform(0.2, 0.55))
                    .max(SimDuration::from_millis(2));
                plan = plan.with(FaultEvent::new(
                    config.kind,
                    start,
                    window,
                    config.magnitude,
                ));
                if frng.chance(0.3) {
                    let start2 = SimDuration::from_nanos_f64(total * frng.uniform(0.65, 0.8));
                    plan = plan.with(FaultEvent::new(
                        config.kind,
                        start2,
                        window,
                        config.magnitude,
                    ));
                }
            }
            injectors.push(plan.injector(config.seed ^ (i as u64).wrapping_mul(0x9E37)));
        }

        ResilientFleet {
            machines,
            injectors,
            batch_tasks,
            placer,
            jobs,
            placer_down: vec![false; n],
            sick_streak: vec![0; n],
            fault_active: vec![false; n],
            batch: HostBatch::new(),
            reports_buf: Vec::new(),
            tick: 0,
            config,
            fault_onsets: 0,
            distress_sum: 0.0,
            slo_sum: 0.0,
            degraded_ticks: 0,
            displaced_jobs: 0,
            reschedules: 0,
            rehomes: 0,
            max_pending_ticks: 0,
            ttr_sum: 0,
            safe_state_steps: 0,
            rescued_steps: 0,
        }
    }

    /// The fleet's machines.
    pub fn machines(&self) -> &[HostMachine] {
        &self.machines
    }

    /// The placement bookkeeping.
    pub fn placer(&self) -> &FleetPlacer {
        &self.placer
    }

    /// Ticks advanced so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Number of high-priority jobs currently placed.
    pub fn jobs_placed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Placed { .. }))
            .count()
    }

    /// Number of high-priority jobs currently displaced and waiting.
    pub fn jobs_pending(&self) -> usize {
        self.jobs.len() - self.jobs_placed()
    }

    /// One tick through the scalar solve path: faults and control first,
    /// then one [`HostMachine::solve`] per machine in order.
    pub fn tick_serial(&mut self) -> Vec<MachineReport> {
        self.begin_tick();
        let reports: Vec<MachineReport> = self.machines.iter().map(|m| m.solve()).collect();
        self.observe(&reports);
        reports
    }

    /// One tick through the batched SoA path: identical control flow, with
    /// one persistent [`HostBatch`] stepping every machine on the calling
    /// thread. Bit-identical to [`ResilientFleet::tick_serial`], crash and
    /// restart ticks included. The reports share the machines' rows, so a
    /// tick copies one pointer per machine. `jobs` is ignored.
    pub fn tick_batched(&mut self, _jobs: usize) -> Vec<MachineReport> {
        self.begin_tick();
        let n = self.machines.len();
        if self.reports_buf.len() != n {
            self.reports_buf.clear();
            self.reports_buf.resize_with(n, MachineReport::empty);
        }
        self.batch.step_into(&self.machines, &mut self.reports_buf);
        let reports = self.reports_buf.clone();
        self.observe(&reports);
        reports
    }

    /// Final metrics. Meaningful once at least one tick has run.
    pub fn metrics(&self) -> ResilientRunMetrics {
        let ticks = self.tick.max(1) as f64;
        ResilientRunMetrics {
            ticks: self.tick,
            fault_onsets: self.fault_onsets,
            mean_distress_fraction: self.distress_sum / ticks,
            slo_attainment: self.slo_sum / ticks,
            degraded_ticks: self.degraded_ticks,
            displaced_jobs: self.displaced_jobs,
            reschedules: self.reschedules,
            rehomes: self.rehomes,
            lost_jobs: self.jobs_pending() as u64,
            max_pending_ticks: self.max_pending_ticks,
            mean_time_to_recover: if self.reschedules == 0 {
                0.0
            } else {
                self.ttr_sum as f64 / self.reschedules as f64
            },
            safe_state_steps: self.safe_state_steps,
            rescued_steps: self.rescued_steps,
        }
    }

    /// Phase 1 of a tick: apply fault-plan lifecycle transitions, run the
    /// self-healing control loop (drain, throttle, backfill), then retry
    /// pending placements whose backoff expired.
    fn begin_tick(&mut self) {
        let t = SimTime::from_millis(self.tick);
        for i in 0..self.machines.len() {
            // Each machine-level fault is queried once per tick.
            let injector = &self.injectors[i];
            let phase = injector.machine_phase(t);
            let derate = injector.brownout_derate(t);
            let stress = injector.solver_stress(t);

            // Fault-window onset accounting (any machine-level window).
            let active = phase != MachinePhase::Up || derate < 1.0 || stress.is_some();
            if active && !self.fault_active[i] {
                self.fault_onsets += 1;
            }
            self.fault_active[i] = active;

            // Lifecycle transitions from the crash plan.
            let lifecycle = self.machines[i].lifecycle();
            match phase {
                MachinePhase::Down => {
                    if lifecycle.is_serving() {
                        self.machines[i].crash();
                    }
                }
                MachinePhase::Recovering => {
                    if lifecycle == MachineLifecycle::Down {
                        self.machines[i].begin_recovery();
                    }
                }
                MachinePhase::Up => {
                    if !lifecycle.is_serving() {
                        self.machines[i].restore();
                        // A restart invalidates the distress history along
                        // with the warm state.
                        self.sick_streak[i] = 0;
                    }
                }
            }

            // Brownout and solver stress apply continuously (the setters
            // are value-aware, so a steady fault keeps the machine clean).
            self.machines[i].set_brownout(derate);
            self.machines[i].set_solver_stress(stress);
        }

        if self.config.self_healing {
            self.heal();
        }
        self.reschedule();
    }

    /// The self-healing loop: drain machines in distress, return healthy
    /// ones to the placer (backfill), and throttle batch tenants on
    /// degraded machines.
    fn heal(&mut self) {
        for i in 0..self.machines.len() {
            let lifecycle = self.machines[i].lifecycle();
            let distressed = !lifecycle.is_serving() || self.sick_streak[i] >= DISTRESS_TICKS;
            if distressed && !self.placer_down[i] {
                self.drain(i);
            } else if !distressed && self.placer_down[i] {
                // Backfill: the machine solved healthily again, so its
                // capacity rejoins the placeable pool.
                self.placer.mark_up(i);
                self.placer_down[i] = false;
            }

            // Batch-tenant throttling rides the lifecycle, not the placer
            // state: browned-out machines keep serving their high-priority
            // job, so freeing bandwidth there is cheaper than eviction.
            let level = if lifecycle == MachineLifecycle::Degraded {
                DEGRADED_BATCH_LEVEL
            } else {
                1.0
            };
            for b in 0..self.batch_tasks[i].len() {
                let id = self.batch_tasks[i][b];
                self.machines[i].set_intensity(id, level);
            }
        }

        // Backfill: a job running away from its home returns as soon as
        // the home machine is healthy and placeable again. Without this, a
        // rescue placement permanently doubles up high-priority work on
        // the host that absorbed it.
        for j in 0..self.jobs.len() {
            let JobState::Placed {
                machine,
                task,
                placement,
            } = self.jobs[j].state
            else {
                continue;
            };
            let home = self.jobs[j].home;
            if machine == home
                || self.placer_down[home]
                || !self.machines[home].lifecycle().is_serving()
            {
                continue;
            }
            let Some((new_placement, new_machine)) =
                self.placer.place_where(self.jobs[j].cores, |m| m == home)
            else {
                continue;
            };
            debug_assert_eq!(new_machine, home);
            self.machines[machine].remove_task(task);
            self.placer.release(placement);
            let job = &self.jobs[j];
            let new_task = self.machines[home].add_task(
                TaskSpec::new(
                    &job.name,
                    Priority::High,
                    ThreadProfile::streaming(job.rate),
                    4,
                ),
                vec![CpuAllocation::local(DomainId::new(0, 0), job.cores)],
            );
            self.rehomes += 1;
            self.jobs[j].state = JobState::Placed {
                machine: home,
                task: new_task,
                placement: new_placement,
            };
        }
    }

    /// Takes machine `i` out of the placer and displaces every
    /// high-priority job placed on it into the pending queue.
    fn drain(&mut self, machine: usize) {
        let displaced = self.placer.mark_down(machine);
        self.placer_down[machine] = true;
        let fd = self.config.failure_domains.max(1);
        for (pid, _cores) in displaced {
            #[expect(
                clippy::expect_used,
                reason = "the placer evicts only placements it made for registered jobs"
            )]
            let job = self
                .jobs
                .iter_mut()
                .find(|j| matches!(j.state, JobState::Placed { placement, .. } if placement == pid))
                .expect("every evicted placement belongs to a registered job");
            if let JobState::Placed {
                machine: m, task, ..
            } = job.state
            {
                debug_assert_eq!(m, machine);
                self.machines[m].remove_task(task);
            }
            job.state = JobState::Pending {
                from_domain: machine % fd,
                retry_at: self.tick.saturating_add(1),
                backoff: 1,
            };
            job.displaced_at = Some(self.tick);
            self.displaced_jobs += 1;
        }
    }

    /// Retries pending jobs whose backoff expired: best-fit placement on a
    /// serving machine outside the failure domain that dropped the job
    /// (when more than one domain exists). Failure doubles the backoff up
    /// to the configured cap.
    fn reschedule(&mut self) {
        let fd = self.config.failure_domains.max(1);
        for j in 0..self.jobs.len() {
            let JobState::Pending {
                from_domain,
                retry_at,
                backoff,
            } = self.jobs[j].state
            else {
                continue;
            };
            if retry_at > self.tick {
                continue;
            }
            let machines = &self.machines;
            let placed = self.placer.place_where(self.jobs[j].cores, |m| {
                machines[m].lifecycle().is_serving() && (fd == 1 || m % fd != from_domain)
            });
            match placed {
                Some((placement, machine)) => {
                    let job = &self.jobs[j];
                    let task = self.machines[machine].add_task(
                        TaskSpec::new(
                            &job.name,
                            Priority::High,
                            ThreadProfile::streaming(job.rate),
                            4,
                        ),
                        vec![CpuAllocation::local(DomainId::new(0, 0), job.cores)],
                    );
                    let waited = self
                        .tick
                        .saturating_sub(self.jobs[j].displaced_at.unwrap_or(self.tick));
                    self.ttr_sum += waited;
                    self.max_pending_ticks = self.max_pending_ticks.max(waited);
                    self.reschedules += 1;
                    self.jobs[j].displaced_at = None;
                    self.jobs[j].state = JobState::Placed {
                        machine,
                        task,
                        placement,
                    };
                }
                None => {
                    let next = backoff
                        .saturating_mul(2)
                        .min(self.config.backoff_cap.max(1));
                    self.jobs[j].state = JobState::Pending {
                        from_domain,
                        retry_at: self.tick.saturating_add(next),
                        backoff: next,
                    };
                }
            }
        }
    }

    /// Phase 3 of a tick: metrics and the report-driven distress detector.
    fn observe(&mut self, reports: &[MachineReport]) {
        let n = self.machines.len();
        let mut distressed = 0usize;
        for (i, r) in reports.iter().enumerate() {
            match r.health {
                SolveHealth::SafeState => {
                    self.safe_state_steps += 1;
                    self.sick_streak[i] = self.sick_streak[i].saturating_add(1);
                }
                SolveHealth::Rescued => {
                    self.rescued_steps += 1;
                    self.sick_streak[i] = 0;
                }
                SolveHealth::Healthy => self.sick_streak[i] = 0,
            }
            if !self.machines[i].lifecycle().is_serving() || r.health != SolveHealth::Healthy {
                distressed += 1;
            }
        }
        if n > 0 {
            self.distress_sum += distressed as f64 / n as f64;
        }

        // Fleet SLO attainment against each job's healthy baseline.
        let mut got = 0.0f64;
        let mut want = 0.0f64;
        for job in &mut self.jobs {
            match job.state {
                JobState::Placed { machine, task, .. } => {
                    let achieved = reports[machine].task(task).units_per_sec;
                    if job.baseline.is_none()
                        && reports[machine].health == SolveHealth::Healthy
                        && achieved > 0.0
                    {
                        job.baseline = Some(achieved);
                    }
                    if let Some(b) = job.baseline {
                        got += achieved.min(b);
                        want += b;
                    }
                }
                JobState::Pending { .. } => {
                    if let Some(b) = job.baseline {
                        want += b;
                    }
                }
            }
        }
        let attainment = if want > 0.0 { got / want } else { 1.0 };
        self.slo_sum += attainment;
        if attainment < DEGRADED_ATTAINMENT {
            self.degraded_ticks += 1;
        }
        self.tick += 1;
    }
}

/// Runs a full configuration through the batched path and returns the
/// aggregate metrics.
pub fn run_config(config: ResilientFleetConfig) -> ResilientRunMetrics {
    let mut fleet = ResilientFleet::new(config);
    for _ in 0..config.ticks {
        fleet.tick_batched(1);
    }
    fleet.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_config() -> ResilientFleetConfig {
        ResilientFleetConfig {
            machines: 12,
            ticks: 64,
            fault_probability: 0.5,
            ..ResilientFleetConfig::default()
        }
    }

    #[test]
    fn faulty_fleet_serial_and_batched_agree() {
        let mut a = ResilientFleet::new(crash_config());
        let mut b = ResilientFleet::new(crash_config());
        for tick in 0..64 {
            let ra = a.tick_serial();
            let rb = b.tick_batched(3);
            assert_eq!(ra, rb, "tick {tick} diverged");
        }
        assert_eq!(a.metrics(), b.metrics());
        assert!(
            a.metrics().fault_onsets > 0,
            "the config must actually inject faults"
        );
    }

    #[test]
    fn self_healing_recovers_all_jobs_and_beats_static() {
        let run = |self_healing: bool| {
            // Moderate fault load: enough crashes to displace jobs, enough
            // surviving headroom that absorbing machines can actually deliver.
            let mut fleet = ResilientFleet::new(ResilientFleetConfig {
                self_healing,
                fault_probability: 0.3,
                outage_fraction: 0.5,
                ..crash_config()
            });
            // Run past the fault windows so recovered machines get a chance
            // to take their displaced jobs back.
            for _ in 0..96 {
                fleet.tick_serial();
            }
            fleet.metrics()
        };
        let healed = run(true);
        let fixed = run(false);
        assert!(healed.displaced_jobs > 0, "crashes must displace jobs");
        assert_eq!(healed.lost_jobs, 0, "every displaced job is rescheduled");
        assert_eq!(healed.reschedules, healed.displaced_jobs);
        assert!(healed.rehomes > 0, "recovered homes take their jobs back");
        // The fault schedule is identical; the attainment gap is the
        // self-healing loop's contribution. The gap is bounded by bandwidth
        // contention on absorbing machines (a displaced job shares the
        // memory system with the resident job), so it is modest in absolute
        // terms but deterministic for this seed.
        assert!(
            healed.slo_attainment > fixed.slo_attainment + 0.05,
            "self-heal {} vs static {}",
            healed.slo_attainment,
            fixed.slo_attainment
        );
        assert!(healed.degraded_ticks <= fixed.degraded_ticks);
    }

    #[test]
    fn static_baseline_does_not_move_jobs() {
        let config = ResilientFleetConfig {
            self_healing: false,
            ..crash_config()
        };
        let mut fleet = ResilientFleet::new(config);
        for _ in 0..64 {
            fleet.tick_serial();
        }
        let m = fleet.metrics();
        assert_eq!(m.displaced_jobs, 0);
        assert_eq!(m.reschedules, 0);
        assert!(m.safe_state_steps > 0, "crashed machines serve safe states");
    }
}
