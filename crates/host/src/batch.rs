//! Fleet batch stepping (ISSUE 6): many [`HostMachine`]s per solver call.
//!
//! [`HostBatch::step`] advances a slice of machines one tick through three
//! phases:
//!
//! 1. **Adaptive skip** — a machine whose configuration is unchanged since
//!    its last step (clean [`HostMachine::is_dirty`], memoization on)
//!    replays its last report without lowering or solving. This is exactly
//!    the memo hit the scalar path would take: a clean machine's lowered
//!    input is bit-identical to its previous one, and the FIFO memo cache
//!    only evicts on insert, so the entry is still present.
//! 2. **Memo lookup** — a changed machine that revisits an earlier
//!    configuration is served from its own memo cache, as in the scalar
//!    path: first by the entry's tag (configuration epoch and phase
//!    values) without lowering, then by lowering and comparing inputs.
//! 3. **Batched solve** — the remaining lanes are grouped by memory-system
//!    equality and solved through one [`BatchSolver`] arena per group via
//!    [`kelp_mem::solver::MemSystem::solve_batch_with`], then aggregated,
//!    memoized and finished exactly as a scalar step.
//!
//! The determinism contract: a `HostBatch`-stepped fleet produces
//! bit-identical reports, solve stats and memo contents to stepping every
//! machine serially with [`HostMachine::solve`].

use crate::machine::{HostMachine, LoweredStep, MachineReport, Served, SolveHealth};
use kelp_mem::batch::BatchSolver;
use kelp_mem::solver::{SolverInput, SolverScratch};

/// Cumulative counters for a [`HostBatch`]'s lifetime (saturating adds, so
/// fleet-scale campaigns cannot overflow them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostBatchStats {
    /// Machines stepped (one per machine per [`HostBatch::step`] call).
    pub machines_stepped: u64,
    /// Steps served by the adaptive skip (clean machine, no lowering).
    pub adaptive_skips: u64,
    /// Steps of a changed machine served from its memo cache, by tag or
    /// by input.
    pub memo_hits: u64,
    /// Lanes driven through the batched SoA solver.
    pub lanes_solved: u64,
    /// Batched lanes whose fixed point converged.
    pub lanes_converged: u64,
    /// Steps answered with the safe-state report because the machine was
    /// `Down`/`Recovering` (the lifecycle fast path, before any lowering).
    pub down_steps: u64,
    /// Batched lanes that fell back to the scalar rescue or safe-state
    /// ladder after a diverged or non-finite solve (lane isolation).
    pub lane_fallbacks: u64,
}

/// Reusable workspace for stepping a fleet of machines through the batched
/// solve path. One `HostBatch` per worker thread; the underlying
/// [`BatchSolver`] arenas and the lowering buffers of the pending lanes are
/// reused across calls, so the machines themselves hold none.
#[derive(Debug, Clone, Default)]
pub struct HostBatch {
    solver: BatchSolver,
    stats: HostBatchStats,
    /// Lowering buffers: pending lane `p` lowers into `pool[p]`.
    pool: Vec<LoweredStep>,
    /// Machine index of each pending lane.
    pending: Vec<usize>,
}

impl HostBatch {
    /// A fresh batch stepper (arenas grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative counters since construction (or the last
    /// [`HostBatch::reset_stats`]).
    pub fn stats(&self) -> HostBatchStats {
        self.stats
    }

    /// Zeroes the cumulative counters.
    pub fn reset_stats(&mut self) {
        self.stats = HostBatchStats::default();
    }

    /// Steps every machine one tick, returning one report per machine in
    /// order. Bit-identical to calling [`HostMachine::solve`] on each
    /// machine serially. Allocates the report vector; steady-state callers
    /// should reuse one through [`HostBatch::step_into`].
    pub fn step(&mut self, machines: &[HostMachine]) -> Vec<MachineReport> {
        let mut reports = vec![MachineReport::empty(); machines.len()];
        self.step_into(machines, &mut reports);
        reports
    }

    /// Steps every machine one tick, refreshing `reports` in place (one
    /// slot per machine, same order). Every slot ends up sharing its
    /// machine's report rows; a slot that already shares them (a replayed
    /// machine, with the slot from the previous tick) costs one pointer
    /// check. Bit-identical to [`HostBatch::step`].
    ///
    /// # Panics
    ///
    /// Panics when `reports.len() != machines.len()`.
    pub fn step_into(&mut self, machines: &[HostMachine], reports: &mut [MachineReport]) {
        let n = machines.len();
        assert_eq!(reports.len(), n, "one report slot per machine");
        let HostBatch {
            solver,
            stats,
            pool,
            pending,
        } = self;
        let mut filled = 0usize;

        // Phases 1 + 2: down machines, adaptive skips and memo hits drop
        // out before the solver sees them. The `serve_*` calls are the ones
        // the scalar path makes, so stats and reports stay bit-identical.
        pending.clear();
        for (i, m) in machines.iter().enumerate() {
            stats.machines_stepped = stats.machines_stepped.saturating_add(1);
            let served = m.serve_unchanged().unwrap_or_else(|| {
                if pool.len() == pending.len() {
                    pool.push(LoweredStep::default());
                }
                m.serve_changed(&mut pool[pending.len()])
            });
            let counter = match served {
                Served::SafeState => &mut stats.down_steps,
                Served::Replay => &mut stats.adaptive_skips,
                Served::MemoHit => &mut stats.memo_hits,
                Served::Solve => {
                    pending.push(i);
                    continue;
                }
            };
            *counter = counter.saturating_add(1);
            reports[i].clone_from(&m.last_report());
            filled += 1;
        }

        // Phase 3: group pending lanes by memory-system equality (lanes in
        // one `solve_batch_with` call share the representative's system, so
        // only machines with equal systems may share a batch). First-fit
        // keeps lane order stable within each group; grouping cannot affect
        // results because lanes are independent.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (p, &i) in pending.iter().enumerate() {
            let sys = machines[i].mem();
            match groups
                .iter_mut()
                .find(|g| machines[pending[g[0]]].mem() == sys)
            {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }

        for group in &groups {
            let rep_machine = &machines[pending[group[0]]];
            let inputs: Vec<&SolverInput> = group.iter().map(|&p| &pool[p].input).collect();
            let mut borrows: Vec<std::cell::RefMut<'_, SolverScratch>> = group
                .iter()
                .map(|&p| machines[pending[p]].scratch_mut())
                .collect();
            let mut lanes: Vec<&mut SolverScratch> = borrows.iter_mut().map(|b| &mut **b).collect();
            let mut outputs = Vec::with_capacity(group.len());
            rep_machine
                .mem()
                .solve_batch_with(&inputs, &mut lanes, solver, &mut outputs);
            drop(lanes);
            drop(borrows);
            stats.lanes_solved = stats.lanes_solved.saturating_add(group.len() as u64);
            stats.lanes_converged = stats
                .lanes_converged
                .saturating_add(solver.last_converged_lanes() as u64);

            for (&p, output) in group.iter().zip(outputs) {
                let i = pending[p];
                let m = &machines[i];
                // Lane isolation: a diverged or non-finite lane resolves
                // through the machine's rescue / safe-state ladder instead
                // of shipping the damped estimate. `finish_solve` is the
                // exact routine the scalar path runs, so a sick lane's
                // report, stats and memo entry are path-invariant.
                m.finish_solve(&pool[p], output);
                let report = m.last_report();
                if report.health != SolveHealth::Healthy {
                    stats.lane_fallbacks = stats.lane_fallbacks.saturating_add(1);
                }
                reports[i].clone_from(&report);
                filled += 1;
            }
        }

        debug_assert_eq!(
            filled, n,
            "every slot is written by exactly one of the three phases"
        );
        // Keep as many buffers as this step lowered into: a burst, such as
        // a fleet's first step lowering every machine, stays pinned only
        // until a quieter step.
        pool.truncate(pending.len() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CpuAllocation;
    use crate::task::{Priority, TaskSpec, ThreadProfile};
    use kelp_mem::topology::{DomainId, MachineSpec, SncMode};

    fn fleet(n: usize) -> Vec<HostMachine> {
        (0..n)
            .map(|i| {
                let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
                m.add_task(
                    TaskSpec::new(
                        "ml",
                        Priority::High,
                        ThreadProfile::streaming(1e9 + 1e8 * i as f64),
                        4,
                    ),
                    vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
                );
                m
            })
            .collect()
    }

    /// Batch stepping matches serial stepping bit-for-bit across ticks,
    /// including solve stats, and clean machines take the adaptive skip.
    #[test]
    fn batch_step_matches_serial_steps() {
        let batch_fleet = fleet(6);
        let serial_fleet = fleet(6);
        let mut batch = HostBatch::new();
        for tick in 0..3 {
            let batched = batch.step(&batch_fleet);
            let serial: Vec<MachineReport> = serial_fleet.iter().map(|m| m.solve()).collect();
            assert_eq!(batched, serial, "tick {tick} diverged");
        }
        for (b, s) in batch_fleet.iter().zip(&serial_fleet) {
            assert_eq!(b.solve_stats(), s.solve_stats());
        }
        let stats = batch.stats();
        assert_eq!(stats.machines_stepped, 18);
        // Tick 0 solves all six lanes; ticks 1–2 skip every clean machine.
        assert_eq!(stats.lanes_solved, 6);
        assert_eq!(stats.adaptive_skips, 12);
        assert_eq!(stats.lanes_converged, 6);
    }

    /// An empty fleet is a no-op.
    #[test]
    fn empty_fleet_step_is_noop() {
        let mut batch = HostBatch::new();
        assert!(batch.step(&[]).is_empty());
        assert_eq!(batch.stats(), HostBatchStats::default());
    }
}
