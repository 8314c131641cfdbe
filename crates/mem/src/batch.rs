//! Batched structure-of-arrays solve path (ISSUE 6).
//!
//! [`BatchSolver`] packs N machines' per-solve tables into shared flat
//! arenas — one [`super::solver::MemSystem`]-derived table set, one lane
//! arena holding every lane's precompute back to back, one contiguous rate
//! buffer — and drives all N fixed points through
//! [`kelp_simcore::fixedpoint::solve_fixed_point_batch_into`], with
//! converged lanes dropping out of the iteration.
//!
//! The determinism contract mirrors PR 4's scratch-reuse contract: lane `l`
//! of [`MemSystem::solve_batch_with`] is **bit-identical** to calling
//! [`MemSystem::solve_with`] serially on machine `l`'s own
//! [`SolverScratch`], including warm-start behavior — the per-machine warm
//! state stays in each machine's scratch, and each lane's evaluation runs
//! the exact same [`solver::LaneView`]-based arithmetic as the scalar path
//! over the lane's slice of the arena.

use kelp_simcore::fixedpoint::{solve_fixed_point_batch_into, FixedPointStats};

use crate::solver::{
    DomainTables, EvalBufs, LaneTables, LaneView, MemSystem, SolveOutcome, SolverInput,
    SolverOutput, SolverScratch,
};

/// One lane's ranges into the [`BatchSolver`] arenas. All table indices the
/// lane stores are lane-local, so subslicing by these ranges yields a view
/// identical to the lane's own scalar scratch.
#[derive(Debug, Clone, Copy, Default)]
struct LaneRange {
    task_start: usize,
    task_end: usize,
    data_start: usize,
    data_end: usize,
    /// Start of this lane's `n_domains + 1` membership prefix entries.
    member_start: usize,
    /// Start of this lane's `member_idx` segment (`task_end - task_start`
    /// entries).
    idx_start: usize,
    flow_start: usize,
    flow_end: usize,
    usage_start: usize,
    usage_end: usize,
    /// Whether this lane was warm-started from its machine's scratch.
    warm: bool,
}

/// Reusable arena workspace for [`MemSystem::solve_batch_with`].
///
/// One `BatchSolver` per worker thread amortizes all batch-path allocation:
/// the shared domain tables, the flat lane arena, the contiguous rate
/// buffer, the active-lane mask and the per-iteration evaluation buffers
/// are all reused across calls. The evaluation buffers are safely shared
/// across lanes because lanes are evaluated serially and every buffer is
/// cleared or fully overwritten at the start of the evaluation that reads
/// it.
#[derive(Debug, Clone, Default)]
pub struct BatchSolver {
    shared: DomainTables,
    lane: LaneTables,
    ranges: Vec<LaneRange>,
    rates: Vec<f64>,
    lane_ends: Vec<usize>,
    active: Vec<bool>,
    fp_stats: Vec<FixedPointStats>,
    fx: Vec<f64>,
    bufs: EvalBufs,
    cursor: Vec<usize>,
}

impl BatchSolver {
    /// A fresh batch workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes that converged in the most recent
    /// [`MemSystem::solve_batch_with`] call.
    pub fn last_converged_lanes(&self) -> usize {
        self.fp_stats.iter().filter(|s| s.converged).count()
    }
}

impl MemSystem {
    /// Solves `inputs` as one batch, reusing `batch`'s arenas, and appends
    /// one [`SolverOutput`] per lane (in input order) to `outputs`.
    ///
    /// `lanes[l]` is machine `l`'s own [`SolverScratch`]; only its
    /// warm-start state is consulted and updated, so a machine can move
    /// freely between the scalar and batched paths between ticks. Every
    /// lane's result is bit-identical to a serial
    /// [`MemSystem::solve_with`] call against the same scratch.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` and `lanes` disagree in length.
    pub fn solve_batch_with(
        &self,
        inputs: &[&SolverInput],
        lanes: &mut [&mut SolverScratch],
        batch: &mut BatchSolver,
        outputs: &mut Vec<SolverOutput>,
    ) {
        assert_eq!(
            inputs.len(),
            lanes.len(),
            "one scratch per batched solver input"
        );
        let n_lanes = inputs.len();
        if n_lanes == 0 {
            return;
        }

        self.build_domain_tables(&mut batch.shared);
        let n_domains = batch.shared.domains.len();

        // --- Pack every lane's tables into the flat arenas ----------------
        batch.lane.clear();
        batch.ranges.clear();
        batch.rates.clear();
        batch.lane_ends.clear();
        for (l, input) in inputs.iter().enumerate() {
            let task_start = batch.lane.task_pre.len();
            let data_start = batch.lane.data_pre.len();
            let member_start = batch.lane.member_start.len();
            let idx_start = batch.lane.member_idx.len();
            let flow_start = batch.lane.flows.len();
            let usage_start = batch.lane.usage.len();
            let rate_start = batch.rates.len();
            self.append_lane(
                input,
                &batch.shared,
                &mut batch.lane,
                &mut batch.cursor,
                &mut batch.rates,
            );

            // Warm start exactly as the scalar path: replace the zero-load
            // initial guess with this machine's previous converged rates
            // when the task-vector shape matches.
            let n_tasks = input.tasks.len();
            let seed = if self.warm_start_enabled() && n_tasks > 0 {
                lanes[l].warm_seed().filter(|p| p.len() == n_tasks)
            } else {
                None
            };
            let warm = seed.is_some();
            if let Some(seed) = seed {
                batch.rates[rate_start..].copy_from_slice(seed);
            }

            batch.ranges.push(LaneRange {
                task_start,
                task_end: batch.lane.task_pre.len(),
                data_start,
                data_end: batch.lane.data_pre.len(),
                member_start,
                idx_start,
                flow_start,
                flow_end: batch.lane.flows.len(),
                usage_start,
                usage_end: batch.lane.usage.len(),
                warm,
            });
            batch.lane_ends.push(batch.rates.len());
        }

        batch.active.clear();
        batch.active.resize(n_lanes, true);
        batch.fp_stats.clear();
        batch.fp_stats.resize(n_lanes, FixedPointStats::default());

        // --- Drive all fixed points over the one contiguous rate buffer ---
        let BatchSolver {
            shared,
            lane,
            ranges,
            rates,
            lane_ends,
            active,
            fp_stats,
            fx,
            bufs,
            ..
        } = batch;
        solve_fixed_point_batch_into(
            rates,
            lane_ends,
            active,
            fp_stats,
            fx,
            |l, x, out| {
                let mut view = lane_view(lane, &ranges[l], n_domains);
                self.eval_lean_view(x, inputs[l], shared, &mut view, bufs);
                out.extend_from_slice(&bufs.next_rates);
            },
            self.fp_config(),
        );

        // --- One final full evaluation per lane at its converged rates ----
        outputs.reserve(n_lanes);
        for (l, input) in inputs.iter().enumerate() {
            let rate_start = if l == 0 { 0 } else { lane_ends[l - 1] };
            let lane_rates = &rates[rate_start..lane_ends[l]];
            let mut view = lane_view(lane, &ranges[l], n_domains);
            outputs.push(self.eval_full_view(
                lane_rates,
                input,
                shared,
                &mut view,
                bufs,
                SolveOutcome {
                    fp: fp_stats[l],
                    warm: ranges[l].warm,
                },
            ));
            lanes[l].store_warm(lane_rates);
        }
    }
}

/// Subslices the arena to one lane's tables.
fn lane_view<'a>(lane: &'a mut LaneTables, r: &LaneRange, n_domains: usize) -> LaneView<'a> {
    LaneView {
        task_pre: &lane.task_pre[r.task_start..r.task_end],
        data_pre: &lane.data_pre[r.data_start..r.data_end],
        member_start: &lane.member_start[r.member_start..r.member_start + n_domains + 1],
        member_idx: &lane.member_idx[r.idx_start..r.idx_start + (r.task_end - r.task_start)],
        flows: &mut lane.flows[r.flow_start..r.flow_end],
        usage: &lane.usage[r.usage_start..r.usage_end],
        flow_refs: &lane.flow_refs[r.flow_start..r.flow_end],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolverTask, TaskKey};
    use crate::topology::{DomainId, MachineSpec, SncMode};

    fn small_input(seed: usize) -> SolverInput {
        let mut a = SolverTask::local(TaskKey(0), DomainId::new(0, 0), 2.0 + seed as f64);
        a.accesses_per_unit = 1.5 + 0.25 * seed as f64;
        let mut b = SolverTask::local(TaskKey(1), DomainId::new(1, 0), 4.0);
        b.accesses_per_unit = 3.0;
        SolverInput {
            tasks: vec![a, b],
            fixed_flows: vec![],
        }
    }

    /// A batch of distinct inputs matches serial `solve_with` bit-for-bit,
    /// warm state included, across repeated ticks on the same scratches.
    #[test]
    fn batch_matches_serial_solves_bitwise() {
        let sys = MemSystem::new(MachineSpec::dual_socket(), SncMode::Enabled);
        let inputs: Vec<SolverInput> = (0..5).map(small_input).collect();
        let mut serial_scratch: Vec<SolverScratch> = (0..5).map(|_| Default::default()).collect();
        let mut batch_scratch: Vec<SolverScratch> = (0..5).map(|_| Default::default()).collect();
        let mut batch = BatchSolver::new();
        for _tick in 0..3 {
            let serial: Vec<SolverOutput> = inputs
                .iter()
                .zip(&mut serial_scratch)
                .map(|(i, s)| sys.solve_with(i, s))
                .collect();
            let input_refs: Vec<&SolverInput> = inputs.iter().collect();
            let mut lane_refs: Vec<&mut SolverScratch> = batch_scratch.iter_mut().collect();
            let mut outputs = Vec::new();
            sys.solve_batch_with(&input_refs, &mut lane_refs, &mut batch, &mut outputs);
            assert_eq!(outputs, serial);
            assert!(batch.last_converged_lanes() > 0);
        }
    }

    /// An empty batch is a no-op.
    #[test]
    fn empty_batch_is_noop() {
        let sys = MemSystem::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut batch = BatchSolver::new();
        let mut outputs = Vec::new();
        sys.solve_batch_with(&[], &mut [], &mut batch, &mut outputs);
        assert!(outputs.is_empty());
        assert_eq!(batch.last_converged_lanes(), 0);
    }
}
