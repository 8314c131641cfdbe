//! Seeded property test for the machine-owned step report.
//!
//! A [`HostMachine`] keeps its last step's report and lends it out through
//! [`HostMachine::step`]; [`HostMachine::step_into`] shares its rows with a
//! caller's buffer and [`HostBatch::step_into`] with a fleet slot. Three
//! twin machines driven through the same random sequence of mutations —
//! one per path — must agree at every tick on the report, the solve stats
//! and the memo contents. The sequences mix idle ticks (replays), revisited
//! configurations (memo hits), shape changes (tasks removed, flows added)
//! and the whole lifecycle (crash, recovery, restore, brownout, solver
//! stress), so every branch that writes the owned report runs.

use kelp_host::machine::FlowId;
use kelp_host::{
    CpuAllocation, HostBatch, HostBatchStats, HostMachine, HostTaskId, MachineReport, Priority,
    ReportRows, TaskSpec, ThreadProfile,
};
use kelp_mem::solver::{FixedFlow, SolverTuning};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode, SocketId};
use kelp_simcore::rng::SimRng;

const CASES: usize = 32;
const TICKS: usize = 64;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG stream.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut root = SimRng::seed_from(seed);
    for case in 0..CASES {
        let mut rng = root.fork(case as u64);
        body(&mut rng);
    }
}

/// One mutation, applied identically to every twin.
#[derive(Debug, Clone, Copy)]
enum Op {
    Intensity(HostTaskId, f64),
    FlowGbps(FlowId, f64),
    AddFlow,
    RemoveTask(HostTaskId),
    Crash,
    BeginRecovery,
    Restore,
    Brownout(f64),
    SolverStress(Option<f64>),
    Tuning(SolverTuning),
    ChannelDerate(f64),
}

impl Op {
    fn apply(self, m: &mut HostMachine) {
        match self {
            Op::Intensity(id, level) => m.set_intensity(id, level),
            Op::FlowGbps(id, gbps) => m.set_flow_gbps(id, gbps),
            Op::AddFlow => {
                m.add_flow(FixedFlow {
                    target: DomainId::new(0, 0),
                    source_socket: None,
                    gbps: 4.0,
                    weight: 1.0,
                });
            }
            Op::RemoveTask(id) => m.remove_task(id),
            Op::Crash => m.crash(),
            Op::BeginRecovery => m.begin_recovery(),
            Op::Restore => m.restore(),
            Op::Brownout(retained) => m.set_brownout(retained),
            Op::SolverStress(severity) => m.set_solver_stress(severity),
            Op::Tuning(tuning) => m.set_solver_tuning(tuning),
            // `mem_mut` drops the memo: the next step must recompute.
            Op::ChannelDerate(retained) => m.mem_mut().set_channel_derate(SocketId(0), retained),
        }
    }
}

/// A host with an ML task, up to two batch tasks and up to two flows;
/// returns the machine, its task ids and its flow count.
fn arb_machine(rng: &mut SimRng) -> (HostMachine, Vec<HostTaskId>, usize) {
    let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
    let mut tasks = vec![m.add_task(
        TaskSpec::new(
            "ml",
            Priority::High,
            ThreadProfile::streaming(rng.uniform(1e9, 4e9)),
            4,
        ),
        vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
    )];
    for b in 0..rng.below(3) {
        tasks.push(m.add_task(
            TaskSpec::new(
                format!("batch-{b}"),
                Priority::Low,
                ThreadProfile::streaming(rng.uniform(5e8, 3e9)),
                8,
            ),
            vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
        ));
    }
    let flows = rng.below(3) as usize;
    for _ in 0..flows {
        m.add_flow(FixedFlow {
            target: DomainId::new(0, 0),
            source_socket: None,
            gbps: rng.uniform(0.0, 10.0),
            weight: 1.0,
        });
    }
    (m, tasks, flows)
}

/// A tick's mutations: none on most ticks (so clean machines replay), and
/// values from small alphabets (so changed machines revisit memo entries).
fn arb_ops(rng: &mut SimRng, tasks: &[HostTaskId], flows: usize) -> Vec<Op> {
    const LEVELS: [f64; 3] = [0.25, 0.5, 1.0];
    let level = |rng: &mut SimRng| LEVELS[rng.below(3) as usize];
    let mut ops = Vec::new();
    for _ in 0..rng.below(3) {
        if rng.chance(0.5) {
            continue;
        }
        // Memo-clearing mutations (lifecycle, brownout, stress, tuning,
        // `mem_mut`) are rarer than intensity changes, so memo hits occur.
        let op = match rng.below(24) {
            0..=11 => Op::Intensity(tasks[rng.below(tasks.len() as u64) as usize], level(rng)),
            12 | 13 if flows > 0 => Op::FlowGbps(
                FlowId(rng.below(flows as u64) as usize),
                [0.0, 3.0, 6.0][rng.below(3) as usize],
            ),
            14 => Op::AddFlow,
            15 => Op::RemoveTask(tasks[rng.below(tasks.len() as u64) as usize]),
            16 => Op::Crash,
            17 => Op::BeginRecovery,
            18 | 19 => Op::Restore,
            20 => Op::Brownout([0.5, 1.0][rng.below(2) as usize]),
            21 => Op::SolverStress([None, Some(0.97), Some(1.0)][rng.below(3) as usize]),
            22 => Op::Tuning(SolverTuning {
                memo: rng.below(4) != 0,
                warm_start: rng.chance(0.5),
            }),
            _ => Op::ChannelDerate(level(rng)),
        };
        ops.push(op);
    }
    ops
}

#[test]
fn lent_copied_and_batched_reports_agree_at_every_tick() {
    // What the batch twins did, summed over every case.
    let mut paths = HostBatchStats::default();
    for_cases(0x0E2E_9027, |rng| {
        let (mut lent, tasks, mut flows) = arb_machine(rng);
        let mut copied = lent.clone();
        let mut batched = vec![lent.clone()];
        let mut copy_buf = MachineReport::empty();
        let mut batch_buf = vec![MachineReport::empty()];
        let mut batch = HostBatch::new();
        for tick in 0..TICKS {
            for op in arb_ops(rng, &tasks, flows) {
                if matches!(op, Op::AddFlow) {
                    flows += 1;
                }
                op.apply(&mut lent);
                op.apply(&mut copied);
                op.apply(&mut batched[0]);
            }
            copied.step_into(&mut copy_buf);
            batch.step_into(&batched, &mut batch_buf);
            let report = lent.step();
            assert_eq!(*report, copy_buf, "tick {tick}: step_into diverged");
            assert_eq!(*report, batch_buf[0], "tick {tick}: HostBatch diverged");
            drop(report);
            let stats = lent.solve_stats();
            assert_eq!(copied.solve_stats(), stats, "tick {tick}: step_into stats");
            assert_eq!(batched[0].solve_stats(), stats, "tick {tick}: batch stats");
            let memo = lent.memo_snapshot();
            assert_eq!(copied.memo_snapshot(), memo, "tick {tick}: step_into memo");
            assert_eq!(batched[0].memo_snapshot(), memo, "tick {tick}: batch memo");
        }
        let s = batch.stats();
        paths.adaptive_skips += s.adaptive_skips;
        paths.memo_hits += s.memo_hits;
        paths.lanes_solved += s.lanes_solved;
        paths.down_steps += s.down_steps;
        paths.lane_fallbacks += s.lane_fallbacks;
    });
    // Every branch that writes the owned report ran.
    assert!(
        paths.adaptive_skips > 0
            && paths.memo_hits > 0
            && paths.lanes_solved > 0
            && paths.down_steps > 0
            && paths.lane_fallbacks > 0,
        "{paths:?}"
    );
}

#[test]
fn clean_machines_keep_their_rows_on_every_tick() {
    let mut rng = SimRng::seed_from(0x5A3E_D0C5);
    let (lent, _, _) = arb_machine(&mut rng);
    let fleet: Vec<HostMachine> = (0..4).map(|_| arb_machine(&mut rng).0).collect();
    let rows = |report: &MachineReport| -> *const ReportRows { &**report };

    // Through `step()`: the first tick solves, every later one replays the
    // report the machine already holds.
    let first = rows(&lent.step());
    let mut slots = vec![MachineReport::empty(); fleet.len()];
    let mut batch = HostBatch::new();
    batch.step_into(&fleet, &mut slots);
    let firsts: Vec<*const ReportRows> = slots.iter().map(rows).collect();
    for tick in 1..8 {
        assert!(
            std::ptr::eq(rows(&lent.step()), first),
            "tick {tick}: a clean machine's rows moved"
        );
        batch.step_into(&fleet, &mut slots);
        for (i, slot) in slots.iter().enumerate() {
            assert!(
                std::ptr::eq(rows(slot), firsts[i]),
                "tick {tick}: slot {i} of an all-clean batch was rewritten"
            );
            assert!(std::ptr::eq(rows(&fleet[i].step()), firsts[i]));
        }
    }
    assert_eq!(batch.stats().adaptive_skips, 7 * fleet.len() as u64);
}
