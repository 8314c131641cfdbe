//! Randomized identity tests for the batched SoA solver (ISSUE 6).
//!
//! The batch path is only safe if it is invisible: packing N machines'
//! solves into one flat fixed-point engine must reproduce the scalar path
//! bit-for-bit — per-lane rates, distress signals, counters, solve stats
//! and memo contents — with warm starts both off and on, for any worker
//! shard count. Same deterministic [`SimRng`] case generation as
//! `tests/solver_hot.rs`.

use kelp_host::{
    CpuAllocation, HostBatch, HostMachine, HostTaskId, MachineReport, Priority, TaskSpec,
    ThreadProfile,
};
use kelp_mem::batch::BatchSolver;
use kelp_mem::solver::{
    FixedFlow, MemSystem, SolverInput, SolverOutput, SolverScratch, SolverTask, TaskKey,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode, SocketId};
use kelp_simcore::rng::SimRng;
use kelp_workloads::{FleetSim, FleetSimConfig};

const CASES: usize = 48;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG stream.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut root = SimRng::seed_from(seed);
    for case in 0..CASES {
        let mut rng = root.fork(case as u64);
        body(&mut rng);
    }
}

fn arb_domain(rng: &mut SimRng) -> DomainId {
    // Occasionally out of range: canonical_domain must absorb it.
    let socket = if rng.below(8) == 0 {
        7
    } else {
        rng.below(2) as usize
    };
    DomainId::new(socket, rng.below(2) as u8)
}

fn arb_task(rng: &mut SimRng, key: usize) -> SolverTask {
    let mut t = SolverTask::local(TaskKey(key), arb_domain(rng), rng.uniform(0.0, 8.0));
    t.compute_ns_per_unit = rng.uniform(0.0, 200.0);
    t.accesses_per_unit = rng.uniform(0.0, 10.0);
    t.mlp = rng.uniform(1.0, 8.0);
    t.working_set_bytes = rng.uniform(0.0, 2e9);
    t.hit_max = rng.uniform(0.0, 1.0);
    t.weight = rng.uniform(0.1, 4.0);
    if rng.below(4) == 0 {
        t.bw_cap_gbps = Some(rng.uniform(1.0, 30.0));
    }
    if rng.below(8) == 0 {
        t.distress_exempt = true;
    }
    let n_data = 1 + rng.below(2) as usize;
    t.data = (0..n_data)
        .map(|_| (arb_domain(rng), rng.uniform(0.0, 1.0)))
        .collect();
    t
}

fn arb_input(rng: &mut SimRng) -> SolverInput {
    let tasks = (0..rng.below(6) as usize)
        .map(|i| arb_task(rng, i))
        .collect();
    let fixed_flows = (0..rng.below(3) as usize)
        .map(|_| FixedFlow {
            target: arb_domain(rng),
            source_socket: if rng.below(2) == 0 {
                Some(SocketId(rng.below(2) as usize))
            } else {
                None
            },
            gbps: rng.uniform(0.0, 20.0),
            weight: rng.uniform(0.1, 2.0),
        })
        .collect();
    SolverInput { tasks, fixed_flows }
}

fn arb_system(rng: &mut SimRng, warm: bool) -> MemSystem {
    let snc = if rng.below(2) == 0 {
        SncMode::Disabled
    } else {
        SncMode::Enabled
    };
    let mut sys = MemSystem::new(MachineSpec::dual_socket(), snc);
    if rng.below(3) == 0 {
        sys.set_adaptive_prefetch(Some(Default::default()));
    }
    sys.set_warm_start(warm);
    sys
}

/// Drives `rounds` rounds of N-lane batched solves against serial
/// [`MemSystem::solve_with`] on an identical second set of scratches and
/// asserts bitwise-equal outputs. Warm state lives per-lane in each scratch,
/// so this must hold with warm starts on as well as off.
fn check_batch_matches_serial(rng: &mut SimRng, warm: bool) {
    let sys = arb_system(rng, warm);
    let lanes = 1 + rng.below(5) as usize;
    let mut serial_scratch: Vec<SolverScratch> =
        (0..lanes).map(|_| SolverScratch::default()).collect();
    let mut batch_scratch: Vec<SolverScratch> =
        (0..lanes).map(|_| SolverScratch::default()).collect();
    let mut batch = BatchSolver::new();
    for round in 0..3 {
        // Occasionally repeat a lane's previous input so warm seeds engage.
        let inputs: Vec<SolverInput> = (0..lanes).map(|_| arb_input(rng)).collect();
        let serial: Vec<SolverOutput> = inputs
            .iter()
            .zip(&mut serial_scratch)
            .map(|(input, scratch)| sys.solve_with(input, scratch))
            .collect();
        let input_refs: Vec<&SolverInput> = inputs.iter().collect();
        let mut lane_refs: Vec<&mut SolverScratch> = batch_scratch.iter_mut().collect();
        let mut outputs = Vec::new();
        sys.solve_batch_with(&input_refs, &mut lane_refs, &mut batch, &mut outputs);
        assert_eq!(
            outputs, serial,
            "round {round} diverged (warm={warm}, lanes={lanes})"
        );
    }
}

/// (a) Batched mem solves are bitwise-identical to serial solves with warm
/// starts off.
#[test]
fn batched_solves_match_serial_bitwise_cold() {
    for_cases(0xF1EE_7B00, |rng| check_batch_matches_serial(rng, false));
}

/// (b) ... and with warm starts on: warm state is per-lane, never shared.
#[test]
fn batched_solves_match_serial_bitwise_warm() {
    for_cases(0xF1EE_7B01, |rng| check_batch_matches_serial(rng, true));
}

/// Builds a randomized small host fleet: every machine gets a high-priority
/// ML task, most also get low-priority batch tasks.
fn arb_fleet(rng: &mut SimRng, n: usize) -> (Vec<HostMachine>, Vec<Vec<HostTaskId>>) {
    let mut machines = Vec::with_capacity(n);
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut ids = vec![m.add_task(
            TaskSpec::new(
                "ml",
                Priority::High,
                ThreadProfile::streaming(rng.uniform(1e9, 4e9)),
                4,
            ),
            vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
        )];
        for b in 0..rng.below(3) {
            ids.push(m.add_task(
                TaskSpec::new(
                    format!("batch-{b}"),
                    Priority::Low,
                    ThreadProfile::streaming(rng.uniform(5e8, 3e9)),
                    8,
                ),
                vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
            ));
        }
        machines.push(m);
        tasks.push(ids);
    }
    (machines, tasks)
}

/// (c) A batch-stepped fleet is indistinguishable from serially-solved
/// machines under a randomized churn schedule: reports (rates, distress
/// speed factors, counters), solve stats and memo contents all match
/// bit-for-bit, and the stale-slot in-place refresh matches the allocating
/// step.
#[test]
fn host_batch_fleet_matches_serial_bitwise() {
    for_cases(0xF1EE_7B02, |rng| {
        let n = 2 + rng.below(5) as usize;
        // Two fleets from identical RNG streams (a clone replays the same
        // draws), so their populations are bit-identical.
        let mut replay = rng.clone();
        let (mut batch_fleet, batch_tasks) = arb_fleet(rng, n);
        let (mut serial_fleet, serial_tasks) = arb_fleet(&mut replay, n);
        assert_eq!(batch_tasks, serial_tasks);

        let levels = [0.25, 0.5, 1.0];
        let mut batch = HostBatch::new();
        let mut reused: Vec<MachineReport> = Vec::new();
        for tick in 0..6 {
            // Identical churn on both fleets.
            for i in 0..n {
                for &id in &serial_tasks[i] {
                    if rng.below(4) == 0 {
                        let level = levels[rng.below(3) as usize];
                        batch_fleet[i].set_intensity(id, level);
                        serial_fleet[i].set_intensity(id, level);
                    }
                }
            }
            let serial: Vec<MachineReport> = serial_fleet.iter().map(|m| m.solve()).collect();
            if reused.len() != n {
                reused = (0..n).map(|_| MachineReport::empty()).collect();
            }
            batch.step_into(&batch_fleet, &mut reused);
            assert_eq!(reused, serial, "tick {tick} diverged");
            for (r, s) in reused.iter().zip(&serial) {
                for ((_, a), (_, b)) in r.tasks.iter().zip(&s.tasks) {
                    assert_eq!(a.speed_factor.to_bits(), b.speed_factor.to_bits());
                }
            }
        }
        for (b, s) in batch_fleet.iter().zip(&serial_fleet) {
            assert_eq!(b.solve_stats(), s.solve_stats(), "solve stats diverged");
            assert_eq!(
                b.memo_snapshot(),
                s.memo_snapshot(),
                "memo contents diverged"
            );
        }
    });
}

/// (d) FleetSim stepping is invariant in the worker shard count: the same
/// seeded fleet stepped with 1, 2 or 4 jobs produces bit-identical report
/// streams, and placement bookkeeping conserves cores throughout.
#[test]
fn fleet_reports_are_invariant_across_job_counts() {
    for_cases(0xF1EE_7B03, |rng| {
        let config = FleetSimConfig {
            machines: 3 + rng.below(8) as usize,
            seed: rng.below(u64::MAX),
            churn_probability: 0.2,
            batch_tasks_per_machine: rng.below(3) as usize,
        };
        let mut sims: Vec<FleetSim> = [1usize, 2, 4].map(|_| FleetSim::new(config)).into();
        let total_cores = 24 * config.machines;
        for sim in &sims {
            let placer = sim.placer();
            let free: usize = (0..placer.machine_count())
                .map(|m| placer.free_cores(m))
                .sum();
            assert_eq!(free + placer.placed_cores(), total_cores);
            // Totality: every requested batch task that fits is placed, and
            // placements are identical across instances (same seed).
            assert_eq!(placer.live_placements(), sims[0].placer().live_placements());
        }
        let mut out = Vec::new();
        for _ in 0..4 {
            for sim in &mut sims {
                sim.churn();
            }
            let [a, b, c] = sims.as_mut_slice() else {
                unreachable!()
            };
            let reference = a.step_batched(1);
            b.step_batched_into(2, &mut out);
            assert_eq!(out, reference, "jobs=2 diverged");
            c.step_batched_into(4, &mut out);
            assert_eq!(out, reference, "jobs=4 diverged");
        }
    });
}

/// (e) Regression: a churn round immediately followed by a batched step
/// matches the scalar step bitwise — the batch path must see exactly the
/// same dirty/clean machine states churn leaves behind, even when several
/// churn rounds land between steps.
#[test]
fn churn_then_immediate_batched_step_matches_serial() {
    for_cases(0xF1EE_7B04, |rng| {
        let config = FleetSimConfig {
            machines: 3 + rng.below(6) as usize,
            seed: rng.below(u64::MAX),
            churn_probability: 0.35,
            batch_tasks_per_machine: rng.below(3) as usize,
        };
        let mut serial = FleetSim::new(config);
        let mut batched = FleetSim::new(config);
        let mut out = Vec::new();
        for tick in 0..4 {
            // One to three back-to-back churn rounds, no step in between.
            for _ in 0..1 + rng.below(3) {
                serial.churn();
                batched.churn();
            }
            let reference = serial.step_serial();
            batched.step_batched_into(2, &mut out);
            assert_eq!(out, reference, "tick {tick} diverged after churn");
        }
    });
}
