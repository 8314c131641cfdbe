//! Randomized identity tests for the solver hot path (ISSUE 4).
//!
//! The zero-allocation rework is only safe if it is invisible: a reused
//! [`SolverScratch`] must reproduce the fresh-solve path bit-for-bit, the
//! host's steady-state memoization must replay exactly what a recomputation
//! would produce, and the in-place fixed-point core must match the
//! allocating API to the last bit. Same deterministic [`SimRng`] case
//! generation as `tests/proptests.rs`.

use kelp::runner::fnv1a64;
use kelp_host::machine::FlowId;
use kelp_host::{
    Actuator, CpuAllocation, HostBatch, HostMachine, HostTaskId, MemPolicy, Priority, TaskSpec,
    ThreadProfile,
};
use kelp_mem::distress::DistressScope;
use kelp_mem::llc::CatAllocation;
use kelp_mem::prefetch::{PrefetchProfile, PrefetchSetting};
use kelp_mem::solver::{
    FixedFlow, MemSystem, SolverInput, SolverScratch, SolverTask, SolverTuning, TaskKey,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode, SocketId, SocketSpec};
use kelp_simcore::fixedpoint::{solve_fixed_point, solve_fixed_point_into, FixedPointConfig};
use kelp_simcore::rng::SimRng;

const CASES: usize = 64;

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
    t.prefetch_profile = if rng.below(2) == 0 {
        PrefetchProfile::streaming()
    } else {
        PrefetchProfile::none()
    };
    if rng.below(4) == 0 {
        t.prefetch_setting = PrefetchSetting::fraction(rng.uniform(0.0, 1.0));
    }
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

fn arb_system(rng: &mut SimRng) -> MemSystem {
    let snc = if rng.below(2) == 0 {
        SncMode::Disabled
    } else {
        SncMode::Enabled
    };
    let mut sys = MemSystem::new(MachineSpec::dual_socket(), snc);
    if rng.below(3) == 0 {
        sys.set_adaptive_prefetch(Some(Default::default()));
    }
    sys
}

/// (a) A reused scratch is bit-identical to a fresh solve, with warm starts
/// off, across randomized systems and inputs — including degenerate tasks
/// (zero threads, zero accesses) and out-of-range domains.
#[test]
fn scratch_reuse_matches_fresh_solve_bitwise() {
    for_cases(0x501_7E12, |rng| {
        let mut sys = arb_system(rng);
        sys.set_warm_start(false);
        let mut scratch = SolverScratch::default();
        for _ in 0..4 {
            let input = arb_input(rng);
            let reused = sys.solve_with(&input, &mut scratch);
            let fresh = sys.solve(&input);
            assert_eq!(reused, fresh, "scratch reuse diverged for {input:?}");
        }
    });
}

/// Warm starts change only the starting guess: the warm answer stays within
/// the fixed-point tolerance band of the cold one and still converges.
#[test]
fn warm_start_stays_within_tolerance_of_cold_solve() {
    for_cases(0x501_7E13, |rng| {
        let sys = arb_system(rng);
        let mut scratch = SolverScratch::default();
        let input = arb_input(rng);
        let cold = sys.solve_with(&input, &mut scratch);
        if !cold.converged {
            // A non-converged damped estimate has no tolerance guarantee to
            // hold the warm re-solve to; skip those draws.
            return;
        }
        // Re-solving the same input starts at the previous fixed point.
        let warm = sys.solve_with(&input, &mut scratch);
        assert!(warm.converged);
        assert!(warm.stats.warm_hits == 1 && !input.tasks.is_empty() || input.tasks.is_empty());
        for (a, b) in cold.tasks.iter().zip(&warm.tasks) {
            let rel =
                (a.rate_per_thread - b.rate_per_thread).abs() / a.rate_per_thread.abs().max(1e-9);
            assert!(rel < 1e-2, "warm start moved the answer by {rel}");
        }
    });
}

/// (b) A memoizing host machine replays exactly what a cold machine
/// recomputes, tick for tick, across randomized intensity schedules and
/// actuations that revisit earlier configurations.
#[test]
fn memoized_host_ticks_match_recomputed_ticks() {
    for_cases(0x501_7E14, |rng| {
        let build = || {
            let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let a = m.add_task(
                TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(2e9), 4),
                vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
            );
            let b = m.add_task(
                TaskSpec::new("cpu", Priority::Low, ThreadProfile::streaming(1e9), 8),
                vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
            );
            (m, a, b)
        };
        let (mut memo, ma, mb) = build();
        // Memoization must be exact regardless of warm starts, but bitwise
        // tick equality against a cold machine requires warm starts off on
        // both sides (warm starts may legitimately shift low-order bits).
        memo.set_solver_tuning(SolverTuning {
            memo: true,
            warm_start: false,
        });
        let (mut cold, ca, cb) = build();
        cold.set_solver_tuning(SolverTuning::baseline());
        assert_eq!((ma, mb), (ca, cb));

        // A small intensity alphabet guarantees revisits (memo hits).
        let levels = [0.25, 0.5, 1.0];
        for _ in 0..12 {
            let ia = levels[rng.below(3) as usize];
            let ib = levels[rng.below(3) as usize];
            memo.set_intensity(ma, ia);
            memo.set_intensity(mb, ib);
            cold.set_intensity(ca, ia);
            cold.set_intensity(cb, ib);
            if rng.below(4) == 0 {
                let setting = PrefetchSetting::fraction(levels[rng.below(3) as usize]);
                memo.set_prefetchers(mb, setting);
                cold.set_prefetchers(cb, setting);
            }
            let rm = memo.solve();
            let rc = cold.solve();
            assert_eq!(rm, rc, "memoized tick diverged from recomputation");
        }
        // An unchanged configuration re-solved immediately is a guaranteed
        // memo hit (well under the cache capacity), and must still replay
        // exactly what the cold machine recomputes.
        let before = memo.solve_stats().memo_hits;
        assert_eq!(memo.solve(), cold.solve());
        assert!(memo.solve_stats().memo_hits > before);
        assert_eq!(cold.solve_stats().memo_hits, 0);
    });
}

/// (c) The in-place fixed-point core matches the allocating API bit-for-bit
/// on random affine contractions.
#[test]
fn fixed_point_into_matches_allocating_api_on_random_maps() {
    for_cases(0x501_7E15, |rng| {
        let n = 1 + rng.below(5) as usize;
        // Random affine contraction x -> Ax + b with max row sum < 1.
        let a: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let sum: f64 = row.iter().map(|v| v.abs()).sum();
                let scale = rng.uniform(0.1, 0.8) / sum.max(1e-9);
                row.into_iter().map(|v| v * scale).collect()
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-5.0, 5.0)).collect();
        let initial: Vec<f64> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
        // Damping >= 0.5 with row sums <= 0.8 bounds the per-step error
        // factor at 0.9, so 500 iterations always reach the tolerance.
        let config = FixedPointConfig {
            max_iters: 500,
            tolerance: 1e-6,
            damping: rng.uniform(0.5, 1.0),
        };
        let apply = |x: &[f64], out: &mut Vec<f64>| {
            for (row, bi) in a.iter().zip(&b) {
                out.push(row.iter().zip(x).map(|(aij, xj)| aij * xj).sum::<f64>() + bi);
            }
        };

        let alloc_out = solve_fixed_point(
            initial.clone(),
            |x| {
                let mut out = Vec::new();
                apply(x, &mut out);
                out
            },
            config,
        );
        let mut x = initial;
        let mut fx = Vec::new();
        let stats = solve_fixed_point_into(&mut x, &mut fx, apply, config);
        assert_eq!(x, alloc_out.state, "state bits diverged");
        assert_eq!(stats.iterations, alloc_out.iterations);
        assert_eq!(stats.converged, alloc_out.converged);
        assert_eq!(stats.residual.to_bits(), alloc_out.residual.to_bits());
        assert!(stats.converged, "a contraction must converge in 100 iters");
    });
}

/// A machine of `sockets` sockets whose cores, SMT ways and channels vary
/// per socket, so SMT fitting sees uneven domains and narrow sockets
/// saturate.
fn arb_machine(rng: &mut SimRng, sockets: usize) -> MachineSpec {
    let mut spec = MachineSpec::dual_socket();
    spec.sockets = (0..sockets)
        .map(|_| SocketSpec {
            cores: 4 + 4 * rng.below(5) as usize,
            smt_ways: 1 + rng.below(2) as usize,
            channels: 1 + rng.below(6) as usize,
            ..SocketSpec::default()
        })
        .collect();
    spec.upi_gbps = rng.uniform(5.0, 45.0);
    spec
}

/// Any domain of an `sockets`-socket machine; the sub index may name a
/// subdomain the SNC mode lacks, which lowering canonicalizes.
fn arb_host_domain(rng: &mut SimRng, sockets: usize) -> DomainId {
    DomainId::new(rng.below(sockets as u64) as usize, rng.below(2) as u8)
}

fn arb_allocation(rng: &mut SimRng, sockets: usize) -> CpuAllocation {
    let domain = arb_host_domain(rng, sockets);
    let cores = rng.below(9) as usize;
    let policy = if rng.below(2) == 0 {
        MemPolicy::Local
    } else {
        // Split placement over 1–3 domains, possibly across sockets, with
        // fractions summing to 1.
        let n = 1 + rng.below(3) as usize;
        let raw: Vec<(DomainId, f64)> = (0..n)
            .map(|_| (arb_host_domain(rng, sockets), rng.uniform(0.0, 1.0)))
            .collect();
        let sum: f64 = raw.iter().map(|&(_, f)| f).sum();
        if sum <= 0.0 {
            MemPolicy::Local
        } else {
            MemPolicy::Split(raw.into_iter().map(|(d, f)| (d, f / sum)).collect())
        }
    };
    CpuAllocation {
        domain,
        cores,
        policy,
    }
}

fn arb_profile(rng: &mut SimRng) -> ThreadProfile {
    let mut p = match rng.below(3) {
        0 => ThreadProfile::streaming(rng.uniform(1e6, 4e9)),
        1 => ThreadProfile::compute_bound(rng.uniform(10.0, 400.0)),
        _ => ThreadProfile::llc_resident(rng.uniform(1e6, 64e6)),
    };
    p.accesses_per_unit *= rng.uniform(0.25, 2.0);
    p.mlp = rng.uniform(1.0, 8.0);
    p
}

/// A host on a machine the goldens never build, stepped cold (memo and warm
/// starts off) through random phases and actuations. Each step also runs on
/// a copy through the batched path, which must agree. Returns the `Debug`
/// rendering of every step's report and the final solve stats.
fn cold_host_trace(rng: &mut SimRng, sockets: usize) -> String {
    let snc = match rng.below(3) {
        0 => SncMode::Disabled,
        1 => SncMode::Enabled,
        _ => SncMode::ChannelPartition,
    };
    let mut m = HostMachine::new(arb_machine(rng, sockets), snc);
    m.set_solver_tuning(SolverTuning::baseline());
    if rng.below(3) == 0 {
        m.mem_mut().set_adaptive_prefetch(Some(Default::default()));
    }
    if rng.below(3) == 0 {
        m.mem_mut().set_distress_scope(DistressScope::PerDomain);
    }
    if rng.below(2) == 0 {
        m.set_cat(CatAllocation::with_dedicated(11, 1 + rng.below(10) as u32));
    }
    let n_tasks = 1 + rng.below(3) as usize;
    let tasks: Vec<HostTaskId> = (0..n_tasks)
        .map(|i| {
            let priority = if rng.below(2) == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let mut spec = TaskSpec::new(
                format!("t{i}"),
                priority,
                arb_profile(rng),
                1 + rng.below(48) as usize,
            );
            spec.mem_weight = rng.uniform(0.5, 4.0);
            let allocations = (0..1 + rng.below(3))
                .map(|_| arb_allocation(rng, sockets))
                .collect();
            m.add_task(spec, allocations)
        })
        .collect();
    let flows: Vec<FlowId> = (0..rng.below(3))
        .map(|_| {
            m.add_flow(FixedFlow {
                target: arb_host_domain(rng, sockets),
                source_socket: if rng.below(2) == 0 {
                    Some(SocketId(rng.below(sockets as u64) as usize))
                } else {
                    None
                },
                gbps: rng.uniform(0.0, 60.0),
                weight: rng.uniform(0.5, 2.0),
            })
        })
        .collect();

    let mut trace = String::new();
    let mut batch = HostBatch::new();
    for _ in 0..5 {
        for &id in &tasks {
            match rng.below(6) {
                0 => m.set_intensity(id, 0.0),
                1 => m.set_intensity(id, rng.uniform(0.0, 1.0)),
                2 => m.set_prefetchers(id, PrefetchSetting::fraction(rng.uniform(0.0, 1.0))),
                3 => m.set_bw_cap(id, Some(rng.uniform(0.5, 20.0))),
                4 => m.set_allocations(
                    id,
                    (0..1 + rng.below(3))
                        .map(|_| arb_allocation(rng, sockets))
                        .collect(),
                ),
                _ => {}
            }
        }
        for &f in &flows {
            if rng.below(2) == 0 {
                m.set_flow_gbps(f, rng.uniform(0.0, 30.0));
            }
        }
        if rng.below(8) == 0 {
            m.remove_task(tasks[rng.below(n_tasks as u64) as usize]);
        }
        let twin = [m.clone()];
        let batched = batch.step(&twin);
        let report = m.solve();
        assert_eq!(
            batched[0], report,
            "batched step diverged from the scalar step"
        );
        assert_eq!(twin[0].solve_stats(), m.solve_stats());
        trace.push_str(&format!("{report:?}\n"));
    }
    trace.push_str(&format!("{:?}\n", m.solve_stats()));
    trace
}

/// (d) Cold host steps on 1-, 3-, 4- and 9-socket machines reproduce the
/// reports and solve stats pinned here bit for bit. The machines carry
/// split placements across sockets, several allocations per task, MBA caps,
/// prefetcher fractions, CAT, adaptive prefetch and per-domain distress,
/// none of which the goldens combine on these socket counts. The digests
/// change only when a solve's arithmetic does.
#[test]
fn cold_reports_match_pinned_digests() {
    let pins: [(usize, u64); 4] = [
        (1, 0x94dd_16a8_711c_3740),
        (3, 0xd43e_3fef_bc41_b033),
        (4, 0x34ee_6343_2f8f_d194),
        (9, 0x8ad0_a8ec_1019_acb8),
    ];
    for (sockets, want) in pins {
        let mut trace = String::new();
        for_cases(0xC01D_0000 + sockets as u64, |rng| {
            trace.push_str(&cold_host_trace(rng, sockets));
        });
        let got = fnv1a64(trace.as_bytes());
        assert_eq!(
            got, want,
            "{sockets}-socket cold reports moved: {got:#018x}"
        );
    }
}
