//! Randomized property tests on the substrate's core invariants.
//!
//! These were originally written with `proptest`; the build environment has
//! no crates.io access, so each property is now driven by deterministic
//! [`SimRng`] case generation (fixed seed, fixed case count). The invariants
//! asserted are unchanged.

use kelp::algorithm::{Action, KelpController, KelpControllerConfig};
use kelp::policy::split_cores;
use kelp_host::machine::FlowId;
use kelp_host::{
    Actuator, CpuAllocation, HostBatch, HostMachine, HostTaskId, MachineReport, MemPolicy,
    Priority, SmtModel, TaskSpec, ThreadProfile,
};
use kelp_mem::latency::LatencyCurve;
use kelp_mem::llc::{hit_ratio, CacheClass, CacheTask, CatAllocation, LlcModel};
use kelp_mem::maxmin::{allocate, allocate_into, flatten_into, AllocScratch, Flow};
use kelp_mem::prefetch::PrefetchSetting;
use kelp_mem::solver::{FixedFlow, MemSystem, SolverInput, SolverTask, SolverTuning, TaskKey};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode, SocketId};
use kelp_simcore::rng::SimRng;
use kelp_simcore::stats::{OnlineStats, P2Quantile, SampleSet};

const CASES: usize = 64;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG stream.
fn for_cases(seed: u64, body: impl FnMut(&mut SimRng)) {
    for_n_cases(seed, CASES, body);
}

/// [`for_cases`] with an explicit case count.
fn for_n_cases(seed: u64, cases: usize, mut body: impl FnMut(&mut SimRng)) {
    let mut root = SimRng::seed_from(seed);
    for case in 0..cases {
        let mut rng = root.fork(case as u64);
        body(&mut rng);
    }
}

fn arb_flow(rng: &mut SimRng, resources: usize) -> Flow {
    let demand = rng.uniform(0.0, 200.0);
    let weight = rng.uniform(0.1, 10.0);
    let coeff = rng.uniform(0.5, 2.0);
    let n_res = 1 + rng.below(resources.min(3) as u64) as usize;
    let mut res = std::collections::BTreeSet::new();
    while res.len() < n_res {
        res.insert(rng.below(resources as u64) as usize);
    }
    Flow {
        demand,
        weight,
        usage: res.into_iter().map(|r| (r, coeff)).collect(),
    }
}

/// Max-min: allocations never exceed demand or any resource capacity.
#[test]
fn maxmin_conservation() {
    for_cases(0xA11_0C41, |rng| {
        let flows: Vec<Flow> = (0..rng.below(12)).map(|_| arb_flow(rng, 4)).collect();
        let caps: Vec<f64> = (0..4).map(|_| rng.uniform(0.0, 150.0)).collect();
        let alloc = allocate(&flows, &caps);
        for (f, &rate) in flows.iter().zip(&alloc.rates) {
            assert!(rate <= f.demand + 1e-6);
            assert!(rate >= -1e-9);
        }
        for (r, &cap) in caps.iter().enumerate() {
            assert!(
                alloc.used[r] <= cap + 1e-6,
                "resource {r}: used {} > cap {cap}",
                alloc.used[r]
            );
        }
    });
}

/// Max-min: a flow's own allocation is monotone non-decreasing in its own
/// demand. (Note: *total* allocated bandwidth is NOT monotone for
/// multi-resource flows — a growing multi-link flow can displace two
/// single-link flows while counting once — so we assert only the per-flow
/// property.)
#[test]
fn maxmin_own_rate_monotone_in_demand() {
    for_cases(0xD3_3A4D, |rng| {
        let flows: Vec<Flow> = (0..1 + rng.below(7)).map(|_| arb_flow(rng, 3)).collect();
        let caps: Vec<f64> = (0..3).map(|_| rng.uniform(10.0, 100.0)).collect();
        let bump = rng.uniform(0.0, 50.0);
        let before = allocate(&flows, &caps).rates[0];
        let mut bigger = flows.clone();
        bigger[0].demand += bump;
        let after = allocate(&bigger, &caps).rates[0];
        assert!(
            after >= before - 1e-6,
            "own rate shrank: {after} < {before}"
        );
    });
}

/// Weighted max-min by progressive filling exactly as it ran before the
/// headroom exit: the reference that `allocate` must match bit for bit.
/// `None` where it stalls: a pass that neither moves the level nor freezes
/// a flow repeats forever, and `allocate` then breaks the stall instead.
fn reference_allocate(flows: &[Flow], capacities: &[f64]) -> Option<(Vec<f64>, Vec<f64>)> {
    const EPS: f64 = 1e-9;
    let n = flows.len();
    let mut rates = vec![0.0; n];
    let mut frozen = vec![false; n];
    let mut remaining = capacities.to_vec();
    for (i, f) in flows.iter().enumerate() {
        if f.demand <= 0.0 || f.usage.iter().any(|&(r, _)| capacities[r] <= 0.0) {
            frozen[i] = true;
        }
    }
    let mut level = 0.0f64;
    for pass in 0.. {
        if frozen.iter().all(|&f| f) {
            break;
        }
        if pass == 1000 {
            return None;
        }
        let mut next_level = f64::INFINITY;
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                let lvl = f.demand / f.weight;
                if lvl > level && lvl < next_level {
                    next_level = lvl;
                }
            }
        }
        let mut active_weight = vec![0.0; capacities.len()];
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                for &(r, c) in &f.usage {
                    active_weight[r] += f.weight * c;
                }
            }
        }
        for (r, &aw) in active_weight.iter().enumerate() {
            if aw > 0.0 {
                let lvl = level + remaining[r] / aw;
                if lvl < next_level {
                    next_level = lvl;
                }
            }
        }
        if !next_level.is_finite() {
            break;
        }
        let delta = next_level - level;
        level = next_level;
        for (r, &aw) in active_weight.iter().enumerate() {
            if aw > 0.0 {
                remaining[r] = (remaining[r] - delta * aw).max(0.0);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                rates[i] = f.weight * level;
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] && rates[i] + EPS >= f.demand {
                rates[i] = f.demand;
                frozen[i] = true;
            }
        }
        for (r, rem) in remaining.iter().enumerate() {
            if *rem <= EPS && active_weight[r] > 0.0 {
                for (i, f) in flows.iter().enumerate() {
                    if !frozen[i] && f.usage.iter().any(|&(fr, _)| fr == r) {
                        frozen[i] = true;
                    }
                }
            }
        }
    }
    let mut used = vec![0.0; capacities.len()];
    for (f, &rate) in flows.iter().zip(&rates) {
        for &(r, c) in &f.usage {
            used[r] += rate * c;
        }
    }
    Some((rates, used))
}

/// A max-min problem for the headroom-exit property: 0–4 flows on 1–4
/// resources, with zero-capacity resources, zero demands, two-resource
/// flows and coefficients other than 1. Half of the problems are scaled up
/// to capacities of millions, where one rounding step of a resource's
/// remaining capacity outgrows the filler's `1e-9` tolerance. Half are
/// rescaled so that the most loaded resource's total demand lands within
/// ±2 ppm of its capacity, half of those on it exactly.
fn arb_headroom_problem(rng: &mut SimRng) -> (Vec<Flow>, Vec<f64>) {
    let scale = if rng.below(2) == 0 {
        rng.uniform(5e4, 1.2e5)
    } else {
        1.0
    };
    let n_res = 1 + rng.below(4) as usize;
    let caps: Vec<f64> = (0..n_res)
        .map(|_| {
            if rng.below(6) == 0 {
                0.0
            } else {
                rng.uniform(1.0, 150.0) * scale
            }
        })
        .collect();
    let mut flows: Vec<Flow> = (0..rng.below(5))
        .map(|_| {
            let demand = if rng.below(6) == 0 {
                0.0
            } else {
                rng.uniform(0.0, 100.0) * scale
            };
            let coeff = |rng: &mut SimRng| {
                if rng.below(2) == 0 {
                    1.0
                } else {
                    rng.uniform(0.5, 2.0)
                }
            };
            let first = rng.below(n_res as u64) as usize;
            let mut usage = vec![(first, coeff(rng))];
            if n_res > 1 && rng.below(2) == 0 {
                let second = (first + 1 + rng.below(n_res as u64 - 1) as usize) % n_res;
                usage.push((second, coeff(rng)));
            }
            Flow {
                demand,
                weight: rng.uniform(0.1, 10.0),
                usage,
            }
        })
        .collect();
    if rng.below(2) == 0 {
        // Total demand per resource over the flows that can run.
        let mut load = vec![0.0; n_res];
        for f in &flows {
            if f.demand > 0.0 && f.usage.iter().all(|&(r, _)| caps[r] > 0.0) {
                for &(r, c) in &f.usage {
                    load[r] += f.demand * c;
                }
            }
        }
        let target = (0..n_res).fold(0, |best, r| if load[r] > load[best] { r } else { best });
        if load[target] > 0.0 {
            let ppm = match rng.below(2) {
                0 => 0.0,
                _ => rng.uniform(-2e-6, 2e-6),
            };
            let factor = caps[target] * (1.0 + ppm) / load[target];
            for f in &mut flows {
                f.demand *= factor;
            }
        }
    }
    (flows, caps)
}

/// Max-min: the headroom exit is exact. `allocate` and `allocate_into`
/// match the progressive filling they replace bit for bit, rates and usage
/// both, on problems crowded around the exit's margin; and the exit answers
/// at least a quarter of them, so the comparison covers it. Problems on
/// which the old filling stalls have no reference answer and are skipped.
#[test]
fn maxmin_headroom_exit_matches_progressive_filling() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let (mut flat, mut usage) = (Vec::new(), Vec::new());
    let (mut rates, mut used) = (Vec::new(), Vec::new());
    let mut scratch = AllocScratch::default();
    let (mut cases, mut exits) = (0usize, 0usize);
    let mut check = |flows: &[Flow], caps: &[f64]| {
        let Some((want_rates, want_used)) = reference_allocate(flows, caps) else {
            return;
        };
        let got = allocate(flows, caps);
        assert_eq!(
            bits(&got.rates),
            bits(&want_rates),
            "rates of {flows:?} on {caps:?}"
        );
        assert_eq!(
            bits(&got.used),
            bits(&want_used),
            "usage of {flows:?} on {caps:?}"
        );
        flat.clear();
        usage.clear();
        flatten_into(flows, &mut flat, &mut usage);
        let exit = allocate_into(&flat, &usage, caps, &mut rates, &mut used, &mut scratch);
        assert_eq!(
            bits(&rates),
            bits(&want_rates),
            "reused scratch on {flows:?}"
        );
        assert_eq!(bits(&used), bits(&want_used), "reused scratch on {flows:?}");
        cases += 1;
        exits += usize::from(exit);
    };
    // A demand above 2^22 whose level rounds down: `weight * (demand /
    // weight)` falls 6e-8 short, past the `1e-9` tolerance, so filling
    // charges the flow beyond its demand and saturates the resource under
    // the second flow, despite the headroom. The exit must not answer it.
    let demand = 357_860_231.810_265_84;
    check(
        &[Flow::simple(demand, 1234.5, 0), Flow::simple(1.0, 1e-7, 0)],
        &[demand + 1001.0],
    );
    for_n_cases(0x4EAD_2003, 65_536, |rng| {
        let (flows, caps) = arb_headroom_problem(rng);
        check(&flows, &caps);
    });
    assert!(
        exits * 4 >= cases,
        "the exit answered {exits} of {cases} cases"
    );
}

/// Loaded latency is monotone in utilization and bounded.
#[test]
fn latency_monotone() {
    for_cases(0x01A7_E9C1, |rng| {
        let rho_a = rng.uniform(0.0, 1.0);
        let rho_b = rng.uniform(0.0, 1.0);
        let c = LatencyCurve::default();
        let (lo, hi) = if rho_a <= rho_b {
            (rho_a, rho_b)
        } else {
            (rho_b, rho_a)
        };
        assert!(c.loaded_ns(85.0, lo) <= c.loaded_ns(85.0, hi) + 1e-9);
        assert!(c.loaded_ns(85.0, hi).is_finite());
    });
}

/// Hit ratio stays in [0, hit_max] and is monotone in capacity.
#[test]
fn hit_ratio_bounds() {
    for_cases(0x417_4A71, |rng| {
        let ws = rng.uniform(0.0, 1e9);
        let cap_a = rng.uniform(0.0, 1e9);
        let cap_b = rng.uniform(0.0, 1e9);
        let hit_max = rng.uniform(0.0, 1.0);
        let (lo, hi) = if cap_a <= cap_b {
            (cap_a, cap_b)
        } else {
            (cap_b, cap_a)
        };
        let h_lo = hit_ratio(ws, lo, hit_max);
        let h_hi = hit_ratio(ws, hi, hit_max);
        assert!((0.0..=hit_max + 1e-12).contains(&h_lo));
        assert!(h_lo <= h_hi + 1e-12);
    });
}

/// LLC shares conserve the pool and respect CAT.
#[test]
fn llc_share_conservation() {
    for_cases(0x11C_5A4E, |rng| {
        let rates: Vec<f64> = (0..1 + rng.below(5))
            .map(|_| rng.uniform(0.0, 1e9))
            .collect();
        let hp_ways = rng.below(8) as u32;
        let cat = if hp_ways == 0 {
            CatAllocation::disabled(11)
        } else {
            CatAllocation::with_dedicated(11, hp_ways)
        };
        let llc = LlcModel::new(33.0, cat);
        let tasks: Vec<CacheTask> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| CacheTask {
                working_set: 50e6,
                access_rate: r,
                hit_max: 0.9,
                class: if i == 0 {
                    CacheClass::HighPriority
                } else {
                    CacheClass::Shared
                },
            })
            .collect();
        let shares = llc.shares(&tasks);
        let total: f64 = shares.iter().map(|s| s.capacity).sum();
        assert!(total <= llc.capacity_bytes * (1.0 + 1e-9));
        for s in &shares {
            assert!(s.hit_ratio >= 0.0 && s.hit_ratio <= 0.9 + 1e-12);
        }
    });
}

/// Kelp controller invariants hold under arbitrary action sequences.
#[test]
fn controller_invariants() {
    for_cases(0xC0_117_011, |rng| {
        let mut c = KelpController::new(KelpControllerConfig {
            min_cores_hp: 0,
            max_cores_hp: 10,
            min_cores_lp: 1,
            max_cores_lp: 12,
        });
        for _ in 0..rng.below(200) {
            let a = rng.below(6) as u8;
            let action = match a % 3 {
                0 => Action::Throttle,
                1 => Action::Boost,
                _ => Action::Nop,
            };
            if a < 3 {
                c.config_high_priority(action);
            } else {
                c.config_low_priority(action);
            }
            assert!(c.invariants_hold());
            assert!(c.prefetchers_lp() <= c.cores_lp());
            assert!((0.0..=1.0).contains(&c.prefetcher_fraction()));
        }
    });
}

/// The memory solver never allocates more than machine capacity and reports
/// finite results for arbitrary task populations.
#[test]
fn solver_is_safe() {
    for_cases(0x50_1BE4, |rng| {
        let thread_counts: Vec<f64> = (0..1 + rng.below(7))
            .map(|_| rng.uniform(0.0, 8.0))
            .collect();
        let accesses: Vec<f64> = (0..8).map(|_| rng.uniform(0.0, 10.0)).collect();
        let snc = if rng.chance(0.5) {
            SncMode::Enabled
        } else {
            SncMode::Disabled
        };
        let sys = MemSystem::new(MachineSpec::dual_socket(), snc);
        let tasks: Vec<SolverTask> = thread_counts
            .iter()
            .enumerate()
            .map(|(i, &threads)| {
                let mut t =
                    SolverTask::local(TaskKey(i), DomainId::new(i % 2, (i % 2) as u8), threads);
                t.accesses_per_unit = accesses[i % accesses.len()];
                t.working_set_bytes = 1e8;
                t.hit_max = 0.3;
                t
            })
            .collect();
        let out = sys.solve(&SolverInput {
            tasks,
            fixed_flows: vec![],
        });
        for s in &out.counters.sockets {
            let peak = MachineSpec::dual_socket().sockets[s.socket.0].peak_gbps();
            assert!(s.bw_gbps <= peak + 1e-6);
            assert!(s.avg_latency_ns.is_finite() && s.avg_latency_ns >= 0.0);
            assert!((0.0..=1.0).contains(&s.distress_duty));
        }
        for t in &out.tasks {
            assert!(t.rate_per_thread.is_finite() && t.rate_per_thread >= 0.0);
            assert!(t.bw_gbps.is_finite() && t.bw_gbps >= -1e-9);
        }
    });
}

/// Core splitting conserves the total and gives everyone at least one core
/// when there are enough to go around.
#[test]
fn split_cores_invariants() {
    for_cases(0x5_9117, |rng| {
        let total = rng.below(64) as u32;
        let weights: Vec<usize> = (0..1 + rng.below(7))
            .map(|_| 1 + rng.below(63) as usize)
            .collect();
        let split = split_cores(total, &weights);
        assert_eq!(split.len(), weights.len());
        assert_eq!(split.iter().sum::<u32>(), total);
        if total as usize >= weights.len() {
            assert!(split.iter().all(|&c| c >= 1), "{:?}", split);
        }
    });
}

/// The adaptive-prefetch hardware factor is monotone non-increasing in
/// utilization and bounded by [min_fraction, 1].
#[test]
fn adaptive_prefetch_monotone() {
    for_cases(0x000A_DA97, |rng| {
        let a = rng.uniform(0.0, 1.0);
        let b = rng.uniform(0.0, 1.0);
        let ap = kelp_mem::AdaptivePrefetch::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(ap.factor(lo) >= ap.factor(hi) - 1e-12);
        assert!(ap.factor(hi) >= ap.min_fraction - 1e-12);
        assert!(ap.factor(lo) <= 1.0 + 1e-12);
    });
}

/// P2 estimator stays within the sample range and close to exact for
/// well-behaved distributions.
#[test]
fn p2_within_range() {
    for_cases(0x92_E57, |rng| {
        let n = 5 + rng.below(295) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1000.0)).collect();
        let mut p2 = P2Quantile::new(0.9);
        let mut exact = SampleSet::new();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &samples {
            p2.record(x);
            exact.record(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(p2.estimate() >= lo - 1e-9);
        assert!(p2.estimate() <= hi + 1e-9);
    });
}

/// Welford merge equals sequential accumulation.
#[test]
fn welford_merge() {
    for_cases(0x03E1_F04D, |rng| {
        let n = rng.below(100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let split = (rng.below(100) as usize).min(xs.len());
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i < split {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-6);
        assert!((a.variance() - all.variance()).abs() < 1e-4);
    });
}

/// Picks one of `values` with the next draw.
fn pick<T: Clone>(rng: &mut SimRng, values: &[T]) -> T {
    values[rng.below(values.len() as u64) as usize].clone()
}

/// A small host shaped like a fleet machine: an ML task, a batch task and
/// a DMA flow.
fn fleet_host() -> HostMachine {
    let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
    m.add_task(
        TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(2e9), 4),
        vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
    );
    m.add_task(
        TaskSpec::new("batch", Priority::Low, ThreadProfile::streaming(1e9), 8),
        vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
    );
    m.add_flow(FixedFlow {
        target: DomainId::new(0, 0),
        source_socket: None,
        gbps: 2.0,
        weight: 1.0,
    });
    m
}

/// One mutation of a host, from any of its mutators. Values come from
/// small sets, so phases and whole configurations recur.
#[derive(Debug, Clone)]
enum Mutation {
    Intensity(HostTaskId, f64),
    FlowRate(FlowId, f64),
    Threads(HostTaskId, usize),
    Remove(HostTaskId),
    AddTask(CpuAllocation),
    AddFlow(f64),
    Allocations(HostTaskId, CpuAllocation),
    Prefetchers(HostTaskId, f64),
    BwCap(HostTaskId, Option<f64>),
    Cat(u32),
    Smt(f64),
    LatencyAmplitude(f64),
    Memo(bool),
    Brownout(f64),
    Stress(Option<f64>),
    ActuationFault(bool),
    Crash,
    BeginRecovery,
    Restore,
}

impl Mutation {
    /// A mutation of a host that has handed out `tasks` task ids and
    /// `flows` flow ids. Phase changes are most draws, as in a churning
    /// fleet; the input-changing mutators come next, and the ones that
    /// empty the memo are rarest, so that phases recur before it clears.
    fn arb(rng: &mut SimRng, tasks: usize, flows: usize) -> Self {
        let task = HostTaskId(rng.below(tasks as u64) as usize);
        let flow = FlowId(rng.below(flows as u64) as usize);
        match rng.below(64) {
            0..=23 => Mutation::Intensity(task, pick(rng, &[0.0, -0.0, 0.25, 0.5, 1.0])),
            24..=37 => Mutation::FlowRate(flow, pick(rng, &[0.0, -0.0, 2.0, 6.0])),
            38..=40 => Mutation::Threads(task, pick(rng, &[0, 2, 4, 8])),
            41 | 42 => Mutation::Remove(task),
            43 | 44 => Mutation::AddTask(arb_allocation(rng)),
            45 => Mutation::AddFlow(pick(rng, &[0.0, 3.0])),
            46..=48 => Mutation::Allocations(task, arb_allocation(rng)),
            49..=52 => Mutation::Prefetchers(task, pick(rng, &[0.0, 0.5, 1.0])),
            53..=55 => Mutation::BwCap(task, pick(rng, &[None, Some(4.0), Some(12.0)])),
            56 => Mutation::Smt(pick(rng, &[1.3, 1.45])),
            57 => Mutation::ActuationFault(rng.chance(0.3)),
            58 => Mutation::Cat(rng.below(6) as u32),
            59 => Mutation::LatencyAmplitude(pick(rng, &[0.135, 0.3])),
            60 => Mutation::Memo(rng.chance(0.7)),
            61 => Mutation::Brownout(pick(rng, &[0.5, 1.0])),
            62 => Mutation::Stress(pick(rng, &[None, Some(0.97)])),
            _ => pick(
                rng,
                &[Mutation::Crash, Mutation::BeginRecovery, Mutation::Restore],
            ),
        }
    }

    fn apply(&self, m: &mut HostMachine) {
        match *self {
            Mutation::Intensity(task, level) => m.set_intensity(task, level),
            Mutation::FlowRate(flow, rate) => m.set_flow_gbps(flow, rate),
            Mutation::Threads(task, threads) => m.set_desired_threads(task, threads),
            Mutation::Remove(task) => m.remove_task(task),
            Mutation::AddTask(ref allocation) => {
                let spec = TaskSpec::new("extra", Priority::Low, ThreadProfile::streaming(5e8), 4);
                m.add_task(spec, vec![allocation.clone()]);
            }
            Mutation::AddFlow(gbps) => {
                m.add_flow(FixedFlow {
                    target: DomainId::new(1, 0),
                    source_socket: Some(SocketId(0)),
                    gbps,
                    weight: 1.0,
                });
            }
            Mutation::Allocations(task, ref allocation) => {
                m.set_allocations(task, vec![allocation.clone()]);
            }
            Mutation::Prefetchers(task, fraction) => {
                m.set_prefetchers(task, PrefetchSetting::fraction(fraction));
            }
            Mutation::BwCap(task, cap) => m.set_bw_cap(task, cap),
            Mutation::Cat(hp_ways) => m.set_cat(if hp_ways == 0 {
                CatAllocation::disabled(11)
            } else {
                CatAllocation::with_dedicated(11, hp_ways)
            }),
            Mutation::Smt(two_thread_penalty) => m.set_smt(SmtModel { two_thread_penalty }),
            Mutation::LatencyAmplitude(amplitude) => m.mem_mut().set_latency_curve(LatencyCurve {
                amplitude,
                ..LatencyCurve::default()
            }),
            Mutation::Memo(memo) => m.set_solver_tuning(SolverTuning {
                memo,
                ..SolverTuning::default()
            }),
            Mutation::Brownout(retained) => m.set_brownout(retained),
            Mutation::Stress(severity) => m.set_solver_stress(severity),
            Mutation::ActuationFault(dropped) => m.set_actuation_fault(dropped),
            Mutation::Crash => m.crash(),
            Mutation::BeginRecovery => m.begin_recovery(),
            Mutation::Restore => m.restore(),
        }
    }
}

fn arb_allocation(rng: &mut SimRng) -> CpuAllocation {
    let socket = rng.below(2) as usize;
    let policy = if rng.chance(0.5) {
        MemPolicy::Local
    } else {
        MemPolicy::Split(vec![(DomainId::new(0, 0), 0.5), (DomainId::new(1, 0), 0.5)])
    };
    CpuAllocation {
        domain: DomainId::new(socket, 0),
        cores: pick(rng, &[2, 4, 8]),
        policy,
    }
}

/// A host's memo serves a phase it returns to by the entry's tag (epoch
/// and phase values) without lowering, and anything else by input
/// equality. Under random mutations from every mutator, between steps
/// that keep returning to earlier phases and configurations, the scalar
/// step and `HostBatch` agree on reports, solve stats and memo contents.
/// In a debug build every tag hit also asserts that lowering the current
/// configuration gives the entry's input, so a mutator that changes the
/// input without starting a new epoch fails here.
#[test]
fn memo_tags_stay_exact_under_every_mutator() {
    const HOSTS: usize = 3;
    let mut memo_hits = 0u64;
    for_cases(0x7A6_0E90C, |rng| {
        let mut scalar: Vec<HostMachine> = (0..HOSTS).map(|_| fleet_host()).collect();
        let mut batched = scalar.clone();
        let mut ids = [(2usize, 1usize); HOSTS];
        let mut batch = HostBatch::new();
        let mut reports = vec![MachineReport::empty(); HOSTS];
        for tick in 0..48 {
            for (i, (tasks, flows)) in ids.iter_mut().enumerate() {
                for _ in 0..rng.below(3) {
                    let mutation = Mutation::arb(rng, *tasks, *flows);
                    match mutation {
                        Mutation::AddTask(_) => *tasks += 1,
                        Mutation::AddFlow(_) => *flows += 1,
                        _ => {}
                    }
                    mutation.apply(&mut scalar[i]);
                    mutation.apply(&mut batched[i]);
                }
            }
            let expected: Vec<MachineReport> = scalar.iter().map(HostMachine::solve).collect();
            batch.step_into(&batched, &mut reports);
            assert_eq!(reports, expected, "tick {tick}");
            for (s, b) in scalar.iter().zip(&batched) {
                assert_eq!(s.solve_stats(), b.solve_stats(), "tick {tick}");
                assert_eq!(s.memo_snapshot(), b.memo_snapshot(), "tick {tick}");
            }
        }
        memo_hits += batch.stats().memo_hits;
    });
    // Phases must recur for the property to say anything about tags.
    assert!(memo_hits > 500, "only {memo_hits} memo hits");
}
