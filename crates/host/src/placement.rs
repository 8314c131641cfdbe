//! CPU placement and NUMA memory policy.
//!
//! Runtime policies place tasks by assigning them *core allocations*: a
//! number of cores in a specific NUMA (sub)domain, like a cpuset. A task may
//! hold allocations in several domains (that is how Kelp backfills the
//! high-priority subdomain with low-priority work). The memory policy
//! controls where the allocation's data lives, mirroring `numactl`
//! membind/interleave and the remote-split configurations of Figure 16.

use kelp_mem::topology::DomainId;
use serde::{Deserialize, Serialize};

/// A block of cores granted to a task in one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuAllocation {
    /// Domain whose cores are used.
    pub domain: DomainId,
    /// Number of cores granted.
    pub cores: usize,
    /// Memory policy for threads running on this allocation.
    pub policy: MemPolicy,
}

impl CpuAllocation {
    /// Cores in `domain` with domain-local memory.
    pub fn local(domain: DomainId, cores: usize) -> Self {
        CpuAllocation {
            domain,
            cores,
            policy: MemPolicy::Local,
        }
    }
}

/// NUMA memory policy for an allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemPolicy {
    /// All data in the allocation's own domain (`numactl --membind` local).
    Local,
    /// Explicit placement fractions over domains (must sum to ~1).
    Split(Vec<(DomainId, f64)>),
}

impl MemPolicy {
    /// Resolves to data placement fractions given the allocation's domain.
    pub fn data_fractions(&self, home: DomainId) -> impl Iterator<Item = (DomainId, f64)> + '_ {
        let (local, parts) = match self {
            MemPolicy::Local => (Some((home, 1.0)), &[][..]),
            MemPolicy::Split(parts) => (None, parts.as_slice()),
        };
        local.into_iter().chain(parts.iter().copied())
    }

    /// Validates that split fractions are finite, non-negative and sum to
    /// ~1.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MemPolicy::Local => Ok(()),
            MemPolicy::Split(parts) => {
                // Every comparison with a NaN is false, so a NaN would pass
                // both tests below.
                if parts.iter().any(|&(_, f)| !f.is_finite()) {
                    return Err("non-finite placement fraction".into());
                }
                if parts.iter().any(|&(_, f)| f < 0.0) {
                    return Err("negative placement fraction".into());
                }
                let sum: f64 = parts.iter().map(|&(_, f)| f).sum();
                if (sum - 1.0).abs() > 1e-6 {
                    return Err(format!("placement fractions sum to {sum}, expected 1"));
                }
                Ok(())
            }
        }
    }
}

/// SMT co-residency model.
///
/// When a domain's runnable threads exceed its physical cores, pairs of
/// threads share cores and each runs slower; beyond two threads per core the
/// scheduler timeshares. The paper runs with SMT enabled everywhere and the
/// `LLC` aggressor contends for in-pipeline resources through SMT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmtModel {
    /// Per-thread compute-time multiplier when a core runs two threads
    /// (>= 1; e.g. 1.45 means each thread is 45 % slower, so a core still
    /// gains ~38 % total throughput from SMT).
    pub two_thread_penalty: f64,
}

impl Default for SmtModel {
    fn default() -> Self {
        SmtModel {
            two_thread_penalty: 1.45,
        }
    }
}

/// Outcome of fitting a number of runnable threads onto a domain's cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtOutcome {
    /// Effective concurrently-running thread count (<= hardware threads).
    pub effective_threads: f64,
    /// Per-thread compute-time multiplier from SMT sharing (>= 1).
    pub compute_multiplier: f64,
}

impl SmtModel {
    /// Fits `threads` runnable threads onto `cores` physical cores with
    /// `smt_ways` hardware threads each.
    ///
    /// Occupancy up to 1 thread/core: full speed. Between 1 and `smt_ways`
    /// threads/core: the excess fraction runs SMT-paired with the penalty
    /// interpolated. Beyond the hardware thread count, the surplus
    /// timeshares (effective threads cap at `cores * smt_ways`).
    pub fn fit(&self, threads: f64, cores: usize, smt_ways: usize) -> SmtOutcome {
        let hw = (cores * smt_ways) as f64;
        if threads <= 0.0 || cores == 0 {
            return SmtOutcome {
                effective_threads: 0.0,
                compute_multiplier: 1.0,
            };
        }
        let running = threads.min(hw);
        let per_core = running / cores as f64;
        let compute_multiplier = if per_core <= 1.0 {
            1.0
        } else {
            // Fraction of threads that are SMT-paired rises linearly from 0
            // at 1 thread/core to 1 at 2 threads/core.
            let paired = ((per_core - 1.0) * 2.0 / per_core).clamp(0.0, 1.0);
            1.0 + paired * (self.two_thread_penalty - 1.0)
        };
        SmtOutcome {
            effective_threads: running,
            compute_multiplier,
        }
    }
}

/// Handle to one live placement made by [`FleetPlacer::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlacementId(pub usize);

/// Deterministic fleet-level placer: a Borg-like bin packer that assigns
/// core blocks to machines by best fit.
///
/// Determinism contract: placement decisions are a pure function of the
/// call sequence — best-fit chooses the machine with the *smallest*
/// sufficient free-core budget, breaking ties toward the lowest machine
/// index, with no hashing or randomness.
#[derive(Debug, Clone, Default)]
pub struct FleetPlacer {
    /// Free cores per machine.
    free: Vec<usize>,
    /// Whether each machine accepts placements (healthy and not draining).
    /// Marked down machines keep their core accounting but are skipped by
    /// [`FleetPlacer::place`] / [`FleetPlacer::place_where`].
    available: Vec<bool>,
    /// Live placements: `id -> (machine, cores)`; `None` after release.
    placements: Vec<Option<(usize, usize)>>,
}

impl FleetPlacer {
    /// A placer over machines with the given per-machine core budgets.
    pub fn new(machine_cores: Vec<usize>) -> Self {
        let available = vec![true; machine_cores.len()];
        FleetPlacer {
            free: machine_cores,
            available,
            placements: Vec::new(),
        }
    }

    /// Number of machines under management.
    pub fn machine_count(&self) -> usize {
        self.free.len()
    }

    /// Free cores currently available on `machine`.
    pub fn free_cores(&self, machine: usize) -> usize {
        self.free.get(machine).copied().unwrap_or(0)
    }

    /// Live (placed, unreleased) placements.
    pub fn live_placements(&self) -> usize {
        self.placements.iter().flatten().count()
    }

    /// Total cores held by live placements (conservation invariant: initial
    /// free cores == current free cores + placed cores, always).
    pub fn placed_cores(&self) -> usize {
        self.placements.iter().flatten().map(|&(_, c)| c).sum()
    }

    /// Places a block of `cores` on the best-fit machine, returning the
    /// placement handle and the chosen machine index; `None` when no
    /// machine has enough free cores. Zero-core requests still consume a
    /// placement id (they pin a task to a machine without reserving cores).
    pub fn place(&mut self, cores: usize) -> Option<(PlacementId, usize)> {
        self.place_where(cores, |_| true)
    }

    /// [`FleetPlacer::place`] restricted to machines accepted by `pred`
    /// (machine index → eligible). The self-healing fleet layer uses this
    /// to reschedule displaced work *outside* the failure domain that just
    /// lost a machine. Down machines are never eligible regardless of
    /// `pred`; ties still break toward the lowest machine index.
    pub fn place_where(
        &mut self,
        cores: usize,
        pred: impl Fn(usize) -> bool,
    ) -> Option<(PlacementId, usize)> {
        let mut best: Option<usize> = None;
        for (m, &f) in self.free.iter().enumerate() {
            if self.available[m] && pred(m) && f >= cores && best.is_none_or(|b| f < self.free[b]) {
                best = Some(m);
            }
        }
        let machine = best?;
        self.free[machine] -= cores;
        self.placements.push(Some((machine, cores)));
        Some((PlacementId(self.placements.len() - 1), machine))
    }

    /// Whether `machine` currently accepts placements.
    pub fn is_available(&self, machine: usize) -> bool {
        self.available.get(machine).copied().unwrap_or(false)
    }

    /// Takes `machine` out of service and evicts every live placement on
    /// it, returning the displaced `(id, cores)` pairs in placement-id
    /// order (deterministic). The evicted ids are released — their cores
    /// return to the (now unplaceable) machine — so callers re-place the
    /// displaced work through [`FleetPlacer::place_where`] and get fresh
    /// ids. Marking an already-down machine is a no-op returning no
    /// evictions.
    pub fn mark_down(&mut self, machine: usize) -> Vec<(PlacementId, usize)> {
        if machine >= self.free.len() || !self.available[machine] {
            return Vec::new();
        }
        self.available[machine] = false;
        let mut displaced = Vec::new();
        for (i, slot) in self.placements.iter_mut().enumerate() {
            if let Some((m, cores)) = *slot {
                if m == machine {
                    *slot = None;
                    self.free[machine] += cores;
                    displaced.push((PlacementId(i), cores));
                }
            }
        }
        displaced
    }

    /// Returns a recovered `machine` to service; its full (freed) core
    /// budget becomes placeable again. No-op for unknown or already-up
    /// machines.
    pub fn mark_up(&mut self, machine: usize) {
        if let Some(a) = self.available.get_mut(machine) {
            *a = true;
        }
    }

    /// Releases a placement, returning its cores to the machine. Releasing
    /// an already-released or unknown id is a no-op.
    pub fn release(&mut self, id: PlacementId) {
        if let Some(slot) = self.placements.get_mut(id.0) {
            if let Some((machine, cores)) = slot.take() {
                self.free[machine] += cores;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placer_best_fit_prefers_tightest_machine() {
        let mut p = FleetPlacer::new(vec![8, 4, 6]);
        // 4 cores fit tightest on machine 1.
        let (a, m) = p.place(4).expect("fits");
        assert_eq!(m, 1);
        assert_eq!(p.free_cores(1), 0);
        // 5 cores now fit tightest on machine 2.
        let (_, m) = p.place(5).expect("fits");
        assert_eq!(m, 2);
        // 9 cores fit nowhere.
        assert_eq!(p.place(9), None);
        // Release returns capacity; double-release is a no-op.
        p.release(a);
        p.release(a);
        assert_eq!(p.free_cores(1), 4);
        assert_eq!(p.live_placements(), 1);
    }

    #[test]
    fn placer_ties_break_to_lowest_machine() {
        let mut p = FleetPlacer::new(vec![4, 4, 4]);
        let (_, m0) = p.place(2).expect("fits");
        assert_eq!(m0, 0);
        // Machine 0 now has 2 free — the tightest fit for another 2.
        let (_, m1) = p.place(2).expect("fits");
        assert_eq!(m1, 0);
        let (_, m2) = p.place(3).expect("fits");
        assert_eq!(m2, 1);
    }

    /// Seeded property test: under a random churn of placements and
    /// releases, the placer is (a) deterministic — an identical replay makes
    /// identical decisions — and (b) total — no placement is dropped or
    /// duplicated, and cores are conserved at every step.
    #[test]
    fn placer_deterministic_and_total_under_churn() {
        use kelp_simcore::rng::SimRng;
        let mut root = SimRng::seed_from(0x9_1ACE);
        for case in 0..32 {
            let mut rng = root.fork(case);
            let budgets: Vec<usize> = (0..1 + rng.below(6) as usize)
                .map(|_| 4 + 2 * rng.below(11) as usize)
                .collect();
            let total: usize = budgets.iter().sum();
            let mut p = FleetPlacer::new(budgets.clone());
            let mut replay = FleetPlacer::new(budgets);
            let mut live: Vec<PlacementId> = Vec::new();
            let mut placed_ok = 0usize;
            for _ in 0..64 {
                if live.is_empty() || rng.below(3) > 0 {
                    let cores = rng.below(12) as usize;
                    let got = p.place(cores);
                    assert_eq!(got, replay.place(cores), "replay diverged");
                    if let Some((id, machine)) = got {
                        assert!(
                            !live.contains(&id),
                            "placement id {id:?} duplicated on machine {machine}"
                        );
                        live.push(id);
                        placed_ok += 1;
                    }
                } else {
                    let k = rng.below(live.len() as u64) as usize;
                    let id = live.swap_remove(k);
                    p.release(id);
                    replay.release(id);
                    p.release(id); // double release must be a no-op
                }
                // Totality: everything placed is still accounted for.
                assert_eq!(p.live_placements(), live.len());
                let free: usize = (0..p.machine_count()).map(|m| p.free_cores(m)).sum();
                assert_eq!(free + p.placed_cores(), total, "cores leaked");
            }
            assert!(placed_ok > 0, "case {case} never placed anything");
        }
    }

    #[test]
    fn mark_down_evicts_in_id_order_and_excludes_machine() {
        let mut p = FleetPlacer::new(vec![8, 8]);
        let (a, m_a) = p.place(4).expect("fits");
        assert_eq!(m_a, 0);
        let (b, m_b) = p.place(6).expect("fits");
        assert_eq!(m_b, 1);
        let (c, m_c) = p.place(3).expect("fits");
        assert_eq!(m_c, 0);

        let displaced = p.mark_down(0);
        assert_eq!(displaced, vec![(a, 4), (c, 3)], "evicted in id order");
        assert!(!p.is_available(0));
        // Evicted cores are freed on the down machine (conservation holds)
        // but it takes no new work: the next placement must land on 1.
        assert_eq!(p.free_cores(0), 8);
        assert_eq!(p.live_placements(), 1);
        let (_, m) = p.place(2).expect("machine 1 still has room");
        assert_eq!(m, 1);
        // A predicate that also rules out machine 1 leaves nowhere to go.
        assert!(p.place_where(2, |m| m != 1).is_none());
        // Marking the same machine down again evicts nothing.
        assert!(p.mark_down(0).is_empty());

        p.mark_up(0);
        let (_, m) = p.place(5).expect("recovered capacity is placeable");
        assert_eq!(m, 0);
        // Releasing an evicted id later is a harmless no-op (it was
        // already released by the eviction).
        let before = p.free_cores(0);
        p.release(b); // b is live on machine 1 — releases normally
        p.release(a); // a was evicted — no-op
        assert_eq!(p.free_cores(0), before);
        assert_eq!(p.free_cores(1), 6, "the 2-core placement is still live");
    }

    #[test]
    fn place_where_prefers_tightest_eligible_machine() {
        let mut p = FleetPlacer::new(vec![8, 4, 6]);
        // Unrestricted best fit would pick machine 1 (tightest); the
        // predicate forces the choice among {0, 2}.
        let (_, m) = p.place_where(4, |m| m != 1).expect("fits");
        assert_eq!(m, 2);
    }

    #[test]
    fn placer_conserves_cores() {
        let mut p = FleetPlacer::new(vec![10, 10]);
        let total = 20;
        let a = p.place(3).expect("fits").0;
        let _b = p.place(7).expect("fits").0;
        p.release(a);
        let _c = p.place(10).expect("fits").0;
        let free: usize = (0..p.machine_count()).map(|m| p.free_cores(m)).sum();
        assert_eq!(free + p.placed_cores(), total);
    }

    #[test]
    fn local_policy_points_home() {
        let p = MemPolicy::Local;
        let home = DomainId::new(0, 1);
        assert_eq!(p.data_fractions(home).collect::<Vec<_>>(), [(home, 1.0)]);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn split_policy_validates_fractions() {
        let good = MemPolicy::Split(vec![
            (DomainId::new(0, 0), 0.25),
            (DomainId::new(1, 0), 0.75),
        ]);
        assert_eq!(good.validate(), Ok(()));
        let bad_sum = MemPolicy::Split(vec![(DomainId::new(0, 0), 0.5)]);
        assert!(bad_sum.validate().is_err());
        let negative = MemPolicy::Split(vec![
            (DomainId::new(0, 0), -0.5),
            (DomainId::new(1, 0), 1.5),
        ]);
        assert!(negative.validate().is_err());
        // A NaN passes both the sign test and the sum test, so it needs its
        // own check; the sum test alone already caught an infinity.
        for bad in [f64::NAN, f64::INFINITY] {
            let non_finite =
                MemPolicy::Split(vec![(DomainId::new(0, 0), bad), (DomainId::new(1, 0), 1.0)]);
            assert_eq!(
                non_finite.validate(),
                Err("non-finite placement fraction".to_string())
            );
        }
    }

    #[test]
    fn smt_no_penalty_under_one_thread_per_core() {
        let m = SmtModel::default();
        let out = m.fit(8.0, 12, 2);
        assert_eq!(out.effective_threads, 8.0);
        assert_eq!(out.compute_multiplier, 1.0);
    }

    #[test]
    fn smt_full_pairing_at_two_threads_per_core() {
        let m = SmtModel::default();
        let out = m.fit(24.0, 12, 2);
        assert_eq!(out.effective_threads, 24.0);
        assert!((out.compute_multiplier - m.two_thread_penalty).abs() < 1e-12);
    }

    #[test]
    fn smt_partial_pairing_interpolates() {
        let m = SmtModel::default();
        let out = m.fit(18.0, 12, 2);
        // 1.5 threads/core: 2/3 of threads paired.
        let expected = 1.0 + (2.0 / 3.0) * (m.two_thread_penalty - 1.0);
        assert!((out.compute_multiplier - expected).abs() < 1e-9);
    }

    #[test]
    fn smt_oversubscription_caps_effective_threads() {
        let m = SmtModel::default();
        let out = m.fit(60.0, 12, 2);
        assert_eq!(out.effective_threads, 24.0);
        assert!((out.compute_multiplier - m.two_thread_penalty).abs() < 1e-12);
    }

    #[test]
    fn smt_degenerate_inputs() {
        let m = SmtModel::default();
        assert_eq!(m.fit(0.0, 12, 2).effective_threads, 0.0);
        assert_eq!(m.fit(5.0, 0, 2).effective_threads, 0.0);
    }
}
