//! Last-level cache model with CAT way-partitioning.
//!
//! Every managed configuration in the paper dedicates an LLC partition to the
//! accelerated task through Intel Cache Allocation Technology (CAT), so the
//! model needs way-granular partitioning plus a contention model for the
//! shared ways.
//!
//! * Capacity is divided into `ways` equal slices.
//! * A [`CatAllocation`] dedicates some ways exclusively to the
//!   high-priority class; the remainder is shared.
//! * Within the shared pool, steady-state occupancy is approximated as
//!   proportional to the *square root* of each task's LLC access rate — a
//!   sublinear LRU-fluid approximation: streaming tasks occupy a lot of
//!   cache but with strongly diminishing returns, so a low-rate task with a
//!   hot working set retains a meaningful slice, as observed on real LRU
//!   hierarchies.
//! * A task's hit ratio follows a concave utility curve: best-case ratio
//!   scaled by `(capacity / working_set)^0.5`, matching the diminishing
//!   marginal utility of cache for most workloads.

use serde::{Deserialize, Serialize};

/// CAT way split for one cache domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatAllocation {
    /// Total ways in the cache domain.
    pub total_ways: u32,
    /// Ways dedicated to the high-priority class (0 = CAT off).
    pub high_priority_ways: u32,
}

impl CatAllocation {
    /// CAT disabled: every way shared.
    pub fn disabled(total_ways: u32) -> Self {
        CatAllocation {
            total_ways,
            high_priority_ways: 0,
        }
    }

    /// Dedicates `hp_ways` ways to the high-priority class.
    ///
    /// # Panics
    ///
    /// Panics if `hp_ways >= total_ways` (the low-priority class must keep at
    /// least one way) or `total_ways == 0`.
    pub fn with_dedicated(total_ways: u32, hp_ways: u32) -> Self {
        assert!(total_ways > 0, "cache must have ways");
        assert!(
            hp_ways < total_ways,
            "low-priority class must keep at least one way"
        );
        CatAllocation {
            total_ways,
            high_priority_ways: hp_ways,
        }
    }

    /// Fraction of capacity dedicated to the high-priority class.
    pub fn high_priority_fraction(&self) -> f64 {
        self.high_priority_ways as f64 / self.total_ways as f64
    }

    /// Fraction of capacity in the shared pool.
    pub fn shared_fraction(&self) -> f64 {
        1.0 - self.high_priority_fraction()
    }
}

/// Whether a task is covered by the dedicated partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CacheClass {
    /// Uses the dedicated high-priority ways (plus nothing else).
    HighPriority,
    /// Competes in the shared pool.
    #[default]
    Shared,
}

/// One task's view of the cache for the occupancy computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTask {
    /// Working-set size in bytes (0 = no cache use).
    pub working_set: f64,
    /// LLC access rate in accesses/s (used for occupancy weighting).
    pub access_rate: f64,
    /// Best-case hit ratio when the working set fully fits.
    pub hit_max: f64,
    /// Partition class.
    pub class: CacheClass,
}

/// Per-task result of the occupancy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheShare {
    /// Effective capacity available to the task, bytes.
    pub capacity: f64,
    /// Resulting hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
}

/// LLC model for one cache domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlcModel {
    /// Domain capacity in bytes.
    pub capacity_bytes: f64,
    /// Way split.
    pub cat: CatAllocation,
}

impl LlcModel {
    /// Creates a model for a domain of `capacity_mib` MiB.
    pub fn new(capacity_mib: f64, cat: CatAllocation) -> Self {
        LlcModel {
            capacity_bytes: capacity_mib * 1024.0 * 1024.0,
            cat,
        }
    }

    /// Computes each task's effective capacity and hit ratio.
    ///
    /// High-priority tasks split the dedicated partition among themselves
    /// (access-rate proportionally); shared-class tasks split the shared pool
    /// the same way. A task with zero access rate gets zero occupancy unless
    /// it is alone in its pool.
    pub fn shares(&self, tasks: &[CacheTask]) -> Vec<CacheShare> {
        let mut out = Vec::new();
        self.shares_into(tasks, &mut out);
        out
    }

    /// In-place core of [`shares`](Self::shares): writes one [`CacheShare`]
    /// per task into `out` (cleared first). Reusing `out` across calls makes
    /// the occupancy computation allocation-free; results are bit-identical
    /// to the allocating API.
    pub fn shares_into(&self, tasks: &[CacheTask], out: &mut Vec<CacheShare>) {
        let hp_capacity = self.capacity_bytes * self.cat.high_priority_fraction();
        let shared_capacity = self.capacity_bytes * self.cat.shared_fraction();

        // One pass: each task's occupancy weight sqrt(rate), parked in its
        // output slot, and the per-class sums in task order.
        let (mut hp_rate, mut shared_rate) = (0.0, 0.0);
        let (mut hp_n, mut shared_n) = (0usize, 0usize);
        out.clear();
        out.extend(tasks.iter().map(|t| {
            let weight = t.access_rate.max(0.0).sqrt();
            match t.class {
                CacheClass::HighPriority => {
                    hp_rate += weight;
                    hp_n += 1;
                }
                CacheClass::Shared => {
                    shared_rate += weight;
                    shared_n += 1;
                }
            }
            CacheShare {
                capacity: weight,
                hit_ratio: 0.0,
            }
        }));

        for (share, t) in out.iter_mut().zip(tasks) {
            let (pool_cap, rate_sum, n) = match t.class {
                CacheClass::HighPriority => {
                    // With CAT off the "dedicated" pool is empty: HP tasks
                    // compete in the shared pool like everyone else.
                    if self.cat.high_priority_ways == 0 {
                        (shared_capacity, hp_rate + shared_rate, hp_n + shared_n)
                    } else {
                        (hp_capacity, hp_rate, hp_n)
                    }
                }
                CacheClass::Shared => {
                    if self.cat.high_priority_ways == 0 {
                        (shared_capacity, hp_rate + shared_rate, hp_n + shared_n)
                    } else {
                        (shared_capacity, shared_rate, shared_n)
                    }
                }
            };
            let capacity = if n == 0 {
                0.0
            } else if rate_sum <= 0.0 {
                pool_cap / n as f64
            } else {
                pool_cap * share.capacity / rate_sum
            };
            *share = CacheShare {
                capacity,
                hit_ratio: hit_ratio(t.working_set, capacity, t.hit_max),
            };
        }
    }
}

/// Hit ratio of a working set `ws` bytes in `capacity` bytes of cache, with
/// best-case ratio `hit_max`.
///
/// Fits entirely -> `hit_max`; otherwise follows the concave utility curve
/// `hit_max * sqrt(capacity / ws)` — cache utility has diminishing returns,
/// so losing half the capacity costs well under half the hits.
pub fn hit_ratio(ws: f64, capacity: f64, hit_max: f64) -> f64 {
    let hit_max = hit_max.clamp(0.0, 1.0);
    if ws <= 0.0 {
        return hit_max;
    }
    if capacity <= 0.0 {
        return 0.0;
    }
    let fill = capacity / ws;
    // A set that fits (or a NaN fill, which `f64::min` also reads as 1)
    // keeps `hit_max * sqrt(1) = hit_max`: skip the `sqrt`.
    if fill < 1.0 {
        hit_max * fill.sqrt()
    } else {
        hit_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    fn task(ws_mib: f64, rate: f64, class: CacheClass) -> CacheTask {
        CacheTask {
            working_set: ws_mib * MIB,
            access_rate: rate,
            hit_max: 0.9,
            class,
        }
    }

    #[test]
    fn cat_fractions() {
        let cat = CatAllocation::with_dedicated(11, 4);
        assert!((cat.high_priority_fraction() - 4.0 / 11.0).abs() < 1e-12);
        assert!((cat.shared_fraction() - 7.0 / 11.0).abs() < 1e-12);
        assert_eq!(CatAllocation::disabled(11).high_priority_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn cat_rejects_full_dedication() {
        CatAllocation::with_dedicated(11, 11);
    }

    #[test]
    fn hit_ratio_fits_and_overflows() {
        assert!((hit_ratio(4.0, 8.0, 0.9) - 0.9).abs() < 1e-12);
        // Concave utility: half the capacity keeps sqrt(1/2) of the hits.
        assert!((hit_ratio(16.0, 8.0, 0.9) - 0.9 * 0.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(hit_ratio(8.0, 0.0, 0.9), 0.0);
        assert_eq!(hit_ratio(0.0, 0.0, 0.9), 0.9);
        assert_eq!(hit_ratio(1.0, 2.0, 1.5), 1.0, "hit_max clamped");
    }

    #[test]
    fn lone_task_gets_whole_shared_pool() {
        let llc = LlcModel::new(32.0, CatAllocation::disabled(16));
        let shares = llc.shares(&[task(16.0, 100.0, CacheClass::Shared)]);
        assert!((shares[0].capacity - 32.0 * MIB).abs() < 1.0);
        assert!((shares[0].hit_ratio - 0.9).abs() < 1e-9);
    }

    #[test]
    fn aggressor_steals_occupancy_without_cat() {
        let llc = LlcModel::new(32.0, CatAllocation::disabled(16));
        // Victim fits alone; a high-rate streaming aggressor shrinks it.
        let shares = llc.shares(&[
            task(16.0, 100.0, CacheClass::HighPriority),
            task(64.0, 300.0, CacheClass::Shared),
        ]);
        // sqrt-rate occupancy: the victim keeps sqrt(100)/(sqrt(100)+sqrt(300))
        // ~= 36.6% of the cache, losing a noticeable chunk of its hits.
        assert!(
            shares[0].hit_ratio < 0.8,
            "victim should lose part of the LLC: {}",
            shares[0].hit_ratio
        );
        assert!(shares[0].capacity < 0.45 * 32.0 * MIB);
    }

    #[test]
    fn cat_protects_the_victim() {
        let llc = LlcModel::new(32.0, CatAllocation::with_dedicated(16, 8));
        let shares = llc.shares(&[
            task(16.0, 100.0, CacheClass::HighPriority),
            task(64.0, 300.0, CacheClass::Shared),
        ]);
        // Victim holds the whole dedicated half: 16 MiB for a 16 MiB set.
        assert!((shares[0].capacity - 16.0 * MIB).abs() < 1.0);
        assert!((shares[0].hit_ratio - 0.9).abs() < 1e-9);
        // Aggressor confined to the shared half.
        assert!((shares[1].capacity - 16.0 * MIB).abs() < 1.0);
    }

    #[test]
    fn shared_pool_splits_by_sqrt_access_rate() {
        let llc = LlcModel::new(30.0, CatAllocation::disabled(10));
        let shares = llc.shares(&[
            task(100.0, 200.0, CacheClass::Shared),
            task(100.0, 100.0, CacheClass::Shared),
        ]);
        let w0 = 200.0f64.sqrt();
        let w1 = 100.0f64.sqrt();
        let expect0 = 30.0 * MIB * w0 / (w0 + w1);
        let expect1 = 30.0 * MIB * w1 / (w0 + w1);
        assert!((shares[0].capacity - expect0).abs() < 1.0);
        assert!((shares[1].capacity - expect1).abs() < 1.0);
        // Sublinear: the 2x-rate task gets well under 2x the space.
        assert!(shares[0].capacity < 1.5 * shares[1].capacity);
    }

    #[test]
    fn zero_rate_pool_splits_evenly() {
        let llc = LlcModel::new(30.0, CatAllocation::disabled(10));
        let shares = llc.shares(&[
            task(10.0, 0.0, CacheClass::Shared),
            task(10.0, 0.0, CacheClass::Shared),
        ]);
        assert!((shares[0].capacity - 15.0 * MIB).abs() < 1.0);
        assert!((shares[1].capacity - 15.0 * MIB).abs() < 1.0);
    }

    #[test]
    fn capacities_conserve_pool_size() {
        let llc = LlcModel::new(33.0, CatAllocation::with_dedicated(11, 4));
        let tasks = [
            task(8.0, 50.0, CacheClass::HighPriority),
            task(20.0, 80.0, CacheClass::Shared),
            task(40.0, 20.0, CacheClass::Shared),
        ];
        let shares = llc.shares(&tasks);
        let hp: f64 = shares
            .iter()
            .zip(&tasks)
            .filter(|(_, t)| t.class == CacheClass::HighPriority)
            .map(|(s, _)| s.capacity)
            .sum();
        let sh: f64 = shares
            .iter()
            .zip(&tasks)
            .filter(|(_, t)| t.class == CacheClass::Shared)
            .map(|(s, _)| s.capacity)
            .sum();
        assert!((hp - 33.0 * MIB * 4.0 / 11.0).abs() < 1.0);
        assert!((sh - 33.0 * MIB * 7.0 / 11.0).abs() < 1.0);
    }
}
