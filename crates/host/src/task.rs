//! Host tasks.
//!
//! A *task* is a group of identical threads with an execution profile: how
//! much compute per work unit, how many LLC accesses, how prefetch-friendly
//! the access pattern is, and how big the working set is. The paper's
//! colocation model (§II-B) has exactly two priority classes: the
//! high-priority accelerated ML task and low-priority CPU tasks.

use kelp_mem::llc::CacheClass;
use kelp_mem::prefetch::PrefetchProfile;
use serde::{Deserialize, Serialize};

/// Identifies a task on a [`crate::HostMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostTaskId(pub usize);

/// Task priority class (Borg-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// The accelerated ML task (at most one per machine in the paper's
    /// usage model).
    High,
    /// Best-effort batch work.
    Low,
}

/// Per-thread execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadProfile {
    /// Compute time per work unit in ns at full speed.
    pub compute_ns_per_unit: f64,
    /// LLC accesses per work unit.
    pub accesses_per_unit: f64,
    /// Bytes per memory access (cache line).
    pub bytes_per_access: f64,
    /// Demand memory-level parallelism (without prefetchers).
    pub mlp: f64,
    /// Working-set size in bytes.
    pub working_set_bytes: f64,
    /// Best-case LLC hit ratio.
    pub hit_max: f64,
    /// Prefetch friendliness.
    pub prefetch: PrefetchProfile,
}

impl ThreadProfile {
    /// A compute-bound profile: almost no memory traffic.
    pub fn compute_bound(compute_ns_per_unit: f64) -> Self {
        ThreadProfile {
            compute_ns_per_unit,
            accesses_per_unit: 0.05,
            bytes_per_access: 64.0,
            mlp: 4.0,
            working_set_bytes: 1e6,
            hit_max: 0.95,
            prefetch: PrefetchProfile::irregular(),
        }
    }

    /// A streaming profile: traverses a large array, misses everywhere,
    /// prefetches beautifully. The paper's `Stream`/`DRAM` aggressor shape.
    pub fn streaming(working_set_bytes: f64) -> Self {
        ThreadProfile {
            compute_ns_per_unit: 40.0,
            accesses_per_unit: 8.0,
            bytes_per_access: 64.0,
            mlp: 3.0,
            working_set_bytes,
            hit_max: 0.05,
            prefetch: PrefetchProfile::streaming(),
        }
    }

    /// An LLC-thrashing profile: working set sized to the LLC, hits when it
    /// owns the cache, misses when it does not. The paper's `LLC` aggressor.
    pub fn llc_resident(llc_bytes: f64) -> Self {
        ThreadProfile {
            compute_ns_per_unit: 25.0,
            accesses_per_unit: 6.0,
            bytes_per_access: 64.0,
            mlp: 4.0,
            working_set_bytes: llc_bytes,
            hit_max: 0.98,
            prefetch: PrefetchProfile::irregular(),
        }
    }

    /// Validates the profile, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        // Every comparison with a NaN is false, so a NaN would pass every
        // test below.
        let fields = [
            ("compute time", self.compute_ns_per_unit),
            ("access count", self.accesses_per_unit),
            ("access size", self.bytes_per_access),
            ("MLP", self.mlp),
            ("working set", self.working_set_bytes),
            ("hit_max", self.hit_max),
            ("prefetch coverage", self.prefetch.coverage),
            ("prefetch waste", self.prefetch.waste),
            ("prefetch MLP boost", self.prefetch.mlp_boost),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("non-finite {name}"));
        }
        if self.compute_ns_per_unit < 0.0 {
            return Err("negative compute time".into());
        }
        if self.accesses_per_unit < 0.0 {
            return Err("negative access count".into());
        }
        if self.bytes_per_access <= 0.0 {
            return Err("non-positive access size".into());
        }
        if self.mlp <= 0.0 {
            return Err("non-positive MLP".into());
        }
        if !(0.0..=1.0).contains(&self.hit_max) {
            return Err("hit_max outside [0,1]".into());
        }
        if self.working_set_bytes < 0.0 {
            return Err("negative working set".into());
        }
        Ok(())
    }
}

/// Specification used to create a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Human-readable name (for reports).
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Per-thread profile.
    pub profile: ThreadProfile,
    /// Threads the task wants to run.
    pub desired_threads: usize,
    /// Memory arbitration weight (1.0 unless modelling HW QoS).
    pub mem_weight: f64,
}

impl TaskSpec {
    /// Creates a spec with weight 1.0.
    pub fn new(
        name: impl Into<String>,
        priority: Priority,
        profile: ThreadProfile,
        desired_threads: usize,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            priority,
            profile,
            desired_threads,
            mem_weight: 1.0,
        }
    }

    /// The cache class implied by the priority (high priority tasks use the
    /// CAT-protected partition, mirroring the paper's setup).
    pub fn cache_class(&self) -> CacheClass {
        match self.priority {
            Priority::High => CacheClass::HighPriority,
            Priority::Low => CacheClass::Shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_profiles_validate() {
        assert_eq!(ThreadProfile::compute_bound(100.0).validate(), Ok(()));
        assert_eq!(ThreadProfile::streaming(1e9).validate(), Ok(()));
        assert_eq!(ThreadProfile::llc_resident(33e6).validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut p = ThreadProfile::compute_bound(100.0);
        p.mlp = 0.0;
        assert!(p.validate().is_err());
        let mut p = ThreadProfile::compute_bound(100.0);
        p.hit_max = 1.5;
        assert!(p.validate().is_err());
        let mut p = ThreadProfile::compute_bound(100.0);
        p.compute_ns_per_unit = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_fields() {
        type Field = fn(&mut ThreadProfile) -> &mut f64;
        let fields: [Field; 9] = [
            |p| &mut p.compute_ns_per_unit,
            |p| &mut p.accesses_per_unit,
            |p| &mut p.bytes_per_access,
            |p| &mut p.mlp,
            |p| &mut p.working_set_bytes,
            |p| &mut p.hit_max,
            |p| &mut p.prefetch.coverage,
            |p| &mut p.prefetch.waste,
            |p| &mut p.prefetch.mlp_boost,
        ];
        for (i, field) in fields.iter().enumerate() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = ThreadProfile::streaming(1e9);
                *field(&mut p) = bad;
                let err = p.validate().expect_err("a non-finite field is rejected");
                assert!(err.starts_with("non-finite"), "field {i} = {bad}: {err}");
            }
        }
    }

    #[test]
    fn priority_maps_to_cache_class() {
        let hp = TaskSpec::new("ml", Priority::High, ThreadProfile::compute_bound(10.0), 4);
        let lp = TaskSpec::new("batch", Priority::Low, ThreadProfile::streaming(1e9), 8);
        assert_eq!(hp.cache_class(), CacheClass::HighPriority);
        assert_eq!(lp.cache_class(), CacheClass::Shared);
    }

    #[test]
    fn streaming_profile_is_memory_heavy() {
        let p = ThreadProfile::streaming(1e9);
        assert!(p.accesses_per_unit * (1.0 - p.hit_max) > 5.0);
        assert!(p.prefetch.coverage > 0.5);
    }
}
