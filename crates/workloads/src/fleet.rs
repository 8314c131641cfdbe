//! Fleet memory-bandwidth model (Figure 2).
//!
//! Figure 2 plots, for one server generation over one day of production, the
//! distribution of each machine's 99 %-ile memory bandwidth as a fraction of
//! peak; the paper's headline is that **16 % of machines exceed 70 % of peak
//! bandwidth**, i.e. memory-bandwidth saturation is widespread.
//!
//! We model each machine's daily bandwidth trace as a lognormal base load
//! plus a probability of being a "hot" machine that spends part of the day
//! near saturation, and compute each machine's 99 %-ile over its samples.

use kelp_host::placement::FleetPlacer;
use kelp_host::{
    CpuAllocation, HostBatch, HostBatchStats, HostMachine, HostTaskId, MachineReport, Priority,
    TaskSpec, ThreadProfile,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode};
use kelp_simcore::rng::SimRng;
use kelp_simcore::stats::SampleSet;
use serde::{Deserialize, Serialize};

/// Parameters of the fleet bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetModel {
    /// Number of machines profiled.
    pub machines: usize,
    /// Bandwidth samples per machine over the day.
    pub samples_per_machine: usize,
    /// Median base utilization (fraction of peak).
    pub base_median: f64,
    /// Lognormal sigma of the base load.
    pub base_sigma: f64,
    /// Probability a machine hosts a bandwidth-heavy job mix.
    pub hot_probability: f64,
    /// Peak-region utilization for hot machines' busy samples.
    pub hot_level: f64,
    /// Fraction of a hot machine's day spent in the busy region.
    pub hot_duty: f64,
}

impl Default for FleetModel {
    /// Tuned so ~16 % of machines show a 99 %-ile above 70 % of peak, as in
    /// the paper.
    fn default() -> Self {
        FleetModel {
            machines: 2000,
            samples_per_machine: 288, // 5-minute samples over a day
            base_median: 0.22,
            base_sigma: 0.28,
            hot_probability: 0.16,
            hot_level: 0.82,
            hot_duty: 0.08,
        }
    }
}

/// Result of a fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Each machine's 99 %-ile bandwidth as a fraction of peak, sorted
    /// ascending.
    pub p99_per_machine: Vec<f64>,
}

impl FleetResult {
    /// Fraction of machines whose 99 %-ile *strictly* exceeds `threshold`:
    /// a machine sitting exactly at the threshold does not count (so
    /// `fraction_above(max_p99)` is 0, never 1/n), and an empty fleet
    /// reports 0.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.p99_per_machine.is_empty() {
            return 0.0;
        }
        let above = self
            .p99_per_machine
            .iter()
            .filter(|&&x| x > threshold)
            .count();
        above as f64 / self.p99_per_machine.len() as f64
    }

    /// Complementary CDF sampled at the given thresholds: for each threshold
    /// `t`, the percentage of machines with 99 %-ile above `t`.
    pub fn ccdf(&self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        thresholds
            .iter()
            .map(|&t| (t, self.fraction_above(t)))
            .collect()
    }
}

impl FleetModel {
    /// Simulates the fleet with the given seed.
    pub fn simulate(&self, seed: u64) -> FleetResult {
        let mut rng = SimRng::seed_from(seed);
        let mu = self.base_median.ln();
        let mut p99s = Vec::with_capacity(self.machines);
        let mut samples = SampleSet::new();
        for _ in 0..self.machines {
            let hot = rng.chance(self.hot_probability);
            samples.clear();
            let mut mrng = rng.fork(0);
            for _ in 0..self.samples_per_machine {
                let base = mrng.log_normal(mu, self.base_sigma).min(0.98);
                let v = if hot && mrng.chance(self.hot_duty) {
                    (self.hot_level + mrng.normal(0.0, 0.05)).clamp(base, 0.99)
                } else {
                    base
                };
                samples.record(v);
            }
            p99s.push(samples.p99());
        }
        p99s.sort_by(|a, b| a.total_cmp(b));
        FleetResult {
            p99_per_machine: p99s,
        }
    }
}

/// Configuration for a stepped host fleet ([`FleetSim`], ISSUE 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSimConfig {
    /// Number of simulated hosts.
    pub machines: usize,
    /// RNG seed for population build and churn.
    pub seed: u64,
    /// Per-machine, per-tick probability of a workload phase change.
    pub churn_probability: f64,
    /// Low-priority batch tasks placed across the fleet per machine (the
    /// Borg-like placement loop: tasks go wherever [`FleetPlacer`] best-fits
    /// them, not necessarily on their "own" machine).
    pub batch_tasks_per_machine: usize,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            machines: 64,
            seed: 0x0F1EE7,
            churn_probability: 0.05,
            batch_tasks_per_machine: 2,
        }
    }
}

/// A stepped fleet of [`HostMachine`]s under a Borg-like placement loop.
///
/// Each host runs one high-priority ML task plus its share of a fleet-wide
/// pool of low-priority batch tasks, placed by a deterministic
/// [`FleetPlacer`]. Per tick, [`FleetSim::churn`] flips a seeded ~5 % of
/// machines to a different workload phase, then either
/// [`FleetSim::step_serial`] (the scalar baseline: one
/// [`HostMachine::solve`] per machine) or [`FleetSim::step_batched`] (the
/// SoA path: one persistent [`HostBatch`] steps every machine on the
/// calling thread) advances every machine one tick. The two step paths are
/// bit-identical.
#[derive(Debug)]
pub struct FleetSim {
    machines: Vec<HostMachine>,
    /// The ML task on each machine (churn target).
    ml_tasks: Vec<HostTaskId>,
    /// Fleet-wide batch-task registry: (machine index, task id).
    batch_tasks: Vec<(usize, HostTaskId)>,
    placer: FleetPlacer,
    rng: SimRng,
    churn_probability: f64,
    /// The batch workspace, reused across ticks.
    batch: HostBatch,
}

/// Workload-phase intensity alphabet: a small set so phases revisit earlier
/// configurations and the steady-state memoization pays off, as in
/// production diurnal load.
const PHASE_LEVELS: [f64; 3] = [0.25, 0.5, 1.0];

impl FleetSim {
    /// Builds a fleet: per machine one high-priority ML task (4 cores on
    /// domain (0,0)), then `batch_tasks_per_machine × machines` low-priority
    /// batch tasks best-fit placed across the whole fleet's remaining cores.
    pub fn new(config: FleetSimConfig) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let mut machines: Vec<HostMachine> = Vec::with_capacity(config.machines);
        let mut ml_tasks = Vec::with_capacity(config.machines);
        for _ in 0..config.machines {
            let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let ws = rng.uniform(1e9, 3e9);
            let id = m.add_task(
                TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(ws), 4),
                vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
            );
            ml_tasks.push(id);
            machines.push(m);
        }
        // Remaining capacity: socket 1 is entirely free for batch work.
        let mut placer = FleetPlacer::new(vec![24; config.machines]);
        let mut batch_tasks = Vec::new();
        for i in 0..config.machines * config.batch_tasks_per_machine {
            let cores = 4 + 2 * (rng.below(3) as usize);
            let Some((_, machine)) = placer.place(cores) else {
                continue;
            };
            let ws = rng.uniform(5e8, 2e9);
            let id = machines[machine].add_task(
                TaskSpec::new(
                    format!("batch-{i}"),
                    Priority::Low,
                    ThreadProfile::streaming(ws),
                    cores,
                ),
                vec![CpuAllocation::local(DomainId::new(1, 0), cores)],
            );
            batch_tasks.push((machine, id));
        }
        FleetSim {
            machines,
            ml_tasks,
            batch_tasks,
            placer,
            rng,
            churn_probability: config.churn_probability,
            batch: HostBatch::new(),
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

    /// One seeded churn round: each machine's ML task changes phase with
    /// the configured probability (drawn from the small phase alphabet, so
    /// configurations revisit and memoization applies); occasionally a
    /// batch task flips too. Serial and deterministic.
    pub fn churn(&mut self) {
        for (i, &ml) in self.ml_tasks.iter().enumerate() {
            if self.rng.chance(self.churn_probability) {
                let level = PHASE_LEVELS[self.rng.below(PHASE_LEVELS.len() as u64) as usize];
                self.machines[i].set_intensity(ml, level);
            }
        }
        if !self.batch_tasks.is_empty() && self.rng.chance(self.churn_probability) {
            let k = self.rng.below(self.batch_tasks.len() as u64) as usize;
            let (machine, id) = self.batch_tasks[k];
            let level = PHASE_LEVELS[self.rng.below(PHASE_LEVELS.len() as u64) as usize];
            self.machines[machine].set_intensity(id, level);
        }
    }

    /// The scalar baseline: one [`HostMachine::solve`] per machine, in
    /// order.
    pub fn step_serial(&self) -> Vec<MachineReport> {
        self.machines.iter().map(|m| m.solve()).collect()
    }

    /// The batched path: one persistent [`HostBatch`] steps every machine
    /// on the calling thread. Reports come back in machine order and are
    /// bit-identical to [`FleetSim::step_serial`] on the same fleet state.
    /// `jobs` is ignored: a fleet tick is too short to pay for a thread
    /// fan-out, so parallelism lives in the run engine instead.
    pub fn step_batched(&mut self, jobs: usize) -> Vec<MachineReport> {
        let mut out = Vec::new();
        self.step_batched_into(jobs, &mut out);
        out
    }

    /// [`FleetSim::step_batched`] refreshing a caller-owned report vector
    /// in place: `out` is resized to one slot per machine and every slot
    /// is pointed at its machine's report rows. Passing the same vector
    /// every tick makes an adaptive skip's refresh one pointer check, which
    /// is where the batch path's fleet-scale throughput comes from. `jobs`
    /// is ignored, as in [`FleetSim::step_batched`].
    pub fn step_batched_into(&mut self, _jobs: usize, out: &mut Vec<MachineReport>) {
        let n = self.machines.len();
        if out.len() != n {
            out.clear();
            out.resize_with(n, MachineReport::empty);
        }
        self.batch.step_into(&self.machines, out);
    }

    /// The batch path's counters.
    pub fn batch_stats(&self) -> HostBatchStats {
        self.batch.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_fraction_matches_paper() {
        let result = FleetModel::default().simulate(2);
        let frac = result.fraction_above(0.70);
        assert!(
            (0.12..=0.20).contains(&frac),
            "fraction above 70% peak: {frac}"
        );
    }

    #[test]
    fn ccdf_of_no_thresholds_is_empty() {
        let result = FleetModel::default().simulate(9);
        assert_eq!(result.ccdf(&[]), vec![]);
    }

    #[test]
    fn fraction_above_is_strict_at_the_sample() {
        // All-equal p99s: a threshold exactly at the common value excludes
        // every machine (strict `>`), anything below includes all of them.
        let result = FleetResult {
            p99_per_machine: vec![0.5; 4],
        };
        assert_eq!(result.fraction_above(0.5), 0.0);
        assert_eq!(result.fraction_above(0.5 - 1e-12), 1.0);
        assert_eq!(result.fraction_above(0.6), 0.0);
        assert_eq!(
            result.ccdf(&[0.4, 0.5, 0.6]),
            vec![(0.4, 1.0), (0.5, 0.0), (0.6, 0.0)]
        );
    }

    #[test]
    fn fraction_above_of_an_empty_fleet_is_zero() {
        let result = FleetResult {
            p99_per_machine: vec![],
        };
        assert_eq!(result.fraction_above(0.0), 0.0);
        assert_eq!(result.ccdf(&[0.0, 1.0]), vec![(0.0, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn ccdf_is_monotonically_decreasing() {
        let result = FleetModel::default().simulate(3);
        let thresholds: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let ccdf = result.ccdf(&thresholds);
        for pair in ccdf.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(ccdf[0].1 > 0.9, "nearly all machines above 0");
    }

    #[test]
    fn p99s_are_valid_fractions() {
        let result = FleetModel::default().simulate(4);
        assert_eq!(result.p99_per_machine.len(), 2000);
        assert!(result
            .p99_per_machine
            .iter()
            .all(|&x| (0.0..=1.0).contains(&x)));
        // Sorted ascending.
        assert!(result.p99_per_machine.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FleetModel::default().simulate(9);
        let b = FleetModel::default().simulate(9);
        assert_eq!(a, b);
        let c = FleetModel::default().simulate(10);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_fleet_is_harmless() {
        let m = FleetModel {
            machines: 0,
            ..FleetModel::default()
        };
        let r = m.simulate(1);
        assert_eq!(r.fraction_above(0.5), 0.0);
    }
}
