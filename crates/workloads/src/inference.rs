//! Pipelined inference-server workload engine (RNN1).
//!
//! Models the paper's RNN-based NLP inference server on the TPU platform:
//! queries arrive open-loop (Poisson) at a target QPS chosen at the knee of
//! the throughput–latency curve; each query runs a fixed number of
//! iterations, and each iteration is a CPU beam-search phase, a CPU–TPU
//! PCIe communication phase, and a TPU compute phase (Figure 3's
//! sub-millisecond interleaving). Queries are processed with bounded
//! pipeline concurrency; the device itself is serially shared.
//!
//! Reported metrics are completed QPS and the 95 %-ile end-to-end latency —
//! the two series of Figure 10.

use crate::model::{InstallCtx, PerfSnapshot, Workload, WorkloadKind};
use kelp_accel::Platform;
use kelp_host::machine::{FlowId, MachineReport};
use kelp_host::placement::CpuAllocation;
use kelp_host::task::{Priority, TaskSpec, ThreadProfile};
use kelp_host::{HostMachine, HostTaskId};
use kelp_mem::solver::FixedFlow;
use kelp_simcore::rng::SimRng;
use kelp_simcore::stats::SampleSet;
use kelp_simcore::time::{SimDuration, SimTime};
use kelp_simcore::trace::PhaseTrace;
use std::collections::VecDeque;

/// Parameters of an inference-server workload.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceParams {
    /// Display name (e.g. `"RNN1"`).
    pub name: String,
    /// Platform (TPU for RNN1).
    pub platform: Platform,
    /// Iterations per query.
    pub iterations_per_query: u32,
    /// CPU beam-search work per iteration, in work units.
    pub cpu_work_per_iteration: f64,
    /// PCIe communication time per iteration in ns.
    pub pcie_ns_per_iteration: f64,
    /// TPU compute time per iteration in ns.
    pub accel_ns_per_iteration: f64,
    /// Offered load in queries per second (0 = closed-loop serial, used for
    /// the Figure 3 timeline).
    pub target_qps: f64,
    /// Maximum queries processed concurrently (pipeline depth).
    pub max_concurrency: usize,
    /// Host assist threads (beam search).
    pub assist_threads: usize,
    /// Assist thread profile.
    pub assist_profile: ThreadProfile,
    /// DMA traffic into host memory while queries are in flight, GB/s.
    pub dma_gbps: f64,
    /// RNG seed for the arrival process.
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QPhase {
    Cpu { left: f64 },
    Pcie { left_ns: f64 },
    Accel { left_ns: f64 },
}

#[derive(Debug, Clone, Copy)]
struct Query {
    arrived: SimTime,
    iter: u32,
    phase: QPhase,
}

/// A running inference server.
#[derive(Debug)]
pub struct InferenceServer {
    params: InferenceParams,
    task: Option<HostTaskId>,
    flow: Option<FlowId>,
    rng: SimRng,
    next_arrival: SimTime,
    backlog: VecDeque<SimTime>,
    in_flight: Vec<Query>,
    completed: u64,
    latencies: SampleSet,
    measured_ns: f64,
    trace: PhaseTrace,
}

impl InferenceServer {
    /// Creates the workload (install it before stepping).
    pub fn new(params: InferenceParams) -> Self {
        let rng = SimRng::seed_from(params.seed);
        InferenceServer {
            params,
            task: None,
            flow: None,
            rng,
            next_arrival: SimTime::ZERO,
            backlog: VecDeque::new(),
            in_flight: Vec::new(),
            completed: 0,
            latencies: SampleSet::new(),
            measured_ns: 0.0,
            trace: PhaseTrace::new(),
        }
    }

    /// The parameters.
    pub fn params(&self) -> &InferenceParams {
        &self.params
    }

    /// Enables phase tracing (drives the Figure 3 timeline).
    pub fn enable_trace(&mut self) {
        self.trace.enable();
    }

    /// Completed queries since the last metric reset.
    pub fn completed_queries(&self) -> u64 {
        self.completed
    }

    /// Queries currently queued or in flight.
    pub fn outstanding(&self) -> usize {
        self.backlog.len() + self.in_flight.len()
    }

    fn admit(&mut self, now: SimTime) {
        // Closed-loop serial mode: keep exactly one query in the system.
        if self.params.target_qps <= 0.0 {
            if self.in_flight.is_empty() {
                self.in_flight.push(Query {
                    arrived: now,
                    iter: 0,
                    phase: QPhase::Cpu {
                        left: self.params.cpu_work_per_iteration,
                    },
                });
            }
            return;
        }
        while self.in_flight.len() < self.params.max_concurrency {
            let Some(arrived) = self.backlog.pop_front() else {
                break;
            };
            self.in_flight.push(Query {
                arrived,
                iter: 0,
                phase: QPhase::Cpu {
                    left: self.params.cpu_work_per_iteration,
                },
            });
        }
    }

    fn generate_arrivals(&mut self, now: SimTime, dt: SimDuration) {
        if self.params.target_qps <= 0.0 {
            return;
        }
        let end = now + dt;
        let mean_gap_ns = 1e9 / self.params.target_qps;
        while self.next_arrival < end {
            self.backlog.push_back(self.next_arrival);
            let gap = self.rng.exponential(mean_gap_ns);
            self.next_arrival += SimDuration::from_nanos_f64(gap.max(1.0));
        }
    }

    fn cpu_active(&self) -> usize {
        self.in_flight
            .iter()
            .filter(|q| matches!(q.phase, QPhase::Cpu { .. }))
            .count()
    }

    fn dominant_phase(&self) -> &'static str {
        // For the serial (Figure 3) trace there is at most one query.
        match self.in_flight.first().map(|q| q.phase) {
            Some(QPhase::Cpu { .. }) => "cpu",
            Some(QPhase::Pcie { .. }) => "pcie",
            Some(QPhase::Accel { .. }) => "accel",
            None => "idle",
        }
    }
}

impl Workload for InferenceServer {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::MlAccelerated
    }

    fn install(&mut self, machine: &mut HostMachine, ctx: InstallCtx) {
        let spec = TaskSpec::new(
            self.params.name.clone(),
            Priority::High,
            self.params.assist_profile,
            self.params.assist_threads,
        );
        let cores = self
            .params
            .assist_threads
            .min(machine.domain_cores(ctx.hp_domain));
        let task = machine.add_task(spec, vec![CpuAllocation::local(ctx.hp_domain, cores)]);
        let flow = machine.add_flow(FixedFlow {
            target: ctx.hp_domain,
            source_socket: None,
            gbps: 0.0,
            weight: 1.0,
        });
        self.task = Some(task);
        self.flow = Some(flow);
    }

    fn pre_step(&mut self, now: SimTime, machine: &mut HostMachine) {
        // The harness always installs before stepping; a missing handle
        // means this workload was never wired in, so stepping is a no-op.
        let (Some(task), Some(flow)) = (self.task, self.flow) else {
            return;
        };
        self.admit(now);
        let active = self.cpu_active();
        let intensity = if self.params.assist_threads == 0 {
            0.0
        } else {
            (active as f64 / self.params.assist_threads as f64).min(1.0)
        };
        machine.set_intensity(task, intensity);
        let dma = if self.in_flight.is_empty() {
            0.0
        } else {
            self.params.dma_gbps
        };
        machine.set_flow_gbps(flow, dma);
        if self.trace.is_enabled() {
            self.trace.begin(self.dominant_phase(), now);
        }
    }

    fn post_step(&mut self, now: SimTime, dt: SimDuration, report: &MachineReport) {
        let Some(task) = self.task else {
            return; // never installed: nothing to account
        };
        let total_rate = report.task(task).units_per_sec;
        self.measured_ns += dt.as_nanos_f64();
        self.generate_arrivals(now, dt);
        self.admit(now);

        let dt_ns = dt.as_nanos_f64();
        // Per-query CPU rate: the assist task's units are shared evenly among
        // queries in their CPU phase.
        let cpu_n = self.cpu_active().max(1);
        let per_query_rate = total_rate / cpu_n as f64;

        // Device: serially shared; budget dt of device time handed to
        // queries in accel phase in FIFO (admission) order.
        let mut device_budget = dt_ns;

        let end = now + dt;
        let mut finished: Vec<SimTime> = Vec::new();
        let params = &self.params;
        for q in self.in_flight.iter_mut() {
            let mut budget = dt_ns;
            while budget > 1e-9 {
                match &mut q.phase {
                    QPhase::Cpu { left } => {
                        if per_query_rate <= 0.0 {
                            break;
                        }
                        let finish_ns = *left / per_query_rate * 1e9;
                        if finish_ns <= budget {
                            budget -= finish_ns.max(1e-9);
                            q.phase = QPhase::Pcie {
                                left_ns: params.pcie_ns_per_iteration,
                            };
                        } else {
                            *left -= per_query_rate * budget / 1e9;
                            budget = 0.0;
                        }
                    }
                    QPhase::Pcie { left_ns } => {
                        if *left_ns <= budget {
                            budget -= left_ns.max(1e-9);
                            q.phase = QPhase::Accel {
                                left_ns: params.accel_ns_per_iteration,
                            };
                        } else {
                            *left_ns -= budget;
                            budget = 0.0;
                        }
                    }
                    QPhase::Accel { left_ns } => {
                        let grant = budget.min(device_budget);
                        if grant <= 1e-9 {
                            break;
                        }
                        if *left_ns <= grant {
                            device_budget -= *left_ns;
                            budget -= left_ns.max(1e-9);
                            q.iter += 1;
                            if q.iter >= params.iterations_per_query {
                                finished.push(q.arrived);
                                // Mark exhausted; removed below.
                                q.phase = QPhase::Accel { left_ns: -1.0 };
                                budget = 0.0;
                            } else {
                                q.phase = QPhase::Cpu {
                                    left: params.cpu_work_per_iteration,
                                };
                            }
                        } else {
                            *left_ns -= grant;
                            device_budget -= grant;
                            budget -= grant;
                        }
                    }
                }
            }
        }
        self.in_flight
            .retain(|q| !matches!(q.phase, QPhase::Accel { left_ns } if left_ns < 0.0));
        for arrived in finished {
            self.completed += 1;
            let latency_ms = end.saturating_since(arrived).as_millis_f64();
            self.latencies.record(latency_ms);
        }
        if self.trace.is_enabled() {
            // Rotate the open phase if the dominant phase changed; contiguous
            // same-phase steps merge into one trace event.
            let label = self.dominant_phase();
            self.trace.begin(label, end);
        }
    }

    fn primary_task(&self) -> Option<HostTaskId> {
        self.task
    }

    fn task_ids(&self) -> Vec<HostTaskId> {
        self.task.into_iter().collect()
    }

    fn performance(&self) -> PerfSnapshot {
        let secs = self.measured_ns / 1e9;
        PerfSnapshot {
            throughput: if secs > 0.0 {
                self.completed as f64 / secs
            } else {
                0.0
            },
            tail_latency_ms: if self.latencies.is_empty() {
                None
            } else {
                Some(self.latencies.p95())
            },
        }
    }

    fn reset_metrics(&mut self) {
        self.completed = 0;
        self.latencies.clear();
        self.measured_ns = 0.0;
    }

    fn trace(&self) -> Option<&PhaseTrace> {
        if self.trace.is_enabled() {
            Some(&self.trace)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelp_mem::topology::{DomainId, MachineSpec, SncMode};

    fn params(target_qps: f64) -> InferenceParams {
        InferenceParams {
            name: "rnn-toy".into(),
            platform: Platform::Tpu,
            iterations_per_query: 4,
            cpu_work_per_iteration: 800.0,
            pcie_ns_per_iteration: 50_000.0,
            accel_ns_per_iteration: 200_000.0,
            target_qps,
            max_concurrency: 4,
            assist_threads: 4,
            assist_profile: ThreadProfile::compute_bound(100.0),
            dma_gbps: 1.0,
            seed: 7,
        }
    }

    fn run(server: &mut InferenceServer, machine: &mut HostMachine, ms: u64) {
        let dt = SimDuration::from_micros(20);
        let steps = ms * 1_000_000 / dt.as_nanos();
        let mut now = SimTime::ZERO;
        for _ in 0..steps {
            server.pre_step(now, machine);
            let report = machine.solve();
            server.post_step(now, dt, &report);
            now += dt;
        }
    }

    fn install(server: &mut InferenceServer, machine: &mut HostMachine) {
        server.install(
            machine,
            InstallCtx {
                hp_domain: DomainId::new(0, 0),
                lp_domain: DomainId::new(0, 0),
            },
        );
    }

    #[test]
    fn serves_offered_load_when_underloaded() {
        let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        // Query service time ~ 4 * (0.05 + 0.05 + 0.2) ms ~= 1.2 ms; with
        // concurrency 4 the knee is near 3000 QPS. Offer 500.
        let mut s = InferenceServer::new(params(500.0));
        install(&mut s, &mut machine);
        run(&mut s, &mut machine, 400);
        let perf = s.performance();
        assert!(
            (perf.throughput - 500.0).abs() < 60.0,
            "qps {}",
            perf.throughput
        );
        let tail = perf.tail_latency_ms.expect("latencies recorded");
        assert!(tail > 1.0 && tail < 6.0, "tail {tail}");
    }

    #[test]
    fn device_serialization_caps_throughput() {
        let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        // Device time per query = 4 * 0.2 ms = 0.8 ms -> cap at 1250 QPS.
        let mut s = InferenceServer::new(params(5000.0));
        install(&mut s, &mut machine);
        run(&mut s, &mut machine, 400);
        let perf = s.performance();
        assert!(perf.throughput < 1350.0, "qps {}", perf.throughput);
        assert!(perf.throughput > 900.0, "qps {}", perf.throughput);
    }

    #[test]
    fn overload_grows_tail_latency() {
        let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut light = InferenceServer::new(params(400.0));
        install(&mut light, &mut machine);
        run(&mut light, &mut machine, 300);
        let tail_light = light.performance().tail_latency_ms.unwrap();

        let mut machine2 = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut heavy = InferenceServer::new(params(2000.0));
        install(&mut heavy, &mut machine2);
        run(&mut heavy, &mut machine2, 300);
        let tail_heavy = heavy.performance().tail_latency_ms.unwrap();
        assert!(
            tail_heavy > tail_light * 1.5,
            "heavy {tail_heavy} light {tail_light}"
        );
    }

    #[test]
    fn serial_mode_keeps_one_query() {
        let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut s = InferenceServer::new(params(0.0));
        s.enable_trace();
        install(&mut s, &mut machine);
        run(&mut s, &mut machine, 50);
        assert!(s.outstanding() <= 1);
        assert!(s.completed_queries() > 10);
        let totals = s.trace().unwrap().totals_by_kind();
        assert!(totals.contains_key("cpu"));
        assert!(totals.contains_key("pcie"));
        assert!(totals.contains_key("accel"));
        // Accel dominates this configuration's iteration.
        assert!(totals["accel"] > totals["cpu"]);
    }

    #[test]
    fn reset_clears_counters() {
        let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
        let mut s = InferenceServer::new(params(500.0));
        install(&mut s, &mut machine);
        run(&mut s, &mut machine, 100);
        assert!(s.completed_queries() > 0);
        s.reset_metrics();
        assert_eq!(s.completed_queries(), 0);
        assert_eq!(s.performance().throughput, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut machine = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let mut s = InferenceServer::new(params(800.0));
            install(&mut s, &mut machine);
            run(&mut s, &mut machine, 200);
            (s.completed_queries(), s.performance().tail_latency_ms)
        };
        assert_eq!(run_once(), run_once());
    }
}
