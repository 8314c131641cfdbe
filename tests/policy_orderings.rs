//! Cross-policy orderings from the paper's evaluation (Figures 9, 10, 13,
//! 14), asserted on representative mixes:
//!
//! * every managed configuration protects the ML task better than Baseline
//!   under heavy aggression;
//! * Kelp recovers CPU throughput versus Subdomain-only (backfilling);
//! * Kelp's efficiency beats Subdomain's;
//! * Subdomain-class policies keep ML performance within a few percent of
//!   standalone.

use kelp::driver::{Experiment, ExperimentConfig, ExperimentResult};
use kelp::experiments::standalone_reference_with;
use kelp::metrics::efficiency;
use kelp::policy::PolicyKind;
use kelp::runner::Runner;
use kelp_simcore::time::SimDuration;
use kelp_workloads::{BatchKind, BatchWorkload, MlWorkloadKind};

fn medium() -> ExperimentConfig {
    ExperimentConfig {
        dt: SimDuration::from_micros(25),
        warmup: SimDuration::from_millis(800),
        duration: SimDuration::from_millis(1500),
        sample_period: SimDuration::from_millis(40),
    }
}

fn run_mix(
    ml: MlWorkloadKind,
    cpu: BatchKind,
    threads: usize,
    policy: PolicyKind,
) -> ExperimentResult {
    Experiment::builder(ml, policy)
        .add_cpu_workload(BatchWorkload::new(cpu, threads))
        .config(medium())
        .run()
}

struct Mix {
    standalone: f64,
    bl: ExperimentResult,
    ct: ExperimentResult,
    kpsd: ExperimentResult,
    kp: ExperimentResult,
}

fn full_mix(ml: MlWorkloadKind, cpu: BatchKind, threads: usize) -> Mix {
    let standalone = standalone_reference_with(&Runner::serial(), ml, &medium());
    Mix {
        standalone: standalone.throughput,
        bl: run_mix(ml, cpu, threads, PolicyKind::Baseline),
        ct: run_mix(ml, cpu, threads, PolicyKind::CoreThrottle),
        kpsd: run_mix(ml, cpu, threads, PolicyKind::KelpSubdomain),
        kp: run_mix(ml, cpu, threads, PolicyKind::Kelp),
    }
}

impl Mix {
    fn ml_norm(&self, r: &ExperimentResult) -> f64 {
        r.ml_performance.throughput / self.standalone
    }
}

#[test]
fn managed_policies_protect_cnn1_from_stream() {
    let m = full_mix(MlWorkloadKind::Cnn1, BatchKind::Stream, 16);
    let bl = m.ml_norm(&m.bl);
    assert!(bl < 0.75, "baseline must suffer: {bl}");
    for (label, r) in [("CT", &m.ct), ("KP-SD", &m.kpsd), ("KP", &m.kp)] {
        let norm = m.ml_norm(r);
        assert!(
            norm > bl + 0.15,
            "{label} must clearly beat baseline: {norm} vs {bl}"
        );
        assert!(norm > 0.85, "{label} must restore most performance: {norm}");
    }
}

#[test]
fn backfilling_recovers_cpu_throughput() {
    for (ml, cpu) in [
        (MlWorkloadKind::Cnn1, BatchKind::Stream),
        (MlWorkloadKind::Rnn1, BatchKind::Stitch),
        (MlWorkloadKind::Cnn2, BatchKind::Stream),
    ] {
        let m = full_mix(ml, cpu, 16);
        let sd_cpu = m.kpsd.cpu_total_throughput();
        let kp_cpu = m.kp.cpu_total_throughput();
        assert!(
            kp_cpu > sd_cpu * 1.05,
            "{}+{}: KP cpu {kp_cpu} must exceed KP-SD cpu {sd_cpu}",
            ml.name(),
            cpu.name()
        );
    }
}

#[test]
fn kelp_efficiency_beats_subdomain() {
    let m = full_mix(MlWorkloadKind::Cnn1, BatchKind::Stream, 16);
    let bl_ml = m.ml_norm(&m.bl);
    let bl_cpu = m.bl.cpu_total_throughput();
    let eff = |r: &ExperimentResult| {
        efficiency(m.ml_norm(r), bl_ml, r.cpu_total_throughput() / bl_cpu, 1.0)
    };
    let e_kp = eff(&m.kp).expect("KP costs some CPU throughput here");
    let e_sd = eff(&m.kpsd).expect("KP-SD costs CPU throughput");
    assert!(
        e_kp > e_sd,
        "Kelp efficiency {e_kp} must beat Subdomain {e_sd} (paper: +37%)"
    );
}

#[test]
fn rnn1_tail_latency_ordering() {
    // Figure 10b: under CPUML pressure the subdomain policies keep RNN1's
    // tail in check while Baseline's grows.
    let standalone = standalone_reference_with(&Runner::serial(), MlWorkloadKind::Rnn1, &medium());
    let base_tail = standalone.tail_latency_ms.unwrap();
    let tail = |policy| {
        run_mix(MlWorkloadKind::Rnn1, BatchKind::Stitch, 16, policy)
            .ml_performance
            .tail_latency_ms
            .unwrap()
    };
    let bl = tail(PolicyKind::Baseline);
    let kp = tail(PolicyKind::Kelp);
    assert!(
        bl > base_tail * 1.1,
        "baseline tail must grow: {bl} vs {base_tail}"
    );
    assert!(kp < bl, "Kelp must cut the tail: {kp} vs {bl}");
}

#[test]
fn fine_grained_extension_holds_the_upper_bound_shape() {
    // §VI-D: a fine-grained mechanism should match subdomain-class ML
    // protection while keeping at least CoreThrottle-class CPU throughput.
    let m = full_mix(MlWorkloadKind::Cnn1, BatchKind::Stream, 16);
    let fg = run_mix(
        MlWorkloadKind::Cnn1,
        BatchKind::Stream,
        16,
        PolicyKind::FineGrained,
    );
    let fg_ml = m.ml_norm(&fg);
    let bl_ml = m.ml_norm(&m.bl);
    assert!(
        fg_ml > bl_ml + 0.1,
        "FG must protect: {fg_ml} vs BL {bl_ml}"
    );
    assert!(
        fg.cpu_total_throughput() > 0.5 * m.bl.cpu_total_throughput(),
        "FG must keep meaningful CPU throughput"
    );
}
