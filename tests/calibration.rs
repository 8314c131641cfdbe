//! Calibration bands: the model must stay inside the paper's published
//! sensitivity envelope (Figures 2, 3 and 5). These tests run the same
//! harnesses as `repro_all`, at a slightly reduced duration.

use kelp::driver::ExperimentConfig;
use kelp::experiments;
use kelp::runner::Runner;
use kelp_simcore::time::SimDuration;

fn medium() -> ExperimentConfig {
    ExperimentConfig {
        dt: SimDuration::from_micros(25),
        warmup: SimDuration::from_millis(800),
        duration: SimDuration::from_millis(1500),
        sample_period: SimDuration::from_millis(40),
    }
}

#[test]
fn figure2_fleet_band() {
    let fig = experiments::fleet::figure2(1);
    assert!(
        (0.12..=0.20).contains(&fig.fraction_above_70pct),
        "paper: ~16% of machines above 70% of peak; got {}",
        fig.fraction_above_70pct
    );
}

#[test]
fn figure5_sensitivity_bands() {
    let r = experiments::sensitivity::figure5_with(&Runner::serial(), &medium());
    let llc = r.average_for("LLC").unwrap();
    let dram = r.average_for("DRAM").unwrap();
    // Paper: LLC costs ~14% on average, DRAM ~40%.
    assert!(
        (0.78..=0.93).contains(&llc),
        "LLC average out of band: {llc}"
    );
    assert!(
        (0.50..=0.72).contains(&dram),
        "DRAM average out of band: {dram}"
    );
    // DRAM dominates for every workload (Figure 5's shape).
    for row in &r.rows {
        assert!(
            row.normalized_perf[1] < row.normalized_perf[0] + 0.02,
            "{}: DRAM {} should not beat LLC {}",
            row.workload,
            row.normalized_perf[1],
            row.normalized_perf[0]
        );
    }
    // CNN1 (zero-headroom in-feed) is the most DRAM-sensitive; RNN1 the
    // least (paper §V-B: "RNN1 is less sensitive").
    let dram_of = |name: &str| {
        r.rows
            .iter()
            .find(|row| row.workload == name)
            .unwrap()
            .normalized_perf[1]
    };
    assert!(dram_of("CNN1") < dram_of("CNN2"));
    assert!(dram_of("CNN1") < dram_of("RNN1"));
    assert!(dram_of("RNN1") > dram_of("CNN3"));
}

#[test]
fn figure3_timeline_bands() {
    let r = experiments::timeline::figure3_with(&Runner::serial(), &medium());
    let cpu = r.cpu_expansion();
    // Paper: CPU-intensive phases stretch by up to 51%.
    assert!(
        (1.2..=2.6).contains(&cpu),
        "CPU phase expansion out of band: {cpu}"
    );
    // Accelerator compute is insensitive to host contention.
    let accel = r.expansion.get("accel").copied().unwrap_or(1.0);
    assert!(
        (0.9..=1.1).contains(&accel),
        "accel phases should not stretch: {accel}"
    );
    // Tail latency grows substantially (paper: +70%).
    assert!(
        r.tail_expansion > 1.25,
        "tail expansion too small: {}",
        r.tail_expansion
    );
}

#[test]
fn figure15_remote_band() {
    let r = experiments::sensitivity::figure15_with(&Runner::serial(), &medium());
    // Remote DRAM costs the Cloud TPU workloads more than local DRAM
    // (paper: an extra 16% for CNN1 and 27% for CNN2).
    for name in ["CNN1", "CNN2"] {
        let row = r.rows.iter().find(|row| row.workload == name).unwrap();
        let dram = row.normalized_perf[1];
        let remote = row.normalized_perf[2];
        assert!(
            remote < dram - 0.03,
            "{name}: remote {remote} must be clearly worse than local {dram}"
        );
    }
}
