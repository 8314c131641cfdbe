//! Pins the `repro_all` spec grid: every spec's cache key, in order.
//!
//! Spec enumeration is tuned for allocation count, and that kind of edit
//! must not change what is enumerated. A changed label, order or field
//! changes some `RunSpec::hash`, so it changes the digest below and
//! orphans every cached record of the sweep.

use kelp::driver::ExperimentConfig;
use kelp::experiments::repro_specs;
use kelp::runner::RunSpec;

/// [`grid_digest`] of the figures' part of the grid, the first
/// [`FIGURE_SPECS`] specs of `repro_specs(&ExperimentConfig::default())`,
/// computed by this test on the enumeration code before its allocation
/// tuning.
const FIGURE_GRID_DIGEST: u64 = 0x6510_80c2_014f_72bc;

/// How many specs the figures enumerate. The ablations and the extension
/// studies follow them, so adding those left every figure's key in place.
const FIGURE_SPECS: usize = 262;

/// [`grid_digest`] of the whole grid, re-pinned when the ablations and the
/// extension studies joined it.
const REPRO_GRID_DIGEST: u64 = 0xd745_1fc1_3f08_9644;

/// FNV-1a over the little-endian bytes of each spec's hash, in order.
fn grid_digest(specs: &[RunSpec]) -> u64 {
    specs
        .iter()
        .flat_map(|s| s.hash().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn repro_spec_grid_digest_is_pinned() {
    let specs = repro_specs(&ExperimentConfig::default());
    assert!(specs.len() > FIGURE_SPECS, "{} specs", specs.len());
    assert_eq!(
        grid_digest(&specs[..FIGURE_SPECS]),
        FIGURE_GRID_DIGEST,
        "a figure's spec grid changed"
    );
    let digest = grid_digest(&specs);
    assert_eq!(
        digest,
        REPRO_GRID_DIGEST,
        "the repro_all spec grid changed ({} specs, digest {digest:#018x})",
        specs.len()
    );
}

#[test]
fn grid_digest_sees_a_changed_cpu_label() {
    let mut specs = repro_specs(&ExperimentConfig::default());
    let before = grid_digest(&specs);
    let label = specs
        .iter_mut()
        .flat_map(|s| s.cpu.iter_mut())
        .find_map(|c| c.label.as_mut())
        .expect("the grid has labelled CPU workloads (Figure 9's Stitch instances)");
    assert!(label.starts_with("Stitch#"), "{label}");
    label.push('0');
    assert_ne!(grid_digest(&specs), before);
}
