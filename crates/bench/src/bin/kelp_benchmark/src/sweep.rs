//! `sweep_cold` and `sweep_warm`: the eleven harness calls of `repro_all` at
//! the default config, through a fresh two-worker [`Runner`] per round, on an
//! empty cache (cold) or on a cache filled before the run (warm).
//!
//! Each call is decomposed exactly as its `figureN_with` wrapper does it —
//! enumerate specs, run them through the engine, fold — so the benchmark can
//! apply the seed to every spec. Enumeration is set-up; a round times the
//! engine calls and the folds. At seed 0 the renderings must equal the
//! committed `results/*.json` byte for byte, which also pins this
//! decomposition to the wrappers.

use crate::{Bench, Checks, Round, Tracer, JOBS};
use kelp::driver::ExperimentConfig;
use kelp::experiments::{
    backpressure, faults, fleet, knee, mix, overall, remote, scorecard, sensitivity, timeline,
};
use kelp::runner::{RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Seed `repro_all` passes to Figure 2's analytic fleet model.
const FIG02_SEED: u64 = 2019;
const FIG05: [BatchKind; 2] = [BatchKind::LlcAggressor, BatchKind::DramAggressor];
const FIG15: [BatchKind; 3] = [
    BatchKind::LlcAggressor,
    BatchKind::DramAggressor,
    BatchKind::RemoteDramAggressor,
];
const FIG09: [usize; 6] = [1, 2, 3, 4, 5, 6];
const FIG10: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
const FIG16: [MlWorkloadKind; 2] = [MlWorkloadKind::Cnn1, MlWorkloadKind::Cnn2];
/// The knee sweep's offered loads: 100–460 QPS in 40-QPS steps.
const KNEE: [f64; 10] = [
    100.0, 140.0, 180.0, 220.0, 260.0, 300.0, 340.0, 380.0, 420.0, 460.0,
];

/// One `repro_all` harness call.
struct Figure {
    /// Span name, `figure.<artifact>`.
    span: &'static str,
    specs: fn(&ExperimentConfig) -> Vec<RunSpec>,
    fold: fn(&ExperimentConfig, u64, &[RunRecord]) -> Box<dyn Serialize>,
}

impl Figure {
    /// The `results/` file stem `repro_all` writes this call's result to.
    fn artifact(&self) -> &'static str {
        self.span.trim_start_matches("figure.")
    }
}

/// The calls of `repro_all`, in its order.
const FIGURES: [Figure; 11] = [
    Figure {
        span: "figure.fig02_fleet_bw",
        specs: |_| Vec::new(),
        fold: |_, seed, _| Box::new(fleet::figure2(FIG02_SEED ^ seed)),
    },
    Figure {
        span: "figure.fig03_timeline",
        specs: timeline::specs,
        fold: |c, _, r| Box::new(timeline::fold(c, r)),
    },
    Figure {
        span: "figure.fig05_sensitivity",
        specs: |c| sensitivity::specs(&FIG05, c),
        fold: |_, _, r| Box::new(sensitivity::fold(&FIG05, r)),
    },
    Figure {
        span: "figure.fig07_backpressure",
        specs: backpressure::specs,
        fold: |_, _, r| Box::new(backpressure::fold(r)),
    },
    Figure {
        span: "figure.fig09_cnn1_stitch",
        specs: |c| mix::specs(MlWorkloadKind::Cnn1, BatchKind::Stitch, &FIG09, c),
        fold: |_, _, r| {
            Box::new(mix::fold(
                MlWorkloadKind::Cnn1,
                BatchKind::Stitch,
                &FIG09,
                r,
            ))
        },
    },
    Figure {
        span: "figure.fig10_rnn1_cpuml",
        specs: |c| mix::specs(MlWorkloadKind::Rnn1, BatchKind::CpuMl, &FIG10, c),
        fold: |_, _, r| Box::new(mix::fold(MlWorkloadKind::Rnn1, BatchKind::CpuMl, &FIG10, r)),
    },
    Figure {
        span: "figure.fig13_overall",
        specs: overall::specs,
        fold: |_, _, r| Box::new(overall::fold(r)),
    },
    Figure {
        span: "figure.knee_sweep",
        specs: |c| knee::specs(&KNEE, c),
        fold: |_, _, r| Box::new(knee::fold(&KNEE, r)),
    },
    Figure {
        span: "figure.fig15_remote_sensitivity",
        specs: |c| sensitivity::specs(&FIG15, c),
        fold: |_, _, r| Box::new(sensitivity::fold(&FIG15, r)),
    },
    Figure {
        span: "figure.fig16_remote_sweep",
        specs: |c| remote::specs(&FIG16, c),
        fold: |_, _, r| Box::new(remote::fold(&FIG16, r)),
    },
    Figure {
        span: "figure.ext_fault_matrix",
        specs: faults::specs,
        fold: |_, _, r| Box::new(faults::fold(r)),
    },
];

/// Committed artifacts checked at seed 0: (file stem under `results/`,
/// artifact whose rendering it holds). Figures 11 and 12 are the Figure 9
/// and 10 results written under a second name.
const GOLDENS: [(&str, &str); 13] = [
    ("fig02_fleet_bw", "fig02_fleet_bw"),
    ("fig03_timeline", "fig03_timeline"),
    ("fig05_sensitivity", "fig05_sensitivity"),
    ("fig07_backpressure", "fig07_backpressure"),
    ("fig09_cnn1_stitch", "fig09_cnn1_stitch"),
    ("fig10_rnn1_cpuml", "fig10_rnn1_cpuml"),
    ("fig11_params_cnn1_stitch", "fig09_cnn1_stitch"),
    ("fig12_params_rnn1_cpuml", "fig10_rnn1_cpuml"),
    ("fig13_overall", "fig13_overall"),
    ("knee_sweep", "knee_sweep"),
    ("fig15_remote_sensitivity", "fig15_remote_sensitivity"),
    ("fig16_remote_sweep", "fig16_remote_sweep"),
    ("ext_fault_matrix", "ext_fault_matrix"),
];

/// Every call's specs at `config`, seeded, in [`FIGURES`] order.
pub fn grid(config: &ExperimentConfig, seed: u64) -> Vec<Vec<RunSpec>> {
    FIGURES
        .iter()
        .map(|f| seeded((f.specs)(config), seed))
        .collect()
}

/// XORs the run seed into every spec's seed (seed 0 leaves specs as the
/// committed artifacts were produced).
pub fn seeded(specs: Vec<RunSpec>, seed: u64) -> Vec<RunSpec> {
    specs
        .into_iter()
        .map(|s| {
            let seed = s.seed ^ seed;
            s.with_seed(seed)
        })
        .collect()
}

/// One round's results, in [`FIGURES`] order.
pub struct SweepOutput {
    figures: Vec<(&'static str, Box<dyn Serialize>)>,
    records: u64,
    /// Messages of the error records the engine returned.
    errors: Vec<String>,
    host_steps: u64,
}

/// Runs every harness call of one sweep round through `runner`, on the
/// specs [`grid`] enumerated.
fn sweep_round(
    runner: &Runner,
    grid: &[Vec<RunSpec>],
    config: &ExperimentConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> SweepOutput {
    let mut out = SweepOutput {
        figures: Vec::with_capacity(FIGURES.len()),
        records: 0,
        errors: Vec::new(),
        host_steps: 0,
    };
    for (fig, specs) in FIGURES.iter().zip(grid) {
        let value = tracer.span(fig.span, |t| {
            let records = if specs.is_empty() {
                Vec::new()
            } else {
                t.span("runner.run_batch", |_| runner.run_batch(specs))
            };
            out.records += records.len() as u64;
            out.errors.extend(
                records
                    .iter()
                    .filter_map(|r| r.error.as_ref())
                    .map(|e| e.to_string()),
            );
            out.host_steps += records.iter().map(|r| r.meta.sim_steps).sum::<u64>();
            t.span("experiments.fold", |_| (fig.fold)(config, seed, &records))
        });
        out.figures.push((fig.artifact(), value));
    }
    out
}

/// Renders each result as `repro_all`'s `write_json` does.
fn render_figures(output: &SweepOutput) -> Result<Vec<(&'static str, String)>, String> {
    output
        .figures
        .iter()
        .map(|(artifact, value)| {
            serde_json::to_string_pretty(value)
                .map(|text| (*artifact, text))
                .map_err(|e| format!("cannot render {artifact}: {e}"))
        })
        .collect()
}

/// Compares a rendering against its committed artifact, describing the first
/// differing byte.
pub fn golden_mismatch(name: &str, golden: &str, rendered: &str) -> Option<String> {
    if golden == rendered {
        return None;
    }
    let at = golden
        .bytes()
        .zip(rendered.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(golden.len().min(rendered.len()));
    Some(format!(
        "results/{name}.json differs from the live result at byte {at} \
         ({} committed bytes, {} rendered)",
        golden.len(),
        rendered.len()
    ))
}

/// A sweep workload.
pub struct Sweep {
    config: ExperimentConfig,
    seed: u64,
    /// Parent of the per-round cache directories.
    scratch: PathBuf,
    /// The filled cache every warm round reads (`None` for cold).
    warm_cache: Option<PathBuf>,
    /// Committed artifacts, loaded at seed 0 only.
    goldens: Vec<(&'static str, &'static str, String)>,
    /// The cold fill's renderings for a warm sweep, otherwise the first
    /// round's; the goldens are compared against these.
    reference: Option<Vec<(&'static str, String)>>,
    rounds: usize,
}

impl Sweep {
    /// A cold or warm sweep at `seed`. A warm sweep fills its cache here,
    /// with one cold round that neither setup nor rounds count.
    pub fn new(root: &Path, scratch: &Path, seed: u64, warm: bool) -> Result<Self, String> {
        let mut goldens = Vec::new();
        if seed == 0 {
            for (file, artifact) in GOLDENS {
                let path = root.join("results").join(format!("{file}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                goldens.push((file, artifact, text));
            }
        }
        let mut sweep = Sweep {
            config: ExperimentConfig::default(),
            seed,
            scratch: scratch.to_path_buf(),
            warm_cache: None,
            goldens,
            reference: None,
            rounds: 0,
        };
        if warm {
            let dir = scratch.join("filled");
            let _ = std::fs::remove_dir_all(&dir);
            let runner = Runner::new(JOBS).with_cache(&dir);
            let grid = grid(&sweep.config, seed);
            let fill = sweep_round(&runner, &grid, &sweep.config, seed, &mut Tracer::off());
            sweep.reference = Some(render_figures(&fill)?);
            sweep.warm_cache = Some(dir);
        }
        Ok(sweep)
    }
}

/// One round's engine: a fresh two-worker runner on the round's cache, and
/// the specs it will run.
pub struct Engine {
    runner: Runner,
    /// The round's own cache directory (cold sweeps only).
    dir: Option<PathBuf>,
    grid: Vec<Vec<RunSpec>>,
}

impl Drop for Engine {
    /// Deletes the round's cache directory.
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Bench for Sweep {
    type State = Engine;
    type Output = SweepOutput;

    /// Enumerates the seeded specs and builds the engine on a fresh empty
    /// cache (cold) or on the filled one (warm).
    fn set_up(&mut self) -> Engine {
        let grid = grid(&self.config, self.seed);
        if let Some(dir) = &self.warm_cache {
            let runner = Runner::new(JOBS).with_cache(dir);
            return Engine {
                runner,
                dir: None,
                grid,
            };
        }
        // A path no round used yet; the runner creates the directory on its
        // first cache write.
        self.rounds += 1;
        let dir = self.scratch.join(format!("cold-{}", self.rounds));
        Engine {
            runner: Runner::new(JOBS).with_cache(&dir),
            dir: Some(dir),
            grid,
        }
    }

    fn run_round(&mut self, engine: &mut Engine, tracer: &mut Tracer) -> SweepOutput {
        sweep_round(
            &engine.runner,
            &engine.grid,
            &self.config,
            self.seed,
            tracer,
        )
    }

    fn finish_round(
        &mut self,
        engine: Engine,
        output: SweepOutput,
        checks: &mut Checks,
    ) -> Result<Round, String> {
        drop(engine);
        for error in &output.errors {
            eprintln!("kelp_benchmark: error record: {error}");
        }
        let rendered = render_figures(&output)?;
        // Rounds are compared with each other by the harness; a warm round
        // must also reproduce the cold fill.
        match &self.reference {
            Some(fill) if self.warm_cache.is_some() => checks.require(*fill == rendered, || {
                "a warm sweep round's results differ from the cold fill's".to_string()
            }),
            Some(_) => {}
            None => self.reference = Some(rendered.clone()),
        }
        let output_text = rendered
            .iter()
            .map(|(_, text)| text.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        Ok(Round {
            ops: output.records,
            failed_ops: output.errors.len() as u64,
            host_steps: output.host_steps,
            output: output_text,
        })
    }

    fn check_run(&mut self, _: &Round, checks: &mut Checks) -> Result<(), String> {
        let reference = self.reference.as_deref().unwrap_or_default();
        for (file, artifact, golden) in &self.goldens {
            let rendered = reference
                .iter()
                .find(|(a, _)| a == artifact)
                .map_or("", |(_, text)| text.as_str());
            let mismatch = golden_mismatch(file, golden, rendered);
            checks.require(mismatch.is_none(), || mismatch.unwrap_or_default());
        }
        if self.warm_cache.is_none() {
            // The paper claims, recomputed live (the committed scorecard is
            // stale in its last digits); seed-independent by construction.
            let card = scorecard::run_scorecard_with(&Runner::new(JOBS), &self.config);
            checks.require(card.claims.len() == 11 && card.passed() == 11, || {
                format!(
                    "{}/{} paper claims in band",
                    card.passed(),
                    card.claims.len()
                )
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_golden_change_fails_its_check() {
        let golden = "{\n  \"fraction_above_70pct\": 0.173\n}";
        assert_eq!(golden_mismatch("fig02_fleet_bw", golden, golden), None);
        let mut bytes = golden.as_bytes().to_vec();
        bytes[30] = b'4';
        let changed = String::from_utf8(bytes).unwrap();
        let mismatch = golden_mismatch("fig02_fleet_bw", golden, &changed);
        assert!(
            mismatch.as_deref().is_some_and(|m| m.contains("byte 30")),
            "{mismatch:?}"
        );
        let mut checks = Checks::default();
        checks.require(mismatch.is_none(), || mismatch.unwrap_or_default());
        assert_eq!(checks.failures.len(), 1);
        assert!(golden_mismatch("x", golden, &golden[..golden.len() - 1]).is_some());
    }

    #[test]
    fn seed_zero_leaves_specs_unchanged_and_other_seeds_reseed_every_spec() {
        let config = ExperimentConfig::quick();
        let specs = timeline::specs(&config);
        assert_eq!(seeded(specs.clone(), 0), specs);
        assert!(seeded(specs, 5).iter().all(|s| s.seed == 5));
    }

    #[test]
    fn goldens_name_every_figure_artifact() {
        for fig in &FIGURES {
            assert!(
                GOLDENS.iter().any(|(_, a)| *a == fig.artifact()),
                "{}",
                fig.span
            );
        }
    }
}
