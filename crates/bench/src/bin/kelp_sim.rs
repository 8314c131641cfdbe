//! `kelp-sim`: drive the Kelp reproduction from the command line.
//!
//! See `kelp-sim help` for usage.

use kelp::driver::ExperimentConfig;
use kelp::profile::ProfileLibrary;
use kelp::report::Table;
use kelp::runner::{CpuSpec, MlSpec, RunSpec};
use kelp_bench::cli::{self, Command, RunArgs};
use kelp_mem::topology::{MachineSpec, SncMode, SocketId};
use kelp_workloads::MlWorkloadKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Ok(Command::Help) => {
            print!("{}", cli::HELP);
            Ok(())
        }
        Ok(Command::List) => {
            list();
            Ok(())
        }
        Ok(Command::Run(run)) => {
            execute(run, false);
            Ok(())
        }
        Ok(Command::Counters(run)) => {
            execute(run, true);
            Ok(())
        }
        Ok(Command::Profiles { save }) => profiles(save),
        Ok(Command::Cache { prune }) => {
            cache(prune);
            Ok(())
        }
        Err(e) => Err(e),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        match e.usage() {
            // A subcommand-specific mistake gets its one usage line; only a
            // mistyped command shows the full help.
            Some(usage) => eprintln!("usage: {usage}"),
            None => eprint!("\n{}", cli::HELP),
        }
        std::process::exit(2);
    }
}

fn list() {
    let mut t = Table::new(
        "ML workloads (Table I)",
        &["Name", "Platform", "Interaction"],
    );
    for ml in MlWorkloadKind::all() {
        let row = ml.table1_row();
        t.row(vec![
            ml.name().to_string(),
            row.platform.to_string(),
            row.interaction.to_string(),
        ]);
    }
    t.print();
    println!("CPU workloads: stream, stitch, cpuml, llc, dram, remote-dram (spec: KIND[:THREADS])");
    println!("Policies: BL (baseline), CT (core throttle), KP-SD (subdomains), KP (Kelp), KP-H (hardened Kelp), FG (fine-grained), MCP (channel partitioning)");
}

fn execute(run: RunArgs, counters_only: bool) {
    let config = if run.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    let mut spec = RunSpec::cpu_only(run.policy, &config)
        .with_ml(run.ml.map_or(MlSpec::None, MlSpec::Standard));
    for (i, &(kind, threads)) in run.cpu.iter().enumerate() {
        spec =
            spec.with_cpu(CpuSpec::new(kind, threads).with_label(format!("{}#{i}", kind.name())));
    }
    let record = spec.execute();
    if let Some(error) = &record.error {
        eprintln!("error: {error}");
        std::process::exit(1);
    }

    if counters_only {
        let m = record.avg_measurements;
        let mut t = Table::new(
            "Kelp runtime measurements (window average)",
            &["metric", "value"],
        );
        t.row(vec![
            "socket bandwidth (GB/s)".into(),
            Table::num(m.socket_bw_gbps),
        ]);
        t.row(vec![
            "socket latency (ns)".into(),
            Table::num(m.socket_latency_ns),
        ]);
        t.row(vec![
            "saturation duty (FAST_ASSERTED)".into(),
            Table::num(m.socket_saturation),
        ]);
        t.row(vec![
            "HP-subdomain bandwidth (GB/s)".into(),
            Table::num(m.hp_domain_bw_gbps),
        ]);
        t.print();
        return;
    }

    let mut t = Table::new(
        format!("Run outcome under {}", run.policy.label()),
        &["workload", "throughput", "p95 (ms)"],
    );
    if let Some(name) = &record.ml_name {
        t.row(vec![
            name.clone(),
            format!("{:.2}", record.ml_performance.throughput),
            record
                .ml_performance
                .tail_latency_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    for (name, perf) in &record.cpu_performance {
        t.row(vec![
            name.clone(),
            format!("{:.3e}", perf.throughput),
            "-".into(),
        ]);
    }
    t.print();
    let snap = record.final_policy;
    println!(
        "final actuators: {} LP cores, {} prefetchers, {} backfilled cores",
        snap.lp_cores, snap.lp_prefetchers, snap.hp_backfill_cores
    );
}

fn cache(prune: bool) {
    let dir = kelp_bench::cache_dir();
    let mut entries: Vec<(std::path::PathBuf, u64)> = Vec::new();
    if let Ok(read) = std::fs::read_dir(&dir) {
        for entry in read.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "json") {
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                entries.push((path, size));
            }
        }
    }
    let total: u64 = entries.iter().map(|(_, s)| s).sum();
    println!(
        "{}: {} entries, {}",
        dir.display(),
        entries.len(),
        human_bytes(total)
    );
    if !prune {
        return;
    }
    // Keep exactly the entries a standard sweep would touch, at either of
    // the two standard timing configurations.
    let mut keep = std::collections::BTreeSet::new();
    for config in [ExperimentConfig::default(), ExperimentConfig::quick()] {
        for spec in kelp::experiments::repro_specs(&config) {
            keep.insert(format!("{:016x}.json", spec.hash()));
        }
    }
    let mut pruned = 0usize;
    let mut freed = 0u64;
    for (path, size) in &entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !keep.contains(&name) && std::fs::remove_file(path).is_ok() {
            pruned += 1;
            freed += size;
        }
    }
    println!(
        "pruned {} entries ({}), kept {}",
        pruned,
        human_bytes(freed),
        entries.len() - pruned
    );
}

fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

fn profiles(save: Option<String>) -> Result<(), cli::CliError> {
    let lib = ProfileLibrary::default_for_machine(
        &MachineSpec::dual_socket(),
        SncMode::Enabled,
        SocketId(0),
    );
    match save {
        Some(path) => {
            lib.save(&path).map_err(|e| {
                cli::CliError::new(format!("cannot write profile library to '{path}': {e}"))
                    .with_usage(cli::USAGE_PROFILES)
            })?;
            println!("wrote {path}");
        }
        None => {
            let json = serde_json::to_string_pretty(&lib).map_err(|e| {
                cli::CliError::new(format!("cannot serialize profile library: {e}"))
            })?;
            println!("{json}");
        }
    }
    Ok(())
}
