//! `perfbench`: the serving stack's benchmark.
//!
//! ```text
//! perfbench --workload <rec-deadline|rec-ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's requests and arrival schedule from the seed
//! (the deployed data is fixed), sets the deployment up several times,
//! drives it open loop for the given seconds, checks every output, and
//! prints the metrics. `--trace 1` runs the traced variant
//! and prints the per-layer metrics instead of the end-to-end ones. Exits
//! non-zero when a correctness check fails.

mod accuracy;
mod deploy;
mod load;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Args;

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = workloads::run(&args);
    report.print(&args.workload, args.seed);
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
