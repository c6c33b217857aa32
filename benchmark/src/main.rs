//! fcbench: the serving benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! fcbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! fcbench --check-manifest [BENCHMARK.json]
//! fcbench --aa [--seed <u64>] [--seconds <n>] [--runs <n>] [--out <dir>]
//! ```
//!
//! The last line of standard output of a run is its result object;
//! everything a person reads (header, spreads, span self-times) goes to
//! standard error. See README.md beside this package.

mod aa;
mod calib;
mod json;
mod loadgen;
mod names;
mod replay;
mod run;
mod spans;
mod stats;
mod sut;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Counts heap acquisitions for `serve.engine.allocs_per_req` (one relaxed
/// increment per allocation — the same allocator `serve_loadgen` installs).
#[global_allocator]
static ALLOC: sut::CountingAllocator = sut::CountingAllocator;

const USAGE: &str =
    "usage: fcbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
       fcbench --check-manifest [BENCHMARK.json]
       fcbench --aa [--seed <u64>] [--seconds <n>] [--runs <n>] [--out <dir>]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    runs: usize,
    aa: bool,
    check_manifest: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 24,
        trace: false,
        // Relative to wherever the run was started — never a compiled-in path.
        out: PathBuf::from("benchmark/out"),
        runs: 3,
        aa: false,
        check_manifest: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        let number =
            |s: String| s.parse::<u64>().map_err(|_| format!("{arg}: `{s}` is not a whole number"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = number(value("a seed")?)?,
            "--seconds" => cli.seconds = number(value("a duration")?)?.clamp(1, 60),
            "--runs" => cli.runs = number(value("a count")?)?.max(1) as usize,
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--aa" => cli.aa = true,
            "--check-manifest" => {
                let path = it.next_if(|a| !a.starts_with("--")).cloned();
                cli.check_manifest = Some(PathBuf::from(path.unwrap_or("BENCHMARK.json".into())));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Ends the process if a run overstays twice its expected wall time: a hang
/// must be a loud failure, not a driver timeout. The thread is deliberately
/// never joined — it exists to outlive a stuck main thread.
fn arm_watchdog(limit: std::time::Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("fcbench: watchdog: still running after {} s — giving up", limit.as_secs());
        std::process::exit(3);
    });
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;

    if let Some(path) = &cli.check_manifest {
        let problems = names::check_manifest(path)?;
        for p in &problems {
            eprintln!("fcbench: manifest: {p}");
        }
        println!(
            "manifest {}: {} workloads, {} end-to-end, {} per-layer metrics — {}",
            path.display(),
            workload::SPECS.len(),
            names::END_TO_END.len(),
            names::PER_LAYER.len(),
            if problems.is_empty() { "consistent" } else { "INCONSISTENT" }
        );
        return Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    if cli.aa {
        let opts = aa::Options { seed: cli.seed, seconds: cli.seconds, runs: cli.runs };
        let pass = aa::run(&opts, &cli.out)?;
        println!("A/A self-check: {}", if pass { "PASS" } else { "FAIL" });
        return Ok(if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }

    let name = cli.workload.ok_or(format!("no --workload given\n{USAGE}"))?;
    let spec = workload::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    // Before the first call into the libraries, and before any thread.
    let scrubbed = sut::pin_environment();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args =
        run::Args { spec, seed: cli.seed, seconds: cli.seconds, trace: cli.trace, out: cli.out };
    arm_watchdog(2 * run::expected_wall(&args));
    let line = run::run(&args, nproc, &scrubbed)?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fcbench: {e}");
            ExitCode::from(2)
        }
    }
}
