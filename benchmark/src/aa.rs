//! `fcbench --aa`: the benchmark measuring itself. Two sets of runs of the
//! *same* binary on every workload, interleaved (A B B A …) so drift lands
//! on both sets alike, each run on its own seed; each end-to-end metric's
//! set medians must agree within the metric's own bound, and — what the
//! driver refuses a benchmark for — the middle half of each set must not
//! spread wider than that bound (`setup_s` excepted, as the driver excepts
//! it). Then one pair of traced runs per workload, whose exact counts must be
//! identical. Each run is a child process — peak RSS and the recorders are
//! per-process state.

use crate::json::{self, Value};
use crate::names::{END_TO_END, EXACT};
use crate::stats;
use crate::workload::SPECS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Runs per set and workload.
    pub runs: usize,
}

/// One child run's result line, as `name → value`, once `correct`.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}\n{stderr}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("{workload}: child printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true)
        || doc.get("failed").and_then(Value::as_f64) != Some(0.0)
    {
        return Err(format!("{workload}: run was not correct: {line}\n{stderr}"));
    }
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

/// Runs the self-check; `Ok(true)` when every comparison held.
pub fn run(opts: &Options, out: &Path) -> Result<bool, String> {
    let mut pass = true;

    // sets[set][workload][metric] → values of that set's runs.
    let mut sets: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    for run in 0..opts.runs {
        // A B / B A / A B …, and the workload order flips with it.
        let order: [usize; 2] = if run % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            let mut specs: Vec<_> = SPECS.iter().collect();
            if set == 1 {
                specs.reverse();
            }
            for spec in specs {
                eprintln!("aa: run {} set {} {}", run + 1, ["A", "B"][set], spec.name);
                let seed = opts.seed + run as u64;
                let metrics = child(spec.name, seed, opts.seconds, false, out)?;
                let slot = sets[set].entry(spec.name).or_default();
                for (name, value) in metrics {
                    slot.entry(name).or_default().push(value);
                }
            }
        }
    }

    println!(
        "A/A: {} run(s) per set, {} s each; set medians, their difference and each set's \
         quartile spread (Q3 - Q1) / median against each metric's bound",
        opts.runs, opts.seconds
    );
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "spreadA", "spreadB", "bound"
    );
    for spec in &SPECS {
        for (name, _, _, bound) in END_TO_END {
            let values = |set: usize| -> &[f64] {
                sets[set].get(spec.name).and_then(|m| m.get(name)).map_or(&[], Vec::as_slice)
            };
            let (a, b) = (stats::median(values(0)), stats::median(values(1)));
            let diff = if a != 0.0 { (b - a).abs() / a } else { f64::INFINITY };
            let spread = [0, 1].map(|set| stats::iqr_over_median(values(set)));
            let steady = name == "setup_s" || spread.iter().all(|s| *s <= bound);
            let ok = diff <= bound && steady;
            pass &= ok;
            println!(
                "{:<20} {:<20} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>7.1}% {:>6.0}%  {}",
                spec.name,
                name,
                a,
                b,
                100.0 * diff,
                100.0 * spread[0],
                100.0 * spread[1],
                100.0 * bound,
                match (diff <= bound, steady) {
                    (true, true) => "ok",
                    (false, _) => "MEDIANS APART",
                    (true, false) => "TOO NOISY",
                }
            );
        }
    }

    println!("traced pair: counts that must repeat exactly for a fixed seed");
    for spec in &SPECS {
        eprintln!("aa: traced pair {}", spec.name);
        let first = child(spec.name, opts.seed, opts.seconds, true, out)?;
        let second = child(spec.name, opts.seed, opts.seconds, true, out)?;
        for name in EXACT {
            let (a, b) = (first.get(name), second.get(name));
            let ok = a.is_some() && a == b;
            pass &= ok;
            if !ok {
                println!("{:<20} {:<34} {:?} vs {:?}  DIFFERS", spec.name, name, a, b);
            }
        }
        println!("{:<20} {} exact counts compared", spec.name, EXACT.len());
    }
    Ok(pass)
}
