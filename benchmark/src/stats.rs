//! Order statistics and `/proc` readers. Pure functions, unit-tested below.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty. Sorts a copy, so callers keep their sample order.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How many of a run's rounds [`quietest`] averages.
pub const QUIET_ROUNDS: usize = 3;

/// The run's reading of a per-round statistic: the mean of its
/// [`QUIET_ROUNDS`] best rounds. On a shared host a neighbour only ever
/// *adds* time, for seconds at a stretch, so the rounds it missed are the
/// ones that measured the program; a median over rounds follows the
/// neighbour as soon as it covers half the run. Three rounds rather than the
/// single best so that one lucky round (a cheap stretch of the input cycle)
/// is not the whole reading. 0 when empty.
pub fn quietest(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v.truncate(QUIET_ROUNDS);
    match v.len() {
        0 => 0.0,
        n => v.iter().sum::<f64>() / n as f64,
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles this harness will report, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile not above `cap` that still has at least ten
/// samples beyond it in a sample of `n` — a p99 of 200 samples is two
/// points, not a statistic. `None` when even p75 has fewer than ten.
pub fn highest_supported_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The tail of an ascending sample under the ten-beyond rule:
/// `(percentile reported, its value)`, falling back to the median when even
/// the lowest rung of the ladder is unsupported.
pub fn tail_percentile(sorted: &[f64], cap: f64) -> (f64, f64) {
    let p = highest_supported_percentile(sorted.len(), cap).unwrap_or(50.0);
    (p, percentile_sorted(sorted, p))
}

/// Quartile `i` (1 or 3) of `values` as Python's
/// `statistics.quantiles(values, n=4)` returns it (the exclusive method), so
/// this harness and the driver read noise the same way. The only value for
/// fewer than two; 0 when empty.
fn quartile(values: &[f64], i: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

pub fn lower_quartile(values: &[f64]) -> f64 {
    quartile(values, 1)
}

/// Quartile spread as a share of the median: `(Q3 − Q1) ÷ median`. 0 for
/// fewer than two values.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    (quartile(values, 3) - quartile(values, 1)) / med
}

/// Linux reports `utime`/`stime` in clock ticks; `sysconf(_SC_CLK_TCK)` is
/// 100 on every mainstream kernel configuration and there is no libc here
/// to ask, so the constant is stated rather than discovered.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th item, stime next.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Process CPU seconds (user + system) consumed so far.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparseable /proc/self/stat")?;
    Ok(ticks as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set of this process, in MB (10⁶ bytes would hide nothing;
/// MB here is kB ÷ 1024, as `VmHWM` itself counts).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99, one beyond p99.9.
        assert_eq!(highest_supported_percentile(1000, 99.9), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(highest_supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(highest_supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(highest_supported_percentile(99, 99.0), Some(75.0));
        assert_eq!(highest_supported_percentile(39, 99.0), None);
        // The cap names the metric: a p90 slot never reports p99.
        assert_eq!(highest_supported_percentile(100_000, 90.0), Some(90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn median_over_rounds_ignores_a_disturbed_minority() {
        // Five rounds, two hit by a neighbour: the median is a clean round.
        assert_eq!(median(&[40.1, 71.0, 39.9, 40.0, 95.0]), 40.1);
        assert_eq!(median(&[2.0, 1.0, 4.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quietest_rounds_ignore_a_disturbed_majority() {
        // Ten rounds, six of them under a neighbour: the median has moved
        // (45.5), the three quietest rounds have not.
        let lat = [40.0, 58.0, 61.0, 40.2, 70.0, 51.0, 39.8, 66.0, 40.4, 55.0];
        assert!((quietest(&lat, Better::Lower) - 40.0).abs() < 1e-9);
        assert!(median(&lat) > 45.0);
        // Throughput: the best rounds are the highest ones.
        let rps = [900.0, 1000.0, 1010.0, 700.0, 990.0];
        assert!((quietest(&rps, Better::Higher) - 1000.0).abs() < 1e-9);
        // Fewer rounds than QUIET_ROUNDS: the mean of what there is.
        assert_eq!(quietest(&[2.0, 4.0], Better::Lower), 3.0);
        assert_eq!(quietest(&[], Better::Lower), 0.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let spread = iqr_over_median(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((spread - (12.0 - 1.5) / 4.0).abs() < 1e-12, "{spread}");
        assert_eq!(iqr_over_median(&[3.0]), 0.0);
        assert_eq!(lower_quartile(&v), 2.75);
        assert_eq!(lower_quartile(&[3.0]), 3.0);
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (fc bench) R) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 269 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tfcbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_kernel() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
