//! Exact order statistics over raw samples.
//!
//! Every reported quantile is a nearest-rank percentile of the raw
//! per-op samples; no histogram bucketing is involved, so p90 and p99
//! differ whenever the samples do.

use std::time::Instant;

/// Nearest-rank percentile: the smallest sample with at least `pct`% of
/// the samples at or below it. `pct = 100` is the maximum.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly above the nearest-rank `pct` percentile's rank.
pub fn beyond(count: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * count as f64).ceil() as usize;
    count.saturating_sub(rank)
}

/// Time `f`, returning its result and the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks (empty if absent).
pub fn cpu_times() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or_default();
    line.split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_times`] readings: a host busy with other work makes timings
/// noisy, and this shows when it was.
pub fn steal_frac(before: &[u64], after: &[u64]) -> f64 {
    const STEAL: usize = 7;
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().take(STEAL + 1).sum();
    delta
        .get(STEAL)
        .map_or(0.0, |&s| s as f64 / total.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
