//! Small numeric helpers: medians, nearest-rank quantiles, host-clock
//! timing of one call, and the process's memory high-water mark.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice: the sample at rank
/// `ceil(q * n)` — the same rank rule the serving histogram uses, so
/// the two agree up to the histogram's bucket rounding.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Host microseconds one call of `f` takes. The result is dropped
/// after the clock stops.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e6, v)
}

/// Median host microseconds of `n` calls of `f` on inputs made by
/// `prep`, which runs outside the clock.
pub fn median_us<S, T>(n: usize, mut prep: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let s = prep();
            time_us(|| f(s)).0
        })
        .collect();
    median(&samples)
}

/// Reset the process's resident-memory high-water mark to its current
/// resident size (Linux `clear_refs` 5), so the next
/// [`peak_rss_mib`] covers only what runs in between. Where the kernel
/// refuses, the mark keeps covering the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB, or
/// 0 where `/proc` does not provide it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 0.5), 500);
        assert_eq!(nearest_rank(&v, 0.99), 990);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
    }
}
