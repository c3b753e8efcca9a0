//! Order statistics over latency samples, and the fixed tail percentile
//! of each workload.

use crate::shapes::Workload;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

impl Workload {
    /// The fixed tail percentile reported as `latency_tail_ms`, over
    /// all of a window's requests. Light's p99 and p99.9 spread two and
    /// three times as much as its p95 from run to run on a shared host
    /// (`NOTES.md`). Either keeps far more than ten samples beyond it; see
    /// the self-test below.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::Light => 95.0,
            Workload::Farm => 90.0,
        }
    }

    /// Completed requests between two host-speed probes ([`crate::host`]):
    /// one about every 15 ms.
    pub fn probe_every(self) -> usize {
        match self {
            Workload::Light => 16,
            Workload::Farm => 1,
        }
    }

    /// The counted request on whose completion `peak_rss_mb` is read, so
    /// that the figure covers the same amount of work in every run: the
    /// program's memory grows with the requests it serves (see
    /// `NOTES.md`). About a quarter of what a default-length run
    /// completes on the reference machine. A shorter window reads it at
    /// its end.
    pub fn rss_after(self) -> usize {
        match self {
            Workload::Light => 10_000,
            Workload::Farm => 350,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quarter of the latency samples a default-length (45 s) run of
    /// each workload held on the reference machine (2 vCPUs, one of them
    /// used).
    fn min_samples(w: Workload) -> usize {
        match w {
            Workload::Light => 10_000,
            Workload::Farm => 300,
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for w in Workload::ALL {
            let n = min_samples(w);
            assert!(
                beyond(n, w.tail_pct()) >= 10,
                "{}: p{} of {n} samples leaves {}",
                w.name(),
                w.tail_pct(),
                beyond(n, w.tail_pct())
            );
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
