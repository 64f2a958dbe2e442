//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median and a tail. The tail is a
//! nearest-rank percentile from [`LADDER`]: the highest rung, up to a
//! per-metric preferred rung, that still has at least
//! [`MIN_BEYOND_TAIL`] samples beyond it. The preferred rung is fixed per
//! metric so that runs of one workload always compare the same
//! percentile; the ten-beyond rule only lowers it when a run is short.

/// Percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
pub fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile of ascending `sorted` samples (0 when
/// empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The tail percentile to report for `n` samples: the highest rung of
/// [`LADDER`] not above `preferred` with at least [`MIN_BEYOND_TAIL`]
/// samples beyond its rank, or `None` when even the median has fewer.
pub fn tail_pct(n: usize, preferred: f64) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&p| p <= preferred)
        .find(|&p| n >= rank(n, p) + MIN_BEYOND_TAIL)
}

/// Median and tail of `samples` (sorted in place), with the tail
/// percentile used; `None` when there are too few samples for a tail.
pub fn median_and_tail(samples: &mut [f64], preferred: f64) -> Option<(f64, f64, f64)> {
    samples.sort_by(f64::total_cmp);
    let pct = tail_pct(samples.len(), preferred)?;
    Some((percentile(samples, 50.0), percentile(samples, pct), pct))
}

/// Per-segment statistics of a closed-loop run, combined by median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segmented {
    /// Median over segments of the segment's median latency.
    pub p50: f64,
    /// Median over segments of the segment's tail latency.
    pub tail: f64,
    /// Median over segments of requests per second.
    pub rate: f64,
    /// Segments combined.
    pub segments: usize,
}

/// Takes, for each segment given as its latencies and wall time, the
/// median, the nearest-rank `pct` tail and the rate, and returns the
/// median of each over the segments. A stall, or a slow connection,
/// confined to a minority of segments cannot move the result.
pub fn over_segments(segments: &[(Vec<f64>, f64)], pct: f64) -> Segmented {
    let mut p50s = Vec::with_capacity(segments.len());
    let mut tails = Vec::with_capacity(segments.len());
    let mut rates = Vec::with_capacity(segments.len());
    for (latencies, wall_s) in segments {
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        p50s.push(percentile(&sorted, 50.0));
        tails.push(percentile(&sorted, pct));
        rates.push(sorted.len() as f64 / wall_s);
    }
    Segmented {
        p50: median(&p50s),
        tail: median(&tails),
        rate: median(&rates),
        segments: segments.len(),
    }
}

/// Median of `values` (mean of the middle pair for even counts; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990 and exactly ten beyond it.
        assert_eq!(tail_pct(1000, 99.99), Some(99.0));
        // 999 samples: p99 has rank 990 and nine beyond, so p95.
        assert_eq!(tail_pct(999, 99.99), Some(95.0));
        // The preferred rung caps the choice.
        assert_eq!(tail_pct(1_000_000, 99.9), Some(99.9));
        assert_eq!(tail_pct(1_000_000, 99.99), Some(99.99));
        // 48 samples: p75 has rank 36 and twelve beyond.
        assert_eq!(tail_pct(48, 99.0), Some(75.0));
        // Too few for any tail.
        assert_eq!(tail_pct(19, 99.0), None);
        assert_eq!(tail_pct(20, 99.0), Some(50.0));
    }

    #[test]
    fn median_and_tail_sorts_and_reports_the_rung() {
        let mut v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let (p50, tail, pct) = median_and_tail(&mut v, 99.0).unwrap();
        assert_eq!((p50, tail, pct), (49.0, 89.0, 90.0));
    }

    #[test]
    fn segment_medians_ignore_a_slow_segment() {
        // Three segments of four requests; the second is slow.
        let fast = (vec![1.0, 1.0, 2.0, 3.0], 0.04);
        let slow = (vec![50.0, 60.0, 70.0, 80.0], 4.0);
        let s = over_segments(&[fast.clone(), slow, fast], 99.0);
        assert_eq!(s.segments, 3);
        assert_eq!((s.p50, s.tail), (1.0, 3.0));
        assert!((s.rate - 100.0).abs() < 1e-9, "{}", s.rate);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
