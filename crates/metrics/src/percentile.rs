//! Exact percentile computation over recorded latency windows.

/// Exact percentile of an **ascending-sorted** slice using linear
/// interpolation between closest ranks (the "linear" / type-7 method used
/// by NumPy's default `percentile`).
///
/// `q` is the quantile in `[0, 1]` (e.g. `0.95` for p95).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use drs_metrics::percentile_of_sorted;
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
/// assert_eq!(percentile_of_sorted(&v, 1.0), 4.0);
/// assert_eq!(percentile_of_sorted(&v, 0.5), 2.5);
/// ```
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// The two-sample Kolmogorov–Smirnov distance: the largest gap between
/// the empirical CDFs of two **ascending-sorted** windows, in `[0, 1]`.
///
/// # Panics
///
/// Panics if either slice is empty.
///
/// # Examples
///
/// ```
/// use drs_metrics::ks_distance;
/// assert_eq!(ks_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
/// assert_eq!(ks_distance(&[1.0, 2.0], &[3.0]), 1.0);
/// ```
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "KS distance of an empty window"
    );
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// Summary statistics of a latency window, in milliseconds: what both
/// [`LatencyRecorder`] (exact) and [`crate::StreamingLatency`] (sketch)
/// return. The default is the all-zero "no data" summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Arithmetic mean latency.
    pub mean_ms: f64,
    /// Median (p50) latency.
    pub p50_ms: f64,
    /// 95th-percentile (tail) latency — the paper's SLA metric.
    pub p95_ms: f64,
    /// 99th-percentile latency (Figure 13 reports p99 as well).
    pub p99_ms: f64,
    /// Maximum observed latency.
    pub max_ms: f64,
    /// Minimum observed latency.
    pub min_ms: f64,
}

/// Records a window of latencies and computes exact percentiles on demand.
///
/// Latencies are stored as `f64` milliseconds. This is the ground-truth
/// estimator: the serving loops use it for experiment windows (tens of
/// thousands of samples), and [`crate::StreamingLatency`] is validated
/// against it in tests.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_ms: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder {
            samples_ms: Vec::with_capacity(n),
        }
    }

    /// Records one latency in milliseconds.
    ///
    /// Non-finite or negative samples are ignored (they indicate a
    /// measurement bug upstream, and must not corrupt tail statistics).
    pub fn record_ms(&mut self, ms: f64) {
        if ms.is_finite() && ms >= 0.0 {
            self.samples_ms.push(ms);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Discards all recorded samples.
    pub fn clear(&mut self) {
        self.samples_ms.clear();
    }

    /// The raw samples, unsorted, in record order.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples_ms
    }

    /// Full summary (computes all percentiles from one sort).
    pub fn summary(&self) -> LatencySummary {
        LatencyRecorder {
            samples_ms: self.samples_ms.clone(),
        }
        .sort_summary()
    }

    /// [`LatencyRecorder::summary`] without the copy: sorts the
    /// recorded samples in place, so they are no longer in record
    /// order. For a window that is summarized and then cleared.
    pub fn sort_summary(&mut self) -> LatencySummary {
        if self.samples_ms.is_empty() {
            return LatencySummary::default();
        }
        (self.samples_ms).sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let sorted = &self.samples_ms;
        let sum: f64 = sorted.iter().sum();
        LatencySummary {
            count: sorted.len(),
            mean_ms: sum / sorted.len() as f64,
            p50_ms: percentile_of_sorted(sorted, 0.50),
            p95_ms: percentile_of_sorted(sorted, 0.95),
            p99_ms: percentile_of_sorted(sorted, 0.99),
            max_ms: *sorted.last().expect("non-empty"),
            min_ms: sorted[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let v = [5.0];
        assert_eq!(percentile_of_sorted(&v, 0.5), 5.0);
        let v = [1.0, 9.0];
        assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&v, 1.0), 9.0);
        assert_eq!(percentile_of_sorted(&v, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_of_sorted(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_bad_q_panics() {
        percentile_of_sorted(&[1.0], 1.5);
    }

    #[test]
    fn recorder_summary_uniform() {
        let mut r = LatencyRecorder::new();
        // 1..=100 ms: p95 should be ~95 ms.
        for i in 1..=100 {
            r.record_ms(i as f64);
        }
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.p95_ms - 95.05).abs() < 0.1, "p95={}", s.p95_ms);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.min_ms, 1.0);
    }

    #[test]
    fn recorder_rejects_garbage() {
        let mut r = LatencyRecorder::new();
        r.record_ms(f64::NAN);
        r.record_ms(f64::INFINITY);
        r.record_ms(-1.0);
        assert!(r.is_empty());
        r.record_ms(3.0);
        assert_eq!(r.len(), 1);
    }

    /// Both estimators take milliseconds and return one summary type:
    /// count, mean, min and max agree exactly, percentiles within the
    /// sketch's α = 2⁻⁷.
    #[test]
    fn record_units_agree() {
        let mut exact = LatencyRecorder::new();
        let mut stream = crate::StreamingLatency::new();
        for ms in [2.5, 0.25, 4.0, 1.5] {
            exact.record_ms(ms);
            stream.observe_ms(ms);
            let (e, s) = (exact.summary(), stream.summary());
            assert_eq!(
                (e.count, e.mean_ms, e.min_ms, e.max_ms),
                (s.count, s.mean_ms, s.min_ms, s.max_ms)
            );
            for (a, b) in [
                (e.p50_ms, s.p50_ms),
                (e.p95_ms, s.p95_ms),
                (e.p99_ms, s.p99_ms),
            ] {
                assert!((a - b).abs() <= a / 128.0, "exact {a} vs sketch {b}");
            }
        }
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s, LatencySummary::default());
        assert_eq!((s.count, s.p95_ms, s.min_ms), (0, 0.0, 0.0));
    }

    #[test]
    fn into_samples_keeps_record_order() {
        let mut r = LatencyRecorder::with_capacity(3);
        for ms in [3.0, f64::NAN, 1.0, 2.0] {
            r.record_ms(ms);
        }
        assert_eq!(r.into_samples(), vec![3.0, 1.0, 2.0]);
    }
}
