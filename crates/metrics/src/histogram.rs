//! Log-bucketed histograms for latency-distribution comparisons.

/// A histogram with logarithmically spaced buckets.
///
/// Used by the Figure 7 subsampling experiment to compare the latency
/// *distribution* measured on a handful of machines against the
/// datacenter-scale distribution: the paper's claim is that the two CDFs
/// agree to within ~10 %, which we check with
/// [`Histogram::max_cdf_distance`] (the Kolmogorov–Smirnov statistic).
///
/// # Examples
///
/// ```
/// use drs_metrics::Histogram;
///
/// let mut h = Histogram::new(0.1, 1000.0, 64);
/// for ms in [1.0, 2.0, 4.0, 8.0] {
///     h.record(ms);
/// }
/// assert_eq!(h.count(), 4);
/// let cdf = h.cdf();
/// assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    max: f64,
    /// `buckets[i]` counts samples in the i-th log-spaced bucket;
    /// two extra buckets catch under/overflow.
    buckets: Vec<u64>,
    log_min: f64,
    log_width: f64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram spanning `[min, max]` with `n` log-spaced
    /// buckets (plus underflow and overflow buckets).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min < max` and `n >= 1`.
    pub fn new(min: f64, max: f64, n: usize) -> Self {
        assert!(min > 0.0 && max > min, "need 0 < min < max");
        assert!(n >= 1, "need at least one bucket");
        let log_min = min.ln();
        let log_width = (max.ln() - log_min) / n as f64;
        Histogram {
            min,
            max,
            buckets: vec![0; n + 2],
            log_min,
            log_width,
            count: 0,
        }
    }

    /// Records a sample. Non-finite samples are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = if x < self.min {
            0
        } else if x >= self.max {
            self.buckets.len() - 1
        } else {
            let i = ((x.ln() - self.log_min) / self.log_width) as usize;
            // Guard against floating-point edge landing on n.
            1 + i.min(self.buckets.len() - 3)
        };
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper edge of bucket `i` (of the interior buckets).
    fn bucket_edge(&self, i: usize) -> f64 {
        (self.log_min + (i as f64 + 1.0) * self.log_width).exp()
    }

    /// Empirical CDF as `(upper_edge, cumulative_fraction)` pairs over the
    /// interior buckets; the underflow bucket folds into the first point
    /// and the overflow bucket into a final `(max, 1.0)` point.
    ///
    /// Returns an empty vector when no samples were recorded.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let n = self.buckets.len() - 2;
        let mut out = Vec::with_capacity(n + 1);
        let mut cum = self.buckets[0];
        for i in 0..n {
            cum += self.buckets[i + 1];
            out.push((self.bucket_edge(i), cum as f64 / self.count as f64));
        }
        cum += self.buckets[n + 1];
        out.push((self.max, cum as f64 / self.count as f64));
        out
    }

    /// Kolmogorov–Smirnov distance between the CDFs of two histograms
    /// with identical bucket layout.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ or either histogram is empty.
    pub fn max_cdf_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histograms must share a layout"
        );
        assert!(
            (self.min - other.min).abs() < 1e-12 && (self.max - other.max).abs() < 1e-12,
            "histograms must share a range"
        );
        let a = self.cdf();
        let b = other.cdf();
        a.iter()
            .zip(&b)
            .map(|((_, fa), (_, fb))| (fa - fb).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_range() {
        let mut h = Histogram::new(1.0, 1000.0, 30);
        h.record(0.5); // underflow
        h.record(1.0);
        h.record(999.0);
        h.record(1000.0); // overflow edge
        h.record(5000.0); // overflow
        assert_eq!(h.count(), 5);
        let cdf = h.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_histograms_zero_distance() {
        let mut a = Histogram::new(1.0, 100.0, 16);
        let mut b = Histogram::new(1.0, 100.0, 16);
        for i in 1..100 {
            a.record(i as f64);
            b.record(i as f64);
        }
        assert_eq!(a.max_cdf_distance(&b), 0.0);
    }

    #[test]
    fn shifted_histograms_positive_distance() {
        let mut a = Histogram::new(1.0, 100.0, 16);
        let mut b = Histogram::new(1.0, 100.0, 16);
        for i in 1..50 {
            a.record(i as f64);
            b.record((i * 2) as f64);
        }
        assert!(a.max_cdf_distance(&b) > 0.2);
    }

    #[test]
    #[should_panic(expected = "share a layout")]
    fn mismatched_layout_panics() {
        let mut a = Histogram::new(1.0, 100.0, 16);
        let mut b = Histogram::new(1.0, 100.0, 8);
        a.record(2.0);
        b.record(2.0);
        a.max_cdf_distance(&b);
    }

    #[test]
    fn ignores_nan() {
        let mut h = Histogram::new(0.1, 10.0, 8);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }
}
