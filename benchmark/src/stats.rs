//! Order statistics over small samples: medians, quartiles, and the
//! reporting percentile a sample can support.

/// Median and quartiles of the repetitions of one timed probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sample {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Sample {
    /// A value measured once (counters, canaries).
    pub fn single(v: f64) -> Self {
        Sample {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// A rate from a time per unit (`scale / self`): quartiles swap.
    pub fn inverted(self, scale: f64) -> Sample {
        Sample {
            median: scale / self.median,
            q1: scale / self.q3,
            q3: scale / self.q1,
            n: self.n,
        }
    }

    pub fn scaled(self, k: f64) -> Sample {
        Sample {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile `q` of `values` (any order).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median and quartiles over repetitions (windows of a phase,
/// repetitions of a probe).
pub(crate) fn summarize(values: &[f64]) -> Sample {
    let s = sorted(values);
    Sample {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    }
}

/// The highest of the usual reporting percentiles (p50, p75, p90, p95,
/// p99, p99.9) that leaves at least ten of `n` samples beyond it; `None`
/// when even the median does not.
pub(crate) fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75, 0.5]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn median_of_windows_and_quartiles() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.0, 1.5, 2.5, 3));
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert!((s.spread() - 0.5).abs() < 1e-12);
        assert_eq!(Sample::single(7.0).spread(), 0.0);
        assert_eq!(quantile(&[10.0, 0.0], 0.95), 9.5);
    }
}
