//! Constant-memory latency summaries for long-running streams.

use crate::p2::P2Quantile;
use crate::percentile::LatencySummary;

/// A streaming [`LatencySummary`] estimator in constant memory — the
/// one P² digest in the workspace.
///
/// [`crate::LatencyRecorder`] retains every sample so it can compute
/// exact percentiles — the right trade for a run's window and for each
/// tenant's slice of it, where SLA verdicts are judged, the wrong one
/// for every stage × tenant × node cell of a span breakdown or for a
/// fleet-pulse window. Those two are this digest's only uses; P² has
/// no worst-case error bound, so no verdict is computed from it. It
/// keeps exact count/mean/min/max plus one P² estimator (five markers)
/// per reported percentile (p50/p95/p99), each fed the same sequence,
/// so a summary costs a few dozen floats no matter how long the run.
///
/// The P² markers are deterministic in the observation sequence:
/// feeding two digests the identical ordered stream yields bit-equal
/// summaries, which is what lets real-vs-virtual cross-validation
/// keep asserting stage breakdowns with zero tolerance.
///
/// # Examples
///
/// ```
/// use drs_metrics::StreamingLatency;
/// let mut s = StreamingLatency::new();
/// for i in 1..=100 {
///     s.observe_ms(i as f64);
/// }
/// let summary = s.summary();
/// assert_eq!(summary.count, 100);
/// assert!((summary.mean_ms - 50.5).abs() < 1e-9);
/// assert!((summary.p95_ms - 95.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingLatency {
    count: usize,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl StreamingLatency {
    /// Creates an empty digest.
    pub fn new() -> Self {
        StreamingLatency {
            count: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: 0.0,
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Observes one latency in milliseconds.
    ///
    /// Non-finite or negative samples are ignored, matching
    /// [`crate::LatencyRecorder::record_ms`].
    pub fn observe_ms(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.count += 1;
        self.sum_ms += ms;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
        self.p50.observe(ms);
        self.p95.observe(ms);
        self.p99.observe(ms);
    }

    /// Number of observed samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The streaming summary: exact count/mean/min/max, P²-estimated
    /// percentiles (exact while fewer than five samples are held).
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count,
            mean_ms: self.sum_ms / self.count as f64,
            p50_ms: self.p50.value().unwrap_or(0.0),
            p95_ms: self.p95.value().unwrap_or(0.0),
            p99_ms: self.p99.value().unwrap_or(0.0),
            max_ms: self.max_ms,
            min_ms: self.min_ms,
        }
    }
}

impl Default for StreamingLatency {
    fn default() -> Self {
        StreamingLatency::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::LatencyRecorder;

    #[test]
    fn empty_summary_matches_recorder() {
        assert_eq!(StreamingLatency::new().summary(), LatencySummary::default());
    }

    #[test]
    fn tracks_exact_recorder_closely_on_a_long_stream() {
        // A deterministic heavy-ish tailed stream: mostly small,
        // occasional spikes — the shape tenant latencies take.
        let mut exact = LatencyRecorder::new();
        let mut stream = StreamingLatency::new();
        let mut x = 9_u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let ms = 1.0 + 40.0 * u * u * u;
            exact.record_ms(ms);
            stream.observe_ms(ms);
        }
        let (e, s) = (exact.summary(), stream.summary());
        assert_eq!(e.count, s.count);
        assert!((e.mean_ms - s.mean_ms).abs() < 1e-9, "mean is exact");
        assert_eq!(e.min_ms, s.min_ms);
        assert_eq!(e.max_ms, s.max_ms);
        for (a, b, name) in [
            (e.p50_ms, s.p50_ms, "p50"),
            (e.p95_ms, s.p95_ms, "p95"),
            (e.p99_ms, s.p99_ms, "p99"),
        ] {
            assert!(
                (a - b).abs() / a.max(1e-12) < 0.05,
                "{name}: exact {a} vs streaming {b}"
            );
        }
    }

    #[test]
    fn deterministic_in_the_observation_sequence() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let mut a = StreamingLatency::new();
        let mut b = StreamingLatency::new();
        for &s in &samples {
            a.observe_ms(s);
            b.observe_ms(s);
        }
        let (sa, sb) = (a.summary(), b.summary());
        assert_eq!(sa.p95_ms.to_bits(), sb.p95_ms.to_bits());
        assert_eq!(sa.p99_ms.to_bits(), sb.p99_ms.to_bits());
    }

    #[test]
    fn ignores_garbage_like_the_recorder() {
        let mut s = StreamingLatency::new();
        s.observe_ms(f64::NAN);
        s.observe_ms(-3.0);
        assert_eq!(s.count(), 0);
        s.observe_ms(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.summary().p95_ms, 2.0, "exact below five samples");
    }
}
