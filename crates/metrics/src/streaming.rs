//! A mergeable log-bucket latency sketch for long-running streams.

use crate::percentile::LatencySummary;

/// Mantissa bits a bucket index keeps: each power of two splits into
/// 2^6 = 64 equal-width buckets, so α = 2^-(6+1).
const MANTISSA_BITS: u32 = 6;

/// Right shift from an `f64`'s bits to its bucket index.
const SHIFT: u32 = 52 - MANTISSA_BITS;

/// A streaming [`LatencySummary`] estimator: a log-bucket sketch in the
/// DDSketch construction (Masson, Rim and Lee, VLDB 2019).
///
/// [`crate::LatencyRecorder`] retains every sample so it can compute
/// exact percentiles — the right trade for a run's window and for each
/// tenant's slice of it, where SLA verdicts are judged, the wrong one
/// for every stage × tenant × node cell of a span breakdown or for a
/// fleet-pulse window. Those two are this sketch's only uses.
///
/// It keeps exact count, sum, min and max, a count of zeros, and one
/// count per bucket seen, in a dense vector spanning the lowest to the
/// highest bucket. A positive sample's bucket index is its bit pattern
/// shifted right by 46: the exponent plus the top 6 mantissa bits. That
/// is monotone in the value, needs no `ln`, and so agrees bit for bit
/// between debug, release and every host. Percentiles follow
/// [`crate::percentile_of_sorted`]'s type-7 rule over bucket midpoints
/// (zeros stand for themselves), clamped to `[min, max]`.
///
/// **Error bound.** Every p50/p95/p99 is within α = 2⁻⁷ (≈ 0.78 %)
/// relative of the exact percentile of the same samples, for any
/// distribution (subnormal samples aside): a bucket is 1/64 of its
/// octave wide, so its midpoint is within 1/128 of every value in it,
/// and interpolating two such midpoints keeps the bound.
///
/// Quantiles depend only on the counts, min and max, so they do not
/// depend on insertion order, and [`StreamingLatency::merge`] is exact.
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
/// assert!((summary.p95_ms - 95.05).abs() <= 95.05 / 128.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingLatency {
    count: usize,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
    zeros: u64,
    /// Bucket index of `buckets[0]`.
    offset: u64,
    buckets: Vec<u64>,
}

impl StreamingLatency {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        StreamingLatency {
            count: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: 0.0,
            zeros: 0,
            offset: 0,
            buckets: Vec::new(),
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
        // `-0.0 + 0.0` is `+0.0`: min and max then agree bit for bit
        // whatever order signed zeros arrive in.
        let ms = ms + 0.0;
        self.count += 1;
        self.sum_ms += ms;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
        if ms == 0.0 {
            self.zeros += 1;
        } else {
            let i = ms.to_bits() >> SHIFT;
            self.cover(i, i);
            self.buckets[(i - self.offset) as usize] += 1;
        }
    }

    /// Adds `other`'s samples to this sketch: counts add exactly, so
    /// the quantiles equal those of one sketch fed both streams.
    pub fn merge(&mut self, other: &StreamingLatency) {
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.min_ms = self.min_ms.min(other.min_ms);
        self.max_ms = self.max_ms.max(other.max_ms);
        self.zeros += other.zeros;
        if let Some(top) = other.buckets.len().checked_sub(1) {
            self.cover(other.offset, other.offset + top as u64);
            let at = (other.offset - self.offset) as usize;
            for (mine, theirs) in self.buckets[at..].iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
        }
    }

    /// Widens the bucket vector to span indices `lo..=hi` too.
    fn cover(&mut self, lo: u64, hi: u64) {
        if self.buckets.is_empty() {
            self.offset = lo;
        } else if lo < self.offset {
            let grow = (self.offset - lo) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = lo;
        }
        let len = (hi - self.offset + 1) as usize;
        if len > self.buckets.len() {
            self.buckets.resize(len, 0);
        }
    }

    /// Number of observed samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The representative of the sample at 0-based rank `r`: zero for
    /// the zero count, else its bucket's midpoint.
    fn at_rank(&self, r: u64) -> f64 {
        let mut seen = self.zeros;
        if r < seen {
            return 0.0;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if r < seen {
                let lo = (self.offset + i as u64) << SHIFT;
                return 0.5 * (f64::from_bits(lo) + f64::from_bits(lo + (1 << SHIFT)));
            }
        }
        unreachable!("rank {r} of {} samples", self.count)
    }

    /// Quantile `q` by [`crate::percentile_of_sorted`]'s rule over the
    /// representatives, clamped to `[min, max]`. Needs `count > 0`.
    fn quantile(&self, q: f64) -> f64 {
        let rank = q * (self.count - 1) as f64;
        let (lo, hi) = (rank.floor(), rank.ceil());
        let a = self.at_rank(lo as u64);
        let v = if lo == hi {
            a
        } else {
            a + (self.at_rank(hi as u64) - a) * (rank - lo)
        };
        v.clamp(self.min_ms, self.max_ms)
    }

    /// The streaming summary: exact count/mean/min/max, p50/p95/p99
    /// within α = 2⁻⁷ relative of the exact percentiles.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count,
            mean_ms: self.sum_ms / self.count as f64,
            p50_ms: self.quantile(0.50),
            p95_ms: self.quantile(0.95),
            p99_ms: self.quantile(0.99),
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

    /// α, the relative error bound of every sketch quantile.
    const ALPHA: f64 = 1.0 / 128.0;

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
                (a - b).abs() <= ALPHA * a,
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
        }
        for &s in samples.iter().rev() {
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
        s.observe_ms(f64::INFINITY);
        s.observe_ms(-3.0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.summary(), LatencySummary::default());
        s.observe_ms(2.3);
        assert_eq!(s.count(), 1);
        assert_eq!(s.summary().p95_ms, 2.3, "one sample is its own p95");
    }

    #[test]
    fn zeros_of_either_sign_are_counted_not_bucketed() {
        let mut s = StreamingLatency::new();
        s.observe_ms(0.0);
        s.observe_ms(-0.0);
        assert_eq!(s.count(), 2);
        assert!(s.buckets.is_empty());
        assert_eq!(s.summary().p95_ms, 0.0);
        s.observe_ms(8.0);
        let q = s.summary();
        assert_eq!((q.p50_ms, q.max_ms), (0.0, 8.0));
    }

    #[test]
    fn buckets_span_only_what_was_seen() {
        let mut s = StreamingLatency::new();
        s.observe_ms(1.0);
        s.observe_ms(4.0);
        s.observe_ms(2.0);
        // Two octaves of 64 buckets, plus the bucket 4.0 opens.
        assert_eq!(s.buckets.len(), 129);
        assert_eq!(s.offset, 1.0f64.to_bits() >> SHIFT);
        let mut low = StreamingLatency::new();
        low.observe_ms(0.5);
        s.merge(&low);
        assert_eq!(s.buckets.len(), 193);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }
}
