//! Measurement primitives for the DeepRecSys reproduction.
//!
//! The paper evaluates every design point as *throughput (QPS) under a p95
//! tail-latency SLA*. Every latency quantile the workspace reports comes
//! from one of two estimators here, and both return one summary type:
//!
//! * [`LatencyRecorder`] — the exact estimator: keeps a window of
//!   latencies and sorts it on demand,
//! * [`StreamingLatency`] — the streaming estimator: exact
//!   count/mean/min/max plus one P² marker set per reported percentile,
//!   constant memory for the per-stage span breakdown's cells and the
//!   fleet-pulse windows. No SLA verdict reads it: the whole-report and
//!   per-tenant tails are [`LatencyRecorder`]'s,
//! * [`LatencySummary`] — what both return: count, mean, p50/p95/p99,
//!   min and max in milliseconds,
//! * [`Histogram`] — log-bucketed latency histograms for distribution
//!   comparisons (used by the Figure 7 subsampling experiment),
//! * [`MetricsRegistry`] — the fleet-pulse time-series registry
//!   (counters, gauges, windowed [`StreamingLatency`] digests) sampled on
//!   the virtual clock, with byte-deterministic JSONL and Prometheus
//!   exporters and an in-repo [`parse_prometheus`] proving the
//!   exposition lossless.
//!
//! # Examples
//!
//! ```
//! use drs_metrics::LatencyRecorder;
//!
//! let mut rec = LatencyRecorder::new();
//! for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
//!     rec.record_ms(ms);
//! }
//! let s = rec.summary();
//! assert_eq!(s.count, 5);
//! assert!(s.p50_ms >= 2.0 && s.p50_ms <= 4.0);
//! assert_eq!(s.max_ms, 100.0);
//! ```

mod histogram;
mod p2;
mod percentile;
mod registry;
mod streaming;

pub use histogram::Histogram;
pub use percentile::{percentile_of_sorted, LatencyRecorder, LatencySummary};
pub use registry::{
    parse_prometheus, MetricKind, MetricSample, MetricsRegistry, PromExposition, PromFamily,
};
pub use streaming::StreamingLatency;

/// Geometric mean of a slice of positive values.
///
/// Used for the "GeoMean" aggregate column of Figure 11. Returns `None`
/// for an empty slice or when any value is non-positive (the geometric
/// mean is undefined there).
///
/// # Examples
///
/// ```
/// let g = drs_metrics::geomean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn geomean_single() {
        assert!((geomean(&[7.5]).unwrap() - 7.5).abs() < 1e-12);
    }
}
