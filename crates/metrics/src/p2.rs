//! The P² (piecewise-parabolic) streaming quantile estimator.
//!
//! Jain & Chlamtac, "The P² algorithm for dynamic calculation of
//! quantiles and histograms without storing observations", CACM 1985.
//!
//! Long-running cluster simulations (Figure 13 runs 24 hours of virtual
//! time) would otherwise accumulate tens of millions of latency samples;
//! P² tracks a quantile in O(1) memory with bounded error.

/// Streaming estimator of a single quantile using five markers.
///
/// Crate-private: [`crate::StreamingLatency`] runs one per reported
/// percentile, each fed the same observation sequence.
///
/// # Examples
///
/// ```
/// // Reached through `StreamingLatency`, whose p95 is one of these.
/// let mut s = drs_metrics::StreamingLatency::new();
/// for i in 1..=1000 {
///     s.observe_ms(i as f64);
/// }
/// let est = s.summary().p95_ms;
/// assert!((est - 950.0).abs() < 20.0, "p95 estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub(crate) struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the quantile positions).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Number of observations seen so far.
    count: usize,
    /// First five observations, buffered until initialization.
    init: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly between 0 and 1.
    pub(crate) fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            init: [0.0; 5],
        }
    }

    /// Feeds one observation into the estimator.
    ///
    /// Non-finite values are ignored.
    pub(crate) fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.init[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.init.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                self.heights = self.init;
            }
            return;
        }
        self.count += 1;

        // Locate the cell containing x and clamp extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x < self.heights[1] {
            0
        } else if x < self.heights[2] {
            1
        } else if x < self.heights[3] {
            2
        } else if x <= self.heights[4] {
            3
        } else {
            self.heights[4] = x;
            3
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers (1..=3) if they drifted off their
        // desired positions by one or more.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let can_right = self.positions[i + 1] - self.positions[i] > 1.0;
            let can_left = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && can_right) || (d <= -1.0 && can_left) {
                let sign = if d >= 0.0 { 1.0 } else { -1.0 };
                let candidate = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let (qm, qi, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, ni, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        qi + sign / (np - nm)
            * ((ni - nm + sign) * (qp - qi) / (np - ni) + (np - ni - sign) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = if sign > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate of the quantile.
    ///
    /// Returns `None` before any observation. With fewer than five
    /// observations, returns the exact sample quantile of what was seen.
    pub(crate) fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            let mut seen = self.init[..self.count].to_vec();
            seen.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            return Some(crate::percentile_of_sorted(&seen, self.q));
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        crate::percentile_of_sorted(&v, q)
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(P2Quantile::new(0.5).value(), None);
    }

    #[test]
    fn small_counts_exact() {
        let mut e = P2Quantile::new(0.5);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(20.0);
        assert_eq!(e.value(), Some(15.0));
    }

    #[test]
    fn uniform_stream_accuracy() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.gen_range(0.0..1000.0)).collect();
        for &q in &[0.5, 0.75, 0.95, 0.99] {
            let mut est = P2Quantile::new(q);
            for &s in &samples {
                est.observe(s);
            }
            let exact = exact_quantile(samples.clone(), q);
            let got = est.value().unwrap();
            // P² on a smooth distribution should land within 2% of range.
            assert!(
                (got - exact).abs() < 20.0,
                "q={q}: est {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn heavy_tail_p95_reasonable() {
        // Latency-like distribution: exponential with a few huge spikes.
        let mut rng = StdRng::seed_from_u64(11);
        let mut est = P2Quantile::new(0.95);
        let mut all = Vec::new();
        for _ in 0..20_000 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            let x = -10.0 * u.ln(); // Exp(mean=10)
            est.observe(x);
            all.push(x);
        }
        let exact = exact_quantile(all, 0.95);
        let got = est.value().unwrap();
        assert!(
            (got - exact).abs() / exact < 0.10,
            "est {got} vs exact {exact}"
        );
    }

    #[test]
    fn ignores_non_finite() {
        let mut est = P2Quantile::new(0.5);
        est.observe(f64::NAN);
        assert_eq!(est.count, 0);
        for i in 0..100 {
            est.observe(i as f64);
        }
        assert_eq!(est.count, 100);
        assert!(est.value().unwrap().is_finite());
    }

    #[test]
    fn monotone_in_quantile() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut prev = f64::NEG_INFINITY;
        for &q in &[0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let mut est = P2Quantile::new(q);
            for &s in &samples {
                est.observe(s);
            }
            let v = est.value().unwrap();
            assert!(v >= prev - 1.0, "q={q} broke monotonicity: {v} < {prev}");
            prev = v;
        }
    }
}
