//! Query working-set size distributions (Figure 5).

use crate::sampler;
use crate::MAX_QUERY_SIZE;
use rand::Rng;

/// Distribution of the number of candidate items per query.
///
/// Prior web-service studies model working-set sizes as fixed, normal,
/// or log-normal; the paper shows production recommendation query sizes
/// have a distinctly *heavier* tail (Figure 5) and that optimizing for
/// the wrong distribution costs up to 1.7× throughput (Section VI-A).
/// All variants truncate samples to `[1, MAX_QUERY_SIZE]`.
///
/// # Examples
///
/// ```
/// use drs_query::SizeDistribution;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let d = SizeDistribution::production();
/// let s = d.sample(&mut rng);
/// assert!((1..=1000).contains(&s));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDistribution {
    /// Every query carries exactly this many items.
    Fixed(u32),
    /// Normal distribution (truncated); the classic web-service
    /// assumption.
    Normal {
        /// Mean size in items.
        mean: f64,
        /// Standard deviation in items.
        std: f64,
    },
    /// Log-normal distribution; `mu`/`sigma` parameterize the underlying
    /// normal (median is `exp(mu)`).
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// The production-calibrated heavy-tail mixture: a log-normal body
    /// plus a Pareto tail, truncated at [`MAX_QUERY_SIZE`].
    ///
    /// Calibration targets (validated by unit tests):
    /// * sizes capped at 1000 items (Figure 5);
    /// * the top quartile of queries (by size) carries roughly half of
    ///   all items (Figure 6's "25 % of large queries ≈ 50 % of
    ///   execution time");
    /// * visibly heavier tail than the matched log-normal.
    ProductionHeavyTail {
        /// Mean of the body's underlying normal.
        body_mu: f64,
        /// Std of the body's underlying normal.
        body_sigma: f64,
        /// Probability a sample comes from the Pareto tail.
        tail_weight: f64,
        /// Pareto scale (minimum tail size).
        tail_xm: f64,
        /// Pareto shape (smaller = heavier).
        tail_alpha: f64,
    },
}

impl SizeDistribution {
    /// The canonical production-calibrated distribution used throughout
    /// the reproduction (see [`SizeDistribution::ProductionHeavyTail`]).
    pub fn production() -> Self {
        SizeDistribution::ProductionHeavyTail {
            body_mu: 3.555, // median ≈ 35 items
            body_sigma: 0.8,
            tail_weight: 0.08,
            tail_xm: 120.0,
            tail_alpha: 1.3,
        }
    }

    /// A log-normal with approximately the same mean as
    /// [`SizeDistribution::production`] but the canonical lighter tail —
    /// the comparison distribution of Figures 5 and 12(a).
    pub fn lognormal_matched() -> Self {
        SizeDistribution::LogNormal {
            mu: 3.95,
            sigma: 0.6,
        }
    }

    /// A normal with approximately the same mean as
    /// [`SizeDistribution::production`].
    pub fn normal_matched() -> Self {
        SizeDistribution::Normal {
            mean: 65.0,
            std: 25.0,
        }
    }

    /// Draws one query size.
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let raw = match *self {
            SizeDistribution::Fixed(n) => n as f64,
            SizeDistribution::Normal { mean, std } => sampler::normal(rng, mean, std),
            SizeDistribution::LogNormal { mu, sigma } => sampler::lognormal(rng, mu, sigma),
            SizeDistribution::ProductionHeavyTail {
                body_mu,
                body_sigma,
                tail_weight,
                tail_xm,
                tail_alpha,
            } => {
                if rng.gen_range(0.0..1.0) < tail_weight {
                    sampler::pareto(rng, tail_xm, tail_alpha)
                } else {
                    sampler::lognormal(rng, body_mu, body_sigma)
                }
            }
        };
        (raw.round().max(1.0) as u32).min(MAX_QUERY_SIZE)
    }

    /// Draws `n` sizes (convenience for calibration and experiments).
    pub fn sample_n(&self, n: usize, rng: &mut impl Rng) -> Vec<u32> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Human-readable name used in experiment output tables.
    pub fn name(&self) -> &'static str {
        match self {
            SizeDistribution::Fixed(_) => "fixed",
            SizeDistribution::Normal { .. } => "normal",
            SizeDistribution::LogNormal { .. } => "lognormal",
            SizeDistribution::ProductionHeavyTail { .. } => "production",
        }
    }
}

/// Fraction of total items carried by queries strictly larger than the
/// `q`-quantile size of the sample (e.g. `q = 0.75` gives the share of
/// work in the top quartile — the Figure 6 statistic).
///
/// Returns 0.0 for an empty sample.
pub fn tail_work_share(sizes: &[u32], q: f64) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    let cut = sorted[((sorted.len() - 1) as f64 * q) as usize];
    let total: u64 = sizes.iter().map(|&s| s as u64).sum();
    let tail: u64 = sizes.iter().filter(|&&s| s > cut).map(|&s| s as u64).sum();
    tail as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: SizeDistribution, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        d.sample_n(n, &mut rng)
    }

    fn pctile(sorted: &[u32], q: f64) -> u32 {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }

    #[test]
    fn all_distributions_respect_bounds() {
        for d in [
            SizeDistribution::Fixed(64),
            SizeDistribution::normal_matched(),
            SizeDistribution::lognormal_matched(),
            SizeDistribution::production(),
        ] {
            let s = draw(d, 50_000, 9);
            assert!(
                s.iter().all(|&x| (1..=MAX_QUERY_SIZE).contains(&x)),
                "{d:?}"
            );
        }
    }

    #[test]
    fn fixed_is_constant() {
        let s = draw(SizeDistribution::Fixed(17), 100, 0);
        assert!(s.iter().all(|&x| x == 17));
    }

    #[test]
    fn production_calibration_mean_and_p75() {
        let s = draw(SizeDistribution::production(), 200_000, 1);
        let mean = s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
        assert!((50.0..90.0).contains(&mean), "mean {mean}");
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let p75 = pctile(&sorted, 0.75);
        assert!((50..110).contains(&p75), "p75 {p75}");
    }

    #[test]
    fn production_top_quartile_carries_about_half_the_work() {
        // Figure 6: 25% of large queries ≈ 50% of total execution time.
        let s = draw(SizeDistribution::production(), 200_000, 2);
        let share = tail_work_share(&s, 0.75);
        assert!((0.45..0.72).contains(&share), "tail work share {share}");
    }

    #[test]
    fn production_tail_heavier_than_lognormal() {
        // Figure 5's core claim. Compare p99 and p99.9.
        let prod = draw(SizeDistribution::production(), 200_000, 3);
        let logn = draw(SizeDistribution::lognormal_matched(), 200_000, 3);
        let (mut a, mut b) = (prod.clone(), logn.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert!(
            pctile(&a, 0.99) > 2 * pctile(&b, 0.99),
            "p99 production {} vs lognormal {}",
            pctile(&a, 0.99),
            pctile(&b, 0.99)
        );
        // Means stay comparable (within 40%) so throughput comparisons
        // are apples-to-apples.
        let ma = prod.iter().map(|&x| x as f64).sum::<f64>() / prod.len() as f64;
        let mb = logn.iter().map(|&x| x as f64).sum::<f64>() / logn.len() as f64;
        assert!((ma / mb - 1.0).abs() < 0.4, "means {ma} vs {mb}");
    }

    #[test]
    fn production_reaches_max_size() {
        let s = draw(SizeDistribution::production(), 200_000, 4);
        let hits = s.iter().filter(|&&x| x == MAX_QUERY_SIZE).count();
        assert!(hits > 100, "only {hits} samples at the 1000-item cap");
    }

    #[test]
    fn tail_work_share_edge_cases() {
        assert_eq!(tail_work_share(&[], 0.75), 0.0);
        assert_eq!(tail_work_share(&[5, 5, 5, 5], 0.75), 0.0); // no query above cut
        let share = tail_work_share(&[1, 1, 1, 97], 0.5);
        assert!((share - 0.97).abs() < 1e-9);
    }

    #[test]
    fn names_distinct() {
        let names: std::collections::BTreeSet<_> = [
            SizeDistribution::Fixed(1),
            SizeDistribution::normal_matched(),
            SizeDistribution::lognormal_matched(),
            SizeDistribution::production(),
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(
            draw(SizeDistribution::production(), 1000, 42),
            draw(SizeDistribution::production(), 1000, 42)
        );
    }
}
