//! Property-based tests for the metrics crate.

use drs_metrics::{
    parse_prometheus, percentile_of_sorted, Histogram, LatencyRecorder, MetricsRegistry,
    StreamingLatency,
};
use proptest::prelude::*;

/// Fragments an exposition is made of, plus bytes that break it: a
/// token stream over these reaches the parser's error paths far more
/// often than uniform characters would.
const PROM_TOKENS: [&str; 20] = [
    "# TYPE ",
    "#",
    " ",
    "\n",
    "counter",
    "gauge",
    "a",
    "a_p95",
    "q_1",
    "0",
    "1.5",
    "-2",
    "NaN",
    "inf",
    "1e308",
    "18446744073709551616",
    "x y",
    "\t",
    "é",
    "\r\n",
];

/// Metric keys drawn from `[a-z0-9_]`, short enough to collide.
fn key(bits: u64) -> String {
    const ALPHABET: &[u8] = b"abz09_";
    let len = 1 + (bits % 3) as usize;
    (0..len)
        .map(|i| ALPHABET[((bits >> (8 * i + 2)) % ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// A value from `bits`: mostly ordinary magnitudes of either sign,
/// sometimes the floats whose text form is easiest to get wrong.
fn value(bits: u64) -> f64 {
    match (bits >> 40) % 8 {
        0 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e300][(bits % 6) as usize],
        _ => ((bits >> 20) % 2_000_000) as f64 / 7.0 - 100_000.0,
    }
}

proptest! {
    // Case budget audited so the whole workspace suite stays fast in
    // debug CI; raise at runtime with PROPTEST_CASES for a deeper soak.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any percentile of a window lies within [min, max], and so does
    /// every quantile of the recorder's summary.
    #[test]
    fn percentile_bounded(samples in prop::collection::vec(0.0f64..1e6, 1..500), q in 0.0f64..=1.0) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record_ms(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let s = rec.summary();
        prop_assert_eq!((s.min_ms, s.max_ms), (min, max));
        for p in [percentile_of_sorted(&sorted, q), s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms] {
            prop_assert!(p >= min - 1e-9 && p <= max + 1e-9, "{p} outside [{min}, {max}]");
        }
    }

    /// Percentiles are monotone non-decreasing in the quantile.
    #[test]
    fn percentile_monotone(samples in prop::collection::vec(0.0f64..1e4, 2..200)) {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let p = percentile_of_sorted(&sorted, q);
            prop_assert!(p >= prev - 1e-9);
            prev = p;
        }
    }

    /// The streaming digest's P² median converges near the exact
    /// median for uniform data.
    #[test]
    fn p2_median_close_to_exact(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..4000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut est = StreamingLatency::new();
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            est.observe_ms(s);
            rec.record_ms(s);
        }
        let exact = rec.summary().p50_ms;
        let got = est.summary().p50_ms;
        prop_assert!((got - exact).abs() < 5.0, "P2 median {got} vs exact {exact}");
    }

    /// Histogram CDF terminates at 1.0 and is monotone.
    #[test]
    fn histogram_cdf_valid(samples in prop::collection::vec(0.01f64..1e4, 1..300)) {
        let mut h = Histogram::new(0.01, 1e4, 32);
        for &s in &samples {
            h.record(s);
        }
        let cdf = h.cdf();
        prop_assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    /// KS distance is symmetric and zero against self.
    #[test]
    fn ks_distance_properties(a in prop::collection::vec(0.1f64..999.0, 1..200),
                              b in prop::collection::vec(0.1f64..999.0, 1..200)) {
        let mut ha = Histogram::new(0.1, 1000.0, 24);
        let mut hb = Histogram::new(0.1, 1000.0, 24);
        for &x in &a { ha.record(x); }
        for &x in &b { hb.record(x); }
        prop_assert!(ha.max_cdf_distance(&ha) < 1e-12);
        let d1 = ha.max_cdf_distance(&hb);
        let d2 = hb.max_cdf_distance(&ha);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d1));
    }

    /// The exposition parser answers `Ok` or `Err` on any text; it
    /// never panics.
    #[test]
    fn parse_prometheus_never_panics(
        toks in prop::collection::vec(0u32..(PROM_TOKENS.len() as u32 + 64), 0..120),
    ) {
        let text: String = toks
            .iter()
            .map(|&t| match PROM_TOKENS.get(t as usize) {
                Some(s) => s.to_string(),
                None => char::from_u32(0x20 + t * 37).unwrap_or('?').to_string(),
            })
            .collect();
        if let Ok(parsed) = parse_prometheus(&text) {
            prop_assert!(parsed.points() <= text.lines().count());
        }
    }

    /// For any registry built from `inc`/`set_gauge`/`observe`/`sample`
    /// calls, the exposition survives the in-repo parser byte for byte,
    /// and every parsed point carries its sampled value's exact bits.
    #[test]
    fn prometheus_exposition_round_trips(ops in prop::collection::vec(0u64..u64::MAX, 0..80)) {
        let mut reg = MetricsRegistry::new();
        let mut t_ns = 0u64;
        for op in ops {
            let k = key(op >> 3);
            match op % 4 {
                0 => reg.inc(&k, (op >> 32) % 1_000),
                1 => reg.set_gauge(&k, value(op)),
                2 => reg.observe(&k, value(op)),
                _ => {
                    t_ns += (op >> 44) % 3;
                    reg.sample(t_ns);
                }
            }
        }
        let text = reg.to_prometheus();
        let parsed = parse_prometheus(&text).expect("own exposition parses");
        prop_assert_eq!(parsed.render(), text);
        for f in &parsed.families {
            let want: Vec<(u64, u64)> =
                reg.series(&f.name).iter().map(|&(t, v)| (v.to_bits(), t)).collect();
            let got: Vec<(u64, u64)> = f.points.iter().map(|&(v, t)| (v.to_bits(), t)).collect();
            prop_assert_eq!(got, want, "family {}", f.name);
        }
    }
}
