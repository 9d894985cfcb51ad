//! Property-based tests for the metrics crate.

use drs_metrics::{
    ks_distance, parse_prometheus, percentile_of_sorted, LatencyRecorder, LatencySummary,
    MetricsRegistry, StreamingLatency,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// α, the relative error bound `StreamingLatency` states.
const ALPHA: f64 = 1.0 / 128.0;

/// `n` latency-like samples of one of three shapes — exponential,
/// lognormal, or a heavy-tailed mix of an exponential body and a Pareto
/// tail — with about a tenth of them zeros of either sign.
fn latency_mix(seed: u64, n: usize, shape: usize) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            match rng.gen_range(0..20u32) {
                0 => return 0.0,
                1 => return -0.0,
                _ => {}
            }
            match shape {
                0 => -5.0 * u.ln(),
                1 => {
                    let v: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
                    (1.5 * z).exp()
                }
                _ if rng.gen_range(0..10u32) == 0 => 20.0 * u.powf(-1.0 / 1.2),
                _ => -2.0 * u.ln(),
            }
        })
        .collect()
}

fn sketch_of(samples: &[f64]) -> LatencySummary {
    let mut s = StreamingLatency::new();
    for &x in samples {
        s.observe_ms(x);
    }
    s.summary()
}

/// The fields a sketch computes from its counts, min and max alone.
fn order_free(s: &LatencySummary) -> [u64; 6] {
    [
        s.count as u64,
        s.p50_ms.to_bits(),
        s.p95_ms.to_bits(),
        s.p99_ms.to_bits(),
        s.min_ms.to_bits(),
        s.max_ms.to_bits(),
    ]
}

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

    /// Every sketch quantile is within α of the exact percentile of the
    /// same samples, whatever their distribution; count, mean, min and
    /// max are exact.
    #[test]
    fn sketch_within_alpha_of_exact(seed in 0u64..1_000_000, n in 1usize..20_001, shape in 0usize..3) {
        let samples = latency_mix(seed, n, shape);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = sketch_of(&samples);
        let mut exact = LatencyRecorder::new();
        samples.iter().for_each(|&x| exact.record_ms(x));
        let e = exact.summary();
        prop_assert_eq!((s.count, s.min_ms, s.max_ms), (e.count, e.min_ms, e.max_ms));
        prop_assert!((s.mean_ms - e.mean_ms).abs() <= 1e-9 * e.mean_ms.max(1.0));
        for (q, got) in [(0.50, s.p50_ms), (0.95, s.p95_ms), (0.99, s.p99_ms)] {
            let exact = percentile_of_sorted(&sorted, q);
            prop_assert!(
                (got - exact).abs() <= ALPHA * exact * (1.0 + 1e-12),
                "q={q}: sketch {got} vs exact {exact} (shape {shape}, n {n})"
            );
        }
    }

    /// Shuffling the input moves no order-free field by a bit.
    #[test]
    fn sketch_ignores_insertion_order(seed in 0u64..1_000_000, n in 1usize..5_000, shape in 0usize..3) {
        let samples = latency_mix(seed, n, shape);
        let mut shuffled = samples.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        prop_assert_eq!(order_free(&sketch_of(&samples)), order_free(&sketch_of(&shuffled)));
    }

    /// `merge(a, b)` is the sketch of `a ++ b`.
    #[test]
    fn sketch_merge_is_exact(seed in 0u64..1_000_000, n in 0usize..5_000, cut in 0.0f64..=1.0, shape in 0usize..3) {
        let samples = latency_mix(seed, n, shape);
        let (a, b) = samples.split_at((cut * n as f64) as usize);
        let mut merged = StreamingLatency::new();
        let mut right = StreamingLatency::new();
        a.iter().for_each(|&x| merged.observe_ms(x));
        b.iter().for_each(|&x| right.observe_ms(x));
        merged.merge(&right);
        prop_assert_eq!(order_free(&merged.summary()), order_free(&sketch_of(&samples)));
    }

    /// KS distance is symmetric, zero against self, and in [0, 1].
    #[test]
    fn ks_distance_properties(a in prop::collection::vec(0.1f64..999.0, 1..200),
                              b in prop::collection::vec(0.1f64..999.0, 1..200)) {
        let sort = |mut v: Vec<f64>| {
            v.sort_by(|x, y| x.partial_cmp(y).unwrap());
            v
        };
        let (a, b) = (sort(a), sort(b));
        prop_assert_eq!(ks_distance(&a, &a), 0.0);
        let d = ks_distance(&a, &b);
        prop_assert_eq!(d, ks_distance(&b, &a));
        prop_assert!((0.0..=1.0).contains(&d));
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

/// KS distances worked by hand: the empirical CDFs of {1, 2, 3, 4} and
/// {2.5, 5} differ most at 2 (2/4 − 0) and at 4 (4/4 − 1/2); a tie steps
/// both CDFs at once, so {1, 2, 2} vs {2, 3} peaks at 2 (3/3 − 1/2), not
/// at 1 (1/3).
#[test]
fn ks_distance_hand_computed() {
    assert_eq!(ks_distance(&[1.0, 2.0, 3.0, 4.0], &[2.5, 5.0]), 0.5);
    assert_eq!(ks_distance(&[1.0, 2.0, 2.0], &[2.0, 3.0]), 0.5);
    assert_eq!(ks_distance(&[1.0], &[1.0, 2.0, 3.0]), 1.0 - 1.0 / 3.0);
}
