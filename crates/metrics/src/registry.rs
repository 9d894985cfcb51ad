//! Deterministic time-series metrics: the fleet-pulse registry.
//!
//! End-of-run aggregates (the rest of this crate) answer "how did the
//! run do"; the registry answers "how did the system *evolve*": queue
//! depths, GPU backlog, knob trajectories, lane deficits — sampled on
//! the **virtual clock**, so two runs of the same seed export
//! byte-identical series, and an offload-all real run exports the same
//! series as its virtual twin (the PR 6 cross-validation axis extended
//! to time series).
//!
//! Three metric kinds:
//!
//! * **counters** — monotone `u64` totals ([`MetricsRegistry::inc`]);
//! * **gauges** — instantaneous `f64` values, overwritten between
//!   samples ([`MetricsRegistry::set_gauge`]);
//! * **windowed histograms** — [`StreamingLatency`] digests over one
//!   sampling window ([`MetricsRegistry::observe`]); each
//!   [`MetricsRegistry::sample`] snapshots `_count`/`_p50`/`_p95`
//!   columns and resets the window.
//!
//! Exports are pinned by code in this repo: [`MetricsRegistry::to_jsonl`]
//! (one JSON object per sample row) and
//! [`MetricsRegistry::to_prometheus`] (text exposition with virtual-ns
//! timestamps), with [`parse_prometheus`] proving the exposition
//! lossless by re-rendering it byte-identically.

use crate::StreamingLatency;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric key is, for the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone total.
    Counter,
    /// Instantaneous value.
    Gauge,
}

impl MetricKind {
    fn prom(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sampled row: every live metric's value at `t_ns`, keys
/// ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Virtual-clock sample time, ns since the run's epoch.
    pub t_ns: u64,
    /// `(key, value)` pairs, sorted by key.
    pub values: Vec<(String, f64)>,
}

impl MetricSample {
    /// The sampled value of `key` in this row, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.values[i].1)
    }
}

/// The fleet-pulse registry: named counters, gauges, and windowed
/// histograms, snapshotted into a time series by a virtual-clock
/// sampler.
///
/// Keys are plain `[a-z0-9_]` strings (dimensions are encoded in the
/// name, e.g. `queue_depth_n0`); all storage is `BTreeMap`, so every
/// export iterates in key order and runs are byte-reproducible.
///
/// # Examples
///
/// ```
/// use drs_metrics::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.set_gauge("queue_depth_n0", 3.0);
/// reg.inc("completed_total", 2);
/// reg.sample(1_000_000);
/// assert_eq!(reg.samples().len(), 1);
/// assert_eq!(reg.samples()[0].get("queue_depth_n0"), Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// One digest per histogram key over the current window, reset at
    /// every [`MetricsRegistry::sample`].
    windows: BTreeMap<String, StreamingLatency>,
    /// Kind of every key that has appeared in a sample row (window
    /// digests expand to `_count`/`_p50`/`_p95` gauge columns).
    kinds: BTreeMap<String, MetricKind>,
    samples: Vec<MetricSample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `key` (registering it at zero first).
    pub fn inc(&mut self, key: &str, by: u64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += by,
            None => {
                self.counters.insert(key.to_string(), by);
            }
        }
    }

    /// Sets gauge `key` to `v`; the value holds until overwritten.
    pub fn set_gauge(&mut self, key: &str, v: f64) {
        self.gauges.insert(key.to_string(), v);
    }

    /// Feeds `v` into windowed histogram `key` (current window only).
    ///
    /// Non-finite or negative samples are ignored, as
    /// [`crate::LatencyRecorder::record_ms`] ignores them: they count
    /// toward neither `_count` nor the quantiles.
    pub fn observe(&mut self, key: &str, v: f64) {
        match self.windows.get_mut(key) {
            Some(h) => h.observe_ms(v),
            None => {
                let mut h = StreamingLatency::new();
                h.observe_ms(v);
                self.windows.insert(key.to_string(), h);
            }
        }
    }

    /// Snapshots every live metric into a new sample row at `t_ns` and
    /// resets the histogram windows. Rows must be appended in
    /// non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `t_ns` precedes the previous sample's time.
    pub fn sample(&mut self, t_ns: u64) {
        if let Some(last) = self.samples.last() {
            assert!(
                t_ns >= last.t_ns,
                "sample clock went backwards: {t_ns} < {}",
                last.t_ns
            );
        }
        let mut values =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + 3 * self.windows.len());
        for (k, v) in &self.counters {
            values.push((k.clone(), *v as f64));
        }
        for (k, v) in &self.gauges {
            values.push((k.clone(), *v));
        }
        for (k, h) in &mut self.windows {
            let s = std::mem::take(h).summary();
            values.push((format!("{k}_count"), s.count as f64));
            values.push((format!("{k}_p50"), s.p50_ms));
            values.push((format!("{k}_p95"), s.p95_ms));
        }
        values.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, _) in &values {
            if !self.kinds.contains_key(k) {
                let kind = if self.counters.contains_key(k) {
                    MetricKind::Counter
                } else {
                    MetricKind::Gauge
                };
                self.kinds.insert(k.clone(), kind);
            }
        }
        self.samples.push(MetricSample { t_ns, values });
    }

    /// The sampled rows, in time order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// One metric's `(t_ns, value)` series across all samples.
    pub fn series(&self, key: &str) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for s in &self.samples {
            if let Some(v) = s.get(key) {
                out.push((s.t_ns, v));
            }
        }
        out
    }

    /// Every key that has appeared in a sample row, ascending.
    pub fn keys(&self) -> Vec<String> {
        self.kinds.keys().cloned().collect()
    }

    /// Renders the series as JSONL: one JSON object per sample row,
    /// `t_ns` first, then every metric in key order. Byte-deterministic
    /// per run (f64 values print shortest-round-trip).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&format!("{{\"t_ns\": {}", s.t_ns));
            for (k, v) in &s.values {
                let _ = write!(out, ", \"{k}\": {}", fmt_f64(*v));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the series as Prometheus text exposition: one `# TYPE`
    /// line per metric family, then that family's points in time order
    /// with the virtual-clock ns as the (in-repo) timestamp column.
    /// [`parse_prometheus`] re-reads exactly this shape.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, kind) in &self.kinds {
            let _ = writeln!(out, "# TYPE {key} {}", kind.prom());
            for s in &self.samples {
                if let Some(v) = s.get(key) {
                    let _ = writeln!(out, "{key} {} {}", fmt_f64(v), s.t_ns);
                }
            }
        }
        out
    }
}

/// Formats an `f64` the way every exporter here does: Rust's shortest
/// round-trip `Display`, so `parse::<f64>()` recovers the exact bits.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// One metric family of a parsed exposition: its `# TYPE` line and its
/// `(value, t_ns)` points in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct PromFamily {
    /// Metric name.
    pub name: String,
    /// Declared type (`counter` or `gauge`).
    pub kind: String,
    /// `(value, t_ns)` points, in exposition order.
    pub points: Vec<(f64, u64)>,
}

/// A parsed Prometheus exposition: families in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PromExposition {
    /// Metric families, in exposition order.
    pub families: Vec<PromFamily>,
}

impl PromExposition {
    /// Re-renders the exposition; on text produced by
    /// [`MetricsRegistry::to_prometheus`] this reproduces the input
    /// byte-for-byte (the losslessness proof).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for (v, t) in &f.points {
                let _ = writeln!(out, "{} {} {}", f.name, fmt_f64(*v), t);
            }
        }
        out
    }

    /// Total number of points across all families.
    pub fn points(&self) -> usize {
        let mut n = 0;
        for f in &self.families {
            n += f.points.len();
        }
        n
    }
}

/// Parses text produced by [`MetricsRegistry::to_prometheus`] — the
/// in-repo proof that the exposition is lossless. Rejects anything the
/// exporter does not emit.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input:
/// a point before any `# TYPE` line, a point whose name disagrees with
/// its family, or an unparsable value/timestamp.
pub fn parse_prometheus(text: &str) -> Result<PromExposition, String> {
    let mut exp = PromExposition::default();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().filter(|s| !s.is_empty());
            let kind = it.next().filter(|s| !s.is_empty());
            match (name, kind, it.next()) {
                (Some(name), Some(kind), None) => exp.families.push(PromFamily {
                    name: name.to_string(),
                    kind: kind.to_string(),
                    points: Vec::new(),
                }),
                _ => return Err(format!("line {n}: malformed TYPE line: {line}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: unsupported comment: {line}"));
        }
        let mut it = line.split(' ');
        let (name, value, t) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(name), Some(v), Some(t), None) => (name, v, t),
            _ => return Err(format!("line {n}: malformed point: {line}")),
        };
        let fam = exp
            .families
            .last_mut()
            .ok_or_else(|| format!("line {n}: point before any TYPE line"))?;
        if fam.name != name {
            return Err(format!(
                "line {n}: point `{name}` inside family `{}`",
                fam.name
            ));
        }
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {n}: bad value {value}: {e}"))?;
        let t: u64 = t
            .parse()
            .map_err(|e| format!("line {n}: bad timestamp {t}: {e}"))?;
        fam.points.push((value, t));
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("queue_depth_n0", 3.0);
        reg.inc("completed_total", 1);
        reg.observe("latency_ms", 1.25);
        reg.observe("latency_ms", 4.75);
        reg.sample(1_000);
        reg.set_gauge("queue_depth_n0", 0.0);
        reg.inc("completed_total", 2);
        reg.sample(2_000);
        reg
    }

    #[test]
    fn samples_snapshot_in_key_order() {
        let reg = seeded();
        assert_eq!(reg.samples().len(), 2);
        let keys: Vec<&str> = reg.samples()[0]
            .values
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "sample rows are key-ordered");
        assert_eq!(reg.samples()[0].get("completed_total"), Some(1.0));
        assert_eq!(reg.samples()[1].get("completed_total"), Some(3.0));
    }

    #[test]
    fn window_resets_between_samples() {
        let reg = seeded();
        assert_eq!(reg.samples()[0].get("latency_ms_count"), Some(2.0));
        // Nothing observed in the second window.
        assert_eq!(reg.samples()[1].get("latency_ms_count"), Some(0.0));
        assert_eq!(reg.samples()[1].get("latency_ms_p95"), Some(0.0));
    }

    #[test]
    fn window_count_ignores_what_the_quantiles_ignore() {
        let mut reg = MetricsRegistry::new();
        reg.observe("k", f64::NAN);
        reg.observe("k", -1.0);
        reg.sample(1);
        assert_eq!(reg.samples()[0].get("k_count"), Some(0.0));
        assert_eq!(reg.samples()[0].get("k_p50"), Some(0.0));
        reg.observe("k", f64::INFINITY);
        reg.observe("k", 2.5);
        reg.sample(2);
        assert_eq!(reg.samples()[1].get("k_count"), Some(1.0));
        assert_eq!(reg.samples()[1].get("k_p95"), Some(2.5));
    }

    #[test]
    fn series_extracts_one_key() {
        let reg = seeded();
        assert_eq!(
            reg.series("queue_depth_n0"),
            vec![(1_000, 3.0), (2_000, 0.0)]
        );
        assert!(reg.series("missing").is_empty());
    }

    #[test]
    fn jsonl_is_deterministic_and_keyed() {
        let a = seeded().to_jsonl();
        let b = seeded().to_jsonl();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        assert!(a.starts_with("{\"t_ns\": 1000"), "{a}");
        assert!(a.contains("\"latency_ms_count\": 2"), "{a}");
    }

    #[test]
    fn prometheus_round_trips_losslessly() {
        let text = seeded().to_prometheus();
        let parsed = parse_prometheus(&text).expect("parse own exposition");
        assert_eq!(parsed.render(), text, "re-render is byte-identical");
        assert_eq!(parsed.points(), 2 * seeded().keys().len());
        let fam = parsed
            .families
            .iter()
            .find(|f| f.name == "completed_total")
            .expect("family");
        assert_eq!(fam.kind, "counter");
        assert_eq!(fam.points, vec![(1.0, 1_000), (3.0, 2_000)]);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_prometheus("queue 1 2").is_err(), "point before TYPE");
        assert!(parse_prometheus("# TYPE only").is_err(), "short TYPE");
        let mixed = "# TYPE a gauge\nb 1 2\n";
        assert!(parse_prometheus(mixed).is_err(), "name outside family");
        let bad = "# TYPE a gauge\na x 2\n";
        assert!(parse_prometheus(bad).is_err(), "bad value");
    }

    #[test]
    #[should_panic(expected = "sample clock went backwards")]
    fn sample_rejects_time_regression() {
        let mut reg = MetricsRegistry::new();
        reg.sample(10);
        reg.sample(5);
    }
}
