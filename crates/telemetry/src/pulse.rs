//! Fleet-pulse recording: the metrics sink serving loops are generic
//! over, plus the structured controller/arbiter decision log.
//!
//! [`MetricsSink`] is the time-series twin of [`crate::TraceSink`]:
//! the same associated-`const ENABLED` contract, so the
//! [`NoopMetrics`] instantiation monomorphizes every record site away
//! and metrics-off serving pays nothing measurable (tracked by the
//! benchmark's `metrics.*` probes). The recording implementation,
//! [`PulseRecorder`], owns a [`drs_metrics::MetricsRegistry`] sampled
//! on the virtual clock plus two structured event logs:
//!
//! * [`ControlDecision`] — one per `OnlineController` retune: what
//!   tripped it (rate shift vs tail drift), the window scores and
//!   settled baselines it compared, the hysteresis streak, and the
//!   old → new batching knob;
//! * [`DrrRound`] — one per deficit-round-robin grant: which lane won
//!   and every lane's post-grant deficit.
//!
//! All recorded times are rebased to the run's epoch
//! ([`MetricsSink::set_epoch`], the stream's first arrival), so
//! virtual runs (absolute arrival clocks) and real runs (due-based
//! clocks already anchored at zero) export identical timelines.

use drs_metrics::MetricsRegistry;

/// Why an `OnlineController` re-entered tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetuneTrigger {
    /// The window's completion rate moved beyond the shift tolerance.
    RateShift,
    /// The window's p95 drifted beyond the tail-drift band.
    TailDrift,
}

impl RetuneTrigger {
    /// Stable lowercase label (used by the JSONL decision-log export).
    pub fn label(self) -> &'static str {
        match self {
            RetuneTrigger::RateShift => "rate_shift",
            RetuneTrigger::TailDrift => "tail_drift",
        }
    }
}

/// One structured controller retune event.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// When the retune committed (ns since the run's epoch).
    pub t_ns: u64,
    /// Node whose controller retuned (filled by the serving loop).
    pub node: usize,
    /// Tenant lane the controller tunes.
    pub tenant: usize,
    /// What tripped the retune.
    pub trigger: RetuneTrigger,
    /// The drifted window's completion rate (QPS).
    pub rate_qps: f64,
    /// The settled baseline rate the window was judged against.
    pub settled_rate_qps: f64,
    /// The drifted window's p95 (ms).
    pub p95_ms: f64,
    /// The settled baseline p95 the window was judged against.
    pub settled_p95_ms: f64,
    /// Consecutive stale windows when hysteresis finally tripped.
    pub streak: u32,
    /// The batching knob before the retune.
    pub old_max_batch: u32,
    /// Where the re-entered ladder starts.
    pub new_max_batch: u32,
    /// Whether the controller chose the downward (walk-down) ladder.
    pub downward: bool,
}

/// One deficit-round-robin grant: the lane that won and every lane's
/// deficit right after the grant was charged.
#[derive(Debug, Clone, PartialEq)]
pub struct DrrRound {
    /// When the grant happened (ns since the run's epoch).
    pub t_ns: u64,
    /// Node whose arbiter granted.
    pub node: usize,
    /// The winning tenant lane.
    pub lane: usize,
    /// Post-grant deficits, in lane order.
    pub deficits: Vec<u64>,
}

/// Per-run pulse totals, surfaced as the serving report's `pulse`.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseSummary {
    /// Sample rows exported.
    pub samples: usize,
    /// Sampling interval (virtual ns).
    pub interval_ns: u64,
    /// Controller retunes logged.
    pub decisions: usize,
    /// DRR grants logged.
    pub drr_rounds: usize,
    /// Peak sampled queue depth across all `queue_depth_*` series.
    pub peak_queue_depth: f64,
    /// Last sample's timestamp (ns since epoch; 0 when no samples).
    pub end_ns: u64,
}

/// A consumer of fleet-pulse metrics and decision events.
///
/// Serving loops are generic over `M: MetricsSink` and guard every
/// record site with `if M::ENABLED { ... }` (pinned by the same
/// disabled-sink test as [`crate::TraceSink`]'s guards). Because
/// `ENABLED` is an associated *constant*, the unmetered instantiation
/// ([`NoopMetrics`]) monomorphizes those sites to dead code.
pub trait MetricsSink {
    /// Whether this sink actually records. Call sites skip gauge
    /// computation and tick bookkeeping entirely when this is `false`.
    const ENABLED: bool = true;

    /// Declares the run's epoch: all subsequently recorded times are
    /// stored relative to it. Virtual loops pass the stream's first
    /// arrival; real loops already run due-based clocks from zero.
    fn set_epoch(&mut self, t_ns: u64);

    /// Snapshots every live metric into a sample row at `t_ns`
    /// (absolute; the epoch is subtracted on record).
    fn tick(&mut self, t_ns: u64);

    /// Sets gauge `key` to `v`.
    fn gauge(&mut self, key: &str, v: f64);

    /// Adds `by` to counter `key`.
    fn inc(&mut self, key: &str, by: u64);

    /// Feeds `v` into windowed histogram `key`.
    fn observe(&mut self, key: &str, v: f64);

    /// Logs one controller retune (`d.t_ns` absolute; rebased on
    /// record).
    fn decision(&mut self, d: ControlDecision);

    /// Logs one DRR grant at absolute time `t_ns` on `node`: lane
    /// `lane` won, `deficits` are the post-grant lane deficits.
    fn drr_round(&mut self, t_ns: u64, node: usize, lane: usize, deficits: &[u64]);

    /// The virtual-clock sampling interval serving loops should tick
    /// at; `0` means "never tick" (the no-op contract).
    fn interval_ns(&self) -> u64 {
        0
    }

    /// Per-run totals for the report, if this sink keeps any.
    fn summary(&self) -> Option<PulseSummary> {
        None
    }
}

/// The do-nothing metrics sink: `ENABLED == false`, so metered serving
/// loops compile down to the unmetered ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    const ENABLED: bool = false;

    fn set_epoch(&mut self, _t_ns: u64) {}
    fn tick(&mut self, _t_ns: u64) {}
    fn gauge(&mut self, _key: &str, _v: f64) {}
    fn inc(&mut self, _key: &str, _by: u64) {}
    fn observe(&mut self, _key: &str, _v: f64) {}
    fn decision(&mut self, _d: ControlDecision) {}
    fn drr_round(&mut self, _t_ns: u64, _node: usize, _lane: usize, _deficits: &[u64]) {}
}

/// A borrowed pulse records into its owner, so a caller can hand a
/// serving request `&mut recorder` and read the recorder afterwards.
impl<T: MetricsSink> MetricsSink for &mut T {
    const ENABLED: bool = T::ENABLED;

    fn set_epoch(&mut self, t_ns: u64) {
        (**self).set_epoch(t_ns);
    }
    fn tick(&mut self, t_ns: u64) {
        (**self).tick(t_ns);
    }
    fn gauge(&mut self, key: &str, v: f64) {
        (**self).gauge(key, v);
    }
    fn inc(&mut self, key: &str, by: u64) {
        (**self).inc(key, by);
    }
    fn observe(&mut self, key: &str, v: f64) {
        (**self).observe(key, v);
    }
    fn decision(&mut self, d: ControlDecision) {
        (**self).decision(d);
    }
    fn drr_round(&mut self, t_ns: u64, node: usize, lane: usize, deficits: &[u64]) {
        (**self).drr_round(t_ns, node, lane, deficits);
    }
    fn interval_ns(&self) -> u64 {
        (**self).interval_ns()
    }
    fn summary(&self) -> Option<PulseSummary> {
        (**self).summary()
    }
}

/// The recording metrics sink: a [`MetricsRegistry`] sampled every
/// `interval_ns` of virtual time, plus the structured decision log.
///
/// # Examples
///
/// ```
/// use drs_telemetry::{MetricsSink, PulseRecorder};
///
/// let mut pulse = PulseRecorder::new(1_000_000); // 1 ms ticks
/// pulse.set_epoch(5_000);
/// pulse.gauge("queue_depth_n0", 2.0);
/// pulse.tick(1_005_000);
/// assert_eq!(pulse.registry().samples()[0].t_ns, 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct PulseRecorder {
    registry: MetricsRegistry,
    interval_ns: u64,
    epoch_ns: u64,
    decisions: Vec<ControlDecision>,
    drr_rounds: Vec<DrrRound>,
}

impl PulseRecorder {
    /// A recorder sampling every `interval_ns` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is zero (zero is the no-op contract).
    pub fn new(interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "a recording pulse needs an interval");
        PulseRecorder {
            registry: MetricsRegistry::new(),
            interval_ns,
            epoch_ns: 0,
            decisions: Vec::new(),
            drr_rounds: Vec::new(),
        }
    }

    /// The sampled time-series registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The controller decision log, in commit order.
    pub fn decisions(&self) -> &[ControlDecision] {
        &self.decisions
    }

    /// The DRR grant log, in grant order.
    pub fn drr_rounds(&self) -> &[DrrRound] {
        &self.drr_rounds
    }

    /// Renders the decision log as JSONL, one retune per line —
    /// byte-deterministic per seed, like the registry exports.
    pub fn decisions_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&format!(
                "{{\"t_ns\": {}, \"node\": {}, \"tenant\": {}, \"trigger\": \"{}\", \
                 \"rate_qps\": {}, \"settled_rate_qps\": {}, \"p95_ms\": {}, \
                 \"settled_p95_ms\": {}, \"streak\": {}, \"old_max_batch\": {}, \
                 \"new_max_batch\": {}, \"downward\": {}}}\n",
                d.t_ns,
                d.node,
                d.tenant,
                d.trigger.label(),
                d.rate_qps,
                d.settled_rate_qps,
                d.p95_ms,
                d.settled_p95_ms,
                d.streak,
                d.old_max_batch,
                d.new_max_batch,
                d.downward
            ));
        }
        out
    }

    fn rebase(&self, t_ns: u64) -> u64 {
        t_ns.saturating_sub(self.epoch_ns)
    }
}

impl MetricsSink for PulseRecorder {
    fn set_epoch(&mut self, t_ns: u64) {
        self.epoch_ns = t_ns;
    }

    fn tick(&mut self, t_ns: u64) {
        let t = self.rebase(t_ns);
        self.registry.sample(t);
    }

    fn gauge(&mut self, key: &str, v: f64) {
        self.registry.set_gauge(key, v);
    }

    fn inc(&mut self, key: &str, by: u64) {
        self.registry.inc(key, by);
    }

    fn observe(&mut self, key: &str, v: f64) {
        self.registry.observe(key, v);
    }

    fn decision(&mut self, mut d: ControlDecision) {
        d.t_ns = self.rebase(d.t_ns);
        self.decisions.push(d);
    }

    fn drr_round(&mut self, t_ns: u64, node: usize, lane: usize, deficits: &[u64]) {
        self.drr_rounds.push(DrrRound {
            t_ns: self.rebase(t_ns),
            node,
            lane,
            deficits: deficits.to_vec(),
        });
    }

    fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    fn summary(&self) -> Option<PulseSummary> {
        let samples = self.registry.samples();
        let mut peak = 0.0f64;
        for s in samples {
            for (k, v) in &s.values {
                if k.starts_with("queue_depth") && *v > peak {
                    peak = *v;
                }
            }
        }
        Some(PulseSummary {
            samples: samples.len(),
            interval_ns: self.interval_ns,
            decisions: self.decisions.len(),
            drr_rounds: self.drr_rounds.len(),
            peak_queue_depth: peak,
            end_ns: samples.last().map(|s| s.t_ns).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_rebases_to_epoch() {
        let mut p = PulseRecorder::new(500);
        p.set_epoch(1_000);
        p.gauge("queue_depth_n0", 4.0);
        p.tick(1_500);
        p.tick(2_000);
        let ts: Vec<u64> = p.registry().samples().iter().map(|s| s.t_ns).collect();
        assert_eq!(ts, vec![500, 1_000]);
        p.drr_round(2_500, 0, 1, &[10, 0]);
        assert_eq!(p.drr_rounds()[0].t_ns, 1_500);
        assert_eq!(p.drr_rounds()[0].deficits, vec![10, 0]);
    }

    #[test]
    fn summary_counts_everything() {
        let mut p = PulseRecorder::new(100);
        p.set_epoch(0);
        p.gauge("queue_depth_n0", 7.0);
        p.tick(100);
        p.gauge("queue_depth_n0", 2.0);
        p.tick(200);
        p.decision(ControlDecision {
            t_ns: 150,
            node: 0,
            tenant: 0,
            trigger: RetuneTrigger::RateShift,
            rate_qps: 10.0,
            settled_rate_qps: 20.0,
            p95_ms: 1.0,
            settled_p95_ms: 1.0,
            streak: 3,
            old_max_batch: 64,
            new_max_batch: 32,
            downward: true,
        });
        let s = MetricsSink::summary(&p).expect("recorder summarizes");
        assert_eq!(s.samples, 2);
        assert_eq!(s.decisions, 1);
        assert_eq!(s.drr_rounds, 0);
        assert_eq!(s.peak_queue_depth, 7.0);
        assert_eq!(s.end_ns, 200);
        assert_eq!(s.interval_ns, 100);
    }

    #[test]
    fn decision_jsonl_is_structured() {
        let mut p = PulseRecorder::new(100);
        p.decision(ControlDecision {
            t_ns: 42,
            node: 1,
            tenant: 2,
            trigger: RetuneTrigger::TailDrift,
            rate_qps: 5.5,
            settled_rate_qps: 5.0,
            p95_ms: 9.0,
            settled_p95_ms: 3.0,
            streak: 4,
            old_max_batch: 128,
            new_max_batch: 128,
            downward: false,
        });
        let line = p.decisions_jsonl();
        assert!(line.contains("\"trigger\": \"tail_drift\""), "{line}");
        assert!(line.contains("\"t_ns\": 42"), "{line}");
        assert!(line.ends_with("}\n"), "{line}");
    }

    #[test]
    fn noop_sink_is_disabled() {
        const { assert!(!NoopMetrics::ENABLED) };
        let mut m = NoopMetrics;
        m.gauge("x", 1.0);
        m.tick(1);
        assert_eq!(m.interval_ns(), 0);
        assert!(MetricsSink::summary(&m).is_none());
    }

    #[test]
    #[should_panic(expected = "needs an interval")]
    fn zero_interval_rejected() {
        let _ = PulseRecorder::new(0);
    }
}
