//! The in-memory sink: a bounded span ring plus streaming per-stage
//! quantiles ([`StreamingLatency`] sketches), snapshotted into the
//! report-facing [`StageBreakdown`].

use crate::sink::TraceSink;
use crate::span::{QuerySpan, Stage, STAGE_COUNT};
use drs_metrics::{LatencySummary, StreamingLatency};
use std::collections::VecDeque;

/// Default span-ring capacity: enough to hold a smoke run whole while
/// bounding a soak to a few hundred KB.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

fn new_sketch_row() -> [StreamingLatency; STAGE_COUNT] {
    std::array::from_fn(|_| StreamingLatency::new())
}

/// The report-facing stage-latency breakdown: overall, per-stage,
/// per-tenant, and per-node streaming statistics, in milliseconds.
///
/// Every cell is a [`StreamingLatency`] summary: exact count, mean, min
/// and max, p50/p95/p99 within 2⁻⁷ relative of the exact percentiles of
/// the same spans. Every recorded span contributes to every
/// stage (inactive stages contribute zero), so the per-stage `mean_ms`
/// values sum to the end-to-end `mean_ms` and stage *shares* of the
/// mean add up to one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageBreakdown {
    /// Spans recorded into the snapshot.
    pub spans: u64,
    /// End-to-end latency statistics across all recorded spans.
    pub total: LatencySummary,
    /// Per-stage statistics, indexed by [`Stage::index`].
    pub stages: Vec<LatencySummary>,
    /// Per-tenant rows of per-stage statistics (tenant index → row).
    pub tenants: Vec<Vec<LatencySummary>>,
    /// Per-node rows of per-stage statistics (node index → row).
    pub nodes: Vec<Vec<LatencySummary>>,
}

impl StageBreakdown {
    /// Statistics for one stage.
    pub fn stage(&self, stage: Stage) -> &LatencySummary {
        &self.stages[stage.index()]
    }

    /// The stage's share of mean end-to-end latency, in `[0, 1]`
    /// (shares across all stages sum to one).
    pub fn share_of_mean(&self, stage: Stage) -> f64 {
        if self.total.mean_ms <= 0.0 {
            0.0
        } else {
            self.stage(stage).mean_ms / self.total.mean_ms
        }
    }
}

/// The in-memory recording sink.
///
/// Keeps the most recent `capacity` spans verbatim (for Chrome-trace
/// export and exact per-query checks) and feeds *every* span — also
/// the ones that later rotate out of the ring — into streaming
/// per-tenant / per-node stage sketches, so quantiles cover the whole
/// run in memory bounded by the range of latencies seen. The
/// all-tenant stage row is the merge of the tenant rows, built at
/// [`RingRecorder::snapshot`]: each span belongs to exactly one tenant.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    capacity: usize,
    ring: VecDeque<QuerySpan>,
    dropped: u64,
    total: StreamingLatency,
    tenants: Vec<[StreamingLatency; STAGE_COUNT]>,
    nodes: Vec<[StreamingLatency; STAGE_COUNT]>,
}

impl RingRecorder {
    /// A recorder retaining at most `capacity` spans in the ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY)),
            dropped: 0,
            total: StreamingLatency::new(),
            tenants: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Spans recorded overall (including any rotated out of the ring).
    pub fn recorded(&self) -> u64 {
        self.total.count() as u64
    }

    /// Spans that rotated out of the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &QuerySpan> {
        self.ring.iter()
    }

    /// Snapshot the streaming sketches into a [`StageBreakdown`].
    pub fn snapshot(&self) -> StageBreakdown {
        let row = |sketches: &[StreamingLatency; STAGE_COUNT]| -> Vec<LatencySummary> {
            sketches.iter().map(StreamingLatency::summary).collect()
        };
        let mut stages = new_sketch_row();
        for tenant in &self.tenants {
            for (all, one) in stages.iter_mut().zip(tenant) {
                all.merge(one);
            }
        }
        StageBreakdown {
            spans: self.recorded(),
            total: self.total.summary(),
            stages: row(&stages),
            tenants: self.tenants.iter().map(row).collect(),
            nodes: self.nodes.iter().map(row).collect(),
        }
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        RingRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

fn observe_row(row: &mut [StreamingLatency; STAGE_COUNT], span: &QuerySpan) {
    for (sketch, &ns) in row.iter_mut().zip(&span.stages) {
        sketch.observe_ms(ns as f64 / 1e6);
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, span: &QuerySpan) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*span);
        self.total.observe_ms(span.latency_ms());
        if span.tenant >= self.tenants.len() {
            self.tenants.resize_with(span.tenant + 1, new_sketch_row);
        }
        observe_row(&mut self.tenants[span.tenant], span);
        if span.node >= self.nodes.len() {
            self.nodes.resize_with(span.node + 1, new_sketch_row);
        }
        observe_row(&mut self.nodes[span.node], span);
    }

    fn breakdown(&self) -> Option<StageBreakdown> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, tenant: usize, node: usize, wait_ns: u64, service_ns: u64) -> QuerySpan {
        let mut stages = [0u64; STAGE_COUNT];
        stages[Stage::QueueWait.index()] = wait_ns;
        stages[Stage::EngineService.index()] = service_ns;
        QuerySpan {
            query_id: id,
            tenant,
            node,
            arrival_ns: 1_000 * id,
            end_ns: 1_000 * id + wait_ns + service_ns,
            stages,
        }
    }

    #[test]
    fn ring_bounds_retention_but_digests_cover_everything() {
        let mut rec = RingRecorder::new(4);
        for i in 0..10 {
            rec.record(&span(i, 0, 0, 100, 900));
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.spans().count(), 4);
        assert_eq!(rec.spans().next().unwrap().query_id, 6, "oldest kept");
        let snap = rec.snapshot();
        assert_eq!(snap.spans, 10);
        assert_eq!(snap.total.count, 10);
    }

    #[test]
    fn stage_means_decompose_the_total_mean() {
        let mut rec = RingRecorder::new(16);
        for i in 0..8 {
            rec.record(&span(i, i as usize % 2, 0, 50 * i, 1_000));
        }
        let snap = rec.snapshot();
        let stage_mean_sum: f64 = Stage::ALL.iter().map(|&s| snap.stage(s).mean_ms).sum();
        assert!(
            (stage_mean_sum - snap.total.mean_ms).abs() < 1e-12,
            "stage means {stage_mean_sum} vs total {}",
            snap.total.mean_ms
        );
        let share_sum: f64 = Stage::ALL.iter().map(|&s| snap.share_of_mean(s)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0][Stage::EngineService.index()].count, 4);
    }

    #[test]
    fn breakdown_via_sink_trait_matches_snapshot() {
        let mut rec = RingRecorder::default();
        rec.record(&span(1, 0, 0, 10, 20));
        assert_eq!(rec.breakdown().unwrap(), rec.snapshot());
    }
}
