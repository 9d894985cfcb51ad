//! Query-lifecycle tracing for the DeepRecSys reproduction.
//!
//! Every serving layer in this workspace — the discrete-event
//! simulator (`drs-sim`), the single-node server and cluster
//! (`drs-server`), and the physical engine's open-loop harness
//! (`drs-engine`) — answers the same question badly without help:
//! *where* did a query's latency go? This crate makes that attribution
//! first-class:
//!
//! * [`Stage`]/[`QuerySpan`] — a fixed per-query stage schema
//!   (arrival → route → queue-wait → coalesce-wait → batch-residency →
//!   engine-service → shard-exchange → dense-tail → completion) whose
//!   stage durations sum to the end-to-end latency *exactly*, in
//!   integer nanoseconds;
//! * [`TraceSink`] — the recording trait serving loops are generic
//!   over. The [`NoopSink`] implementation carries
//!   `ENABLED == false`, so untraced runs monomorphize every recording
//!   site away and pay nothing measurable;
//! * [`RingRecorder`] — an in-memory sink: a bounded span ring plus
//!   per-stage / per-tenant / per-node streaming quantiles
//!   ([`drs_metrics::StreamingLatency`], constant memory) snapshotted
//!   into a [`StageBreakdown`] of [`drs_metrics::LatencySummary`] cells
//!   for reports;
//! * [`to_chrome_trace`]/[`parse_chrome_trace`] — export spans as
//!   Chrome `trace_event` JSON (`chrome://tracing`, Perfetto) and
//!   re-parse the export, so the format is pinned by code in this
//!   repo;
//! * [`MetricsSink`]/[`PulseRecorder`] — the fleet-pulse twin of the
//!   span layer: virtual-clock-sampled time-series metrics
//!   ([`drs_metrics::MetricsRegistry`]) plus the structured controller
//!   decision log ([`ControlDecision`]) and DRR grant log
//!   ([`DrrRound`]), behind the same `const ENABLED` zero-overhead
//!   contract ([`NoopMetrics`]).
//!
//! Because the real runtimes book virtual-clock decisions at due
//! times (bit-exact against virtual time on the offload path), the
//! same schema records in both runtimes and span timelines themselves
//! become a cross-validation axis.

#![warn(missing_docs)]

mod chrome;
mod pulse;
mod ring;
mod sink;
mod span;

pub use chrome::{parse_chrome_trace, to_chrome_trace, ChromeEvent};
pub use pulse::{
    ControlDecision, DrrRound, MetricsSink, NoopMetrics, PulseRecorder, PulseSummary, RetuneTrigger,
};
pub use ring::{RingRecorder, StageBreakdown, DEFAULT_RING_CAPACITY};
pub use sink::{NoopSink, TraceSink};
pub use span::{QuerySpan, Stage, STAGE_COUNT};
