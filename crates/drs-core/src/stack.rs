//! The unified serving entry point: one trait every execution layer
//! implements.
//!
//! The repo grew three ways to turn a query stream into measurements —
//! the paper's simulated datacenter (`Simulation`), the open-loop
//! single-node server, and the router-fronted cluster, all in
//! `drs-server` and all configurations of its one virtual-time loop —
//! each with its own constructor and its own report shape.
//! [`ServingStack`] is
//! the common face: *serve this prepared arrival stream, return a
//! report*. [`ReportView`] is the common measurement view those
//! reports share (the axes of [`SimReport`]), so figure/table binaries
//! and the tuner can swap backends without touching their measurement
//! code.

use crate::report::{met_sla, SimReport, TenantBreakdown};
use drs_query::{Query, Trace};

/// The measurement axes every serving report exposes — the common
/// denominator of `SimReport` and the server's richer report.
pub trait ReportView {
    /// Offered load (mean arrival rate) in queries per second.
    fn offered_qps(&self) -> f64;
    /// Queries completed inside the measurement window.
    fn completed(&self) -> u64;
    /// Sustained throughput: completed queries / measured span.
    fn qps(&self) -> f64;
    /// End-to-end query latency statistics.
    fn latency(&self) -> &drs_metrics::LatencySummary;
    /// Fraction of candidate items processed on the GPU.
    fn gpu_work_fraction(&self) -> f64;
    /// Mean busy fraction of CPU cores/workers.
    fn cpu_utilization(&self) -> f64;
    /// Mean busy fraction of the GPU(s).
    fn gpu_utilization(&self) -> f64;
    /// Average power draw over the window, watts.
    fn avg_power_w(&self) -> f64;
    /// Power efficiency: sustained QPS per average watt.
    fn qps_per_watt(&self) -> f64;
    /// Duration of the measured window, seconds.
    fn window_s(&self) -> f64;
    /// Per-query latencies in milliseconds (measurement window only).
    fn latencies_ms(&self) -> &[f64];

    /// Per-tenant slices of the window, in tenant order. Empty for
    /// reports that predate multi-tenant serving.
    fn tenant_breakdowns(&self) -> &[TenantBreakdown] {
        &[]
    }

    /// Per-stage latency attribution, when the run recorded spans into
    /// a sink that aggregates them. `None` for untraced runs.
    fn stage_breakdown(&self) -> Option<&drs_telemetry::StageBreakdown> {
        None
    }

    /// Fleet-pulse totals (samples, decisions, DRR grants, peak queue
    /// depth), when the run was metered through a recording pulse.
    /// `None` for unmetered runs.
    fn pulse_summary(&self) -> Option<&drs_telemetry::PulseSummary> {
        None
    }

    /// Whether the window met a p95 SLA target, requiring a minimally
    /// meaningful sample — the contract shared by every report
    /// (see [`crate::met_sla`] and [`crate::MIN_SLA_SAMPLES`]).
    fn sla_met(&self, sla_ms: f64) -> bool {
        met_sla(self.completed(), self.latency().p95_ms, sla_ms)
    }

    /// Projects this report onto the common [`SimReport`] shape
    /// (dropping any backend-specific counters).
    fn to_common(&self) -> SimReport {
        SimReport {
            offered_qps: self.offered_qps(),
            completed: self.completed(),
            qps: self.qps(),
            latency: *self.latency(),
            gpu_work_fraction: self.gpu_work_fraction(),
            cpu_utilization: self.cpu_utilization(),
            gpu_utilization: self.gpu_utilization(),
            avg_power_w: self.avg_power_w(),
            qps_per_watt: self.qps_per_watt(),
            window_s: self.window_s(),
            latencies_ms: self.latencies_ms().to_vec(),
            tenant_breakdowns: self.tenant_breakdowns().to_vec(),
            stage_breakdown: self.stage_breakdown().cloned(),
            pulse: self.pulse_summary().cloned(),
        }
    }
}

impl ReportView for SimReport {
    fn offered_qps(&self) -> f64 {
        self.offered_qps
    }
    fn completed(&self) -> u64 {
        self.completed
    }
    fn qps(&self) -> f64 {
        self.qps
    }
    fn latency(&self) -> &drs_metrics::LatencySummary {
        &self.latency
    }
    fn gpu_work_fraction(&self) -> f64 {
        self.gpu_work_fraction
    }
    fn cpu_utilization(&self) -> f64 {
        self.cpu_utilization
    }
    fn gpu_utilization(&self) -> f64 {
        self.gpu_utilization
    }
    fn avg_power_w(&self) -> f64 {
        self.avg_power_w
    }
    fn qps_per_watt(&self) -> f64 {
        self.qps_per_watt
    }
    fn window_s(&self) -> f64 {
        self.window_s
    }
    fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }
    fn tenant_breakdowns(&self) -> &[TenantBreakdown] {
        &self.tenant_breakdowns
    }
    fn stage_breakdown(&self) -> Option<&drs_telemetry::StageBreakdown> {
        self.stage_breakdown.as_ref()
    }
    fn pulse_summary(&self) -> Option<&drs_telemetry::PulseSummary> {
        self.pulse.as_ref()
    }
    fn to_common(&self) -> SimReport {
        self.clone()
    }
}

/// Mean offered load over a prepared query stream, QPS — the shared
/// definition every [`ServingStack`] reports for pre-collected
/// arrivals.
pub fn stream_offered_qps(queries: &[Query]) -> f64 {
    if queries.len() < 2 {
        return 0.0;
    }
    let span = queries[queries.len() - 1].arrival_s - queries[0].arrival_s;
    if span > 0.0 {
        (queries.len() - 1) as f64 / span
    } else {
        0.0
    }
}

/// The stack-wide message for an empty query stream — every serving
/// entry point panics with exactly this text (see
/// [`assert_nonempty_queries`]).
pub const EMPTY_QUERIES_MSG: &str = "no queries to serve";

/// The stack-wide message for an empty trace — every replay entry
/// point panics with exactly this text (see [`assert_nonempty_trace`]).
pub const EMPTY_TRACE_MSG: &str = "cannot replay an empty trace";

/// The shared guard behind the [`ServingStack`] panic contract: every
/// public serving API (`Simulation`, `Server`, `Cluster`, virtual or
/// real) calls this so an empty stream fails with one consistent
/// message.
///
/// # Panics
///
/// Panics with [`EMPTY_QUERIES_MSG`] if `queries` is empty.
pub fn assert_nonempty_queries(queries: &[Query]) {
    assert!(!queries.is_empty(), "{}", EMPTY_QUERIES_MSG);
}

/// The replay counterpart of [`assert_nonempty_queries`].
///
/// # Panics
///
/// Panics with [`EMPTY_TRACE_MSG`] if `trace` is empty.
pub fn assert_nonempty_trace(trace: &Trace) {
    assert!(!trace.is_empty(), "{}", EMPTY_TRACE_MSG);
}

/// One execution layer that can serve a prepared arrival stream:
/// implemented by the simulator (`drs_server::Simulation`, re-exported
/// as `drs_sim::Simulation`), the open-loop server
/// (`drs_server::Server`), and the router-fronted cluster
/// (`drs_server::Cluster`) — three configurations of one virtual-time
/// serving loop.
///
/// `serve_queries` is deterministic for every implementor (virtual
/// time), so A/B comparisons across backends are paired: the same
/// `Vec<Query>` goes in, and only the execution layer changes.
///
/// # Panic contract
///
/// Every serving entry point on every implementor — `serve_queries`,
/// `serve_trace`, and the real-engine variants (`serve_real`,
/// `serve_real_observed`, …) — rejects an empty stream by panicking with
/// [`EMPTY_QUERIES_MSG`] for query slices and [`EMPTY_TRACE_MSG`] for
/// traces, via the shared guards [`assert_nonempty_queries`] /
/// [`assert_nonempty_trace`]. An empty stream is always a caller bug
/// (a degenerate generator or a truncated trace file), never a
/// measurable run.
pub trait ServingStack {
    /// The report this stack produces; always exposes the common
    /// [`ReportView`] axes, and may carry backend-specific counters.
    type Report: ReportView;

    /// Human-readable backend label for tables and legends (e.g.
    /// `"sim"`, `"server"`, `"cluster[po2c x4]"`).
    fn label(&self) -> String;

    /// Serves a prepared arrival stream and reports measurements.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty (see the trait-level panic
    /// contract).
    fn serve_queries(&self, queries: &[Query]) -> Self::Report;

    /// Replays a recorded trace through this stack.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (see the trait-level panic
    /// contract).
    fn serve_trace(&self, trace: &Trace) -> Self::Report {
        assert_nonempty_trace(trace);
        let queries: Vec<Query> = trace.replay().collect();
        self.serve_queries(&queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_metrics::LatencySummary;

    fn report() -> SimReport {
        SimReport {
            offered_qps: 100.0,
            completed: 50,
            qps: 99.0,
            latency: LatencySummary {
                count: 50,
                mean_ms: 1.0,
                p50_ms: 1.0,
                p75_ms: 1.5,
                p95_ms: 2.0,
                p99_ms: 3.0,
                max_ms: 4.0,
                min_ms: 0.5,
            },
            gpu_work_fraction: 0.25,
            cpu_utilization: 0.5,
            gpu_utilization: 0.1,
            avg_power_w: 120.0,
            qps_per_watt: 0.825,
            window_s: 0.5,
            latencies_ms: vec![1.0, 2.0],
            tenant_breakdowns: Vec::new(),
            stage_breakdown: None,
            pulse: None,
        }
    }

    #[test]
    fn sim_report_views_itself() {
        let r = report();
        assert_eq!(r.qps(), r.qps);
        assert_eq!(r.latency().p95_ms, 2.0);
        assert!(r.sla_met(2.0));
        assert!(!r.sla_met(1.9));
        let c = r.to_common();
        assert_eq!(format!("{c:?}"), format!("{r:?}"));
    }

    #[test]
    fn stream_rate_is_span_based() {
        let qs: Vec<Query> = (0..11)
            .map(|i| Query {
                id: i,
                size: 1,
                arrival_s: i as f64 * 0.1,
                tenant: drs_query::TenantId::SOLO,
            })
            .collect();
        assert!((stream_offered_qps(&qs) - 10.0).abs() < 1e-9);
        assert_eq!(stream_offered_qps(&qs[..1]), 0.0);
    }
}
