//! The unified serving entry point: one trait every execution layer
//! implements.
//!
//! The repo has three ways to turn a query stream into measurements —
//! the paper's simulated datacenter (`Simulation`), the open-loop
//! single-node server, and the router-fronted cluster, all in
//! `drs-server` and all configurations of its one virtual-time loop.
//! [`ServingStack`] is their common face: *serve this prepared arrival
//! stream, return a [`Report`]*. Every stack returns the same report,
//! so figure/table binaries and the tuner swap backends without
//! touching their measurement code, and a stack can sit behind a
//! `Box<dyn ServingStack>`.

use crate::report::Report;
use drs_query::{Query, Trace};

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
/// [`assert_servable_queries`]).
pub const EMPTY_QUERIES_MSG: &str = "no queries to serve";

/// The stack-wide message for a stream whose `arrival_s` ever
/// decreases (or is NaN) — every serving entry point panics with
/// exactly this text (see [`assert_servable_queries`]). The serving
/// loop reads arrivals off the slice in order, so the slice's order is
/// its arrival order.
pub const UNORDERED_QUERIES_MSG: &str = "queries must be in non-decreasing arrival_s order";

/// The stack-wide message for an empty trace — every replay entry
/// point panics with exactly this text (see [`assert_nonempty_trace`]).
pub const EMPTY_TRACE_MSG: &str = "cannot replay an empty trace";

/// The shared guard behind the [`ServingStack`] panic contract: every
/// public serving API (`Simulation`, `Server`, `Cluster`, virtual or
/// real) calls this so an empty or out-of-order stream fails with one
/// consistent message.
///
/// # Panics
///
/// Panics with [`EMPTY_QUERIES_MSG`] if `queries` is empty, and with
/// [`UNORDERED_QUERIES_MSG`] if an `arrival_s` is NaN or smaller than
/// the one before it.
pub fn assert_servable_queries(queries: &[Query]) {
    assert!(!queries.is_empty(), "{}", EMPTY_QUERIES_MSG);
    let ordered = (queries.iter())
        .try_fold(f64::NEG_INFINITY, |prev, q| {
            (prev <= q.arrival_s).then_some(q.arrival_s)
        })
        .is_some();
    assert!(ordered, "{}", UNORDERED_QUERIES_MSG);
}

/// The replay counterpart of [`assert_servable_queries`].
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
/// `Vec<Query>` goes in, and only the execution layer changes. Every
/// implementor returns the one [`Report`]; the trait is object-safe.
///
/// # Panic contract
///
/// Every serving entry point on every implementor — `serve_queries`,
/// `serve_trace`, and the inherent `serve` of `Server` and `Cluster`
/// on either clock — rejects an empty stream by panicking with
/// [`EMPTY_QUERIES_MSG`] for query slices and [`EMPTY_TRACE_MSG`] for
/// traces, and a query slice whose `arrival_s` decreases (or is NaN)
/// with [`UNORDERED_QUERIES_MSG`], via the shared guards
/// [`assert_servable_queries`] / [`assert_nonempty_trace`]. Either is
/// always a caller bug (a degenerate generator, a truncated trace file,
/// an unsorted merge of streams), never a measurable run.
pub trait ServingStack {
    /// Human-readable backend label for tables and legends (e.g.
    /// `"sim"`, `"server"`, `"cluster[po2c x4]"`).
    fn label(&self) -> String;

    /// Serves a prepared arrival stream and reports measurements.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty or not in non-decreasing
    /// `arrival_s` order (see the trait-level panic contract).
    fn serve_queries(&self, queries: &[Query]) -> Report;

    /// Replays a recorded trace through this stack: its queries, in
    /// order, through [`ServingStack::serve_queries`].
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (see the trait-level panic
    /// contract).
    fn serve_trace(&self, trace: &Trace) -> Report {
        assert_nonempty_trace(trace);
        let queries: Vec<Query> = trace.replay().collect();
        self.serve_queries(&queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::report;
    use crate::report::ReportView;

    /// A stand-in simulator: reports its fixture window, stamped with
    /// the stream it was handed.
    struct FixedStack;

    impl ServingStack for FixedStack {
        fn label(&self) -> String {
            "sim".into()
        }
        fn serve_queries(&self, queries: &[Query]) -> Report {
            assert_servable_queries(queries);
            let mut r = report(2.0, 50);
            r.offered_qps = stream_offered_qps(queries);
            r.latencies_ms = queries.iter().map(|q| f64::from(q.size)).collect();
            r
        }
    }

    #[test]
    fn sim_report_views_itself() {
        let stack: Box<dyn ServingStack> = Box::new(FixedStack);
        let trace = Trace::from_pairs(&[(0.0, 3), (0.5, 7), (1.0, 5)]);
        let r = stack.serve_trace(&trace);
        let queries: Vec<Query> = trace.replay().collect();
        assert_eq!(
            format!("{r:?}"),
            format!("{:?}", stack.serve_queries(&queries)),
            "a replay is its queries served"
        );
        assert_eq!(r.offered_qps, 2.0);
        assert_eq!(r.latencies_ms, [3.0, 7.0, 5.0]);
        assert_eq!(ReportView::completed(&r), r.completed);
        assert_eq!(ReportView::latency(&r).p95_ms, 2.0);
        assert!(r.meets_sla(2.0));
        assert!(!r.meets_sla(1.9));
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
