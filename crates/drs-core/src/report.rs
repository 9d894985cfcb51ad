//! Serving output: the one report every serving run returns, from
//! every stack, on either clock.

use crate::SchedulerPolicy;
use drs_metrics::LatencySummary;
use drs_query::TenantId;
use drs_telemetry::{PulseSummary, StageBreakdown};

/// Minimum completions before an SLA verdict is trusted: below this the
/// p95 of a window is sampling noise, so `met_sla` refuses to pass it.
/// One definition shared by the report, its tenant slices and the
/// tuner, so the floor cannot drift between call sites.
pub const MIN_SLA_SAMPLES: u64 = 20;

/// The one SLA check every layer uses: a window meets a p95 target iff
/// it completed a minimally meaningful sample *and* its p95 is inside
/// the target. [`Report::meets_sla`] and [`TenantBreakdown::met_sla`]
/// both delegate here.
pub fn met_sla(completed: u64, p95_ms: f64, sla_ms: f64) -> bool {
    completed >= MIN_SLA_SAMPLES && p95_ms <= sla_ms
}

/// One tenant's slice of a serving report: its completions, sustained
/// throughput, latency distribution, and the SLA tier it is judged
/// against. Single-tenant runs report exactly one breakdown.
#[derive(Debug, Clone)]
pub struct TenantBreakdown {
    /// Which tenant this slice describes.
    pub tenant: TenantId,
    /// The tenant's queries completed inside the measurement window.
    pub completed: u64,
    /// The tenant's sustained throughput over the shared window, QPS.
    pub qps: f64,
    /// The tenant's end-to-end latency statistics.
    pub latency: LatencySummary,
    /// The p95 SLA tier this tenant is served under, milliseconds.
    pub sla_ms: f64,
}

impl TenantBreakdown {
    /// Whether this tenant met its own SLA tier (the shared
    /// [`met_sla`] contract).
    pub fn met_sla(&self) -> bool {
        met_sla(self.completed, self.latency.p95_ms, self.sla_ms)
    }

    /// The tenant's SLA-bounded throughput: its sustained QPS when it
    /// met its tier, zero otherwise — the summand of the co-location
    /// headline metric (aggregate SLA-bounded QPS).
    pub fn sla_bounded_qps(&self) -> f64 {
        if self.met_sla() {
            self.qps
        } else {
            0.0
        }
    }
}

/// Results of one serving run: what `Simulation`, `Server` and
/// `Cluster` return, in virtual time or on the wall clock.
///
/// The paper's axes (throughput, tail latency, GPU work share,
/// utilization, power) come first; the serving-layer counters follow:
/// batching behaviour, backpressure, the online controller's
/// trajectory, routing and shard exchange. A run without a controller,
/// a router or a shard plan reports them at their idle values.
#[derive(Debug, Clone)]
pub struct Report {
    /// Offered load (mean arrival rate over the stream), QPS.
    pub offered_qps: f64,
    /// Queries completed inside the measurement window (post-warm-up).
    pub completed: u64,
    /// Sustained throughput: completed queries / measured span.
    pub qps: f64,
    /// End-to-end query latency statistics (queueing + batching delay +
    /// service).
    pub latency: LatencySummary,
    /// Latency statistics restricted to queries completed after the
    /// online controller settled (equals `latency` when no controller
    /// ran; empty when the controller never settled).
    pub settled_latency: LatencySummary,
    /// Fraction of candidate items processed on the GPU ("percent of
    /// work processed by the GPU", Figure 14a). Zero without a GPU.
    pub gpu_work_fraction: f64,
    /// Mean busy fraction of the CPU worker pool.
    pub cpu_utilization: f64,
    /// Mean busy fraction of the GPU.
    pub gpu_utilization: f64,
    /// Average node power draw over the window, watts.
    pub avg_power_w: f64,
    /// Power efficiency: sustained QPS per average watt.
    pub qps_per_watt: f64,
    /// Duration of the measured window, seconds (virtual or scaled
    /// wall time depending on the serving mode).
    pub window_s: f64,
    /// CPU batches dispatched.
    pub batches: u64,
    /// Batches dispatched exactly at the batch-size knob.
    pub full_batches: u64,
    /// Batches that coalesced residuals from two or more queries.
    pub coalesced_batches: u64,
    /// Coalesce buffers flushed by timeout rather than by filling.
    pub timeout_flushes: u64,
    /// Mean items per dispatched batch.
    pub mean_batch_items: f64,
    /// Batches that met a dispatch queue already at its bound — each
    /// counted once, at the moment it was first held back (virtual
    /// mode: enqueued beyond the bound; real mode: first refusal by
    /// the engine's bounded queue).
    pub backpressure_stalls: u64,
    /// Deepest the dispatch queue ever got.
    pub max_queue_depth: usize,
    /// The policy in force when the run ended.
    pub final_policy: SchedulerPolicy,
    /// Times the online controller restarted its climb after a load
    /// shift (zero without a controller).
    pub retunes: u64,
    /// The controller's batch-phase observations: `(rung, window p95)`.
    /// On a cluster this is node 0's trajectory (every node climbs the
    /// same ladders).
    pub batch_trajectory: Vec<(u32, f64)>,
    /// The controller's threshold-phase observations.
    pub threshold_trajectory: Vec<(u32, f64)>,
    /// Queries the front-end router dispatched to each node, in
    /// `NodeId` order (a single server reports one entry). On a
    /// sharded cluster this counts merge homes; every query
    /// additionally fans partials to all shard nodes.
    pub node_queries: Vec<u64>,
    /// Measured queries that paid a cross-node shard exchange — zero
    /// when the model serves whole *or* the plan landed on a single
    /// node (no remote peers, nothing crosses the fabric).
    pub exchanged_queries: u64,
    /// Mean cross-node exchange delay per exchanged query,
    /// milliseconds: fabric round-trip + per-peer merges + payload
    /// wire time. The home's local dense tail is excluded — this is
    /// purely the scale-out price of the shard plan's geometry.
    /// Completion-weighted over every exchanged query (a single global
    /// accumulator), never an average of per-node means.
    pub mean_exchange_ms: f64,
    /// Per-tenant slices of the window, in tenant order (single-tenant
    /// runs carry one entry).
    pub tenant_breakdowns: Vec<TenantBreakdown>,
    /// The policy each tenant's lane held when the run ended, in
    /// tenant order (node 0's lanes on a cluster).
    pub tenant_final_policies: Vec<SchedulerPolicy>,
    /// Per-query latencies in milliseconds (measurement window only),
    /// in completion order.
    pub latencies_ms: Vec<f64>,
    /// Per-stage latency attribution from the run's trace sink —
    /// `Some` only when the run recorded into a sink that keeps one
    /// (an untraced run traces through a no-op sink, which has nothing
    /// to report).
    pub stage_breakdown: Option<StageBreakdown>,
    /// Fleet-pulse totals from the run's metrics sink — `Some` only
    /// when the run recorded into a pulse that keeps them.
    pub pulse: Option<PulseSummary>,
    /// Every query's predicted CTRs as `(query id, ctrs)`, in
    /// completion order — filled by the sharded real path (the hook
    /// that pins the distributed forward against the local one), empty
    /// on every other run.
    pub ctrs: Vec<(u64, Vec<f32>)>,
}

impl Report {
    /// Whether the window met a p95 SLA target, requiring a minimally
    /// meaningful sample (the shared [`met_sla`] contract).
    pub fn meets_sla(&self, sla_ms: f64) -> bool {
        met_sla(self.completed, self.latency.p95_ms, sla_ms)
    }
}

/// Two of [`Report`]'s fields as methods. It exists for the standalone
/// `benchmark/` package (`benchmark/src/fleet.rs` reads a served report
/// through it) until that package is retargeted onto the fields
/// (ROADMAP item 1(a)); nothing in the workspace calls it.
pub trait ReportView {
    /// [`Report::completed`].
    fn completed(&self) -> u64;
    /// [`Report::latency`].
    fn latency(&self) -> &LatencySummary;
}

impl ReportView for Report {
    fn completed(&self) -> u64 {
        self.completed
    }
    fn latency(&self) -> &LatencySummary {
        &self.latency
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A finished-run report with the given p95 and completion count.
    pub(crate) fn report(p95: f64, completed: u64) -> Report {
        Report {
            offered_qps: 100.0,
            completed,
            qps: 99.0,
            latency: LatencySummary {
                count: completed as usize,
                mean_ms: p95 / 2.0,
                p50_ms: p95 / 2.0,
                p95_ms: p95,
                p99_ms: p95 * 1.2,
                max_ms: p95 * 2.0,
                min_ms: 0.1,
            },
            settled_latency: LatencySummary::default(),
            gpu_work_fraction: 0.0,
            cpu_utilization: 0.5,
            gpu_utilization: 0.0,
            avg_power_w: 100.0,
            qps_per_watt: 0.99,
            window_s: 10.0,
            batches: 100,
            full_batches: 50,
            coalesced_batches: 10,
            timeout_flushes: 5,
            mean_batch_items: 32.0,
            backpressure_stalls: 0,
            max_queue_depth: 3,
            final_policy: SchedulerPolicy::cpu_only(64),
            retunes: 0,
            batch_trajectory: Vec::new(),
            threshold_trajectory: Vec::new(),
            node_queries: vec![completed],
            exchanged_queries: 0,
            mean_exchange_ms: 0.0,
            tenant_breakdowns: Vec::new(),
            tenant_final_policies: Vec::new(),
            latencies_ms: Vec::new(),
            stage_breakdown: None,
            pulse: None,
            ctrs: Vec::new(),
        }
    }

    #[test]
    fn sla_check() {
        assert!(report(80.0, 1000).meets_sla(100.0));
        assert!(!report(120.0, 1000).meets_sla(100.0));
        assert!(
            report(80.0, 1000).meets_sla(80.0),
            "the target is inclusive"
        );
        assert!(
            !report(1.0, 5).meets_sla(100.0),
            "tiny samples are not trustworthy"
        );
    }

    #[test]
    fn sla_check_matches_sim_contract() {
        // The served window is judged by the shared `met_sla` the tuner
        // judges simulated windows by, on both sides of each threshold.
        let mut r = report(80.0, 1000);
        assert!(r.meets_sla(100.0));
        assert!(!r.meets_sla(50.0));
        r.completed = 5;
        assert!(!r.meets_sla(100.0), "tiny samples are not trustworthy");
        for completed in [MIN_SLA_SAMPLES - 1, MIN_SLA_SAMPLES] {
            r.completed = completed;
            for sla_ms in [79.9, 80.0, 80.1] {
                assert_eq!(r.meets_sla(sla_ms), met_sla(completed, 80.0, sla_ms));
            }
        }
    }

    #[test]
    fn shared_floor_is_the_named_constant() {
        assert!(met_sla(MIN_SLA_SAMPLES, 50.0, 100.0));
        assert!(!met_sla(MIN_SLA_SAMPLES - 1, 50.0, 100.0));
        assert!(!met_sla(MIN_SLA_SAMPLES, 150.0, 100.0));
    }

    #[test]
    fn tenant_breakdown_judged_against_its_own_tier() {
        let r = report(80.0, 1000);
        let mut b = TenantBreakdown {
            tenant: TenantId(1),
            completed: 500,
            qps: 50.0,
            latency: r.latency,
            sla_ms: 100.0,
        };
        assert!(b.met_sla());
        assert_eq!(b.sla_bounded_qps(), 50.0);
        b.sla_ms = 60.0;
        assert!(!b.met_sla(), "p95 80 ms misses a 60 ms tier");
        assert_eq!(b.sla_bounded_qps(), 0.0);
        b.sla_ms = 100.0;
        b.completed = 5;
        assert!(!b.met_sla(), "tiny tenant samples are not trustworthy");
    }
}
