//! The serving request: the clock a run is served on and where its
//! observations go — everything [`crate::Cluster::serve`] takes besides
//! the queries.

use drs_models::RecModel;
use drs_telemetry::{MetricsSink, NoopMetrics, NoopSink, TraceSink};
use std::sync::Arc;

/// The clock a run is served on.
pub(crate) enum Clock {
    /// Deterministic virtual time ([`Serve::virtual_time`]).
    Virtual,
    /// The wall clock, `models[t]` serving tenant `t` ([`Serve::real`]).
    Real(Vec<Arc<RecModel>>),
}

/// One serving request: the clock a run is served on plus the trace
/// sink and the pulse it records into.
///
/// Start from [`Serve::virtual_time`] or [`Serve::real`], then add
/// [`Serve::traced`] and/or [`Serve::pulsed`]. Both sinks default to
/// no-ops ([`NoopSink`], [`NoopMetrics`]), whose recording sites
/// compile away. Pass a recorder as `&mut recorder` to read it after
/// the run.
///
/// # Examples
///
/// ```
/// use drs_core::SchedulerPolicy;
/// use drs_models::zoo;
/// use drs_platform::CpuPlatform;
/// use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
/// use drs_server::{Serve, Server, ServerOptions};
/// use drs_telemetry::{PulseRecorder, RingRecorder};
///
/// let queries: Vec<_> = QueryGenerator::new(
///     ArrivalProcess::poisson(500.0),
///     SizeDistribution::production(),
///     7,
/// )
/// .take(400)
/// .collect();
/// let server = Server::new(
///     &zoo::dlrm_rmc1(),
///     CpuPlatform::skylake(),
///     None,
///     ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
/// );
/// let (mut spans, mut pulse) = (RingRecorder::new(1024), PulseRecorder::new(1_000_000));
/// let how = Serve::virtual_time().traced(&mut spans).pulsed(&mut pulse);
/// let report = server.serve(&queries, how);
/// assert!(report.stage_breakdown.is_some() && report.pulse.is_some());
/// assert_eq!(spans.recorded(), report.completed);
/// ```
pub struct Serve<S: TraceSink = NoopSink, M: MetricsSink = NoopMetrics> {
    pub(crate) clock: Clock,
    pub(crate) sink: S,
    pub(crate) pulse: M,
}

impl Serve {
    /// Serve in deterministic virtual time: CPU and GPU service times
    /// come from [`drs_platform::ModelCost`], so runs are
    /// byte-reproducible per seed.
    pub fn virtual_time() -> Self {
        Self::on(Clock::Virtual)
    }

    /// Serve on the wall clock: arrivals are paced by real time
    /// (compressed by `ServerOptions::time_scale`) and CPU batches run
    /// as physical forward passes on each node's
    /// [`drs_engine::InferenceEngine`] pool, `models[t]` serving tenant
    /// `t`. GPU offloads and shard exchanges stay on the cost model's
    /// clock.
    pub fn real(models: Vec<Arc<RecModel>>) -> Self {
        Self::on(Clock::Real(models))
    }

    fn on(clock: Clock) -> Self {
        Serve {
            clock,
            sink: NoopSink,
            pulse: NoopMetrics,
        }
    }
}

impl<S: TraceSink, M: MetricsSink> Serve<S, M> {
    /// Records every measured query's per-stage span into `sink`; with
    /// a sink that keeps a [`drs_telemetry::StageBreakdown`], the report
    /// carries it.
    pub fn traced<T: TraceSink>(self, sink: T) -> Serve<T, M> {
        Serve {
            clock: self.clock,
            sink,
            pulse: self.pulse,
        }
    }

    /// Samples fleet-pulse gauges into `pulse` at its interval and logs
    /// controller retunes and DRR grants; with a pulse that keeps a
    /// [`drs_telemetry::PulseSummary`], the report carries it.
    pub fn pulsed<P: MetricsSink>(self, pulse: P) -> Serve<S, P> {
        Serve {
            clock: self.clock,
            sink: self.sink,
            pulse,
        }
    }
}
