//! The real path: open-loop streams paced by the wall clock through
//! `Server::serve_real*` onto one physical worker thread.
//!
//! One node, CPU only, `SchedulerPolicy::cpu_only(64)`, standard
//! batching, `time_scale = 1`, **one worker**: submitter thread plus one
//! worker are the two threads the sandbox has cores for. The server times
//! every query from its *scheduled* arrival, so a stalled submitter counts
//! as queueing.

use crate::oracle;
use crate::spec::{Scale, Tenant, Workload};
use crate::stats::{quantile, summarize, Sample};
use crate::stream::{mix, open_loop};
use drs_core::{MultiModelSpec, SchedulerPolicy, TenantSpec};
use drs_models::RecModel;
use drs_platform::CpuPlatform;
use drs_query::Query;
use drs_server::{Server, ServerOptions, ServerReport};
use drs_telemetry::{NoopSink, RingRecorder, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The serving policy's batch size: queries above it are split, residuals
/// below it coalesce.
pub(crate) const MAX_BATCH: u32 = 64;
/// Repetitions of every phase; a phase's spread is taken over them.
pub(crate) const WINDOWS: usize = 3;
/// The saturation phase offers this many times what one worker sustains;
/// the engine's bounded queue turns that into a closed loop.
const SAT_OVERDRIVE: f64 = 20.0;

/// The offered-load levels of the real path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Lo,
    Hi,
    Sat,
}

impl Phase {
    fn rate(self, w: &Workload) -> impl Fn(&Tenant) -> f64 {
        let total_hi: f64 = w.tenants.iter().map(|t| t.hi_qps).sum();
        let sat_scale = SAT_OVERDRIVE * w.capacity_qps / total_hi;
        move |t: &Tenant| match self {
            Phase::Lo => t.lo_qps,
            Phase::Hi => t.hi_qps,
            Phase::Sat => t.hi_qps * sat_scale,
        }
    }

    /// Queries in a window meant to last `window_s` seconds.
    fn queries(self, w: &Workload, window_s: f64) -> usize {
        let qps = match self {
            Phase::Sat => w.capacity_qps,
            _ => w.tenants.iter().map(self.rate(w)).sum(),
        };
        ((qps * window_s).round() as usize).max(20)
    }

    fn salt(self) -> u64 {
        match self {
            Phase::Lo => 0x10,
            Phase::Hi => 0x20,
            Phase::Sat => 0x30,
        }
    }
}

/// The models and the server of one workload.
pub(crate) struct Stack {
    pub workload: Workload,
    pub models: Vec<Arc<RecModel>>,
    pub server: Server,
}

impl Stack {
    /// Instantiates the models, checks them against the goldens and
    /// through the engine, and builds the server.
    pub fn build(workload: &Workload, scale: Scale) -> Result<Stack, String> {
        let models: Vec<Arc<RecModel>> = workload
            .tenants
            .iter()
            .map(|t| oracle::instantiate(&t.model, scale.model))
            .collect();
        for m in &models {
            oracle::check(m, !scale.smoke)?;
        }
        let policy = SchedulerPolicy::cpu_only(MAX_BATCH);
        let mut opts = ServerOptions::new(1, policy);
        // The benchmark discards its own warm-up window instead.
        opts.warmup_frac = 0.0;
        let server = match workload.tenants.as_slice() {
            [one] => Server::new(&one.model, CpuPlatform::skylake(), None, opts),
            many => Server::new_multi(
                &MultiModelSpec::new(
                    many.iter()
                        .map(|t| TenantSpec::new(t.model.clone(), policy))
                        .collect(),
                ),
                CpuPlatform::skylake(),
                None,
                opts,
            ),
        };
        Ok(Stack {
            workload: workload.clone(),
            models,
            server,
        })
    }

    /// The stream of window `index` of `phase`, about `window_s` long.
    pub fn stream(&self, phase: Phase, window_s: f64, seed: u64, index: usize) -> Vec<Query> {
        let w = &self.workload;
        open_loop(
            &w.tenants,
            phase.rate(w),
            phase.queries(w, window_s),
            mix(seed, phase.salt() + index as u64),
        )
    }

    /// Serves one window. A panic inside the server fails every query of
    /// the window instead of ending the run without a result.
    pub fn serve<S: TraceSink>(&self, queries: &[Query], sink: &mut S) -> Window {
        let report = catch_unwind(AssertUnwindSafe(|| {
            self.server
                .serve_real_multi_traced(self.models.clone(), queries, sink)
        }))
        .ok();
        Window::new(queries, report)
    }

    pub fn serve_untraced(&self, queries: &[Query]) -> Window {
        self.serve(queries, &mut NoopSink)
    }

    pub fn serve_traced(&self, queries: &[Query]) -> (Window, RingRecorder) {
        let mut ring = RingRecorder::new(queries.len());
        let window = self.serve(queries, &mut ring);
        (window, ring)
    }
}

/// One served window.
pub(crate) struct Window {
    pub attempted: u64,
    /// Queries that completed with a finite latency.
    pub ok: u64,
    /// Scheduled span of the stream: first to last arrival, seconds.
    pub scheduled_s: f64,
    /// `None` when the server panicked.
    pub report: Option<ServerReport>,
}

impl Window {
    fn new(queries: &[Query], report: Option<ServerReport>) -> Window {
        let ok = report.as_ref().map_or(0, |r| {
            r.latencies_ms.iter().filter(|l| l.is_finite()).count() as u64
        });
        Window {
            attempted: queries.len() as u64,
            ok,
            scheduled_s: queries.last().map_or(0.0, |q| q.arrival_s) - queries[0].arrival_s,
            report,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok.min(self.attempted)
    }

    fn latencies(&self) -> &[f64] {
        self.report
            .as_ref()
            .map_or(&[], |r| r.latencies_ms.as_slice())
    }

    /// Completed queries per second of the measured window.
    pub fn qps(&self) -> f64 {
        self.report.as_ref().map_or(0.0, |r| r.qps)
    }

    /// A field of the report, or 0 for a window that panicked.
    pub fn counter(&self, f: impl Fn(&ServerReport) -> f64) -> f64 {
        self.report.as_ref().map_or(0.0, f)
    }
}

/// The windows of one phase.
pub(crate) struct PhaseResult {
    pub windows: Vec<Window>,
}

impl PhaseResult {
    pub fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.windows.iter().map(Window::failed).sum()
    }

    /// Median over windows of each window's latency quantile `q`. A
    /// window the host disturbed (the sandbox shares its cores) then moves
    /// the phase's value no further than the next window's; pooling the
    /// windows would let it set the tail.
    pub fn latency(&self, q: f64) -> Sample {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| {
                let finite: Vec<f64> = w
                    .latencies()
                    .iter()
                    .copied()
                    .filter(|l| l.is_finite())
                    .collect();
                if finite.is_empty() {
                    f64::INFINITY
                } else {
                    quantile(&finite, q)
                }
            })
            .collect();
        summarize(&per_window)
    }

    /// Median over windows of completed queries per second.
    pub fn qps(&self) -> Sample {
        summarize(&self.windows.iter().map(Window::qps).collect::<Vec<_>>())
    }
}

/// `VmHWM` of this process, MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
