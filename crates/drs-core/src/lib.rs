//! Shared serving vocabulary for the DeepRecSys reproduction.
//!
//! Three layers consume the same handful of types: the serving
//! runtime (`drs-server`: the simulated datacenter `Simulation`, the
//! open-loop `Server`, the router-fronted `Cluster`), the offline tuner
//! (`drs-sched`), and the figure binaries over both. This crate is the bottom of that dependency fan — it owns
//!
//! * [`SchedulerPolicy`] — the two knobs every scheduler tunes
//!   (per-request batch size, GPU query-size threshold),
//! * [`ClusterConfig`]/[`ClusterTopology`]/[`NodeId`] — the hardware
//!   description of a fleet, homogeneous or per-node,
//! * [`RoutingPolicy`] — how a front-end router spreads arrivals
//!   across nodes,
//! * [`MultiModelSpec`]/[`TenantSpec`]/[`TenantId`] — the multi-tenant
//!   vocabulary: which co-located services share an engine pool, each
//!   with its own model, SLA tier, and fair-share weight,
//! * [`Report`] — the one measurement shape every serving run returns
//!   and every experiment consumes, with per-tenant slices in
//!   [`TenantBreakdown`],
//! * [`ServingStack`] — the unified *serve this stream, return a
//!   [`Report`]* entry point all three layers implement,
//! * [`EventQueue`] — the deterministic virtual-time timer queue,
//! * [`LadderClimb`] — the incremental hill-climb stepper whose
//!   accept/tie/patience rules are shared by the offline tuner and the
//!   online controller,
//!
//! so that every layer schedules and reports in one vocabulary.

mod climb;
mod cluster;
mod event;
mod policy;
mod report;
mod stack;
mod tenant;

pub use climb::{canonical_batch_ladder, canonical_threshold_ladder, ClimbStep, LadderClimb};
pub use cluster::{
    ClusterConfig, ClusterTopology, NodeId, NodeSpec, RoutingPolicy, DEFAULT_NODE_MEM_BYTES,
};
pub use event::{secs_to_ns, us_to_ns, EventQueue, SimTime, NS_PER_SEC};
pub use policy::SchedulerPolicy;
pub use report::{met_sla, Report, ReportView, TenantBreakdown, MIN_SLA_SAMPLES};
pub use stack::{
    assert_nonempty_trace, assert_servable_queries, stream_offered_qps, ServingStack,
    EMPTY_QUERIES_MSG, EMPTY_TRACE_MSG, UNORDERED_QUERIES_MSG,
};
pub use tenant::{MultiModelSpec, TenantId, TenantSpec};
