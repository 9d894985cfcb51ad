//! Discrete-event simulator for at-scale recommendation inference.
//!
//! The paper evaluates DeepRecSched on clusters of production machines;
//! [`Simulation`] is our substitute datacenter (DESIGN.md §2): a
//! deterministic, virtual-time simulation of one or more
//! `drs_platform::CpuPlatform` machines (optionally with an attached
//! GPU), fed by a `drs_query::QueryGenerator` and scheduled by a
//! [`SchedulerPolicy`].
//!
//! This crate holds no code: `Simulation` lives in `drs-server`, as a
//! configuration of the one virtual-time loop that also runs `Server`
//! and `Cluster` (see `drs_server::Simulation`'s module docs), and is
//! re-exported here for the callers that name `drs_sim::Simulation`.
//! What stays here is the fence: `tests/golden/sim_bits.txt`, dumped
//! from this crate's own event loop one commit before it was deleted.
//!
//! The model follows the serving pipeline of Figure 8:
//!
//! 1. A query arrives (Poisson arrivals, production size distribution)
//!    and is dispatched to the least-loaded machine.
//! 2. If the machine has a GPU and the query exceeds the policy's
//!    *query-size threshold*, the whole query joins the GPU queue
//!    (served FIFO, one query at a time).
//! 3. Otherwise the query is split into `⌈size/batch⌉` balanced CPU
//!    requests that queue for worker cores; service times come from
//!    `drs_platform::ModelCost` and depend on the batch size and on
//!    how many cores are concurrently active (cache/bandwidth
//!    contention).
//! 4. The query completes when its last request completes (fork–join);
//!    end-to-end latency includes queueing.
//!
//! Power is integrated event-by-event from per-device utilization, so
//! every run reports QPS, tail latency, GPU work share, and QPS/Watt —
//! the axes of Figures 9–14.
//!
//! # Examples
//!
//! ```
//! use drs_core::ClusterConfig;
//! use drs_models::zoo;
//! use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
//! use drs_sim::{RunOptions, SchedulerPolicy, Simulation};
//!
//! let sim = Simulation::new(
//!     &zoo::dlrm_rmc1(),
//!     ClusterConfig::single_skylake(),
//!     SchedulerPolicy::cpu_only(64),
//! );
//! let mut gen = QueryGenerator::new(
//!     ArrivalProcess::poisson(200.0),
//!     SizeDistribution::production(),
//!     7,
//! );
//! let report = sim.run(&mut gen, RunOptions::queries(500));
//! assert!(report.completed > 0);
//! assert!(report.latency.p95_ms > 0.0);
//! ```

// The scheduling/report/event vocabulary lives in `drs-core` so the
// offline tuner and the open-loop server (`drs-server`) share it;
// re-exported here so existing `drs_sim::` paths keep working.
// (`ClusterConfig` also lives there — its deprecated re-export here
// was removed once every in-repo caller migrated to
// `drs_core::ClusterConfig`.)
pub use drs_core::{EventQueue, Report, SchedulerPolicy, SimTime, NS_PER_SEC};
pub use drs_server::{RunOptions, Simulation};
