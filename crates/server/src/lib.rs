//! `drs-server` — an open-loop serving runtime for recommendation
//! inference.
//!
//! This crate is the execution layer of DeepRecSys (Sections IV–VI),
//! live and simulated: queries arrive under a Poisson/diurnal process
//! and flow through
//!
//! 1. a **dynamic batching queue** ([`BatchQueue`]) — queries are
//!    split per the policy's `max_batch`, and sub-batch residuals are
//!    coalesced across queries until a batch fills or a configurable
//!    timeout expires;
//! 2. a **GPU offload executor** ([`GpuExecutor`]) — queries above the
//!    policy's size threshold bypass the CPU queue and are scheduled
//!    FIFO on a virtual-time device priced by
//!    [`drs_platform::ModelCost`] — on every stack, real path
//!    included, which is what makes real-vs-virtual cross-validation
//!    exact for offloaded work;
//! 3. a **CPU worker pool** — real forward passes on
//!    [`drs_engine::InferenceEngine`] with a bounded request queue, so
//!    overload surfaces as backpressure at the dispatcher rather than
//!    unbounded buffering;
//! 4. an **online controller** ([`OnlineController`]) — samples the
//!    live p95 tail over sliding windows and re-runs the offline
//!    tuner's hill-climb rules ([`drs_core::LadderClimb`]) at runtime,
//!    retuning `max_batch`/`gpu_threshold` when load shifts (the
//!    paper's diurnal production scenario, Figure 13).
//!
//! One entry point, [`Cluster::serve`], runs the scheduling brain on
//! either clock: its [`Serve`] request picks [`Serve::virtual_time`]
//! (deterministic, byte-reproducible reports, CI-speed) or
//! [`Serve::real`] (the same stream paced onto physical worker
//! threads), plus a trace sink and a fleet pulse to record into, both
//! in one run. Both clocks run one serving loop (`driver.rs`), generic
//! over a crate-private clock: route, batch, coalesce flush, DRR grant,
//! retune re-batch, credit, settle and pulse tick each exist once. The
//! virtual clock pops an event queue and prices CPU batches with
//! [`drs_platform::ModelCost`]; the wall clock (`real.rs`) paces
//! arrivals, blocks on its engines' completions and hands events out
//! in the same order, so CPU-path batch formation and every
//! offload-all run match virtual time by construction.
//! `Cluster::serve` is the only front over it: a [`Server`] is a
//! one-node [`Cluster`], and sharded serving is a work type on the
//! same loop.
//!
//! The paper's evaluation rig is the same loop again, in virtual time:
//! [`Simulation`] serves with coalescing off (balanced
//! [`drs_query::split_query`] parts dispatching on arrival), no queue
//! bound, no controller, every core a worker, and a least-loaded
//! router whose gauge counts outstanding requests. It has no event
//! loop of its own; `crates/sim/tests/golden/sim_bits.txt` pins its
//! bits to the discrete-event simulator it replaced.
//!
//! The per-node brain is instantiable N times: a [`Cluster`] puts a
//! front-end [`Router`] over any [`drs_core::ClusterTopology`],
//! dispatching the arrival stream under a
//! [`drs_core::RoutingPolicy`] (round-robin, least-outstanding,
//! power-of-two-choices, size-aware) with per-node outstanding-work
//! gauges. [`Simulation`], [`Server`], and [`Cluster`] all implement
//! [`drs_core::ServingStack`], so experiments select their execution
//! layer through one entry point. Every run, virtual or real, returns
//! the one [`drs_core::Report`], cut from a finished run in one place
//! (`node.rs`'s `assemble_report`).
//!
//! # Examples
//!
//! ```
//! use drs_core::SchedulerPolicy;
//! use drs_models::zoo;
//! use drs_platform::CpuPlatform;
//! use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
//! use drs_server::{ControllerConfig, Serve, Server, ServerOptions};
//!
//! let queries: Vec<_> = QueryGenerator::new(
//!     ArrivalProcess::poisson(800.0),
//!     SizeDistribution::production(),
//!     42,
//! )
//! .take(600)
//! .collect();
//! // The controller pilots its climb from the paper's unit batch.
//! let opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(1))
//!     .with_controller(ControllerConfig::smoke());
//! let server = Server::new(&zoo::dlrm_rmc1(), CpuPlatform::skylake(), None, opts);
//! let report = server.serve(&queries, Serve::virtual_time());
//! assert!(report.completed > 0);
//! assert!(report.final_policy.max_batch >= 1);
//! ```

mod batcher;
mod cluster;
mod controller;
mod driver;
mod gpu;
mod node;
mod real;
#[cfg(test)]
mod runner;
mod serve;
mod server;
mod simulation;

pub use batcher::{Batch, BatchQueue, BatchSegment, BatchStats};
pub use cluster::{sharded_query_inputs, Cluster, Router};
pub use controller::{ControllerConfig, OnlineController};
pub use gpu::GpuExecutor;
pub use serve::Serve;
pub use server::{BatchingConfig, Server, ServerOptions};
pub use simulation::{RunOptions, Simulation};

/// The serving report under its old name. It exists for the standalone
/// `benchmark/` package (`benchmark/src/real.rs` names it) until that
/// package is retargeted onto [`drs_core::Report`] (ROADMAP item 1(a));
/// nothing in the workspace uses it.
pub use drs_core::Report as ServerReport;
