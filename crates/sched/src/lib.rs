//! DeepRecSched: hill-climbing scheduler for latency-bounded
//! recommendation inference throughput (Section IV of the paper).
//!
//! Given a model, a cluster, a query workload, and a p95 SLA target,
//! DeepRecSched tunes two knobs:
//!
//! 1. **Per-request batch size** — starting from a unit batch, climb
//!    while the maximum QPS sustainable under the SLA improves
//!    ([`DeepRecSched::tune_cpu`]);
//! 2. **GPU query-size threshold** — starting from a unit threshold
//!    (all queries on the accelerator), climb while QPS improves
//!    ([`DeepRecSched::tune_gpu`]).
//!
//! "Maximum QPS under the SLA" is itself a measurement:
//! [`max_qps_under_sla`] binary-searches the offered Poisson load,
//! running a deterministic simulation window per probe. Both the
//! search and the climbs are generic over the execution layer: any
//! [`drs_core::ServingStack`] — the simulator, the open-loop server,
//! or a router-fronted cluster — can sit under the tuner
//! ([`max_qps_under_sla_stack`], [`DeepRecSched::tune_on`]).
//!
//! The production comparison point is
//! [`drs_core::SchedulerPolicy::static_baseline`], the fixed batch
//! configuration of Section V.
//!
//! # Examples
//!
//! ```no_run
//! use drs_core::ClusterConfig;
//! use drs_models::zoo;
//! use drs_sched::{DeepRecSched, SearchOptions, SlaTier};
//!
//! let cfg = zoo::dlrm_rmc1();
//! let sched = DeepRecSched::new(SearchOptions::quick());
//! let tuned = sched.tune_cpu(&cfg, ClusterConfig::single_skylake(),
//!                            SlaTier::Medium.sla_ms(&cfg));
//! println!("best batch {} at {:.0} QPS", tuned.policy.max_batch, tuned.qps);
//! ```

#![warn(missing_docs)]

mod climber;
mod search;
mod sla;

pub use climber::{hill_climb_1d, hill_climb_1d_rel, DeepRecSched, TunedConfig};
pub use search::{max_qps_under_sla, max_qps_under_sla_stack, QpsSearchResult, SearchOptions};
pub use sla::SlaTier;
