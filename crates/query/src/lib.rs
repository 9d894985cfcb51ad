//! Real-time query serving for recommendation inference (DeepRecInfra's
//! load generator).
//!
//! Section III-C of the paper identifies two dimensions that at-scale
//! recommendation studies must model and that micro-benchmarks miss:
//!
//! 1. **Query arrival** — requests to production recommendation services
//!    arrive following a Poisson process (exponential inter-arrival
//!    gaps); Figure 13's production study additionally sees a diurnal
//!    load cycle.
//! 2. **Query working-set size** — the number of candidate items ranked
//!    per query. Production sizes follow a *heavier-tailed* distribution
//!    than the canonical log-normal assumed by prior web-service studies
//!    (Figure 5): most queries are small, but the top quartile of
//!    queries carries roughly half the total work (Figure 6), and sizes
//!    are capped around 1000 items.
//!
//! This crate provides seeded, reproducible implementations of both
//! dimensions ([`ArrivalProcess`], [`SizeDistribution`]) plus the
//! [`QueryGenerator`] iterator that drives both the real engine and the
//! discrete-event simulator. All samplers (normal, log-normal,
//! exponential, Pareto) are implemented from scratch in [`sampler`].
//!
//! # Examples
//!
//! ```
//! use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
//!
//! let gen = QueryGenerator::new(
//!     ArrivalProcess::poisson(500.0),
//!     SizeDistribution::production(),
//!     42,
//! );
//! let queries: Vec<_> = gen.take(100).collect();
//! assert_eq!(queries.len(), 100);
//! assert!(queries.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
//! assert!(queries.iter().all(|q| (1..=1000).contains(&q.size)));
//! ```

mod arrival;
mod generator;
mod mixed;
pub mod sampler;
mod size;
mod split;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use generator::{Query, QueryGenerator, TenantId};
pub use mixed::MixedStream;
pub use size::{tail_work_share, SizeDistribution};
pub use split::split_query;
pub use trace::{ParseTraceError, Trace};

/// The maximum query working-set size observed in production (Figure 5);
/// all size distributions in this crate truncate to this value.
pub const MAX_QUERY_SIZE: u32 = 1000;
