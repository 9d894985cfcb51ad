//! Embedding-table sharding: placement and exchange planning for
//! models larger than one node's memory.
//!
//! Production recommendation models are dominated by their embedding
//! tables — tens of GBs at paper scale (Section II-A), up to
//! memory-capacity-bound at Facebook scale. "Understanding
//! Capacity-Driven Scale-Out Neural Recommendation Inference" (Lui et
//! al.) shows it is *capacity*, not compute, that forces these models
//! to span nodes, and "Accelerating Recommender Systems via Hardware
//! scale-in" (Krishna & Krishna) quantifies the cross-node gather step
//! that scale-out buys you as the new bottleneck. This crate is the
//! planning layer between those two facts:
//!
//! * [`ShardPlan::place`] partitions a model's tables **table-wise**
//!   across a [`drs_core::ClusterTopology`]'s nodes under each node's
//!   `mem_bytes` budget, with two [`PlacementPolicy`] choices —
//!   greedy bin-packing by table size, and a lookup-frequency-balanced
//!   packing that equalizes per-node gather traffic using the tables'
//!   access weights from `drs-models`;
//! * the resulting [`ShardPlan`] answers the questions every
//!   execution layer asks: which nodes hold shards, what fraction of
//!   the gather traffic lives where, and how many pooled bytes a
//!   query must exchange to merge at a given home node
//!   ([`ShardPlan::exchange_payload_bytes_per_item`], priced by
//!   [`drs_platform::InterconnectModel`]).
//!
//! The numeric lookup path (`drs_nn::ShardedEmbeddingSet`) and the
//! serving cluster (`drs_server::Cluster::new_sharded`, in virtual
//! time and on real engines) both consume a plan built here, so
//! placement decisions are made once and mean the same thing
//! everywhere.
//!
//! # Examples
//!
//! ```
//! use drs_core::{ClusterTopology, NodeSpec};
//! use drs_models::zoo;
//! use drs_platform::CpuPlatform;
//! use drs_shard::{PlacementPolicy, ShardPlan};
//!
//! // DLRM-RMC2's tables are ~25.6 GB at paper scale: they cannot fit
//! // a 16 GiB node, but a 2-node fleet holds them.
//! let node = NodeSpec::cpu_only(CpuPlatform::skylake()).with_mem_bytes(16 << 30);
//! let one = ClusterTopology::new(vec![node]);
//! assert!(ShardPlan::place(&zoo::dlrm_rmc2(), &one, PlacementPolicy::SizeGreedy).is_err());
//!
//! let two = ClusterTopology::new(vec![node; 2]);
//! let plan = ShardPlan::place(&zoo::dlrm_rmc2(), &two, PlacementPolicy::LookupBalanced).unwrap();
//! assert_eq!(plan.shard_nodes().len(), 2);
//! let total: u64 = plan.shard_nodes().iter().map(|&n| plan.bytes_on(n)).sum();
//! assert_eq!(total, zoo::dlrm_rmc2().embedding_bytes());
//! ```

mod plan;

pub use plan::{PlacementError, PlacementPolicy, ShardGeometry, ShardPlan};
