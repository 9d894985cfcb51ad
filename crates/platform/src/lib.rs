//! Hardware platform models: server CPUs and the GPU accelerator.
//!
//! The paper evaluates on two generations of dual-socket Intel servers
//! (Broadwell: 28 cores / 2.4 GHz / AVX-2 / inclusive LLC / 120 W;
//! Skylake: 40 cores / 2.0 GHz / AVX-512 / exclusive LLC / 125 W) and
//! models a server-class NVIDIA GTX 1080Ti "with an accelerator
//! performance model constructed with the performance profiles of each
//! recommendation model across the range of query sizes" (Section V).
//!
//! We take the same approach: [`CpuPlatform`] and [`GpuPlatform`] are
//! parameter sets, and [`ModelCost`] turns a model's analytic
//! characterization (`drs-models::characterize`) into service times:
//!
//! * **CPU requests** pay a fixed serving overhead, a compute term whose
//!   efficiency saturates with batch size (wider SIMD ⇒ larger batch
//!   needed — the AVX-512 vs AVX-2 effect of Figure 12c), and a memory
//!   term that contends for DRAM bandwidth across active cores, with
//!   inclusive caches degrading faster than exclusive ones (the
//!   Broadwell vs Skylake effect).
//! * **GPU queries** pay host-side data preparation per item plus PCIe
//!   transfer (the "60–80 % of end-to-end time is data loading"
//!   observation behind Figure 4), kernel-launch overheads that scale
//!   with the model's operator count (many embedding tables or GRU
//!   steps ⇒ many launches), and device compute/memory whose efficiency
//!   depends on the model class.
//! * **Sharded exchanges** ([`InterconnectModel`]) price the cross-node
//!   gather step of table-wise embedding sharding: a per-hop fabric
//!   round-trip, per-peer merge work, and the pooled payload streaming
//!   through the merging node's NIC, composed with
//!   [`ModelCost::shard_gather_request_us`] /
//!   [`ModelCost::dense_tail_us`] so sharded and unsharded service
//!   models recompose exactly.
//!
//! The calibration targets are the *shapes* of Figures 4 and 6 — which
//! models cross over early vs late and the speedup band at batch 1024 —
//! not the authors' absolute milliseconds. See the tests in
//! the cost module and DESIGN.md §6.1.

mod cost;
mod cpu;
mod gpu;
mod net;

pub use cost::{GpuClass, ModelCost, SW_COMPUTE_FACTOR, SW_MEMORY_FACTOR};
pub use cpu::{CacheKind, CpuPlatform};
pub use gpu::GpuPlatform;
pub use net::InterconnectModel;
