//! The cluster vocabulary: node identity, per-node hardware, fleet
//! topology, and the front-end routing policies that dispatch an
//! arrival stream across nodes.
//!
//! The paper evaluates at-scale inference on *clusters* of
//! heterogeneous server-class machines ("recommendation models are run
//! across a variety of server class CPUs such as Intel Broadwell and
//! Skylake", Section IV-A), and production deployments hide such a
//! fleet behind a load balancer. These types are the shared language
//! every execution layer speaks: the discrete-event simulator
//! (`drs-sim`), the open-loop serving runtime (`drs-server`), and the
//! tuner (`drs-sched`) all describe hardware with [`ClusterTopology`]
//! and front-end dispatch with [`RoutingPolicy`].

use drs_platform::{CpuPlatform, GpuPlatform};
use std::fmt;

/// Identity of one node in a cluster. Ordering is the tie-break used
/// by every routing policy, so dispatch stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Default node DRAM capacity: 64 GiB, a representative server-class
/// provisioning. Embedding-table sharding (`drs-shard`) packs a
/// model's tables against this budget per node.
pub const DEFAULT_NODE_MEM_BYTES: u64 = 64 * (1 << 30);

/// The hardware of one node: a CPU, optionally an attached
/// accelerator, and the DRAM capacity available for model state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// CPU model of the node.
    pub cpu: CpuPlatform,
    /// Accelerator attached to the node, if any.
    pub gpu: Option<GpuPlatform>,
    /// DRAM available for model state (embedding tables), bytes.
    /// Capacity, not compute, is what forces models to shard across
    /// nodes (Lui et al.), so placement treats this as a hard budget.
    pub mem_bytes: u64,
}

impl NodeSpec {
    /// A CPU-only node with the default memory capacity.
    pub fn cpu_only(cpu: CpuPlatform) -> Self {
        NodeSpec {
            cpu,
            gpu: None,
            mem_bytes: DEFAULT_NODE_MEM_BYTES,
        }
    }

    /// A node with an attached accelerator and the default memory
    /// capacity.
    pub fn with_gpu(cpu: CpuPlatform, gpu: GpuPlatform) -> Self {
        NodeSpec {
            cpu,
            gpu: Some(gpu),
            mem_bytes: DEFAULT_NODE_MEM_BYTES,
        }
    }

    /// Overrides the node's DRAM capacity for model state.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is zero.
    pub fn with_mem_bytes(mut self, mem_bytes: u64) -> Self {
        assert!(mem_bytes > 0, "a node needs memory");
        self.mem_bytes = mem_bytes;
        self
    }
}

/// The hardware of a whole serving fleet: one [`NodeSpec`] per node,
/// in [`NodeId`] order.
///
/// This is the cluster-first replacement for the homogeneous
/// [`ClusterConfig`]: nodes may differ in CPU generation and in
/// whether they carry an accelerator, which is exactly what the
/// size-aware routing policy exploits.
///
/// # Examples
///
/// ```
/// use drs_core::{ClusterTopology, NodeSpec};
/// use drs_platform::{CpuPlatform, GpuPlatform};
///
/// let topo = ClusterTopology::new(vec![
///     NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
///     NodeSpec::cpu_only(CpuPlatform::broadwell()),
/// ]);
/// assert_eq!(topo.len(), 2);
/// assert!(topo.has_gpu());
/// assert_eq!(topo.gpu_nodes(), vec![true, false]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTopology {
    nodes: Vec<NodeSpec>,
}

impl ClusterTopology {
    /// Builds a topology from explicit per-node hardware.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs nodes");
        ClusterTopology { nodes }
    }

    /// A homogeneous fleet of `n` identical nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: usize, cpu: CpuPlatform, gpu: Option<GpuPlatform>) -> Self {
        assert!(n > 0, "a cluster needs nodes");
        ClusterTopology {
            nodes: vec![
                NodeSpec {
                    cpu,
                    gpu,
                    mem_bytes: DEFAULT_NODE_MEM_BYTES
                };
                n
            ],
        }
    }

    /// One node.
    pub fn single(cpu: CpuPlatform, gpu: Option<GpuPlatform>) -> Self {
        ClusterTopology {
            nodes: vec![NodeSpec {
                cpu,
                gpu,
                mem_bytes: DEFAULT_NODE_MEM_BYTES,
            }],
        }
    }

    /// The nodes, in [`NodeId`] order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes.
    #[expect(clippy::len_without_is_empty)] // a topology is never empty
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether any node carries an accelerator.
    pub fn has_gpu(&self) -> bool {
        self.nodes.iter().any(|n| n.gpu.is_some())
    }

    /// Per-node accelerator presence, in [`NodeId`] order — the shape
    /// routing policies consume.
    pub fn gpu_nodes(&self) -> Vec<bool> {
        self.nodes.iter().map(|n| n.gpu.is_some()).collect()
    }
}

impl From<ClusterConfig> for ClusterTopology {
    fn from(cfg: ClusterConfig) -> Self {
        ClusterTopology::uniform(cfg.machines, cfg.cpu, cfg.gpu)
    }
}

/// The hardware under simulation or serving: `machines` identical
/// servers, each with one [`CpuPlatform`] and optionally one attached
/// GPU.
///
/// This is the homogeneous special case kept for the tuner's
/// `Copy`-friendly call sites; heterogeneous fleets and per-node
/// accelerators are described by [`ClusterTopology`]
/// (`ClusterConfig::topology()` converts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of identical machines.
    pub machines: usize,
    /// CPU model of every machine.
    pub cpu: CpuPlatform,
    /// Accelerator attached to every machine (if any).
    pub gpu: Option<GpuPlatform>,
}

impl ClusterConfig {
    /// One Skylake server, no accelerator — the paper's default
    /// single-node experimental platform.
    pub fn single_skylake() -> Self {
        ClusterConfig {
            machines: 1,
            cpu: CpuPlatform::skylake(),
            gpu: None,
        }
    }

    /// One Skylake server with a GTX 1080Ti.
    pub fn skylake_with_gpu() -> Self {
        ClusterConfig {
            machines: 1,
            cpu: CpuPlatform::skylake(),
            gpu: Some(GpuPlatform::gtx_1080ti()),
        }
    }

    /// A homogeneous cluster of `n` machines.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn cluster(n: usize, cpu: CpuPlatform, gpu: Option<GpuPlatform>) -> Self {
        assert!(n > 0, "a cluster needs machines");
        ClusterConfig {
            machines: n,
            cpu,
            gpu,
        }
    }

    /// The per-node view of this homogeneous cluster.
    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology::from(*self)
    }
}

/// How a front-end router spreads the arrival stream across nodes.
///
/// Routing is the knob that dominates cluster tail latency once a
/// service spans nodes (Lui et al., "Understanding Capacity-Driven
/// Scale-Out Neural Recommendation Inference"): an oblivious policy
/// queues work behind slow or busy nodes while capacity idles
/// elsewhere. All policies break ties by the smaller [`NodeId`], so
/// cluster runs stay byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Cycle through nodes in [`NodeId`] order, ignoring load — the
    /// oblivious baseline every load balancer ships with.
    RoundRobin,
    /// Send each query to the node with the fewest outstanding
    /// queries — the simulator's classic least-loaded dispatch, now on
    /// the serving path.
    LeastOutstanding,
    /// Sample `d` distinct nodes uniformly at random and pick the
    /// least-outstanding of them — the "power of two choices" result:
    /// nearly least-outstanding tails at O(d) gauge reads instead of
    /// O(N).
    PowerOfTwoChoices {
        /// Nodes sampled per query (`d = 2` is the classic setting).
        d: usize,
    },
    /// Route queries larger than the serving policy's offload
    /// threshold to GPU-attached nodes (least-outstanding among them),
    /// so the heavy tail lands where the accelerator amortizes it;
    /// small queries balance least-outstanding over the whole fleet.
    /// Falls back to least-outstanding over all nodes when no node
    /// carries a GPU.
    SizeAware,
    /// Sharded-model dispatch: pick the query's *merge home* by
    /// least-outstanding among the nodes that hold embedding shards
    /// (a query must reach every shard holding its tables anyway, so
    /// the only real choice is where partials merge). Without a shard
    /// plan this degrades to plain least-outstanding.
    ShardAware,
}

impl RoutingPolicy {
    /// Short label for tables and figure legends.
    pub fn label(&self) -> String {
        match self {
            RoutingPolicy::RoundRobin => "round-robin".to_string(),
            RoutingPolicy::LeastOutstanding => "least-outstanding".to_string(),
            RoutingPolicy::PowerOfTwoChoices { d } => format!("po{d}c"),
            RoutingPolicy::SizeAware => "size-aware".to_string(),
            RoutingPolicy::ShardAware => "shard-aware".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_from_config_round_trips() {
        let cfg = ClusterConfig::cluster(3, CpuPlatform::skylake(), None);
        let topo = cfg.topology();
        assert_eq!(topo.len(), 3);
        assert!(!topo.has_gpu());
        assert!(topo.nodes().iter().all(|n| n.cpu == CpuPlatform::skylake()));
    }

    #[test]
    fn gpu_presence_is_per_node() {
        let topo = ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
        ]);
        assert!(topo.has_gpu());
        assert_eq!(topo.gpu_nodes(), vec![true, false]);
    }

    #[test]
    fn node_ids_order() {
        assert!(NodeId(0) < NodeId(1));
        assert_eq!(NodeId(7).to_string(), "n7");
    }

    #[test]
    fn routing_labels() {
        assert_eq!(RoutingPolicy::PowerOfTwoChoices { d: 2 }.label(), "po2c");
        assert_eq!(RoutingPolicy::RoundRobin.label(), "round-robin");
        assert_eq!(RoutingPolicy::ShardAware.label(), "shard-aware");
    }

    #[test]
    fn mem_capacity_defaults_and_overrides() {
        let spec = NodeSpec::cpu_only(CpuPlatform::skylake());
        assert_eq!(spec.mem_bytes, DEFAULT_NODE_MEM_BYTES);
        let small = spec.with_mem_bytes(8 << 30);
        assert_eq!(small.mem_bytes, 8 << 30);
        assert_eq!(small.cpu, spec.cpu);
    }

    #[test]
    #[should_panic(expected = "a node needs memory")]
    fn zero_mem_rejected() {
        let _ = NodeSpec::cpu_only(CpuPlatform::skylake()).with_mem_bytes(0);
    }

    #[test]
    #[should_panic(expected = "a cluster needs nodes")]
    fn empty_topology_rejected() {
        let _ = ClusterTopology::new(vec![]);
    }
}
